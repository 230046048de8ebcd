import itertools
import json

import pytest

from claimlab import claims as claims_module
from claimlab.claims import Claim, Label, load_claims, save_claims
from claimlab.corpus import SentenceId
from claimlab.util import read_jsonl, write_jsonl

from conftest import make_claim


def test_repeated_claim_id_rejected(tmp_path):
    path = tmp_path / "claims.jsonl"
    save_claims(path, [make_claim(7, Label.SUPPORTED, "One."), make_claim(7, Label.REFUTED, "Two.")])
    with pytest.raises(ValueError, match="claims.jsonl:2: repeated key 7, first on line 1"):
        load_claims(path)


def test_non_object_row_names_file_and_line(tmp_path):
    path = tmp_path / "claims.jsonl"
    save_claims(path, [make_claim(1, Label.SUPPORTED, "One.")])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("[1, 2]\n")
    with pytest.raises(ValueError, match="claims.jsonl:2: row is not a JSON object"):
        load_claims(path)


def test_evidence_groups_are_parsed_once_at_construction(monkeypatch):
    """A claim parses its evidence groups when it is built; the accessors
    read them and build no SentenceId, and the parsed groups take no part
    in equality, hashing or repr."""
    claim = make_claim(3, Label.REFUTED, "Three.", [[("B", 2), ("A", 0)], [("A", 1)]])
    incomplete = Claim(3, Label.REFUTED, "Three.", (((None, None, "A", 1), (None, None, None, None)),))
    assert claim.evidence_groups == ((SentenceId("B", 2), SentenceId("A", 0)), (SentenceId("A", 1),))
    assert incomplete.evidence_groups == ()

    built = []
    monkeypatch.setattr(claims_module, "SentenceId", lambda *parts: built.append(parts))
    assert claim.gold_sentences() == {SentenceId("B", 2), SentenceId("A", 0), SentenceId("A", 1)}
    assert claim.gold_pages() == ["B", "A"]
    assert claim.is_verifiable() and not incomplete.is_verifiable()
    assert built == []

    twin = Claim(3, Label.REFUTED, "Three.", claim.evidence)
    object.__setattr__(twin, "evidence_groups", ())
    assert twin == claim and hash(twin) == hash(claim)
    assert "evidence_groups" not in repr(claim)


def test_write_jsonl_bytes_equal_json_dumps(tmp_path):
    """write_jsonl's one shared encoder writes what json.dumps with the same
    arguments writes for each row."""
    rows = [
        {"claim": "Zoë Ångström née Łukasz — 東京 ✓", "b": 1, "a": [0.1, -0.0, 1e300, 5e-324, [1.5, ["ß"]]]},
        {"nested": {"z": [[], [{}]], "y": None, "x": True}, "float": 2.0 / 3.0, "int": -7},
        {},
    ]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    expected = "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")
    numbered = itertools.count()
    assert list(read_jsonl(path, lambda row: (next(numbered), row)).values()) == rows
