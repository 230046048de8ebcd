import pytest

from claimlab.claims import Label, load_claims, save_claims

from conftest import make_claim


def test_repeated_claim_id_rejected(tmp_path):
    path = tmp_path / "claims.jsonl"
    save_claims(path, [make_claim(7, Label.SUPPORTED, "One."), make_claim(7, Label.REFUTED, "Two.")])
    with pytest.raises(ValueError, match="repeated claim id 7"):
        load_claims(path)


def test_non_object_row_names_file_and_line(tmp_path):
    path = tmp_path / "claims.jsonl"
    save_claims(path, [make_claim(1, Label.SUPPORTED, "One.")])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("[1, 2]\n")
    with pytest.raises(ValueError, match="claims.jsonl:2: row is not a JSON object"):
        load_claims(path)
