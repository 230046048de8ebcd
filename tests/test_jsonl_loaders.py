"""Every JSON-lines input and artifact is read by util.read_jsonl, keyed
by its id: each loader rejects a repeated key, naming the file, the line
and the line of the key's first row, instead of keeping one of the rows."""

import re

import pytest

from claimlab.claims import load_claims
from claimlab.corpus import ingest_corpus
from claimlab.experiment import load_docs, load_selections, load_verdicts
from claimlab.kb import KnowledgeBase

from conftest import write_jsonl

CLAIM = {"id": 7, "label": "SUPPORTS", "claim": "One.", "evidence": [[[None, None, "A", 0]]]}
VERDICT = {"claim_id": 7, "predicted_label": "SUPPORTS", "predicted_evidence": [["A", 0]]}

# name -> (loader, first row, a second row with the same key, the key's repr)
LOADERS = {
    "ingest_corpus": (ingest_corpus, {"id": "A", "lines": "0\tOne."}, {"id": "A", "lines": "0\tTwo."}, "'A'"),
    "load_claims": (load_claims, CLAIM, {**CLAIM, "label": "REFUTES", "claim": "Two."}, "7"),
    "KnowledgeBase.load": (KnowledgeBase.load, {"id": "E1", "name": "One"}, {"id": "E1", "name": "Two"}, "'E1'"),
    "load_docs": (load_docs, {"claim_id": 7, "pages": ["A"]}, {"claim_id": 7, "pages": ["B"]}, "7"),
    "load_selections": (
        load_selections,
        {"claim_id": 7, "evidence": [["A", 0, 0.5]]},
        {"claim_id": 7, "evidence": [["B", 1, 0.9]]},
        "7",
    ),
    "load_verdicts": (load_verdicts, VERDICT, {**VERDICT, "predicted_label": "REFUTES"}, "7"),
}


@pytest.mark.parametrize("name", list(LOADERS))
def test_repeated_key_names_file_and_line(tmp_path, name):
    load, first, second, key = LOADERS[name]
    path = write_jsonl(tmp_path / "rows.jsonl", [first, second])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: repeated key {key}, first on line 1$"):
        load(path)


def test_page_repeated_across_dump_files(tmp_path):
    first = write_jsonl(tmp_path / "a.jsonl", [{"id": "A", "lines": "0\tOne."}])
    second = write_jsonl(tmp_path / "b.jsonl", [{"id": "B", "lines": "0\tTwo."}, {"id": "A", "lines": "0\tThree."}])
    message = f"^{re.escape(str(second))}:2: repeated key 'A', first in {re.escape(str(first))}$"
    with pytest.raises(ValueError, match=message):
        ingest_corpus(tmp_path)
