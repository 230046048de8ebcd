import json
import sys
from collections import Counter

import pytest

from claimlab import corpus as corpus_module
from claimlab.claims import Claim, Label
from claimlab.corpus import Corpus, Document
from claimlab.kb import EntityRecord, KnowledgeBase
from claimlab.worldgen import WorldConfig, build_world, write_world


def make_corpus(pages: dict[str, list[str]]) -> Corpus:
    corpus = Corpus()
    for page_id, texts in pages.items():
        corpus.add(Document(page_id=page_id, sentences=tuple(enumerate(texts))))
    return corpus


def make_claim(claim_id, label, text, evidence=()):
    """evidence: iterable of groups, each group an iterable of (page, line)."""
    raw = tuple(
        tuple((None, None, page, line) for page, line in group) for group in evidence
    )
    if label is Label.NOT_ENOUGH_INFO and not raw:
        raw = (((None, None, None, None),),)
    return Claim(claim_id=claim_id, label=label, text=text, evidence=raw)


def count_tokenized(monkeypatch) -> Counter:
    """Wrap tokenize in every claimlab module that binds it; the returned
    Counter counts each text tokenized from then on."""
    texts = Counter()
    original = corpus_module.tokenize

    def counting(text):
        texts[text] += 1
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("claimlab") and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counting)
    return texts


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.fixture(scope="session")
def fixture_world(tmp_path_factory):
    """The default generated world, written once per test session."""
    out = tmp_path_factory.mktemp("accept_world")
    write_world(build_world(WorldConfig()), out)
    return out


@pytest.fixture
def tv_kb() -> KnowledgeBase:
    """Small KB mirroring the sitcom/actor/broadcaster world."""
    records = [
        EntityRecord("P01", "Johnny Galecki", ("Johnny Galecki",), ("ACTOR",), ("S01",)),
        EntityRecord("P02", "Stan Beeman", ("Stan Beeman",), ("ACTOR",), ("S03",)),
        EntityRecord(
            "S01",
            "The Big Bang Theory",
            ("The Big Bang Theory", "Big Bang"),
            ("SITCOM",),
            ("P01", "N01"),
        ),
        EntityRecord("S02", "Friends", ("Friends",), ("SITCOM",), ("N01",)),
        EntityRecord("S03", "The Americans", ("The Americans",), ("DRAMA",), ("P02",)),
        EntityRecord("N01", "CBS", ("CBS",), ("NETWORK",), ("S01", "S02")),
        EntityRecord("N02", "BBC", ("BBC",), ("NETWORK",), ()),
    ]
    return KnowledgeBase(records)
