import json
import math
import re
import sys
from collections import Counter

import pytest

from claimlab import corpus as corpus_module
from claimlab.claims import Claim, Label
from claimlab.corpus import Corpus, Document, InvertedIndex, Query, display_title
from claimlab.features import FeatureExtractor
from claimlab.kb import EntityRecord, KnowledgeBase
from claimlab.worldgen import WorldConfig, build_world, write_world


def make_kb(records: list[EntityRecord]) -> KnowledgeBase:
    return KnowledgeBase({record.entity_id: record for record in records})


def make_corpus(pages: dict[str, list[str]]) -> Corpus:
    return Corpus({page_id: Document(page_id, tuple(enumerate(texts))) for page_id, texts in pages.items()})


def reference_tokens(text: str) -> list[str]:
    """tokenize's definition."""
    return re.findall(r"[^\W_]+", text.lower())


def reference_index(corpus: Corpus, granularity: str) -> InvertedIndex:
    """Counter-based reference for corpus.build_index, tokenizing each text
    again by reference_tokens.

    Units in identifier order: a page's stream is its sentences' tokens in
    line order; at sentence granularity each sentence with text is a unit
    whose stream is the display title's tokens, then its own. A unit's
    counts are a Counter of its stream, postings are added by setdefault,
    and a norm adds (count * idf) ** 2 with += over the unit's tokens in
    first-occurrence order.
    """
    postings: dict[str, dict] = {}
    counts = []
    for page_id in sorted(corpus.documents):
        doc = corpus.documents[page_id]
        streams = [reference_tokens(text) for _, text in doc.sentences]
        if granularity == "document":
            units = [(page_id, Counter(token for stream in streams for token in stream))]
        else:
            title = reference_tokens(display_title(page_id))
            units = [
                (doc.sids[position], Counter(title + streams[position]))
                for position, (_, text) in enumerate(doc.sentences)
                if text
            ]
        for ident, tf in units:
            counts.append((ident, tf))
            for token, count in tf.items():
                postings.setdefault(token, {})[ident] = count
    doc_count = len(counts)

    def idf(df: int) -> float:
        return math.log((doc_count + 1) / (df + 1)) + 1.0

    idfs = {token: idf(len(posted)) for token, posted in postings.items()}
    norms = {}
    for ident, tf in counts:
        norm_sq = 0.0
        for token, count in tf.items():
            weight = count * idfs[token]
            norm_sq += weight * weight
        norms[ident] = math.sqrt(norm_sq)
    return InvertedIndex(granularity, doc_count, postings, idfs, idf(0), norms)


def tfidf_scores(index: InvertedIndex, query: Query) -> dict:
    """Brute-force reference for corpus.IndexScorer: the TF-IDF cosine of
    every unit sharing a token with the query, unsorted.

    tf is the raw count and idf = ln((N+1)/(df+1)) + 1. Only units
    sharing at least one token with the query (and with a non-zero
    norm) appear, so an out-of-vocabulary query yields an empty map.
    """
    dots: dict = {}
    for _, count, idf, postings in query.terms:
        weight = count * idf
        for ident, tf in postings.items():
            dots[ident] = dots.get(ident, 0.0) + weight * tf * idf
    if not dots or query.norm == 0.0:
        return {}
    scores = {}
    for ident, dot in dots.items():
        norm = index.norms.get(ident, 0.0)
        if norm == 0.0:
            continue
        scores[ident] = dot / (query.norm * norm)
    return scores


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


def record_computed(monkeypatch) -> list:
    """Wrap FeatureExtractor.finish; the returned list gets the (claim text,
    SentenceId, vector) of each selection vector computed from then on: a
    finish of a sentence its claim's memo lacks. A memo hit computes none."""
    computed = []
    original = FeatureExtractor.finish

    def recording(self, claim, candidate):
        sid = candidate[0][0]
        lacked = sid not in claim.vectors
        vector = original(self, claim, candidate)
        if lacked:
            computed.append((claim.text, sid, vector))
        return vector

    monkeypatch.setattr(FeatureExtractor, "finish", recording)
    return computed


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
    return make_kb(records)
