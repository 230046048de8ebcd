"""The extractor's last claim and its vector memo: a claim served alone
(retrieve, select, verdict) is prepared once, each candidate sentence's
vector is computed at most once and only while ranking, and the outputs are those
of the cold path, whatever order the claims come in.

The claims are the dev and adversarial claims of the small experiment
world, shuffled. The cold path runs each stage on a fresh extractor over
the same index, so nothing carries over from an earlier call.
"""

import random
import re
import sys

import pytest

from claimlab import corpus as corpus_module
from claimlab.claim_gen import generate_augmentation_set
from claimlab.claims import load_claims
from claimlab.corpus import Document, build_index, ingest_corpus
from claimlab.features import PAIR_FEATURE_NAMES, SELECTION_FEATURE_NAMES, FeatureExtractor
from claimlab.kb import KnowledgeBase
from claimlab.nli import CLASS_ORDER, NliModel, verdict_for_claim
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever
from claimlab.selection import RelevanceModel, select_sentences, top_k
from claimlab.worldgen import build_world, write_world

from conftest import record_computed
from test_experiment import SMALL_WORLD

K = 5
POSITION = SELECTION_FEATURE_NAMES.index("sentence_position")


class Recording(NliModel):
    """An NliModel that records every feature vector it classifies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def probabilities(self, features):
        self.seen.append([x.hex() for x in features])
        return super().probabilities(features)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    out = tmp_path_factory.mktemp("slot_world")
    write_world(build_world(SMALL_WORLD), out)
    corpus = ingest_corpus(out / "corpus")
    index = build_index(corpus, "sentence")
    retriever = DocumentRetriever(corpus, build_index(corpus, "document"), DocRetrievalConfig(k=8))
    dev = load_claims(out / "dev.jsonl")
    claims = dev + generate_augmentation_set(dev, KnowledgeBase.load(out / "kb.jsonl"), seed=3)
    random.Random(11).shuffle(claims)
    rng = random.Random(2)
    selector = RelevanceModel([rng.uniform(-1, 1) for _ in SELECTION_FEATURE_NAMES], 0.1)
    weights = [[rng.uniform(-1, 1) for _ in PAIR_FEATURE_NAMES] for _ in CLASS_ORDER]
    pages = {claim.claim_id: retriever.retrieve(claim.text) for claim in claims}
    return corpus, index, retriever, claims, pages, selector, weights


def hexed(ranked):
    return [(sid, score.hex()) for sid, score in ranked]


def select(served, extractor, claim):
    corpus, _, _, _, pages, selector, _ = served
    return select_sentences(selector, extractor, claim, pages[claim.claim_id], corpus, K)


def verdict(served, extractor, claim, ranked):
    """The verdict and the hex of every pair vector it classified."""
    corpus, weights = served[0], served[6]
    model = Recording([list(ws) for ws in weights], [0.0, 0.1, -0.1])
    return verdict_for_claim(model, extractor, corpus, claim, ranked), model.seen


def cold(served, claim):
    """select then verdict, each on a fresh extractor."""
    index = served[1]
    ranked = select(served, FeatureExtractor(index), claim)
    return hexed(ranked), verdict(served, FeatureExtractor(index), claim, ranked)


def test_served_claims_equal_the_cold_path(served):
    """Each claim served twice in a row, as a stream that repeats a claim
    serves it: the second pass finds its text in the last claim."""
    claims = served[3]
    extractor = FeatureExtractor(served[1])
    assert len(claims) >= 15
    for claim in claims:
        for _ in range(2):
            ranked = select(served, extractor, claim)
            assert (hexed(ranked), verdict(served, extractor, claim, ranked)) == cold(served, claim)


def test_interleaved_claims_equal_the_cold_path(served):
    """A, B, A: selecting B between A's selection and A's verdict evicts A,
    and A's verdict and a second pass over A still give the cold outputs."""
    claims = served[3]
    extractor = FeatureExtractor(served[1])
    for a, b in zip(claims, claims[1:]):
        ranked_a = select(served, extractor, a)
        ranked_b = select(served, extractor, b)
        outputs_a = (hexed(ranked_a), verdict(served, extractor, a, ranked_a))
        outputs_b = (hexed(ranked_b), verdict(served, extractor, b, ranked_b))
        ranked_again = select(served, extractor, a)
        again = (hexed(ranked_again), verdict(served, extractor, a, ranked_again))
        assert outputs_a == again == cold(served, a)
        assert outputs_b == cold(served, b)


def count_parses(monkeypatch) -> list:
    """Wrap parse_query in every claimlab module that binds it; the returned
    list gets the index of each call."""
    calls = []
    original = corpus_module.parse_query

    def counting(index, text):
        calls.append(index)
        return original(index, text)

    for name, module in list(sys.modules.items()):
        if name.startswith("claimlab") and getattr(module, "parse_query", None) is original:
            monkeypatch.setattr(module, "parse_query", counting)
    return calls


def test_preparing_another_claim_evicts_the_slot(served, monkeypatch):
    claims = served[3]
    a = claims[0]
    b = next(claim for claim in claims if claim.text != a.text)
    extractor = FeatureExtractor(served[1])
    parses = count_parses(monkeypatch)
    prepared_a = extractor.prepare_claim(a.text)
    assert extractor.prepare_claim(a.text) is prepared_a
    assert len(parses) == 1
    assert extractor.prepare_claim(b.text).text == b.text
    assert len(parses) == 2
    again = extractor.prepare_claim(a.text)
    assert len(parses) == 3
    assert again is not prepared_a and again == prepared_a


def test_another_document_under_a_stored_page_id_is_featurized_afresh(served):
    """The extractor keeps a page's store for the very document it was
    built from: another document under the page id gets its own. One built
    outside the corpus, at a line the index does not hold, is rejected on
    every call, naming the sentence, and nothing of it enters the memo;
    an equal copy of the page's document gets the page's vectors, computed
    for a claim of the same text whose memo is empty."""
    corpus, index = served[0], served[1]
    page = sorted(corpus.documents)[0]
    document = corpus.documents[page]
    positions = list(document.candidate_positions)
    extractor = FeatureExtractor(index)
    claim = extractor.prepare_claim("Alice Fenwick starred in Halcyon.")
    first = extractor.selection_vectors(claim, [(document, positions)])
    stored = dict(claim.vectors)
    for text in ("Halcyon is a hit sitcom.", "It airs nightly on GBC."):
        outside = Document(page, ((-1, text),))
        for fresh in (extractor, FeatureExtractor(index)):
            with pytest.raises(ValueError, match=re.escape(f"sentence {outside.sids[0]} is no unit")):
                fresh.pair_features(claim, outside, [0])
    assert claim.vectors == stored
    copy = Document(page, document.sentences)
    assert copy is not document
    for held in (copy, document):
        unread = FeatureExtractor(index).prepare_claim(claim.text)
        assert extractor.selection_vectors(unread, [(held, positions)]) == first
        assert list(unread.vectors) == list(stored)


def full_vectors(index, corpus, claim, pages):
    """The selection vector of every candidate of the pages, each page once,
    on a fresh extractor: the vectors a ranking without pruning scores."""
    documents = [corpus.documents[page_id] for page_id in dict.fromkeys(pages)]
    prepared = FeatureExtractor(index).prepare_claim(claim.text)
    return FeatureExtractor(index).selection_vectors(prepared, [(doc, doc.candidate_positions) for doc in documents])


def test_verdict_leaves_the_slot_vectors_whole(served):
    """The ranking is top_k over every candidate's vector, and the claim's
    memo holds each ranked sentence's vector with the fresh extractor's bits; a
    verdict on the ranking copies them, so each keeps its length and its
    sentence_position, and a second verdict reads them unchanged."""
    corpus, index, _, claims, pages, selector, _ = served
    extractor = FeatureExtractor(index)
    positioned = 0
    for claim in claims[:20]:
        full = full_vectors(index, corpus, claim, pages[claim.claim_id])
        ranked = select(served, extractor, claim)
        assert hexed(ranked) == hexed(top_k(selector, full, K))
        memo = extractor.prepare_claim(claim.text).vectors
        stored = dict(memo)
        assert {sid for sid, _ in ranked} <= set(stored)
        first = verdict(served, extractor, claim, ranked)
        assert memo == stored == {sid: vector for sid, vector in full if sid in stored}
        assert all(memo[sid] is vector for sid, vector in stored.items())
        assert verdict(served, extractor, claim, ranked) == first
        positioned += sum(1 for sid, _ in ranked if memo[sid][POSITION] > 0.0)
    assert positioned > 0


def test_served_claim_is_prepared_and_featurized_once(served, monkeypatch):
    """One served claim parses its text once on the sentence index. Its
    ranking computes each candidate's vector at most once, fewer than there
    are over the stream, and every ranked one's; its verdict runs no held
    pass and computes no vector, and a second serving of the claim
    computes none again."""
    corpus, index, retriever, claims, _, selector, weights = served
    model = NliModel([list(ws) for ws in weights], [0.0, 0.1, -0.1])

    def serve(extractor, claim):
        ranked = select_sentences(selector, extractor, claim, retriever.retrieve(claim.text), corpus, K)
        return ranked, verdict_for_claim(model, extractor, corpus, claim, ranked)

    extractor = FeatureExtractor(index)
    parses = count_parses(monkeypatch)
    for claim in claims:
        del parses[:]
        serve(extractor, claim)
        assert [p for p in parses if p is index] == [index]
    monkeypatch.undo()

    held = []
    original_held = FeatureExtractor.held

    def counting_held(self, claim, pages):
        pages = list(pages)
        held.extend(document.sids[position] for document, positions in pages for position in positions)
        return original_held(self, claim, pages)

    computed = record_computed(monkeypatch)
    monkeypatch.setattr(FeatureExtractor, "held", counting_held)
    total_finished = total_candidates = 0
    for claim in claims:
        extractor = FeatureExtractor(index)
        del computed[:]
        ranked = select_sentences(selector, extractor, claim, retriever.retrieve(claim.text), corpus, K)
        documents = [corpus.documents[page_id] for page_id in dict.fromkeys(retriever.retrieve(claim.text))]
        candidates = [doc.sids[position] for doc in documents for position in doc.candidate_positions]
        finished = [sid for _, sid, _ in computed]
        assert len(set(finished)) == len(finished)
        assert {sid for sid, _ in ranked} <= set(finished) <= set(candidates)
        assert list(extractor.prepare_claim(claim.text).vectors) == finished
        total_finished += len(finished)
        total_candidates += len(candidates)
        del computed[:], held[:]
        verdict_for_claim(model, extractor, corpus, claim, ranked)
        assert computed == held == []
        assert serve(extractor, claim)[0] == ranked
        assert computed == []
    assert 0 < total_finished < total_candidates
