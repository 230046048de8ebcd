"""The extractor's last claim and its vector memo: a claim served alone
(retrieve, select, verdict) is prepared once and each of its sentences
featurized once, with the outputs of the cold path, whatever order the
claims come in.

The claims are the dev and adversarial claims of the small experiment
world, shuffled. The cold path runs each stage on a fresh extractor over
the same index, so nothing carries over from an earlier call.
"""

import random
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
from claimlab.selection import RelevanceModel, featurize_candidates, select_sentences, top_k
from claimlab.worldgen import build_world, write_world

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
    """A claim's memo holds indexed sentences only, as only the index pins
    what a SentenceId means: a document built outside the corpus, at a
    line the index does not hold, is featurized on every call, so other
    text under the same SentenceId gets its own vector."""
    index = served[1]
    extractor = FeatureExtractor(index)
    claim = extractor.prepare_claim("Alice Fenwick starred in Halcyon.")
    before = Document("Halcyon", ((-1, "Halcyon is a hit sitcom."),))
    after = Document("Halcyon", ((-1, "It airs nightly on GBC."),))
    first = extractor.pair_features(claim, before, [0])
    assert extractor.pair_features(claim, after, [0]) == FeatureExtractor(index).pair_features(claim, after, [0])
    assert extractor.pair_features(claim, after, [0]) != first


def test_verdict_leaves_the_slot_vectors_whole(served):
    """featurize_candidates returns the vectors the claim's memo stores; a
    verdict on the top k of them copies them, so each keeps its length and its
    sentence_position, and a second verdict reads them unchanged."""
    corpus, index, _, claims, pages, selector, _ = served
    extractor = FeatureExtractor(index)
    positioned = 0
    for claim in claims[:20]:
        featurized = featurize_candidates(extractor, claim, pages[claim.claim_id], corpus)
        ranked = top_k(selector, featurized, K)
        first = verdict(served, extractor, claim, ranked)
        assert featurized == featurize_candidates(FeatureExtractor(index), claim, pages[claim.claim_id], corpus)
        assert verdict(served, extractor, claim, ranked) == first
        selected = {sid for sid, _ in ranked}
        positioned += sum(1 for sid, vector in featurized if sid in selected and vector[POSITION] > 0.0)
    assert positioned > 0


def test_served_claim_is_prepared_and_featurized_once(served, monkeypatch):
    """One served claim parses its text once on the sentence index, and its
    verdict featurizes none of the selected sentences again."""
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

    featurized = []
    original = FeatureExtractor.page_features

    def counting(self, claim, pages):
        pages = list(pages)
        featurized.extend(document.sids[position] for document, positions in pages for position in positions)
        return original(self, claim, pages)

    monkeypatch.setattr(FeatureExtractor, "page_features", counting)
    for claim in claims:
        del featurized[:]
        ranked, _ = serve(extractor, claim)
        documents = [corpus.documents[page_id] for page_id in dict.fromkeys(retriever.retrieve(claim.text))]
        candidates = [doc.sids[position] for doc in documents for position in doc.candidate_positions]
        assert featurized == candidates
        assert {sid for sid, _ in ranked} <= set(candidates)
