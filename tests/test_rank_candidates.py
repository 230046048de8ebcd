"""rank_candidates, the best-first ranking, against the brute force: per
model, top_k over every candidate's selection vector, computed on an
extractor and claim of its own, in order and in score bits, and every
vector the walk computes with the brute force's bits.

The models are every trained regime's selector on the default world and
two other generated worlds, and random weights of both signs, some large
enough to saturate the sigmoid. The candidate pages may repeat or name
no page. A page holding a sentence the index does not (added to the page
after indexing) is rejected, naming the sentence, before any vector is
finished. Each logit the walk bounds by has the bits of the batch
kernel's z for the candidate's ceiling, and its sigmoid those of the
ceiling's score, though no ceiling is built for it."""

import math
import re
import sys
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlab import selection as selection_module
from claimlab.claim_gen import generate_augmentation_set
from claimlab.claims import Label, load_claims
from claimlab.corpus import Corpus, Document, build_index, ingest_corpus
from claimlab.experiment import _trained_regimes
from claimlab.features import SELECTION_FEATURE_NAMES, FeatureExtractor, ceiling, logistic_bounds
from claimlab.kb import KnowledgeBase
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever, with_gold_pages
from claimlab.selection import (
    _SCORE_SLACK,
    REGIMES,
    RelevanceModel,
    TrainingConfig,
    rank_candidates,
    top_k,
    train_selectors,
)
from claimlab.util import logistic_scores, sigmoid
from claimlab.worldgen import WorldConfig, build_world, write_world

from conftest import make_claim

WIDTH = len(SELECTION_FEATURE_NAMES)
BIGRAMS = SELECTION_FEATURE_NAMES.index("bigram_overlap")
SPANS_IN_BODY = SELECTION_FEATURE_NAMES.index("entity_spans_in_body")
KS = (1, 5, 10_000)
# Both signs on the counted features: a bound must take bigram_overlap's
# lower count and entity_spans_in_body's upper one.
SIGNED = [1.0] * WIDTH
SIGNED[BIGRAMS], SIGNED[SPANS_IN_BODY] = -4.0, 4.0


class Recording(FeatureExtractor):
    """A FeatureExtractor that records the (sid, vector) of each selection
    vector it computes: each finish of a sentence the claim's memo lacks."""

    def __init__(self, index):
        super().__init__(index)
        self.finished = []

    def finish(self, claim, candidate):
        sid = candidate[0][0]
        lacked = sid not in claim.vectors
        vector = super().finish(claim, candidate)
        if lacked:
            self.finished.append((sid, vector))
        return vector


def hexed(ranked):
    return [(sid, score.hex()) for sid, score in ranked]


def assert_best_first(models, corpus, index, text, pages, k):
    """rank_candidates equals the brute force for each model; returns the
    numbers of computed vectors and of candidates."""
    extractor = Recording(index)
    ranked = rank_candidates(models, extractor, make_claim(1, Label.SUPPORTED, text), pages, corpus, k)
    fresh = FeatureExtractor(index)
    documents = [corpus.documents[page] for page in dict.fromkeys(pages) if page in corpus.documents]
    full = fresh.selection_vectors(fresh.prepare_claim(text), [(doc, doc.candidate_positions) for doc in documents])
    assert [hexed(evidence) for evidence in ranked] == [hexed(top_k(model, full, k)) for model in models]
    reference = {sid: [x.hex() for x in vector] for sid, vector in full}
    finished = [sid for sid, _ in extractor.finished]
    assert all(sid in index.norms for sid in reference)
    assert all(reference[sid] == [x.hex() for x in vector] for sid, vector in extractor.finished)
    # Each candidate is computed at most once, for every model, and kept.
    assert len(finished) == len(set(finished))
    memo = extractor.prepare_claim(text).vectors
    assert list(memo) == finished
    assert all(sid in memo for evidence in ranked for sid, _ in evidence)
    return len(finished), len(full)


def trained_world(path, config):
    """Corpus, index, every trained regime's selector, and the dev and
    adversarial claims with their candidate pages (retrieved plus gold)."""
    corpus = ingest_corpus(path / "corpus")
    index = build_index(corpus, "sentence")
    kb = KnowledgeBase.load(path / "kb.jsonl")
    train = load_claims(path / "train.jsonl")
    dev = load_claims(path / "dev.jsonl")
    configs = {regime: TrainingConfig(epochs=2, seed=i) for i, regime in enumerate(_trained_regimes(tuple(REGIMES)))}
    models = train_selectors(train, generate_augmentation_set(train, kb, 3), corpus, FeatureExtractor(index), configs)
    retriever = DocumentRetriever(corpus, build_index(corpus, "document"), DocRetrievalConfig(k=20))
    claims = dev + generate_augmentation_set(dev, kb, 4)
    return corpus, index, models, [(c.text, with_gold_pages(retriever.retrieve(c.text), c)) for c in claims]


@pytest.fixture(scope="module")
def fixture_stack(fixture_world):
    return trained_world(fixture_world, WorldConfig())


@pytest.mark.parametrize("world_seed", [None, 5, 11])
def test_every_regime_on_generated_worlds(fixture_stack, tmp_path, world_seed):
    """Every trained regime's selector, ranked together as select_evidence
    ranks them, on each dev and adversarial claim of three worlds."""
    if world_seed is None:
        corpus, index, models, claims = fixture_stack
    else:
        config = WorldConfig(seed=world_seed)
        write_world(build_world(config), tmp_path)
        corpus, index, models, claims = trained_world(tmp_path, config)
    assert sorted(models) == ["baseline", "da", "ref", "sup"]
    finished = candidates = 0
    for text, pages in claims:
        for k in KS:
            counts = assert_best_first(list(models.values()), corpus, index, text, pages, k)
            if k == 5:
                finished, candidates = finished + counts[0], candidates + counts[1]
    assert len(claims) > 150
    # Four models at k = 5 finish well under half of the candidates.
    assert 0 < finished < candidates / 2


def with_unindexed_sentence(corpus):
    """The corpus with a last sentence added to its first page, copying the
    page's first sentence at a line the index, built before, does not
    hold; the page and the added sentence's id."""
    page = sorted(corpus.documents)[0]
    document = corpus.documents[page]
    line = document.sentences[-1][0] + 1
    documents = dict(corpus.documents)
    documents[page] = Document(page, document.sentences + ((line, document.sentences[0][1]),))
    return Corpus(documents), page, documents[page].sids[-1]


def assert_rejected(models, corpus, index, text, pages, k, sid):
    """rank_candidates raises a ValueError naming the sentence, having
    finished no vector."""
    extractor = Recording(index)
    with pytest.raises(ValueError, match=re.escape(f"sentence {sid} is no unit of the extractor's index")):
        rank_candidates(models, extractor, make_claim(1, Label.SUPPORTED, text), pages, corpus, k)
    assert extractor.finished == []
    assert extractor.prepare_claim(text).vectors == {}


def edge_texts(claims):
    text = claims[0][0]
    token = text.split()[0]
    return ("", "qqzx vvyk", token, token.lower(), text.lower(), text)


def test_edge_claims_and_pages(fixture_stack):
    """Claims with no tokens, only out-of-vocabulary tokens, one token, no
    bigrams or no entity spans; pages repeated or unknown; a page holding
    a sentence the index does not hold, which is rejected; weights that
    saturate the sigmoid, so ties at 1.0 break by sentence id."""
    corpus, index, models, claims = fixture_stack
    patched, page, added = with_unindexed_sentence(corpus)
    _, pages = claims[0]
    page_lists = ([], ["Missing"], pages + pages[:3] + ["Missing"], [page] + pages, [page, page])
    saturated = RelevanceModel([800.0] * WIDTH, 800.0)
    signed = RelevanceModel(list(SIGNED), -3.0)
    for text in edge_texts(claims):
        for candidate_pages in page_lists:
            for k in KS:
                every = list(models.values()) + [saturated, signed]
                assert_best_first(every, corpus, index, text, candidate_pages, k)
                if page in candidate_pages:
                    assert_rejected(every, patched, index, text, candidate_pages, k, added)
    claim = make_claim(1, Label.SUPPORTED, claims[0][0])
    [ranked] = rank_candidates([saturated], FeatureExtractor(index), claim, pages, corpus, 5)
    assert [score for _, score in ranked] == [1.0] * 5
    assert [sid for sid, _ in ranked] == sorted(sid for sid, _ in ranked)


def test_bounds_are_the_ceiling_scores(fixture_stack, monkeypatch):
    """Every logit rank_candidates bounds by, ranking one model or several
    in one call, has the bits of the z logistic_scores takes for the
    candidate's ceiling (features.ceiling, built here), bias + reduce(add,
    map(mul, w, f), 0.0), and util.sigmoid of it the bits of the ceiling's
    score, under the model's weights with those of bigram_overlap and
    entity_spans_in_body raised to 0 if negative: for every candidate of
    the fixture world's dev and adversarial claims, for the trained
    selectors and for weights of both signs, some saturating the sigmoid
    at 1.0 or at 0.0. A model ranked alone finishes candidates by falling
    logit, ties in candidate order, also where tied sigmoids have
    different logits."""
    corpus, index, models, claims = fixture_stack
    calls = []

    def recording(weights, bias, candidates):
        logits = logistic_bounds(weights, bias, candidates)
        calls.append((weights, bias, candidates, logits))
        return logits

    monkeypatch.setattr(selection_module, "logistic_bounds", recording)
    signed, saturated = RelevanceModel(list(SIGNED), -3.0), RelevanceModel([800.0] * WIDTH, 800.0)
    every = list(models.values()) + [signed, saturated, RelevanceModel([-900.0] * WIDTH, 0.0)]
    checked = tied = split = 0
    for text, pages in claims:
        documents = [corpus.documents[page] for page in dict.fromkeys(pages) if page in corpus.documents]
        candidates = [doc.sids[position] for doc in documents for position in doc.candidate_positions]
        for group in ([every[0]], [signed], [saturated], every):
            del calls[:]
            extractor = Recording(index)
            rank_candidates(group, extractor, make_claim(1, Label.SUPPORTED, text), pages, corpus, 5)
            assert len(calls) == len(group)
            for model, (weights, bias, held, logits) in zip(group, calls):
                raised = list(model.weights)
                raised[BIGRAMS], raised[SPANS_IN_BODY] = max(raised[BIGRAMS], 0.0), max(raised[SPANS_IN_BODY], 0.0)
                assert weights == raised and bias == model.bias
                assert [candidate[0][0] for candidate in held] == candidates
                ceilings = [ceiling(candidate) for candidate in held]
                zs = [bias + reduce(add, map(mul, raised, f), 0.0) for f in ceilings]
                assert [z.hex() for z in logits] == [z.hex() for z in zs]
                scores = logistic_scores(WIDTH)(raised, bias, enumerate(ceilings))
                assert [sigmoid(z).hex() for z in logits] == [scores[i].hex() for i in range(len(held))]
                checked += len(logits)
            if len(group) == 1:
                finished = [sid for sid, _ in extractor.finished]
                bounds = [sigmoid(z) for z in logits]
                by_logit = sorted(range(len(logits)), key=lambda i: (-logits[i], i))[: len(finished)]
                assert finished == [candidates[i] for i in by_logit]
                tied += len(finished) - len({bounds[i] for i in by_logit})
                split += len({logits[i] for i in by_logit}) - len({bounds[i] for i in by_logit})
    assert len(claims) > 150 and checked > 100_000 and tied > 0 and split > 0


# Logits anywhere, near +-40 (where the sigmoid saturates at 1.0), near
# +-700, and low enough that the sigmoid is subnormal (below about -708.4).
LOGITS = st.one_of(
    st.floats(-1000, 1000),
    st.floats(-41, -39),
    st.floats(39, 41),
    st.floats(-710, -690),
    st.floats(690, 710),
    st.floats(-746, -708),
)


def stepped_up(z, steps):
    """z moved steps floats up."""
    for _ in range(steps):
        z = math.nextafter(z, math.inf)
    return z


@settings(max_examples=2000, deadline=None)
@given(
    pair=st.one_of(
        st.tuples(LOGITS, LOGITS).map(sorted),
        st.tuples(LOGITS, st.integers(0, 3)).map(lambda drawn: (drawn[0], stepped_up(*drawn))),
    )
)
@example(pair=(-0.0, 0.0))
@example(pair=(-708.5, stepped_up(-708.5, 1)))
@example(pair=(-745.0, -744.0))
@example(pair=(36.0, 40.0))
def test_a_larger_logit_bounds_a_smaller_ones_sigmoid(pair):
    """The premise of rank_candidates' sorted take: for logits z1 <= z2,
    util.sigmoid(z1) is at most util.sigmoid(z2) times 1 + _SCORE_SLACK,
    plus the smallest normal float, so the bound reached stops every
    candidate left, whose logit is no larger."""
    z1, z2 = pair
    assert z1 <= z2
    bound = sigmoid(z2)
    assert sigmoid(z1) <= bound + bound * _SCORE_SLACK + sys.float_info.min


WEIGHTS = st.lists(st.one_of(st.floats(-4, 4), st.floats(-1000, 1000)), min_size=WIDTH, max_size=WIDTH)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(WEIGHTS, min_size=1, max_size=3),
    bias=st.floats(-5, 5),
    claim_at=st.integers(0, 10_000),
    edge=st.integers(0, 5),
    extra=st.lists(st.integers(0, 10_000), max_size=4),
    with_patched=st.booleans(),
    k=st.one_of(st.sampled_from(KS), st.integers(1, 30)),
)
@example(weights=[SIGNED], bias=0.0, claim_at=0, edge=5, extra=[], with_patched=True, k=5)
@example(weights=[[900.0] * WIDTH], bias=0.0, claim_at=1, edge=5, extra=[0, 0], with_patched=False, k=1)
@example(weights=[[-900.0] * WIDTH], bias=0.0, claim_at=2, edge=5, extra=[], with_patched=False, k=10_000)
def test_random_weights(fixture_stack, weights, bias, claim_at, edge, extra, with_patched, k):
    """Random models of both signs on the default world: a claim text, or
    an edge text made from it, ranked over its candidate pages plus a few
    more; with_patched puts first the page to which with_unindexed_sentence
    adds a sentence, and the patched corpus is rejected."""
    corpus, index, _, claims = fixture_stack
    text, pages = claims[claim_at % len(claims)]
    text = edge_texts([(text, pages)])[edge]
    page_ids = sorted(corpus.documents)
    pages = pages + [page_ids[i % len(page_ids)] for i in extra]
    models = [RelevanceModel(list(ws), bias) for ws in weights]
    if with_patched:
        patched, page, added = with_unindexed_sentence(corpus)
        pages = [page] + pages
        assert_rejected(models, patched, index, text, pages, k, added)
    assert_best_first(models, corpus, index, text, pages, k)
