"""Each stage function works once per distinct claim content within one
call and gives every claim id what the per-claim path gives it.

The claims: two with one text and the same gold evidence, a third with
that text and a gold page that retrieval does not return for it, one
with a text of its own, and an NEI claim; a second list repeats the shared text with the same evidence. A
stage called on both lists works once per distinct key of each call, so
nothing it memoises outlives the call.
"""

import random
from dataclasses import replace

import pytest

from claimlab import experiment
from claimlab import selection as selection_module
from claimlab.claims import Label, load_claims
from claimlab.corpus import build_index, ingest_corpus
from claimlab.experiment import retrieve_docs, select_evidence, verdicts_for
from claimlab.features import PAIR_FEATURE_NAMES, SELECTION_FEATURE_NAMES, FeatureExtractor
from claimlab.nli import CLASS_ORDER, NEI_PAIRS_PER_CLAIM, NliModel, train_nli, verdict_for_claim
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever, with_gold_pages
from claimlab.selection import (
    NegativePool,
    RelevanceModel,
    TrainingConfig,
    aggregate_sr,
    select_sentences,
    train_selectors,
)

from conftest import record_computed

K = 5


@pytest.fixture(scope="module")
def stack(fixture_world):
    corpus = ingest_corpus(fixture_world / "corpus")
    extractor = FeatureExtractor(build_index(corpus, "sentence"))
    retriever = DocumentRetriever(corpus, build_index(corpus, "document"), DocRetrievalConfig(k=8))
    return corpus, extractor, retriever, load_claims(fixture_world / "train.jsonl")


@pytest.fixture(scope="module")
def lists(stack):
    corpus, _, retriever, train = stack
    verifiable = [c for c in train if c.is_verifiable() and all(corpus.get_sentence(s) for s in c.gold_sentences())]
    source = next(c for c in verifiable if c.label is Label.SUPPORTED)
    reached = set(source.gold_pages() + retriever.retrieve(source.text))
    other = next(c for c in verifiable if not reached & set(c.gold_pages()))
    unique = next(c for c in verifiable if c.label is Label.REFUTED and c.text not in (source.text, other.text))
    nei = next(c for c in train if c.label is Label.NOT_ENOUGH_INFO)
    first = [
        source,
        replace(source, claim_id=9001),
        replace(source, claim_id=9002, evidence=other.evidence),
        unique,
        nei,
    ]
    second = [replace(source, claim_id=9003), other]
    return first, second


def distinct_texts(claims):
    return len({claim.text for claim in claims})


def padded(claims):
    """The claims with a different number of trailing spaces each: every
    text is its own key, and the claim side is unchanged, as tokens and
    spans ignore whitespace. This is the per-claim reference."""
    return [replace(claim, text=claim.text + " " * (i + 1)) for i, claim in enumerate(claims)]


def models():
    rng = random.Random(3)
    return {
        "sup": RelevanceModel([rng.uniform(-1, 1) for _ in SELECTION_FEATURE_NAMES], 0.1),
        "ref": RelevanceModel([rng.uniform(-1, 1) for _ in SELECTION_FEATURE_NAMES], -0.2),
    }


def nli_model():
    rng = random.Random(5)
    return NliModel([[rng.uniform(-1, 1) for _ in PAIR_FEATURE_NAMES] for _ in CLASS_ORDER], [0.0, 0.1, -0.1])


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name; the returned list gets one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_padded_text_is_the_same_claim_side(stack, lists):
    _, extractor, _, _ = stack
    for claim in lists[0]:
        prepared = extractor.prepare_claim(claim.text)
        assert replace(extractor.prepare_claim(claim.text + "  "), text=claim.text) == prepared


@pytest.mark.parametrize("oracle_docs", [True, False])
def test_retrieve_docs_retrieves_each_text_once(stack, lists, monkeypatch, oracle_docs):
    _, _, retriever, _ = stack
    expected = [
        {c.claim_id: with_gold_pages(retriever.retrieve(c.text), c) if oracle_docs else retriever.retrieve(c.text) for c in claims}
        for claims in lists
    ]
    calls = count_calls(monkeypatch, DocumentRetriever, "retrieve")
    for claims, per_claim in zip(lists, expected):
        before = len(calls)
        assert retrieve_docs(retriever, claims, oracle_docs) == per_claim
        assert len(calls) - before == distinct_texts(claims)
    assert len(calls) == sum(map(distinct_texts, lists)) > distinct_texts(lists[0] + lists[1])


def test_select_evidence_ranks_each_text_and_pages_once(stack, lists, monkeypatch):
    corpus, extractor, retriever, _ = stack
    calls = count_calls(monkeypatch, experiment, "rank_candidates")
    keys = []
    for claims in lists:
        docs = retrieve_docs(retriever, claims, oracle_docs=True)
        before = len(calls)
        selected = select_evidence(models(), extractor, corpus, claims, docs, K, sr=("sup", "ref"))
        keys.append(len({(c.text, tuple(docs[c.claim_id])) for c in claims}))
        assert len(calls) - before == keys[-1]
        for claim in claims:
            per_model = {
                name: select_sentences(model, extractor, claim, docs[claim.claim_id], corpus, K)
                for name, model in models().items()
            }
            for name, ranked in per_model.items():
                assert selected[name][claim.claim_id] == ranked
            assert selected["sr"][claim.claim_id] == aggregate_sr(per_model["sup"], per_model["ref"], K)
    assert keys == [4, 2]


def test_verdicts_for_votes_each_text_once(stack, lists, monkeypatch):
    corpus, extractor, retriever, _ = stack
    model = nli_model()
    calls = count_calls(monkeypatch, experiment, "claim_verdicts")
    for claims in lists:
        docs = retrieve_docs(retriever, claims, oracle_docs=True)
        selections = select_evidence(models(), extractor, corpus, claims, docs, K, sr=("sup", "ref"))
        # Claims that share a text get different evidence lists here.
        selections["gold"] = {c.claim_id: [(sid, 1.0) for sid in sorted(c.gold_sentences())] for c in claims}
        before = len(calls)
        verdicts = verdicts_for(model, extractor, corpus, claims, selections)
        assert len(calls) - before == distinct_texts(claims)
        for name, ranked in selections.items():
            assert verdicts[name] == {
                c.claim_id: verdict_for_claim(model, extractor, corpus, c, ranked[c.claim_id]) for c in claims
            }
    assert len(calls) == sum(map(distinct_texts, lists)) > distinct_texts(lists[0] + lists[1])


def test_train_selectors_pools_each_text_and_evidence_once(stack, lists, monkeypatch):
    corpus, extractor, _, _ = stack
    claims, synthetic = lists
    configs = {regime: TrainingConfig(epochs=2, seed=i) for i, regime in enumerate(("baseline", "sup", "da"))}
    reference = train_selectors(padded(claims), padded(synthetic), corpus, extractor, configs)

    pools = []

    class CountingPool(NegativePool):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(selection_module, "NegativePool", CountingPool)
    trained = train_selectors(claims, synthetic, corpus, extractor, configs)
    trainable = [c for c in claims + synthetic if c.label is not Label.NOT_ENOUGH_INFO]
    assert len(pools) == len({(c.text, c.evidence_groups) for c in trainable}) == 4 < len(trainable)
    for regime, model in trained.items():
        assert (model.weights, model.bias, model.metadata) == (
            reference[regime].weights,
            reference[regime].bias,
            reference[regime].metadata,
        )


def test_train_nli_featurizes_each_text_and_sentence_once(stack, lists, monkeypatch):
    """Claims that share a text share their prepared claim's vectors: one
    train_nli call featurizes each distinct (claim text, indexed sentence)
    once, however the claims with that text interleave with others."""
    corpus, extractor, retriever, _ = stack
    source, same, other_evidence, unique, nei = lists[0]
    claims = [source, unique, other_evidence, nei, same]
    selections = select_evidence(models(), extractor, corpus, [nei], retrieve_docs(retriever, [nei], False), K)["sup"]
    config = TrainingConfig(epochs=2, seed=4)
    reference = train_nli(padded(claims), selections, corpus, FeatureExtractor(extractor.index), config)

    computed = record_computed(monkeypatch)
    model = train_nli(claims, selections, corpus, FeatureExtractor(extractor.index), config)
    featurized = [(text, sid) for text, sid, _ in computed]
    paired = {(c.text, sid) for c in claims if c.label is not Label.NOT_ENOUGH_INFO for sid in c.gold_sentences()}
    paired |= {(nei.text, sid) for sid, _ in selections[nei.claim_id][:NEI_PAIRS_PER_CLAIM]}
    assert all(sid in extractor.index.norms for _, sid in paired)
    assert sorted(featurized) == sorted(paired)
    assert distinct_texts(claims) < len(claims)
    assert (model.weights, model.biases, model.metadata) == (reference.weights, reference.biases, reference.metadata)


def test_train_nli_prepares_each_text_once(stack, lists, monkeypatch):
    corpus, extractor, retriever, _ = stack
    claims = lists[0]
    nei = [c for c in claims if c.label is Label.NOT_ENOUGH_INFO]
    docs = retrieve_docs(retriever, nei, oracle_docs=False)
    selections = select_evidence(models(), extractor, corpus, nei, docs, K)["sup"]
    config = TrainingConfig(epochs=2, seed=4)
    reference = train_nli(padded(claims), selections, corpus, extractor, config)

    calls = count_calls(monkeypatch, FeatureExtractor, "prepare_claim")
    model = train_nli(claims, selections, corpus, extractor, config)
    assert len(calls) == distinct_texts(claims) == 3
    assert (model.weights, model.biases, model.metadata) == (reference.weights, reference.biases, reference.metadata)
