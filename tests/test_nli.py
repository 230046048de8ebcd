import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlab.claims import Label
from claimlab.corpus import Document, SentenceId, build_index
from claimlab.features import PAIR_FEATURE_NAMES, FeatureExtractor
from claimlab.nli import (
    CLASS_ORDER,
    NliModel,
    aggregate_verdict,
    classify_pair,
    train_nli,
    verdict_for_claim,
)
from claimlab.selection import TrainingConfig

from conftest import make_claim, make_corpus

SUP = Label.SUPPORTED
REF = Label.REFUTED
NEI = Label.NOT_ENOUGH_INFO


class TestAggregateVerdict:
    def test_strict_majority(self):
        assert aggregate_verdict([REF, REF, REF, SUP, SUP]) is REF

    def test_two_two_tie_prefers_supported_over_refuted(self):
        assert aggregate_verdict([SUP, SUP, REF, REF, NEI]) is SUP

    def test_two_two_tie_prefers_nei(self):
        assert aggregate_verdict([NEI, NEI, SUP, SUP, REF]) is NEI

    def test_empty_is_nei(self):
        assert aggregate_verdict([]) is NEI

    def test_all_multisets_permutation_invariant(self):
        labels = list(CLASS_ORDER)
        for combo in itertools.combinations_with_replacement(labels, 5):
            verdicts = {aggregate_verdict(list(p)) for p in set(itertools.permutations(combo))}
            assert len(verdicts) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([SUP, REF, NEI]), min_size=1, max_size=5))
    def test_strict_majority_always_wins(self, labels):
        counts = {label: labels.count(label) for label in set(labels)}
        top = max(counts.values())
        leaders = [label for label, n in counts.items() if n == top]
        if len(leaders) == 1:
            assert aggregate_verdict(labels) is leaders[0]


@pytest.fixture
def nli_world():
    corpus = make_corpus(
        {
            "Ada Hartley": [
                "Ada Hartley is an actor.",
                "She starred in Quillstone for years.",
                "She was born in 1960.",
            ],
            "Quillstone": ["Quillstone is a hit sitcom.", "It airs nightly."],
        }
    )
    index = build_index(corpus, "sentence")
    extractor = FeatureExtractor.from_index(index)
    claims = [
        make_claim(1, SUP, "Ada Hartley starred in Quillstone.", [[("Ada Hartley", 1)]]),
        make_claim(2, SUP, "Ada Hartley is an actor.", [[("Ada Hartley", 0)]]),
        make_claim(3, REF, "Ada Hartley was born in 2001.", [[("Ada Hartley", 2)]]),
        make_claim(4, REF, "Ada Hartley is only in shows on GBC.", [[("Ada Hartley", 1)]]),
        make_claim(5, NEI, "Ada Hartley is widely respected."),
        make_claim(6, NEI, "Quillstone may get a film."),
    ]
    selections = {
        5: [(SentenceId("Ada Hartley", 0), 0.4), (SentenceId("Ada Hartley", 2), 0.3)],
        6: [(SentenceId("Quillstone", 0), 0.4), (SentenceId("Quillstone", 1), 0.3)],
    }
    return corpus, extractor, claims, selections


class TestTrainNli:
    def test_loss_decreases(self, nli_world):
        corpus, extractor, claims, selections = nli_world
        config = TrainingConfig(seed=3, epochs=4)
        model = train_nli(claims, selections, corpus, extractor, config)
        zero = NliModel(
            weights=[[0.0] * len(PAIR_FEATURE_NAMES) for _ in CLASS_ORDER],
            biases=[0.0] * len(CLASS_ORDER),
        )

        def mean_loss(m):
            from claimlab.nli import _training_pairs

            pairs = _training_pairs(claims, selections, corpus, extractor)
            total = 0.0
            for features, target in pairs:
                probs = m.probabilities(features)
                total += -math.log(max(probs[target], 1e-12))
            return total / len(pairs)

        assert mean_loss(model) < mean_loss(zero)

    def test_same_seed_identical(self, nli_world):
        corpus, extractor, claims, selections = nli_world
        config = TrainingConfig(seed=11)
        first = train_nli(claims, selections, corpus, extractor, config)
        second = train_nli(claims, selections, corpus, extractor, config)
        assert first.weights == second.weights
        assert first.biases == second.biases

    def test_missing_class_rejected(self, nli_world):
        corpus, extractor, claims, selections = nli_world
        no_nei = [c for c in claims if c.label is not NEI]
        with pytest.raises(ValueError, match="NOT ENOUGH INFO"):
            train_nli(no_nei, selections, corpus, extractor, TrainingConfig())

    def test_model_round_trip(self, nli_world, tmp_path):
        corpus, extractor, claims, selections = nli_world
        model = train_nli(claims, selections, corpus, extractor, TrainingConfig(seed=1))
        model.save(tmp_path / "nli.json")
        loaded = NliModel.load(tmp_path / "nli.json")
        assert loaded.weights == model.weights
        assert loaded.biases == model.biases


class TestClassifyPair:
    def test_probabilities_sum_to_one(self, nli_world):
        corpus, extractor, claims, selections = nli_world
        model = train_nli(claims, selections, corpus, extractor, TrainingConfig(seed=2))
        claim = extractor.prepare_claim("Ada Hartley acts.")
        [(sid, _, probs)] = classify_pair(model, extractor, claim, corpus.documents["Ada Hartley"], [1])
        assert sid == SentenceId("Ada Hartley", 1)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in probs)
        # Line -1 is in no index, so the pair is rejected, naming it.
        outside = Document("Ada Hartley", ((-1, "She acts."),))
        with pytest.raises(ValueError, match=re.escape(f"sentence {outside.sids[0]} is no unit")):
            classify_pair(model, extractor, claim, outside, [0])

    def test_zero_model_ties_break_to_nei(self, nli_world):
        corpus, extractor, _, _ = nli_world
        zero = NliModel(
            weights=[[0.0] * len(PAIR_FEATURE_NAMES) for _ in CLASS_ORDER],
            biases=[0.0] * len(CLASS_ORDER),
        )
        claim = extractor.prepare_claim("any claim")
        [(_, label, probs)] = classify_pair(zero, extractor, claim, corpus.documents["Quillstone"], [1])
        assert label is NEI
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        outside = Document("Any", ((-1, "text"),))
        with pytest.raises(ValueError, match=re.escape(f"sentence {outside.sids[0]} is no unit")):
            classify_pair(zero, extractor, claim, outside, [0])

    def test_argmax(self):
        model = NliModel(
            weights=[[0.0] * len(PAIR_FEATURE_NAMES) for _ in CLASS_ORDER],
            biases=[0.2, 0.5, 0.3],
        )
        probs = model.probabilities([0.0] * len(PAIR_FEATURE_NAMES))
        assert CLASS_ORDER[probs.index(max(probs))] is SUP

    def test_sums_add_in_order(self):
        """Logits and the softmax total add with + in order. Python 3.12's
        compensated sum() would give logit 1.0 and a total above 1.0 here."""
        n = len(PAIR_FEATURE_NAMES)
        cancelling = NliModel(weights=[[1e16, 1.0, -1e16] + [0.0] * (n - 3)] * 3, biases=[0.0] * 3)
        assert cancelling.probabilities([1.0, 1.0, 1.0] + [0.0] * (n - 3)) == [1 / 3.0] * 3
        tiny = math.log(1e-16)
        assert NliModel(weights=[[0.0] * n] * 3, biases=[0.0, tiny, tiny]).probabilities([0.0] * n)[0] == 1.0

    def test_training_labels_recovered_on_separable_fixture(self, nli_world):
        corpus, extractor, claims, selections = nli_world
        model = train_nli(claims, selections, corpus, extractor, TrainingConfig(seed=4, epochs=16))
        claim = claims[2]  # refuted via numeral mismatch
        sid = sorted(claim.gold_sentences())[0]
        prepared = extractor.prepare_claim(claim.text)
        document, position = corpus.locate(sid)
        [(_, label, _)] = classify_pair(model, extractor, prepared, document, [position])
        assert label is REF


def test_verdict_for_claim_majority(nli_world):
    corpus, extractor, claims, selections = nli_world
    model = train_nli(claims, selections, corpus, extractor, TrainingConfig(seed=4, epochs=16))
    claim = claims[0]
    evidence = [(SentenceId("Ada Hartley", 1), 0.9)]
    label, predicted = verdict_for_claim(model, extractor, corpus, claim, evidence)
    assert predicted == [SentenceId("Ada Hartley", 1)]
    assert label in CLASS_ORDER


def test_verdict_empty_evidence_is_nei(nli_world):
    corpus, extractor, claims, selections = nli_world
    model = train_nli(claims, selections, corpus, extractor, TrainingConfig(seed=4))
    label, predicted = verdict_for_claim(model, extractor, corpus, claims[0], [])
    assert label is NEI
    assert predicted == []
