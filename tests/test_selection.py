import math
import random
import re
from collections import Counter
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlab import features as features_module
from claimlab import selection as selection_module
from claimlab.claim_gen import generate_augmentation_set
from claimlab.claims import Label, load_claims
from claimlab.corpus import (
    Document,
    IndexScorer,
    SentenceId,
    build_index,
    ingest_corpus,
    parse_query,
    top_k_scored,
)
from claimlab.experiment import _trained_regimes, select_evidence
from claimlab.features import PAIR_FEATURE_NAMES, SELECTION_FEATURE_NAMES, FeatureExtractor
from claimlab.kb import KnowledgeBase
from claimlab.nli import CLASS_ORDER, NliModel, verdict_for_claim
from claimlab.selection import (
    REGIMES,
    NegativePool,
    Regime,
    RelevanceModel,
    TrainingConfig,
    _fit,
    _per_group,
    _regime_claims,
    aggregate_sr,
    select_sentences,
    sgd_epochs,
    train_selector,
    train_selectors,
)
from claimlab.util import logistic_scores, softmax_probabilities, stable_seed

from conftest import count_tokenized, make_claim, make_corpus, tfidf_scores


def classified_candidates(corpus, evidence):
    """The (title, body) candidates verdict_for_claim classifies for the
    given evidence ids, and the ids it reports as predicted evidence."""
    seen = []

    class Recording(FeatureExtractor):
        def pair_features(self, claim, document, positions):
            seen.extend((document.title, document.sentences[position][1]) for position in positions)
            return super().pair_features(claim, document, positions)

    extractor = Recording.from_index(build_index(corpus, "sentence"))
    model = NliModel(
        weights=[[0.0] * len(PAIR_FEATURE_NAMES) for _ in CLASS_ORDER], biases=[0.0] * len(CLASS_ORDER)
    )
    claim = make_claim(1, Label.SUPPORTED, "a claim")
    _, predicted = verdict_for_claim(model, extractor, corpus, claim, [(sid, 1.0) for sid in evidence])
    return seen, predicted


class TestCandidateText:
    """A candidate is its page's display title plus the sentence text."""

    def test_title_prepended(self):
        """Titles containing ". " stay whole (no string is split again)."""
        corpus = make_corpus(
            {"Johnny Galecki": ["bio line.", "He is known for playing."], "St._Louis": ["It is a city."]}
        )
        seen, _ = classified_candidates(corpus, [SentenceId("Johnny Galecki", 1), SentenceId("St._Louis", 0)])
        assert seen == [("Johnny Galecki", "He is known for playing."), ("St. Louis", "It is a city.")]

    def test_disambiguation_suffix_stripped(self):
        corpus = make_corpus({"Blind_Faith_(miniseries)": ["A 1990 miniseries."]})
        seen, _ = classified_candidates(corpus, [SentenceId("Blind_Faith_(miniseries)", 0)])
        assert seen == [("Blind Faith", "A 1990 miniseries.")]

    def test_empty_sentence(self):
        """An empty sentence is no candidate, so it is dropped the way an
        unknown one is: never classified, never predicted."""
        corpus = make_corpus({"Page": ["", "text."]})
        seen, predicted = classified_candidates(corpus, [SentenceId("Page", 0)])
        assert seen == []
        assert predicted == []
        seen, predicted = classified_candidates(corpus, [SentenceId("Page", 0), SentenceId("Page", 1)])
        assert seen == [("Page", "text.")]
        assert predicted == [SentenceId("Page", 1)]

    def test_unresolvable_id_skipped(self):
        corpus = make_corpus({"Page": ["text."]})
        seen, predicted = classified_candidates(corpus, [SentenceId("Missing", 0), SentenceId("Page", 0)])
        assert seen == [("Page", "text.")]
        assert predicted == [SentenceId("Page", 0)]


@pytest.fixture
def sampling_world():
    """Engineered corpus: positive doc, one hot foreign doc, six candidate
    fresh docs, and two unrelated noise docs (10 documents total)."""
    pages = {
        "Pos": ["zeta quest begins here."]
        + [f"zeta quest chapter {i} continues." for i in range(1, 7)],
        "Hot": [f"zeta quest {w}." for w in ("now", "soon", "again", "forever", "tonight", "always")],
    }
    for i in range(1, 7):
        pages[f"Fresh{i}"] = [f"the zeta path number {i} is long and winding indeed."]
    pages["NoiseA"] = ["nothing relevant whatsoever."]
    pages["NoiseB"] = ["another fully unrelated page."]
    corpus = make_corpus(pages)
    return corpus, build_index(corpus, "sentence")


class TestSampleNegatives:
    def claim(self):
        return make_claim(77, Label.SUPPORTED, "zeta quest", [[("Pos", 0)]])

    def test_full_partition(self, sampling_world):
        corpus, index = sampling_world
        positives = {SentenceId("Pos", 0)}
        negatives = draw_negatives(self.claim(), corpus, index, positives, rng_seed=11)
        assert len(negatives) == 15
        group_a, group_b, group_c = negatives[:5], negatives[5:10], negatives[10:]
        assert all(sid.page_id == "Pos" for sid in group_a)
        assert all(sid.page_id == "Hot" for sid in group_b)
        c_pages = [sid.page_id for sid in group_c]
        assert len(set(c_pages)) == 5
        assert set(c_pages) <= {f"Fresh{i}" for i in range(1, 7)}
        assert SentenceId("Pos", 0) not in negatives
        assert len(set(negatives)) == 15

    def test_degenerate_single_document(self):
        corpus = make_corpus({"Pos": ["zeta one.", "zeta two.", "zeta three."]})
        index = build_index(corpus, "sentence")
        negatives = draw_negatives(
            self.claim(), corpus, index, {SentenceId("Pos", 0)}, rng_seed=5
        )
        assert 0 < len(negatives) <= 5
        assert all(sid.page_id == "Pos" for sid in negatives)

    def test_same_seed_identical(self, sampling_world):
        corpus, index = sampling_world
        positives = {SentenceId("Pos", 0)}
        first = draw_negatives(self.claim(), corpus, index, positives, rng_seed=3)
        second = draw_negatives(self.claim(), corpus, index, positives, rng_seed=3)
        assert first == second

    def test_multiple_positives_extend_without_duplicates(self, sampling_world):
        corpus, index = sampling_world
        positives = {SentenceId("Pos", 0), SentenceId("Pos", 1)}
        negatives = draw_negatives(self.claim(), corpus, index, positives, rng_seed=3)
        assert not positives & set(negatives)
        assert len(negatives) == len(set(negatives))

    def test_ties_at_the_cut_and_empty_vocabulary_claims_pinned(self):
        """Outputs of the full-sort sampler, pinned. Five untitled pages tie
        at cosine 1.0 for group B; with 3 negatives per positive the reach
        list is cut at 4 units, inside the tie, so only identifier order
        decides which tied units it keeps."""
        pages = {"Pos": ["zeta quest.", "zeta."]}
        pages.update({f"({i})": ["zeta quest.", "quest path."] for i in range(1, 6)})
        pages["Far"] = ["quest."]
        corpus = make_corpus(pages)
        index = build_index(corpus, "sentence")
        positives = {SentenceId("Pos", 0)}
        claim = make_claim(5, Label.SUPPORTED, "zeta quest", [[("Pos", 0)]])
        tied = [SentenceId(f"({i})", 0) for i in range(1, 6)]
        assert draw_negatives(claim, corpus, index, positives, rng_seed=4, negatives_per_positive=3) == [
            SentenceId("Pos", 1), tied[0], tied[2]
        ]
        assert draw_negatives(claim, corpus, index, positives, rng_seed=4) == [
            SentenceId("Pos", 1), *tied, SentenceId("Far", 0)
        ]
        for text in ("?!", "xyzzy plugh"):
            empty = make_claim(6, Label.SUPPORTED, text, [[("Pos", 0)]])
            assert draw_negatives(empty, corpus, index, positives, rng_seed=4) == []


def draw_negatives(claim, corpus, index, positives, rng_seed, negatives_per_positive=15):
    """One draw from a fresh NegativePool for the claim, with per_group as
    selector training derives it from negatives_per_positive."""
    per_group = _per_group(negatives_per_positive)
    pool = NegativePool(IndexScorer(index), corpus, parse_query(index, claim.text), positives, per_group)
    return pool.draw(rng_seed, per_group)


def reference_sample_negatives(claim, corpus, index, positives, rng_seed, negatives_per_positive=15):
    """draw_negatives as it was before negative sampling stopped ranking
    the whole index: one full TF-IDF sort, rescanned for every group."""
    per_group = max(1, negatives_per_positive // 3)
    ranked = top_k_scored(tfidf_scores(index, parse_query(index, claim.text)), k=index.doc_count)
    ranked_ids = [sid for sid, _ in ranked]

    positive_pages = {sid.page_id for sid in positives}
    used_sentences = set(positives)
    used_documents = set(positive_pages)
    rng = random.Random(rng_seed)
    out = []

    for _ in sorted(positives):
        group_a = [
            sid
            for sid in ranked_ids
            if sid.page_id in positive_pages and sid not in used_sentences
        ][:per_group]
        used_sentences.update(group_a)

        group_b = [
            sid
            for sid in ranked_ids
            if sid.page_id not in positive_pages and sid not in used_sentences
        ][:per_group]
        used_sentences.update(group_b)
        used_documents.update(sid.page_id for sid in group_b)

        fresh = {}
        for sid in ranked_ids:
            if sid.page_id in used_documents or sid in used_sentences:
                continue
            fresh.setdefault(sid.page_id, sid)
        pages = sorted(fresh)
        chosen = rng.sample(pages, k=min(per_group, len(pages)))
        group_c = [fresh[page] for page in sorted(chosen)]
        used_sentences.update(group_c)
        used_documents.update(chosen)

        out.extend(group_a + group_b + group_c)
    return out


def default_training_inputs(fixture_world):
    """Corpus, sentence index, training claims and synthetic training
    claims of the default world, with the default experiment seed."""
    corpus = ingest_corpus(fixture_world / "corpus")
    train = load_claims(fixture_world / "train.jsonl")
    kb = KnowledgeBase.load(fixture_world / "kb.jsonl")
    synthetic = generate_augmentation_set(train, kb, seed=stable_seed(7, "augment", "train"))
    return corpus, build_index(corpus, "sentence"), train, synthetic


def test_sample_negatives_matches_reference_on_default_world(fixture_world):
    """Every (training claim, regime seed) pair that train_selector samples
    for on the default world, with the default experiment seed."""
    corpus, index, train, synthetic = default_training_inputs(fixture_world)
    compared = 0
    for regime in _trained_regimes(("baseline", "sup", "ref", "da")):
        regime_seed = stable_seed(7, "selector", regime)
        for claim in _regime_claims(train, synthetic, regime):
            gold = {sid for sid in claim.gold_sentences() if corpus.get_sentence(sid) is not None}
            if not gold:
                continue
            rng_seed = stable_seed(regime_seed, "negatives", claim.claim_id)
            args = (claim, corpus, index, gold, rng_seed)
            assert draw_negatives(*args) == reference_sample_negatives(*args)
            compared += 1
    assert compared > 200


def reference_regime_claims(claims, synthetic_claims, regime):
    """The per-regime if-chain the regime table replaced."""
    supported = [c for c in claims if c.label is Label.SUPPORTED]
    refuted = [c for c in claims if c.label is Label.REFUTED]
    if regime == "baseline":
        return [c for c in claims if c.label in (Label.SUPPORTED, Label.REFUTED)]
    if regime == "sup":
        return supported
    if regime == "ref":
        return refuted
    if regime == "da":
        base = [c for c in claims if c.label in (Label.SUPPORTED, Label.REFUTED)]
        return base + list(synthetic_claims)
    raise ValueError(f"unhandled regime {regime!r}")


def test_regime_table_gives_the_reference_training_claims(fixture_world):
    """Each trained regime's training claims, read from REGIMES, are the
    if-chain's, in order; sr trains nothing and merges sup and ref."""
    _, _, train, synthetic = default_training_inputs(fixture_world)
    assert synthetic and {c.label for c in train} == set(Label)
    assert _trained_regimes(tuple(REGIMES)) == ["baseline", "sup", "ref", "da"]
    for regime in _trained_regimes(tuple(REGIMES)):
        expected = reference_regime_claims(train, synthetic, regime)
        assert [c.claim_id for c in _regime_claims(train, synthetic, regime)] == [c.claim_id for c in expected]
    assert _regime_claims(train, synthetic, "sr") == []
    assert REGIMES["sr"].merges == ("sup", "ref")
    assert _trained_regimes(("sr",)) == ["sup", "ref"]
    assert _trained_regimes(("ref", "sr", "baseline")) == ["ref", "baseline", "sup"]


def test_train_selectors_equals_one_train_selector_call_per_regime(fixture_world):
    """Shared pools and feature vectors change no model: every regime's
    model equals, bit for bit, the one a separate train_selector call
    trains, also when the regimes draw different numbers of negatives
    from pools built for the largest."""
    corpus, index, train, synthetic = default_training_inputs(fixture_world)
    extractor = FeatureExtractor.from_index(index)
    configs = {
        regime: TrainingConfig(seed=stable_seed(7, "selector", regime), negatives_per_positive=per_positive)
        for regime, per_positive in zip(("baseline", "sup", "ref", "da"), (15, 6, 3, 15))
    }
    together = train_selectors(train, synthetic, corpus, extractor, configs)
    assert list(together) == list(configs)
    for regime, config in configs.items():
        alone = train_selector(train, synthetic, corpus, index, extractor, Regime(regime), config)
        assert together[regime].weights == alone.weights
        assert together[regime].bias == alone.bias
        assert together[regime].metadata == alone.metadata


SAMPLING_WORDS = ["zeta", "quest", "path", "long", "the", "river"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sample_negatives_matches_reference_on_random_corpora(data):
    """Empty-text sentences, zero-norm units (no token in text or title),
    several positives on several pages, and 1 or 3 negatives per positive."""
    pages = {}
    for i in range(data.draw(st.integers(min_value=1, max_value=9))):
        texts = data.draw(
            st.lists(
                st.one_of(
                    st.just(""),
                    st.just("?!"),
                    st.lists(st.sampled_from(SAMPLING_WORDS), min_size=1, max_size=4).map(" ".join),
                ),
                min_size=1,
                max_size=5,
            )
        )
        title = data.draw(st.sampled_from([f"Page{i}", f"({i})", f"Zeta_{i}"]))
        pages[title] = texts
    corpus = make_corpus(pages)
    index = build_index(corpus, "sentence")
    all_ids = sorted(SentenceId(page, line) for page, texts in pages.items() for line in range(len(texts)))
    positives = data.draw(st.sets(st.sampled_from(all_ids), min_size=1, max_size=4))
    claim = make_claim(1, Label.SUPPORTED, " ".join(data.draw(st.lists(st.sampled_from(SAMPLING_WORDS), max_size=5))))
    args = (claim, corpus, index, positives, data.draw(st.integers(0, 1000)))
    for per_positive in (1, 3):
        if index.doc_count == 0:
            # No sentence has text: the old full sort asked for k=0 and
            # raised; there is nothing to sample, so the groups run short.
            with pytest.raises(ValueError, match="k must be"):
                reference_sample_negatives(*args, negatives_per_positive=per_positive)
            assert draw_negatives(*args, negatives_per_positive=per_positive) == []
            continue
        expected = reference_sample_negatives(*args, negatives_per_positive=per_positive)
        assert draw_negatives(*args, negatives_per_positive=per_positive) == expected


@pytest.fixture
def training_world():
    pages = {
        "Ada Hartley": [
            "Ada Hartley is an actor.",
            "She starred in Quillstone for years.",
            "She was born in 1960.",
        ],
        "Quillstone": ["Quillstone is a hit sitcom.", "Critics love the hit sitcom."],
        "Bo Winters": [
            "Bo Winters is an actor.",
            "He starred in Fernbank for years.",
            "He was born in 1955.",
        ],
        "Fernbank": ["Fernbank is a hit sitcom.", "Viewers adore the hit sitcom."],
        "Granite": ["Granite is a town in the hills."],
    }
    corpus = make_corpus(pages)
    index = build_index(corpus, "sentence")
    claims = [
        make_claim(1, Label.SUPPORTED, "Ada Hartley starred in Quillstone.", [[("Ada Hartley", 1)]]),
        make_claim(2, Label.SUPPORTED, "Bo Winters starred in Fernbank.", [[("Bo Winters", 1)]]),
        make_claim(3, Label.REFUTED, "Ada Hartley was born in 2001.", [[("Ada Hartley", 2)]]),
        make_claim(4, Label.REFUTED, "Bo Winters was born in 2002.", [[("Bo Winters", 2)]]),
        make_claim(5, Label.NOT_ENOUGH_INFO, "Ada Hartley is respected."),
    ]
    return corpus, index, FeatureExtractor.from_index(index), claims


class TestTrainSelector:
    def test_loss_decreases_on_separable_fixture(self, training_world):
        corpus, index, extractor, claims = training_world
        config = TrainingConfig(seed=1, epochs=2)
        model = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, config)

        init = RelevanceModel(weights=[0.0] * len(SELECTION_FEATURE_NAMES), bias=0.0)
        init.weights[SELECTION_FEATURE_NAMES.index("tfidf_cosine")] = 1.0

        def mean_loss(m):
            total = count = 0
            for claim in claims:
                gold = claim.gold_sentences()
                if not gold:
                    continue
                prepared = extractor.prepare_claim(claim.text)
                pages = [(doc, range(len(doc.sentences))) for doc in corpus.documents.values()]
                for sid, features in extractor.selection_vectors(prepared, pages):
                    p = min(max(m.score(features), 1e-9), 1 - 1e-9)
                    y = 1.0 if sid in gold else 0.0
                    total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
                    count += 1
            return total / count

        assert mean_loss(model) < mean_loss(init)

    def test_same_config_identical_weights(self, training_world):
        corpus, index, extractor, claims = training_world
        config = TrainingConfig(seed=42)
        first = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, config)
        second = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, config)
        assert first.weights == second.weights
        assert first.bias == second.bias

    def test_regime_filtering_counts(self, training_world):
        corpus, index, extractor, claims = training_world
        synthetic = [
            make_claim(90, Label.REFUTED, "Ada Hartley starred in Fernbank.", [[("Ada Hartley", 1)]])
        ]
        config = TrainingConfig(seed=0)
        baseline = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, config)
        sup = train_selector(claims, [], corpus, index, extractor, Regime.SUP_ONLY, config)
        ref = train_selector(claims, [], corpus, index, extractor, Regime.REF_ONLY, config)
        augmented = train_selector(claims, synthetic, corpus, index, extractor, Regime.DATA_AUGMENTED, config)
        assert baseline.metadata["n_claims"] == 4
        assert sup.metadata["n_claims"] == 2
        assert ref.metadata["n_claims"] == 2
        assert augmented.metadata["n_claims"] == baseline.metadata["n_claims"] + len(synthetic)

    def test_single_sided_regimes_ignore_synthetic(self, training_world):
        corpus, index, extractor, claims = training_world
        synthetic = [
            make_claim(91, Label.REFUTED, "Ada Hartley starred in Fernbank.", [[("Ada Hartley", 1)]])
        ]
        config = TrainingConfig(seed=0)
        sup = train_selector(claims, synthetic, corpus, index, extractor, Regime.SUP_ONLY, config)
        ref = train_selector(claims, synthetic, corpus, index, extractor, Regime.REF_ONLY, config)
        assert sup.metadata["n_claims"] == 2  # no refuted, no synthetic
        assert ref.metadata["n_claims"] == 2  # originals only

    def test_empty_regime_error(self, training_world):
        corpus, index, extractor, claims = training_world
        supported_only = [c for c in claims if c.label is Label.SUPPORTED]
        with pytest.raises(ValueError, match="ref"):
            train_selector(supported_only, [], corpus, index, extractor, Regime.REF_ONLY, TrainingConfig())

    def test_model_round_trip(self, training_world, tmp_path):
        corpus, index, extractor, claims = training_world
        model = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=7))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = RelevanceModel.load(path)
        assert loaded.weights == model.weights
        assert loaded.bias == model.bias
        assert loaded.metadata["regime"] == "baseline"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        for overrides, message in (
            ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
            ({"epochs": True}, "epochs must be an integer, got True"),
            ({"seed": "3"}, "seed must be an integer, got '3'"),
            ({"negatives_per_positive": 4.5}, "negatives_per_positive must be an integer, got 4.5"),
            ({"learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                TrainingConfig(**overrides)
        # An integer is a valid learning rate.
        assert TrainingConfig(learning_rate=1).learning_rate == 1

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_learning_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainingConfig(learning_rate=rate)

    def test_train_selectors_parses_each_training_claim_once(self, training_world, monkeypatch):
        """Each distinct training claim is tokenized once, by the
        parse_query behind its PreparedClaim, whose Query its negative pool
        ranks with too, however many regimes train on it."""
        corpus, index, extractor, claims = training_world
        configs = {regime: TrainingConfig(seed=3) for regime in ("baseline", "sup", "ref")}
        parsed = Counter()
        original = features_module.parse_query

        def counting(index, text):
            parsed[text] += 1
            return original(index, text)

        monkeypatch.setattr(features_module, "parse_query", counting)
        texts = count_tokenized(monkeypatch)
        train_selectors(claims, [], corpus, extractor, configs)
        trainable = {claim.text for claim in claims if claim.label is not Label.NOT_ENOUGH_INFO}
        assert len(trainable) == 4
        assert parsed == Counter(dict.fromkeys(trainable, 1))
        assert {text: texts[text] for text in trainable} == dict.fromkeys(trainable, 1)


def test_relevance_score_adds_in_order():
    """The score adds its weight * feature terms with + in order. Python
    3.12's compensated sum() would give sigmoid(1.0) here."""
    assert RelevanceModel(weights=[1e16, 1.0, -1e16], bias=0.0).score([1.0, 1.0, 1.0]) == 0.5


# Signed zeros, subnormals, magnitudes whose products overflow to inf or
# underflow to zero, and any other float, each with either sign.
KERNEL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300]),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]),
    st.floats(),
)


def reference_softmax(rows, biases, features):
    """The NLI probabilities' chain: b + reduce(add, map(mul, w, f), 0.0)
    per row, then max, exp(z - peak), reduce(add, exps, 0.0) and e / total."""
    logits = [b + reduce(add, map(mul, w, features), 0.0) for w, b in zip(rows, biases)]
    peak = max(logits)
    exps = [math.exp(z - peak) for z in logits]
    total = reduce(add, exps, 0.0)
    return [e / total for e in exps]


def hexed_or_raised(compute):
    """The result's floats by float.hex, or the exception type it raised."""
    try:
        return [x.hex() for x in compute()]
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 10, 13]).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(KERNEL_FLOATS, min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(KERNEL_FLOATS, min_size=4, max_size=4),
            st.lists(KERNEL_FLOATS, min_size=n, max_size=n),
        )
    )
)
@example(([[1e300, 1e300, -1e300]] * 3, [0.0] * 4, [1e300, 1.0, 1e300]))
@example(([[-0.0] * 10] * 3, [0.0] * 4, [1.0] * 10))
@example(([[5e-324, -5e-324] + [1e16, 1.0, -1e16] * 3 + [1e-300] * 2] * 3, [1e-300] * 4, [0.5] * 13))
# The zero model, as training starts from: every probability is 1/3.
@example(([[0.0] * 13] * 3, [0.0] * 4, [1.0] * 13))
# Logits far apart: exp(z - peak) underflows to 0.0 for the others.
@example(([[0.0] * 3] * 3, [700.0, -700.0, 0.0, 0.0], [1.0] * 3))
@example(([[700.0, 0.0, 0.0], [-700.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.0] * 4, [1.0, 1.0, 1e-300]))
@example(([[-700.0] * 3, [700.0] * 3, [-700.0] * 3], [-700.0, 700.0, 0.5, 0.0], [1.0, 1.0, 1.0]))
def test_softmax_kernel_is_the_left_to_right_chain(case):
    """softmax_probabilities(n), directly and through
    NliModel.probabilities, gives the bits of reference_softmax, or fails
    as it does."""
    rows, biases, features = case
    biases = biases[: len(rows)]
    expected = hexed_or_raised(lambda: reference_softmax(rows, biases, features))
    assert hexed_or_raised(lambda: softmax_probabilities(len(features))(rows, biases, features)) == expected
    model = NliModel(weights=rows, biases=biases)
    assert hexed_or_raised(lambda: model.probabilities(features)) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 10, 13]).flatmap(
        lambda n: st.tuples(
            st.lists(KERNEL_FLOATS, min_size=n, max_size=n),
            KERNEL_FLOATS,
            st.lists(st.lists(KERNEL_FLOATS, min_size=n, max_size=n), max_size=4),
        )
    )
)
@example(([1e300, 1e300, -1e300], 0.0, [[1e300, 1.0, 1e300], [-1e300, 1.0, -1e300], [1.0, 1.0, 1.0]]))
# The bias is added after the products: (1.0 + 1e16 + 1.0) - 1e16 would be 0.0.
@example(([1e16, 1.0, -1e16], 1.0, [[1.0, 1.0, 1.0]]))
@example(([-0.0] * 10, -0.0, [[1.0] * 10, [-0.0] * 10]))
@example(([5e-324, -5e-324] + [1e16, 1.0, -1e16] * 3 + [1e-300] * 2, 1e-300, [[0.5] * 13, [-1e300] * 13]))
def test_logistic_scores_are_relevance_scores(model_and_vectors):
    """logistic_scores(n), in a batch and through RelevanceModel.score,
    gives each vector the bits of the two-branch sigmoid of bias plus
    reduce(add, map(mul, w, f), 0.0)."""
    weights, bias, vectors = model_and_vectors
    model = RelevanceModel(weights=weights, bias=bias)
    scores = logistic_scores(len(weights))(weights, bias, enumerate(vectors))
    expected = [reference_sigmoid(bias + reduce(add, map(mul, weights, f), 0.0)).hex() for f in vectors]
    assert [scores[i].hex() for i in range(len(vectors))] == expected
    assert [model.score(f).hex() for f in vectors] == expected


def reference_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def test_logistic_scores_is_built_once_per_width():
    assert logistic_scores(10) is logistic_scores(10)
    assert logistic_scores(0)([], 0.0, [("a", [])]) == {"a": 0.5}
    # A repeated key keeps its last score; a short vector raises.
    last = RelevanceModel(weights=[1.0], bias=0.0).score([-50.0])
    assert logistic_scores(1)([1.0], 0.0, [("a", [50.0]), ("a", [-50.0])]) == {"a": last}
    with pytest.raises(IndexError):
        logistic_scores(3)([1.0, 2.0, 3.0], 0.0, [("a", [1.0, 2.0])])


# Few distinct keys and feature values, so keys repeat and scores tie.
NEGATIVE_KEYS = st.tuples(
    st.integers(1, 2), st.sampled_from([SentenceId("P", 0), SentenceId("P", 1), SentenceId("Q", 0)])
)
SMALL_VECTORS = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=10, max_size=10)


@settings(max_examples=150, deadline=None)
@given(
    positives=st.lists(SMALL_VECTORS, min_size=1, max_size=5),
    negatives=st.lists(st.tuples(NEGATIVE_KEYS, SMALL_VECTORS), max_size=12),
    epochs=st.integers(1, 3),
)
# No negatives (keep == 0); and the warm start scores by tfidf_cosine alone,
# so vectors with equal cosines tie at the cut, some under one key.
@example(positives=[[0.0] * 10], negatives=[], epochs=2)
@example(
    positives=[[1.0] * 10, [0.5] * 10],
    negatives=[
        ((2, SentenceId("P", 0)), [0.0, 1.0] + [0.5] * 8),
        ((1, SentenceId("Q", 0)), [1.0] * 10),
        ((2, SentenceId("P", 0)), [1.0, 0.0] + [0.5] * 8),
        ((1, SentenceId("P", 1)), [0.5, 0.5] + [0.5] * 8),
        ((1, SentenceId("P", 1)), [0.0] * 10),
    ],
    epochs=3,
)
def test_fit_keeps_the_sorted_hardest_negatives(positives, negatives, epochs):
    """Each epoch of _fit trains on exactly the reference selection of the
    negatives it was given, keys repeated or not, scores tied at the cut or
    not."""
    selected = []
    original = selection_module._hardest_negatives

    def checked(model, ranked, keep):
        hardest = original(model, ranked, keep)
        frozen = RelevanceModel(weights=list(model.weights), bias=model.bias)
        assert keep == min(len(positives), len(negatives))
        assert hardest == sorted(negatives, key=lambda item: (-frozen.score(item[1]), item[0]))[:keep]
        selected.append(hardest)
        return hardest

    keyed = [((0, SentenceId("G", i)), vector) for i, vector in enumerate(positives)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection_module, "_hardest_negatives", checked)
        _fit(keyed, negatives, TrainingConfig(epochs=epochs, seed=5))
    assert len(selected) == epochs


def test_sgd_epochs_steps_each_row_by_its_hand_worked_gradient():
    """One epoch over two examples, lr 0.5, with dyadic numbers so every
    float is exact. A = [1, 2], B = [2, 0]; the "shuffle" seed orders them
    B, A."""
    config = TrainingConfig(epochs=1, learning_rate=0.5, seed=0)
    a, b = [1.0, 2.0], [2.0, 0.0]

    # One logistic row, p = 0.5 + (w . f + bias) / 8, read as the row stands;
    # A is a positive (row 0) and B a negative (no row).
    rows, biases, seen = [[0.0, 0.0]], [0.0], []

    def logistic(f):
        seen.append(f)
        return [0.5 + (rows[0][0] * f[0] + rows[0][1] * f[1] + biases[0]) / 8]

    sgd_epochs(rows, biases, lambda epoch: [(a, 0), (b, None)], config, "shuffle", logistic)
    assert seen == [b, a]
    # B: p = 0.5, step 0.5 * 0.5 = 0.25: w = [-0.5, 0], bias = -0.25.
    # A: p = 0.5 + (-0.5 - 0.25) / 8 = 0.40625, step 0.5 * -0.59375:
    # w = [-0.5 + 0.296875, 0 + 0.59375], bias = -0.25 + 0.296875.
    assert (rows, biases) == ([[-0.203125, 0.59375]], [0.046875])

    # Three softmax rows with fixed p = [0.5, 0.25, 0.25]; A targets row 1,
    # B row 2. Times lr, row 0 steps by 0.25 on both, row 1 by -0.375 on A
    # and 0.125 on B, row 2 by 0.125 on A and -0.375 on B; the weights step
    # by that times the features.
    rows, biases = [[0.0, 0.0] for _ in range(3)], [0.0, 0.0, 0.0]
    sgd_epochs(rows, biases, lambda epoch: [(a, 1), (b, 2)], config, "shuffle", lambda f: [0.5, 0.25, 0.25])
    assert rows == [[-0.75, -0.5], [0.125, 0.75], [0.625, -0.25]]
    assert biases == [-0.5, 0.25, 0.25]


def test_softmax_kernel_is_built_once_per_width_and_reads_every_feature():
    assert softmax_probabilities(13) is softmax_probabilities(13)
    assert softmax_probabilities(0)([[], []], [0.0, 0.0], []) == [0.5, 0.5]
    # A weight on any one feature moves the probabilities.
    features = [1.0] * 13
    for i in range(13):
        rows = [[0.0] * 13, [0.0] * 13]
        rows[1][i] = 1.0
        assert softmax_probabilities(13)(rows, [0.0, 0.0], features) == reference_softmax(rows, [0.0, 0.0], features)
        assert softmax_probabilities(13)(rows, [0.0, 0.0], features)[1] > 0.5
    # A feature vector or a weight row of another width raises.
    for f, row in (([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0] * 4, [1.0, 2.0, 3.0]), ([1.0] * 3, [1.0, 2.0])):
        with pytest.raises(ValueError):
            softmax_probabilities(3)([row], [0.0], f)
    with pytest.raises(ValueError):
        NliModel(weights=[[0.0] * 13] * 3, biases=[0.0] * 3).probabilities([1.0] * 12)
    with pytest.raises(IndexError):
        RelevanceModel(weights=[1.0, 2.0, 3.0], bias=0.0).score([1.0, 2.0])


class TestSelectSentences:
    def test_k_larger_than_candidates(self, training_world):
        corpus, index, extractor, claims = training_world
        model = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        ranked = select_sentences(model, extractor, claims[0], ["Granite"], corpus, k=50)
        assert len(ranked) == 1

    def test_gold_with_rare_token_ranks_first(self, training_world):
        corpus, index, extractor, claims = training_world
        model = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        claim = claims[0]
        ranked = select_sentences(
            model, extractor, claim, ["Ada Hartley", "Quillstone", "Granite"], corpus, k=5
        )
        assert ranked[0][0] == SentenceId("Ada Hartley", 1)

    def test_duplicate_pages_scored_once(self, training_world):
        corpus, index, extractor, claims = training_world
        model = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        ranked = select_sentences(model, extractor, claims[0], ["Granite", "Granite"], corpus, k=10)
        assert len(ranked) == 1

    def test_scores_non_increasing(self, training_world):
        corpus, index, extractor, claims = training_world
        model = train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        ranked = select_sentences(
            model, extractor, claims[0], list(corpus.documents), corpus, k=10
        )
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_pages_skipped(self, training_world):
        corpus, index, extractor, claims = training_world
        model = RelevanceModel(weights=[0.0] * 10, bias=0.0)
        assert select_sentences(model, extractor, claims[0], ["Missing"], corpus, k=5) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, training_world, k):
        """Even with no candidate to score, k < 1 is an error, not a slice."""
        corpus, index, extractor, claims = training_world
        model = RelevanceModel(weights=[0.0] * 10, bias=0.0)
        for pages in (list(corpus.documents), []):
            with pytest.raises(ValueError, match="k must be >= 1"):
                select_sentences(model, extractor, claims[0], pages, corpus, k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                select_evidence({"m": model}, extractor, corpus, [claims[0]], {claims[0].claim_id: pages}, k)


def with_hollow(training_world):
    """training_world with the page "Hollow" (empty lines 0 and 2) added
    and indexed; the old extractor, whose index lacks its sentence, rejects
    it, naming it."""
    corpus, _, old, claims = training_world
    corpus.documents["Hollow"] = Document("Hollow", ((0, ""), (1, "Ada Hartley visited Hollow."), (2, "")))
    model = RelevanceModel(weights=[0.0] * len(SELECTION_FEATURE_NAMES), bias=0.0)
    with pytest.raises(ValueError, match=re.escape(f"sentence {SentenceId('Hollow', 1)} is no unit")):
        select_sentences(model, old, claims[0], ["Hollow"], corpus, 5)
    index = build_index(corpus, "sentence")
    return corpus, index, FeatureExtractor(index), claims


class TestSelectEvidence:
    def test_matches_select_sentences_per_model(self, training_world):
        corpus, index, extractor, claims = with_hollow(training_world)
        models = {
            "a": train_selector(claims, [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1)),
            "b": RelevanceModel(weights=[0.5 - i / 10 for i in range(len(SELECTION_FEATURE_NAMES))], bias=0.1),
        }
        page_lists = (
            list(corpus.documents),
            ["Ada Hartley", "Missing", "Ada Hartley", "Hollow", "Quillstone", "Hollow"],
            ["Missing"],
            [],
        )
        for claim in claims:
            for pages in page_lists:
                for k in (1, 3, 50):
                    expected = {
                        name: {claim.claim_id: select_sentences(model, extractor, claim, pages, corpus, k)}
                        for name, model in models.items()
                    }
                    docs = {claim.claim_id: pages}
                    assert select_evidence(models, extractor, corpus, [claim], docs, k) == expected

    def test_empty_text_sentences_never_selected(self, training_world):
        corpus, index, extractor, claims = with_hollow(training_world)
        model = RelevanceModel(weights=[0.0] * len(SELECTION_FEATURE_NAMES), bias=0.0)
        claim = claims[0]
        ranked = select_evidence({"m": model}, extractor, corpus, [claim], {claim.claim_id: ["Hollow"]}, k=5)
        assert ranked == {"m": {claim.claim_id: [(SentenceId("Hollow", 1), 0.5)]}}


class TestAggregateSr:
    def test_disjoint_merge(self):
        sup = [(SentenceId("A", 0), 0.8), (SentenceId("A", 1), 0.5)]
        ref = [(SentenceId("B", 0), 0.9), (SentenceId("B", 1), 0.4)]
        merged = aggregate_sr(sup, ref, k=4)
        assert merged == [
            (SentenceId("B", 0), 0.9),
            (SentenceId("A", 0), 0.8),
            (SentenceId("A", 1), 0.5),
            (SentenceId("B", 1), 0.4),
        ]

    def test_shared_id_keeps_max(self):
        sid = SentenceId("A", 0)
        merged = aggregate_sr([(sid, 0.4)], [(sid, 0.9)], k=5)
        assert merged == [(sid, 0.9)]

    def test_empty_side_truncates_other(self):
        sup = [(SentenceId("A", i), 1.0 - i / 10) for i in range(6)]
        assert aggregate_sr(sup, [], k=3) == sup[:3]

    @settings(max_examples=50, deadline=None)
    @given(
        left=st.lists(
            st.tuples(
                st.tuples(st.sampled_from("ABC"), st.integers(0, 5)),
                st.floats(0.01, 0.99),
            ),
            max_size=6,
        ),
        right=st.lists(
            st.tuples(
                st.tuples(st.sampled_from("ABC"), st.integers(0, 5)),
                st.floats(0.01, 0.99),
            ),
            max_size=6,
        ),
        k=st.integers(1, 8),
    )
    def test_symmetric(self, left, right, k):
        as_ranked = lambda items: [(SentenceId(*sid), score) for sid, score in items]
        assert aggregate_sr(as_ranked(left), as_ranked(right), k) == aggregate_sr(
            as_ranked(right), as_ranked(left), k
        )
