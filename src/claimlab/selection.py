"""Trainable sentence selection: negative sampling, regimes, ranking.

The relevance scorer is a logistic model over engineered lexical
features. It stands behind the same train/score surface a heavier
encoder would use, so the pipeline treats the scorer as pluggable.
Training draws 15 negatives per positive from a TF-IDF ranker in three
groups (same-document, other-document, fresh-document) and, each
epoch, keeps only the hardest negatives so positives and negatives
stay balanced.

Negatives come from a `NegativePool` per training claim, which ranks
only what the groups can reach: the positive pages' sentences, an
exact MaxScore-pruned top-k of the rest of the sentence index, and the
pages group C draws. `train_selectors` trains several regimes in one
pass: each distinct training claim is parsed once into the `corpus.Query`
its pool and its feature vectors both read, and each regime's seed
drives its own draws from the shared pools.

Ranking is one featurize pass over a claim's candidate sentences plus a
top-k scoring step per model, so several selectors can score the same
feature vectors (see `experiment.select_evidence`).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .claims import Claim, Label
from .corpus import Corpus, IndexScorer, InvertedIndex, Query, SentenceId, rank_key, top_k_scored
from .features import SELECTION_FEATURE_NAMES, FeatureExtractor, PageTitle, PreparedClaim
from .util import load_model, save_model, stable_seed

MODEL_SCHEMA = "claimlab/relevance-model/v1"


class Regime(enum.Enum):
    BASELINE = "baseline"
    SUP_ONLY = "sup"
    REF_ONLY = "ref"
    DATA_AUGMENTED = "da"


@dataclass(frozen=True)
class TrainingConfig:
    """Defaults suit the linear scorer (2 epochs, lr 0.1)."""

    epochs: int = 2
    learning_rate: float = 0.1
    seed: int = 0
    negatives_per_positive: int = 15

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class RelevanceModel:
    weights: list[float]
    bias: float
    metadata: dict = field(default_factory=dict)

    def score(self, features: Sequence[float]) -> float:
        """Relevance probability in (0, 1)."""
        # Adds with + in order: sum() is compensated from Python 3.12 on.
        return _sigmoid(self.bias + reduce(add, map(mul, self.weights, features), 0.0))

    def save(self, path: Union[str, Path]) -> None:
        fields = {"weights": self.weights, "bias": self.bias, "metadata": self.metadata}
        save_model(path, MODEL_SCHEMA, SELECTION_FEATURE_NAMES, fields)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RelevanceModel":
        payload = load_model(path, MODEL_SCHEMA, SELECTION_FEATURE_NAMES)
        return cls(weights=list(payload["weights"]), bias=payload["bias"], metadata=payload.get("metadata", {}))


class NegativePool:
    """What one claim's negatives are drawn from, for its query and positives.

    Built once: group A's ranking of the positive pages' sentences, group
    B's reach list (the best sentences elsewhere, as many as draws of up
    to per_group negatives per group can use), and group C's population
    (the sorted pages with a sentence sharing a token with the claim).
    Each draw then filters these lists with its own rng and ranks only
    the pages it picks. Rankings are score descending, ties by sentence
    id, exactly as a sort of the whole index would give. The scorer's
    index must be the sentence index of the corpus.
    """

    def __init__(
        self,
        scorer: IndexScorer,
        corpus: Corpus,
        query: Query,
        positives: Iterable[SentenceId],
        per_group: int,
    ):
        self.positives = sorted(positives)
        self._scorer = scorer
        self._corpus = corpus
        self._query = query
        self._positive_pages = {sid.page_id for sid in self.positives}
        self._same_page = self._ranked(page for page in self._positive_pages if page in corpus.documents)
        # Per positive, groups B and C use at most 2 * per_group units of
        # the reach list; the positive pages' units are filtered out of it.
        reach = len(self._same_page) + 2 * per_group * len(self.positives)
        self._other_page = [
            sid for sid, _ in scorer.top_k(self._query, reach) if sid.page_id not in self._positive_pages
        ]
        self._population = scorer.pages(self._query)

    def _ranked(self, pages: Iterable[str]) -> list[SentenceId]:
        sids = [
            SentenceId(page_id, line_index)
            for page_id in pages
            for line_index, _ in self._corpus.documents[page_id].sentences
        ]
        return [sid for sid, _ in sorted(self._scorer.scores(self._query, sids).items(), key=rank_key)]

    def draw(self, rng_seed: int, per_group: int) -> list[SentenceId]:
        """Up to 3 * per_group TF-IDF-ranked negatives per positive, in
        three groups; per_group must not exceed the pool's.

        Per positive: group A is the top per_group from documents
        containing a positive sentence; group B the top per_group from
        documents containing none; group C one top-ranked sentence from
        each of up to per_group fresh documents (a seeded choice among the
        eligible documents) that are neither positive-bearing nor already
        drawn from. Groups may run short when the corpus cannot supply
        them; no positive is ever returned and no sentence repeats. Output
        order is A, B, C per positive, so callers can recover the
        partition.
        """
        used_sentences: set[SentenceId] = set(self.positives)
        used_documents: set[str] = set(self._positive_pages)
        rng = random.Random(rng_seed)
        out: list[SentenceId] = []

        for _ in self.positives:
            group_a = [sid for sid in self._same_page if sid not in used_sentences][:per_group]
            used_sentences.update(group_a)

            group_b = [sid for sid in self._other_page if sid not in used_sentences][:per_group]
            used_sentences.update(group_b)
            used_documents.update(sid.page_id for sid in group_b)

            # Every used sentence lies on a used document, so each fresh
            # document offers its best-ranked sentence.
            pages = [page for page in self._population if page not in used_documents]
            chosen = rng.sample(pages, k=min(per_group, len(pages)))
            group_c = [self._ranked([page])[0] for page in sorted(chosen)]
            used_sentences.update(group_c)
            used_documents.update(chosen)

            out.extend(group_a + group_b + group_c)
        return out


def _per_group(negatives_per_positive: int) -> int:
    return max(1, negatives_per_positive // 3)


def _regime_claims(
    claims: Sequence[Claim], synthetic_claims: Sequence[Claim], regime: Regime
) -> list[Claim]:
    supported = [c for c in claims if c.label is Label.SUPPORTED]
    refuted = [c for c in claims if c.label is Label.REFUTED]
    if regime is Regime.BASELINE:
        return [c for c in claims if c.label in (Label.SUPPORTED, Label.REFUTED)]
    if regime is Regime.SUP_ONLY:
        return supported
    if regime is Regime.REF_ONLY:
        return refuted
    if regime is Regime.DATA_AUGMENTED:
        base = [c for c in claims if c.label in (Label.SUPPORTED, Label.REFUTED)]
        return base + list(synthetic_claims)
    raise ValueError(f"unhandled regime {regime!r}")


@dataclass
class _TrainingClaim:
    """A training claim prepared once for every regime that uses it."""

    pool: NegativePool
    prepared: PreparedClaim
    vectors: dict[SentenceId, list[float]] = field(default_factory=dict)
    titles: dict[str, PageTitle] = field(default_factory=dict)

    def features(self, extractor: FeatureExtractor, corpus: Corpus, sid: SentenceId) -> list[float]:
        vector = self.vectors.get(sid)
        if vector is None:
            doc, position = corpus.locate(sid)
            page = self.titles.get(sid.page_id)
            if page is None:
                page = self.titles[sid.page_id] = extractor.page_title(self.prepared, doc.title_tokens)
            [(_, vector)] = extractor.page_features(self.prepared, page, doc, [position])
            self.vectors[sid] = vector
        return vector


def train_selectors(
    claims: Sequence[Claim],
    synthetic_claims: Sequence[Claim],
    corpus: Corpus,
    index: InvertedIndex,
    extractor: FeatureExtractor,
    configs: Mapping[Regime, TrainingConfig],
) -> dict[Regime, RelevanceModel]:
    """Train one relevance scorer per regime, in one pass over the claims.

    Each distinct training claim is prepared once, when the first regime
    uses it: its PreparedClaim, whose query its NegativePool ranks with
    (so the extractor must be backed by index), and, on first need, the
    title side of each page and the feature vector of each sentence.
    Each regime then draws every claim's negatives with its own config's
    seed, in claim order, and trains on its examples: each epoch
    re-scores the whole negative pool, keeps the hardest negatives so
    positive and negative counts match, and runs one pass of per-example
    gradient descent on the logistic loss in a seeded shuffled order. A
    model does not depend on which other regimes train in the same call.
    """
    scorer = IndexScorer(index)
    # A pool built for the largest per_group serves every smaller one: its
    # reach list only grows at the end.
    pool_per_group = max(_per_group(config.negatives_per_positive) for config in configs.values())
    prepared: dict[Claim, Optional[_TrainingClaim]] = {}
    models: dict[Regime, RelevanceModel] = {}
    for regime, config in configs.items():
        training_claims = _regime_claims(claims, synthetic_claims, regime)
        if not training_claims:
            raise ValueError(f"no training claims for regime {regime.value!r}")
        positives: list[tuple[tuple, list[float]]] = []
        negatives: list[tuple[tuple, list[float]]] = []
        for claim in training_claims:
            if claim not in prepared:
                gold = [sid for sid in claim.gold_sentences() if corpus.get_sentence(sid) is not None]
                prepared[claim] = None
                if gold:
                    claim_side = extractor.prepare_claim(claim.text)
                    pool = NegativePool(scorer, corpus, claim_side.query, gold, pool_per_group)
                    prepared[claim] = _TrainingClaim(pool, claim_side)
            entry = prepared[claim]
            if entry is None:
                continue
            for sid in entry.pool.positives:
                positives.append(((claim.claim_id, sid), entry.features(extractor, corpus, sid)))
            seed = stable_seed(config.seed, "negatives", claim.claim_id)
            for sid in entry.pool.draw(seed, _per_group(config.negatives_per_positive)):
                negatives.append(((claim.claim_id, sid), entry.features(extractor, corpus, sid)))
        if not positives:
            raise ValueError(f"regime {regime.value!r} selected no trainable positives")
        model = _fit(positives, negatives, config)
        model.metadata = {
            "regime": regime.value,
            "seed": config.seed,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "negatives_per_positive": config.negatives_per_positive,
            "n_claims": len(training_claims),
            "n_positives": len(positives),
            "n_negatives": len(negatives),
        }
        models[regime] = model
    return models


def _fit(
    positives: list[tuple[tuple, list[float]]],
    negatives: list[tuple[tuple, list[float]]],
    config: TrainingConfig,
) -> RelevanceModel:
    # Warm start from the TF-IDF ranker: before any update the scorer
    # orders candidates by cosine, so the first epoch's hardest
    # negatives are the lexically closest ones rather than ties.
    weights = [0.0] * len(SELECTION_FEATURE_NAMES)
    weights[SELECTION_FEATURE_NAMES.index("tfidf_cosine")] = 1.0
    model = RelevanceModel(weights=weights, bias=0.0)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        keep = min(len(positives), len(negatives))
        hardest = sorted(negatives, key=lambda item: (-model.score(item[1]), item[0]))[:keep]
        batch = [(features, 1) for _, features in positives]
        batch += [(features, 0) for _, features in hardest]
        random.Random(stable_seed(config.seed, "shuffle", epoch)).shuffle(batch)
        for features, target in batch:
            predicted = model.score(features)
            gradient = predicted - target
            for i, x in enumerate(features):
                model.weights[i] -= lr * gradient * x
            model.bias -= lr * gradient
    return model


def train_selector(
    claims: Sequence[Claim],
    synthetic_claims: Sequence[Claim],
    corpus: Corpus,
    index: InvertedIndex,
    extractor: FeatureExtractor,
    regime: Regime,
    config: TrainingConfig = TrainingConfig(),
) -> RelevanceModel:
    """train_selectors for one regime. Kept because bench/ calls it
    (ROADMAP item 12)."""
    return train_selectors(claims, synthetic_claims, corpus, index, extractor, {regime: config})[regime]


RankedEvidence = list[tuple[SentenceId, float]]
FeaturizedCandidates = list[tuple[SentenceId, list[float]]]


def featurize_candidates(
    extractor: FeatureExtractor, claim: Claim, candidate_pages: Sequence[str], corpus: Corpus
) -> FeaturizedCandidates:
    """Feature vectors of every non-empty sentence of the candidate pages.

    Duplicate pages are featurized once, with the title side computed
    once per page; unknown pages are skipped.
    """
    prepared = extractor.prepare_claim(claim.text)
    featurized: FeaturizedCandidates = []
    seen_pages = set()
    for page_id in candidate_pages:
        if page_id in seen_pages:
            continue
        seen_pages.add(page_id)
        doc = corpus.documents.get(page_id)
        if doc is None:
            continue
        page = extractor.page_title(prepared, doc.title_tokens)
        positions = [position for position, (_, text) in enumerate(doc.sentences) if text]
        featurized += extractor.page_features(prepared, page, doc, positions)
    return featurized


def top_k(model: RelevanceModel, featurized: FeaturizedCandidates, k: int) -> RankedEvidence:
    """Score featurized candidates with one model; ties break by sentence id.
    A pass's sentence ids are unique, so keying scores by id loses none."""
    weights, bias = model.weights, model.bias
    # RelevanceModel.score with the model's fields bound once per call.
    return top_k_scored(
        {sid: _sigmoid(bias + reduce(add, map(mul, weights, features), 0.0)) for sid, features in featurized}, k
    )


def select_sentences(
    model: RelevanceModel,
    extractor: FeatureExtractor,
    claim: Claim,
    candidate_pages: Sequence[str],
    corpus: Corpus,
    k: int,
) -> RankedEvidence:
    """Score every non-empty sentence of the candidate pages; top-k.

    Duplicate pages are scored once; ties break by sentence id. Kept
    because bench/ calls it (ROADMAP item 12).
    """
    return top_k(model, featurize_candidates(extractor, claim, candidate_pages, corpus), k)


def aggregate_sr(sup: RankedEvidence, ref: RankedEvidence, k: int) -> RankedEvidence:
    """Merge two ranked lists by confidence; shared ids keep their max score."""
    best: dict[SentenceId, float] = {}
    for sid, score in list(sup) + list(ref):
        if sid not in best or score > best[sid]:
            best[sid] = score
    return top_k_scored(best, k)
