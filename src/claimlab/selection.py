"""Trainable sentence selection: negative sampling, regimes, ranking.

The relevance scorer is a logistic model over engineered lexical
features. It stands behind the same train/score surface a heavier
encoder would use, so the pipeline treats the scorer as pluggable.
Training draws 15 negatives per positive from a TF-IDF ranker in three
groups (same-document, other-document, fresh-document) and, each
epoch, keeps only the hardest negatives so positives and negatives
stay balanced.

Ranking is one featurize pass over a claim's candidate sentences plus a
top-k scoring step per model, so several selectors can score the same
feature vectors (see `experiment.select_evidence`).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from operator import mul
from pathlib import Path
from typing import Sequence, Union

from .claims import Claim, Label
from .corpus import Corpus, InvertedIndex, SentenceId, display_title, rank_key, tfidf_scores, top_k_scored
from .features import SELECTION_FEATURE_NAMES, FeatureExtractor, PreparedClaim
from .util import load_model, save_model, stable_seed

MODEL_SCHEMA = "claimlab/relevance-model/v1"


class Regime(enum.Enum):
    BASELINE = "baseline"
    SUP_ONLY = "sup"
    REF_ONLY = "ref"
    DATA_AUGMENTED = "da"

    @classmethod
    def from_string(cls, raw: str) -> "Regime":
        for regime in cls:
            if raw.lower() in (regime.value, regime.name.lower()):
                return regime
        raise ValueError(f"unknown training regime {raw!r}")


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
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
        z = self.bias + sum(map(mul, self.weights, features))
        return _sigmoid(z)

    def save(self, path: Union[str, Path]) -> None:
        fields = {"weights": self.weights, "bias": self.bias, "metadata": self.metadata}
        save_model(path, MODEL_SCHEMA, SELECTION_FEATURE_NAMES, fields)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RelevanceModel":
        payload = load_model(path, MODEL_SCHEMA, SELECTION_FEATURE_NAMES)
        return cls(weights=list(payload["weights"]), bias=payload["bias"], metadata=payload.get("metadata", {}))


def sample_negatives(
    claim: Claim,
    corpus: Corpus,
    index: InvertedIndex,
    positives: set[SentenceId],
    rng_seed: int,
    negatives_per_positive: int = 15,
) -> list[SentenceId]:
    """Up to 15 TF-IDF-ranked negatives per positive, in three groups.

    Per positive: group A is the top third from documents containing a
    positive sentence; group B the top third from documents containing
    none; group C one top-ranked sentence from each of several fresh
    documents (seeded choice among eligible documents) that are neither
    positive-bearing nor previously sampled for this claim. Groups may
    run short when the corpus cannot supply them; no positive is ever
    returned and no sentence repeats. Output order is A, B, C per
    positive, so callers can recover the partition. The index must be
    the sentence index of the corpus.

    Only what the groups can reach is ranked: the positive pages'
    sentences (A), the best sentences elsewhere (B: earlier positives
    use at most 2 * per_group of those each), and the sentences of the
    pages group C draws.
    """
    if index.granularity != "sentence":
        raise ValueError("negative sampling needs a sentence-granularity index")
    if not positives:
        raise ValueError(f"claim {claim.claim_id} has no positive sentences")
    per_group = max(1, negatives_per_positive // 3)
    scores = tfidf_scores(index, claim.text)

    def ranked_on(pages) -> list[SentenceId]:
        units = (
            SentenceId(page_id, line_index)
            for page_id in pages
            for line_index, _ in corpus.documents[page_id].sentences
        )
        return [sid for sid, _ in sorted(((sid, scores[sid]) for sid in units if sid in scores), key=rank_key)]

    positive_pages = {sid.page_id for sid in positives}
    same_page_ids = ranked_on(page for page in positive_pages if page in corpus.documents)
    reach = len(same_page_ids) + 2 * per_group * len(positives)
    other_page_ids = [sid for sid, _ in top_k_scored(scores, reach) if sid.page_id not in positive_pages]
    scored_pages = sorted({sid.page_id for sid in scores})

    used_sentences: set[SentenceId] = set(positives)
    used_documents: set[str] = set(positive_pages)
    rng = random.Random(rng_seed)
    out: list[SentenceId] = []

    for _ in sorted(positives):
        group_a = [sid for sid in same_page_ids if sid not in used_sentences][:per_group]
        used_sentences.update(group_a)

        group_b = [sid for sid in other_page_ids if sid not in used_sentences][:per_group]
        used_sentences.update(group_b)
        used_documents.update(sid.page_id for sid in group_b)

        # Every used sentence lies on a used document, so each fresh
        # document offers its best-ranked sentence.
        pages = [page for page in scored_pages if page not in used_documents]
        chosen = rng.sample(pages, k=min(per_group, len(pages)))
        group_c = [ranked_on([page])[0] for page in sorted(chosen)]
        used_sentences.update(group_c)
        used_documents.update(chosen)

        out.extend(group_a + group_b + group_c)
    return out


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


def _example_features(
    extractor: FeatureExtractor, corpus: Corpus, claim: PreparedClaim, sid: SentenceId
) -> list[float]:
    doc = corpus.documents[sid.page_id]
    position = [idx for idx, _ in doc.sentences].index(sid.line_index) / max(1, len(doc.sentences) - 1)
    text = corpus.get_sentence(sid) or ""
    return extractor.candidate_features(claim, display_title(sid.page_id), text, position)


def train_selector(
    claims: Sequence[Claim],
    synthetic_claims: Sequence[Claim],
    corpus: Corpus,
    index: InvertedIndex,
    extractor: FeatureExtractor,
    regime: Regime,
    config: TrainingConfig = TrainingConfig(),
) -> RelevanceModel:
    """Train the relevance scorer under one data regime.

    Each epoch re-scores the whole negative pool, keeps the hardest
    negatives so positive and negative counts match, and runs one full
    pass of per-example gradient descent on the logistic loss in a
    seeded shuffled order.
    """
    training_claims = _regime_claims(claims, synthetic_claims, regime)
    if not training_claims:
        raise ValueError(f"no training claims for regime {regime.value!r}")

    positives: list[tuple[tuple, list[float]]] = []
    negatives: list[tuple[tuple, list[float]]] = []
    for claim in training_claims:
        gold = sorted(sid for sid in claim.gold_sentences() if corpus.get_sentence(sid) is not None)
        if not gold:
            continue
        prepared = extractor.prepare_claim(claim.text)
        for sid in gold:
            positives.append(((claim.claim_id, sid), _example_features(extractor, corpus, prepared, sid)))
        sampled = sample_negatives(
            claim,
            corpus,
            index,
            set(gold),
            rng_seed=stable_seed(config.seed, "negatives", claim.claim_id),
            negatives_per_positive=config.negatives_per_positive,
        )
        for sid in sampled:
            negatives.append(((claim.claim_id, sid), _example_features(extractor, corpus, prepared, sid)))
    if not positives:
        raise ValueError(f"regime {regime.value!r} selected no trainable positives")

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
    return model


RankedEvidence = list[tuple[SentenceId, float]]
FeaturizedCandidates = list[tuple[SentenceId, list[float]]]


def featurize_candidates(
    extractor: FeatureExtractor, claim: Claim, candidate_pages: Sequence[str], corpus: Corpus
) -> FeaturizedCandidates:
    """Feature vectors of every non-empty sentence of the candidate pages.

    Duplicate pages are featurized once; unknown pages are skipped.
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
        denom = max(1, len(doc.sentences) - 1)
        title = display_title(page_id)
        for position, (line_index, text) in enumerate(doc.sentences):
            if not text:
                continue
            features = extractor.candidate_features(prepared, title, text, position / denom)
            featurized.append((SentenceId(page_id, line_index), features))
    return featurized


def top_k(model: RelevanceModel, featurized: FeaturizedCandidates, k: int) -> RankedEvidence:
    """Score featurized candidates with one model; ties break by sentence id."""
    scored = [(sid, model.score(features)) for sid, features in featurized]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def select_sentences(
    model: RelevanceModel,
    extractor: FeatureExtractor,
    claim: Claim,
    candidate_pages: Sequence[str],
    corpus: Corpus,
    k: int,
) -> RankedEvidence:
    """Score every non-empty sentence of the candidate pages; top-k.

    Duplicate pages are scored once; ties break by sentence id.
    """
    return top_k(model, featurize_candidates(extractor, claim, candidate_pages, corpus), k)


def aggregate_sr(sup: RankedEvidence, ref: RankedEvidence, k: int) -> RankedEvidence:
    """Merge two ranked lists by confidence; shared ids keep their max score."""
    best: dict[SentenceId, float] = {}
    for sid, score in list(sup) + list(ref):
        if sid not in best or score > best[sid]:
            best[sid] = score
    merged = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return merged[:k]
