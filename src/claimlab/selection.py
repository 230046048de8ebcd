"""Trainable sentence selection: negative sampling, regimes, ranking.

The relevance scorer is a logistic model over engineered lexical
features. It stands behind the same train/score surface a heavier
encoder would use, so the pipeline treats the scorer as pluggable.
Training draws 15 negatives per positive from a TF-IDF ranker in three
groups (same-document, other-document, fresh-document) and, each
epoch, keeps only the hardest negatives so positives and negatives
stay balanced: one batch scoring of every negative, then
`corpus.top_k_scored`, never a full sort. That epoch's batch goes
through `sgd_epochs`, the one SGD loop, which the NLI classifier
trains through too.

Negatives come from a `NegativePool` per training claim, which ranks
only what the groups can reach: the positive pages' sentences, an
exact MaxScore-pruned top-k of the rest of the sentence index, and the
pages group C draws, each ranked when drawn. `REGIMES` says what each
regime is. `train_selectors` trains several regimes in one pass: each
distinct (claim text, evidence groups) is parsed once into the
`corpus.Query` its pool and its feature vectors both read, each regime's
seed and each claim's own id drive that claim's draws from the shared
pools, and each draw's new sentences are featurized a page at a time.

Ranking is one featurize pass over a claim's candidate sentences plus a
top-k scoring step per model, each one call of the batch kernel
`util.logistic_scores`, so several selectors can score the same feature
vectors (see `experiment.select_evidence`). The featurize pass leaves
the claim and its vectors in the extractor's slot (see `features`), so
the verdict on a claim served alone, which follows at once, prepares
nothing and featurizes none of its sentences again. The slot holds that
one claim only: a run's stages each pass over every claim, so by the
verdict stage the slot holds another claim, and each stage keeps its own
per-call memos.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .claims import Claim, Label
from .corpus import Corpus, IndexScorer, InvertedIndex, Query, SentenceId, rank_key, top_k_scored
from .features import SELECTION_FEATURE_NAMES, FeatureExtractor, PreparedClaim
from .util import check_fields, linear_form, load_model, logistic_scores, save_model, stable_seed

MODEL_SCHEMA = "claimlab/relevance-model/v1"


class RegimeSpec(NamedTuple):
    """The labels of the claims a regime's selector trains on and whether
    the synthetic claims join them, or the two selectors it merges."""

    labels: tuple[Label, ...] = ()
    synthetic: bool = False
    merges: tuple[str, ...] = ()


REGIMES = {  # in report order
    "baseline": RegimeSpec((Label.SUPPORTED, Label.REFUTED)),
    "sup": RegimeSpec((Label.SUPPORTED,)),
    "ref": RegimeSpec((Label.REFUTED,)),
    "sr": RegimeSpec(merges=("sup", "ref")),
    "da": RegimeSpec((Label.SUPPORTED, Label.REFUTED), synthetic=True),
}


class Regime(enum.Enum):  # the train_selector shim's argument type only (ROADMAP item 12)
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
        check_fields(TrainingConfig, vars(self))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


def sgd_epochs(
    rows: list, biases: list, epoch_batch: Callable, config: TrainingConfig, tag: str, probabilities: Callable
) -> None:
    """The one SGD loop: cross-entropy descent, in place, for a linear model
    with a weight row and a bias per output. Each epoch shuffles the list
    epoch_batch(epoch) with a seed of (config.seed, tag, epoch); for each
    (features, target) in it, p = probabilities(features) and row c steps
    by p[c] - (1.0 if c == target else 0.0): its weights in order, then its bias."""
    lr = config.learning_rate
    for epoch in range(config.epochs):
        batch = epoch_batch(epoch)
        random.Random(stable_seed(config.seed, tag, epoch)).shuffle(batch)
        for features, target in batch:
            probs = probabilities(features)
            for c, weights in enumerate(rows):
                gradient = probs[c] - (1.0 if c == target else 0.0)
                for i, x in enumerate(features):
                    weights[i] -= lr * gradient * x
                biases[c] -= lr * gradient


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
        # Adds with + in order through the one straight-line kernel
        # (util.linear_form): sum() is compensated from Python 3.12 on.
        return _sigmoid(self.bias + linear_form(len(self.weights))(self.weights, features))

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
        documents = self._corpus.documents
        sids = [sid for page_id in pages for sid in documents[page_id].sids]
        return [sid for sid, _ in sorted(self._scorer.scores(self._query, sids).items(), key=rank_key)]

    def _best_of(self, page: str) -> SentenceId:
        """The page's best-ranked sentence, _ranked([page])[0]."""
        return min(self._scorer.scores(self._query, self._corpus.documents[page].sids).items(), key=rank_key)[0]

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
            group_c = [self._best_of(page) for page in sorted(chosen)]
            used_sentences.update(group_c)
            used_documents.update(chosen)

            out.extend(group_a + group_b + group_c)
        return out


def _per_group(negatives_per_positive: int) -> int:
    return max(1, negatives_per_positive // 3)


def _regime_claims(claims: Sequence[Claim], synthetic_claims: Sequence[Claim], regime: str) -> list[Claim]:
    spec = REGIMES[regime]
    chosen = [c for c in claims if c.label in spec.labels]
    return chosen + list(synthetic_claims) if spec.synthetic else chosen


@dataclass
class _TrainingClaim:
    """A training claim prepared once for every regime that uses it."""

    pool: NegativePool
    prepared: PreparedClaim
    vectors: dict[SentenceId, list[float]] = field(default_factory=dict)

    def features(self, extractor: FeatureExtractor, corpus: Corpus, sids: Sequence[SentenceId]) -> list[list[float]]:
        """The feature vectors of the (located) sentences, in order. The
        sentences not featurized before are featurized in one page_features
        call."""
        vectors = self.vectors
        pages = corpus.pages_of([sid for sid in sids if sid not in vectors])
        vectors.update(extractor.page_features(self.prepared, pages))
        return [vectors[sid] for sid in sids]


def train_selectors(
    claims: Sequence[Claim],
    synthetic_claims: Sequence[Claim],
    corpus: Corpus,
    extractor: FeatureExtractor,
    configs: Mapping[str, TrainingConfig],
) -> dict[str, RelevanceModel]:
    """Train one relevance scorer per named regime, in one pass over the claims.

    Each distinct (claim text, evidence groups) is prepared once, when the
    first regime uses a claim that has it: its PreparedClaim, whose query
    its NegativePool ranks with over the extractor's own index, and, on
    first need, the feature vector of each sentence. Each regime then
    draws every claim's negatives from that pool with a seed of its own
    config's seed and the claim's own id, in claim order, and trains on
    its examples: each epoch re-scores the whole negative pool, keeps the
    hardest negatives so positive and negative counts match, and runs one
    pass of per-example gradient descent on the logistic loss in a seeded
    shuffled order. A model does not depend on which other regimes train
    in the same call.
    """
    scorer = IndexScorer(extractor.index)
    # A pool built for the largest per_group serves every smaller one: its
    # reach list only grows at the end.
    pool_per_group = max(_per_group(config.negatives_per_positive) for config in configs.values())
    prepared: dict[tuple[str, tuple], Optional[_TrainingClaim]] = {}
    models: dict[str, RelevanceModel] = {}
    for regime, config in configs.items():
        training_claims = _regime_claims(claims, synthetic_claims, regime)
        if not training_claims:
            raise ValueError(f"no training claims for regime {regime!r}")
        positives: list[tuple[tuple, list[float]]] = []
        negatives: list[tuple[tuple, list[float]]] = []
        for claim in training_claims:
            key = (claim.text, claim.evidence_groups)
            if key not in prepared:
                gold = [sid for sid in claim.gold_sentences() if corpus.get_sentence(sid) is not None]
                prepared[key] = None
                if gold:
                    claim_side = extractor.prepare_claim(claim.text)
                    pool = NegativePool(scorer, corpus, claim_side.query, gold, pool_per_group)
                    prepared[key] = _TrainingClaim(pool, claim_side)
            entry = prepared[key]
            if entry is None:
                continue
            gold = entry.pool.positives
            positives += zip([(claim.claim_id, sid) for sid in gold], entry.features(extractor, corpus, gold))
            seed = stable_seed(config.seed, "negatives", claim.claim_id)
            drawn = entry.pool.draw(seed, _per_group(config.negatives_per_positive))
            negatives += zip([(claim.claim_id, sid) for sid in drawn], entry.features(extractor, corpus, drawn))
        if not positives:
            raise ValueError(f"regime {regime!r} selected no trainable positives")
        model = _fit(positives, negatives, config)
        model.metadata = {
            "regime": regime,
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
    biases = [0.0]
    dot = linear_form(len(weights))
    # Sorted by key once, stably, as _hardest_negatives needs.
    negatives = sorted(negatives, key=itemgetter(0))
    keep = min(len(positives), len(negatives))

    def epoch_batch(epoch: int) -> list:  # positives target row 0, negatives no row
        hardest = _hardest_negatives(RelevanceModel(weights, biases[0]), negatives, keep)
        return [(features, 0) for _, features in positives] + [(features, None) for _, features in hardest]

    sgd_epochs([weights], biases, epoch_batch, config, "shuffle", lambda f: [_sigmoid(biases[0] + dot(weights, f))])
    return RelevanceModel(weights=weights, bias=biases[0])


def _hardest_negatives(
    model: RelevanceModel, negatives: Sequence[tuple[tuple, list[float]]], keep: int
) -> list[tuple[tuple, list[float]]]:
    """The keep (key, features) negatives the model scores highest, score
    descending. negatives must be sorted by key, stably, so ties break by
    key and then by original order, as sorted() by (-score, key) does; a
    repeated key is never merged away."""
    if keep < 1:
        return []
    scores = logistic_scores(len(model.weights))(model.weights, model.bias, enumerate(map(itemgetter(1), negatives)))
    return [negatives[i] for i, _ in top_k_scored(scores, keep)]


def train_selector(
    claims: Sequence[Claim],
    synthetic_claims: Sequence[Claim],
    corpus: Corpus,
    index: InvertedIndex,
    extractor: FeatureExtractor,
    regime: Regime,
    config: TrainingConfig = TrainingConfig(),
) -> RelevanceModel:
    """train_selectors for one regime; index is unused, as the extractor
    holds it. Kept because bench/ calls it (ROADMAP item 12)."""
    return train_selectors(claims, synthetic_claims, corpus, extractor, {regime.value: config})[regime.value]


RankedEvidence = list[tuple[SentenceId, float]]
FeaturizedCandidates = list[tuple[SentenceId, list[float]]]


def featurize_candidates(
    extractor: FeatureExtractor, claim: Claim, candidate_pages: Sequence[str], corpus: Corpus
) -> FeaturizedCandidates:
    """Feature vectors of every candidate sentence of the candidate pages
    (Document.candidate_positions), in one page_features call.

    Duplicate pages are featurized once; unknown pages are skipped. The
    claim becomes the extractor's slot claim, so a verdict that follows
    reads the claim and these vectors from the slot.
    """
    documents = [corpus.documents.get(page_id) for page_id in dict.fromkeys(candidate_pages)]
    pages = [(doc, doc.candidate_positions) for doc in documents if doc is not None]
    return extractor.page_features(extractor.prepare_claim(claim.text), pages)


def top_k(model: RelevanceModel, featurized: FeaturizedCandidates, k: int) -> RankedEvidence:
    """Score featurized candidates with one model; ties break by sentence id.
    A pass's sentence ids are unique, so keying scores by id loses none."""
    # One batch kernel call scores the whole list, each score with
    # RelevanceModel.score's bits.
    return top_k_scored(logistic_scores(len(model.weights))(model.weights, model.bias, featurized), k)


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
