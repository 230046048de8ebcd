"""Trainable sentence selection: negative sampling, regimes, ranking.

The relevance scorer is a logistic model over engineered lexical
features; every score of one, a vector's or a batch's, and every
probability its training steps by, comes from one kernel,
`util.logistic_scores`; the logits ranking bounds by come from
`features.logistic_bounds`, with the bits of the z the first takes for a
ceiling, and a bound is `util.sigmoid` of one, with the bits of the
ceiling's score. It stands behind the same train/score surface a heavier
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

Ranking (`rank_candidates`) takes one held pass over a claim's candidate
sentences (see `features`), which gives one flat list of held
candidates, each its row, cosine, mask record and page record, but no
vector; the held cosine's dot takes util.tfidf_dots' chain, the one the
pools' `IndexScorer` ranks negatives by, so both dot sites agree bit
for bit. Per model it then takes every candidate's ceiling logit, in one
call of `features.logistic_bounds`, which adds the ceiling's products
in the one chain `util.logistic_scores` takes, and sorts the candidates
by falling logit; a candidate's bound, the score of its ceiling, is the
sigmoid of its logit, taken only when the candidate is reached. It
finishes candidates in that order and stops when the next bound, with a
slack that covers rounding, is below the k-th best exact score: the top
k are exactly those of a full featurize-and-score pass, ties by sentence
id, from far fewer vectors, and a vector is built only for a candidate
that is finished. Several selectors rank one claim in one call (see
`experiment.select_evidence`).
Vectors live on the claim (see `features`, which alone reads and writes
the claim's memo): the prepared claim keeps each vector ranking
finishes, so a vector computed for one model serves the others, and the
verdict on the claim prepares nothing and featurizes none of its
sentences again. A claim served alone is the extractor's last claim
until the next is served; in a run, every claim stays in the run's dict
of claims, so the vectors training finished serve ranking, and those
ranking finished serve NLI training and the verdict stage.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .claims import Claim, Label
from .corpus import Corpus, IndexScorer, InvertedIndex, Query, SentenceId, rank_key, top_k_scored
from .features import BOUNDED_FEATURES, SELECTION_FEATURE_NAMES, FeatureExtractor, PreparedClaim, logistic_bounds
from .util import check_fields, load_model, logistic_scores, save_model, sigmoid, stable_seed

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


@dataclass
class RelevanceModel:
    weights: list[float]
    bias: float
    metadata: dict = field(default_factory=dict)

    def score(self, features: Sequence[float]) -> float:
        """Relevance probability in (0, 1), from the one logistic kernel
        (util.logistic_scores), which ranking's batches go through too."""
        return logistic_scores(len(self.weights))(self.weights, self.bias, ((None, features),))[None]

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
    the pages it picks (group C takes the first of each one's _ranked).
    Rankings are score descending, ties by sentence id, exactly as a sort
    of the whole index would give. The scorer's index must be the
    sentence index of the corpus.
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
        # Only a page's candidates are index units; its empty lines would score nothing.
        documents = [self._corpus.documents[page_id] for page_id in pages]
        sids = [doc.sids[p] for doc in documents for p in doc.candidate_positions]
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


def _regime_claims(claims: Sequence[Claim], synthetic_claims: Sequence[Claim], regime: str) -> list[Claim]:
    spec = REGIMES[regime]
    chosen = [c for c in claims if c.label in spec.labels]
    return chosen + list(synthetic_claims) if spec.synthetic else chosen


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
    its NegativePool ranks with over the extractor's own index, and whose
    vectors are each computed once, when first needed (see `features`);
    a gold sentence that is no candidate (missing or empty) is skipped.
    Each regime then draws every claim's negatives from that pool with a
    seed of its own config's seed and the claim's own id, in claim order,
    reads the vectors of the claim's positives and negatives through one
    FeatureExtractor.selection_vectors call, and trains on its examples:
    each epoch re-scores the whole negative pool, keeps the hardest
    negatives so positive and negative counts match, and runs one pass of
    per-example gradient descent on the logistic loss in a seeded shuffled
    order, every score and probability from util.logistic_scores. A model
    does not depend on which other regimes train in the same call.
    """
    scorer = IndexScorer(extractor.index)
    # A pool built for the largest per_group serves every smaller one: its
    # reach list only grows at the end.
    pool_per_group = max(_per_group(config.negatives_per_positive) for config in configs.values())
    prepared: dict[tuple[str, tuple], Optional[tuple[NegativePool, PreparedClaim]]] = {}
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
                gold = [sid for sid in claim.gold_sentences() if corpus.get_sentence(sid)]
                prepared[key] = None
                if gold:
                    side = extractor.prepare_claim(claim.text)
                    prepared[key] = (NegativePool(scorer, corpus, side.query, gold, pool_per_group), side)
            if prepared[key] is None:
                continue
            pool, side = prepared[key]
            seed = stable_seed(config.seed, "negatives", claim.claim_id)
            drawn = pool.draw(seed, _per_group(config.negatives_per_positive))
            vectors = dict(extractor.selection_vectors(side, corpus.pages_of(pool.positives + drawn)))
            positives += [((claim.claim_id, sid), vectors[sid]) for sid in pool.positives]
            negatives += [((claim.claim_id, sid), vectors[sid]) for sid in drawn]
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
    scores = logistic_scores(len(weights))
    # Sorted by key once, stably, as _hardest_negatives needs.
    negatives = sorted(negatives, key=itemgetter(0))
    keep = min(len(positives), len(negatives))

    def epoch_batch(epoch: int) -> list:  # positives target row 0, negatives no row
        hardest = _hardest_negatives(RelevanceModel(weights, biases[0]), negatives, keep)
        return [(features, 0) for _, features in positives] + [(features, None) for _, features in hardest]

    # {0: p} is row 0's probability, p[0], as sgd_epochs reads it.
    sgd_epochs([weights], biases, epoch_batch, config, "shuffle", lambda f: scores(weights, biases[0], ((0, f),)))
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
    return [negatives[i] for i, _ in top_k(model, enumerate(map(itemgetter(1), negatives)), keep)]


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

# Relative slack on a bound's score, far above the rounding error that can
# put a score above the score of its bound (see rank_candidates).
_SCORE_SLACK = 1e-9


def top_k(model: RelevanceModel, featurized: Iterable[tuple[Any, Sequence[float]]], k: int) -> list[tuple]:
    """Score (key, features) pairs with one model; top-k, ties by key.
    Keys must be unique, as scores are keyed by them."""
    # One batch kernel call scores the whole list, each score with
    # RelevanceModel.score's bits.
    return top_k_scored(logistic_scores(len(model.weights))(model.weights, model.bias, featurized), k)


def rank_candidates(
    models: Sequence[RelevanceModel],
    extractor: FeatureExtractor,
    claim: Claim,
    candidate_pages: Sequence[str],
    corpus: Corpus,
    k: int,
) -> list[RankedEvidence]:
    """Each model's top-k of the candidate sentences of the candidate pages
    (Document.candidate_positions), best first: exactly top_k over every
    candidate's selection vector (FeatureExtractor.selection_vectors'),
    ties by sentence id, though only the candidates that can reach the
    top k are finished.

    Duplicate pages are ranked once; unknown pages are skipped. The claim
    side is FeatureExtractor.prepare_claim's. One held pass gives every
    candidate its row, cosine, mask record and page record
    (features.FeatureExtractor.held, term-major, its dot in the chain of
    util.tfidf_dots, the package's other dot site, so the cosine is
    IndexScorer.scores' bit for bit; a sentence the index does not hold
    raises there). A model bounds each candidate's score by the score of
    its ceiling (features.ceiling) under the model's weights with those of
    bigram_overlap and entity_spans_in_body raised to 0 if negative. One
    features.logistic_bounds call gives every ceiling's logit: it takes
    the products logistic_scores would take of the ceiling and adds them
    in the ceiling's feature order, left to right from 0.0, then the bias:
    the same operations, so the same bits. This z is the score's chain of
    products and sums, left to right, with no term smaller (a ceiling is
    at least its count, and a raised weight's term is 0.0 where the true
    one is at most 0), and rounding to nearest is monotone, so it is no
    smaller than the score's z. The bound is util.sigmoid(z), the
    ceiling's score bit for bit. Each sigmoid is within a few units in the
    last place of its true value, or, below the smallest normal float,
    within a few subnormal steps of it, so the bound times 1 +
    _SCORE_SLACK, plus the smallest normal float, is no smaller than the
    score.

    Candidates are taken by falling logit, ties in candidate order, and a
    candidate's bound is taken when it is reached. Each taken candidate is
    finished (FeatureExtractor.finish, which builds its vector once per
    claim) and scored with RelevanceModel.score, until the bound reached,
    so slackened, is below the k-th best score so far. Every candidate
    left has a logit no larger, so a true sigmoid no larger, and the
    slack covers the rounding of both computed sigmoids: none can then
    reach the top k, while one that ties it is finished. A vector computed
    for one model serves the others and the verdict.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    documents = [corpus.documents.get(page_id) for page_id in dict.fromkeys(candidate_pages)]
    prepared = extractor.prepare_claim(claim.text)
    candidates = extractor.held(prepared, [(doc, doc.candidate_positions) for doc in documents if doc is not None])
    floor = sys.float_info.min
    ranked = []
    for model in models:
        weights = list(model.weights)
        for feature in BOUNDED_FEATURES:
            weights[feature] = max(weights[feature], 0.0)
        logits = logistic_bounds(weights, model.bias, candidates)
        scores: dict[SentenceId, float] = {}
        best: list[float] = []  # the k best scores so far, a min-heap
        # sorted is stable under reverse, so equal logits stay in candidate order.
        for i in sorted(range(len(logits)), key=logits.__getitem__, reverse=True):
            bound = sigmoid(logits[i])
            if len(best) == k and bound + bound * _SCORE_SLACK + floor < best[0]:
                break
            candidate = candidates[i]
            scores[candidate[0][0]] = score = model.score(extractor.finish(prepared, candidate))
            if len(best) < k:
                heapq.heappush(best, score)
            else:
                heapq.heappushpop(best, score)
        ranked.append(top_k_scored(scores, k))
    return ranked


def select_sentences(
    model: RelevanceModel,
    extractor: FeatureExtractor,
    claim: Claim,
    candidate_pages: Sequence[str],
    corpus: Corpus,
    k: int,
) -> RankedEvidence:
    """rank_candidates for one model. Kept because bench/ calls it
    (ROADMAP item 12)."""
    return rank_candidates([model], extractor, claim, candidate_pages, corpus, k)[0]


def aggregate_sr(sup: RankedEvidence, ref: RankedEvidence, k: int) -> RankedEvidence:
    """Merge two ranked lists by confidence; shared ids keep their max score."""
    best: dict[SentenceId, float] = {}
    for sid, score in list(sup) + list(ref):
        if sid not in best or score > best[sid]:
            best[sid] = score
    return top_k_scored(best, k)
