"""Three-way claim classification over (claim, evidence sentence) pairs.

Each of a claim's top evidence sentences is classified independently as
supported / refuted / not-enough-info; the claim verdict is the
majority vote, with ties broken by the fixed precedence
NotEnoughInfo, Supported, Refuted. A pair's evidence is a sentence of a
`corpus.Document`, located by its SentenceId and read as the document's
title, text and tokens. `claim_verdicts` votes over several evidence
lists of one claim (one per regime) and classifies each distinct
(claim, sentence) pair once.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .claims import Claim, Label
from .corpus import Corpus, Document, SentenceId
from .features import PAIR_FEATURE_NAMES, FeatureExtractor, PreparedClaim
from .selection import RankedEvidence, TrainingConfig
from .util import load_model, save_model, stable_seed

MODEL_SCHEMA = "claimlab/nli-model/v1"

# Argmax ties resolve in this order; it is also the vote tie-break.
CLASS_ORDER = (Label.NOT_ENOUGH_INFO, Label.SUPPORTED, Label.REFUTED)

# NEI training pairs come from each NEI claim's own top retrieved sentences.
NEI_PAIRS_PER_CLAIM = 2


@dataclass
class NliModel:
    weights: list[list[float]]  # one weight vector per class, CLASS_ORDER
    biases: list[float]
    metadata: dict = field(default_factory=dict)

    def probabilities(self, features: Sequence[float]) -> list[float]:
        # Adds with + in order: sum() is compensated from Python 3.12 on.
        logits = [b + reduce(add, map(mul, ws, features), 0.0) for ws, b in zip(self.weights, self.biases)]
        peak = max(logits)
        exps = [math.exp(z - peak) for z in logits]
        total = reduce(add, exps, 0.0)
        return [e / total for e in exps]

    def save(self, path: Union[str, Path]) -> None:
        save_model(
            path,
            MODEL_SCHEMA,
            PAIR_FEATURE_NAMES,
            {
                "classes": [label.value for label in CLASS_ORDER],
                "weights": self.weights,
                "biases": self.biases,
                "metadata": self.metadata,
            },
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NliModel":
        payload = load_model(path, MODEL_SCHEMA, PAIR_FEATURE_NAMES)
        return cls(
            weights=[list(ws) for ws in payload["weights"]],
            biases=list(payload["biases"]),
            metadata=payload.get("metadata", {}),
        )


def classify_pair(
    model: NliModel, extractor: FeatureExtractor, claim: PreparedClaim, document: Document, position: int
) -> tuple[Label, list[float]]:
    """Argmax class for one (claim, candidate) pair, the candidate being the
    sentence at position in the document; exact ties resolve by CLASS_ORDER."""
    probs = model.probabilities(extractor.pair_features(claim, document, position))
    best = 0
    for i in range(1, len(CLASS_ORDER)):
        if probs[i] > probs[best]:
            best = i
    return CLASS_ORDER[best], probs


def aggregate_verdict(labels: Sequence[Label]) -> Label:
    """Majority vote; ties go to the earliest label in CLASS_ORDER.

    An empty list means no evidence was retrieved, which is
    NotEnoughInfo by definition.
    """
    if not labels:
        return Label.NOT_ENOUGH_INFO
    counts = Counter(labels)
    top = max(counts.values())
    for label in CLASS_ORDER:
        if counts.get(label, 0) == top:
            return label
    raise AssertionError("unreachable")


def _training_pairs(
    claims: Sequence[Claim],
    selections: Mapping[int, RankedEvidence],
    corpus: Corpus,
    extractor: FeatureExtractor,
) -> list[tuple[list[float], int]]:
    pairs = []
    for claim in claims:
        if claim.label is Label.NOT_ENOUGH_INFO:
            retrieved = selections.get(claim.claim_id, [])[:NEI_PAIRS_PER_CLAIM]
            sids = [sid for sid, _ in retrieved]
        else:
            sids = sorted(claim.gold_sentences())
        target = CLASS_ORDER.index(claim.label)
        prepared = extractor.prepare_claim(claim.text)
        for sid in sids:
            located = corpus.locate(sid)
            if located is None:
                continue
            pairs.append((extractor.pair_features(prepared, *located), target))
    return pairs


def train_nli(
    claims: Sequence[Claim],
    selections: Mapping[int, RankedEvidence],
    corpus: Corpus,
    extractor: FeatureExtractor,
    config: TrainingConfig = TrainingConfig(),
) -> NliModel:
    """Seeded gradient descent on softmax cross-entropy over pair features.

    Supported/refuted claims pair with each gold evidence sentence;
    NEI claims pair with their own top retrieved sentences. All three
    classes must be present.
    """
    pairs = _training_pairs(claims, selections, corpus, extractor)
    present = {target for _, target in pairs}
    missing = [CLASS_ORDER[i].value for i in range(len(CLASS_ORDER)) if i not in present]
    if missing:
        raise ValueError(f"training data has no pairs for class(es): {', '.join(missing)}")

    n_features = len(PAIR_FEATURE_NAMES)
    model = NliModel(
        weights=[[0.0] * n_features for _ in CLASS_ORDER],
        biases=[0.0] * len(CLASS_ORDER),
    )
    lr = config.learning_rate
    for epoch in range(config.epochs):
        batch = list(pairs)
        random.Random(stable_seed(config.seed, "nli-shuffle", epoch)).shuffle(batch)
        for features, target in batch:
            probs = model.probabilities(features)
            for c in range(len(CLASS_ORDER)):
                gradient = probs[c] - (1.0 if c == target else 0.0)
                weights = model.weights[c]
                for i, x in enumerate(features):
                    weights[i] -= lr * gradient * x
                model.biases[c] -= lr * gradient
    model.metadata = {
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "n_pairs": len(pairs),
    }
    return model


def claim_verdicts(
    model: NliModel,
    extractor: FeatureExtractor,
    corpus: Corpus,
    claim: Claim,
    evidence_lists: Sequence[RankedEvidence],
) -> list[tuple[Label, list[SentenceId]]]:
    """One verdict per evidence list: each list's sentences that the corpus
    holds, classified separately, then majority-voted.

    The claim is prepared once and each distinct sentence is classified
    once, however many lists rank it. Each sentence is classified
    together with its page title, so pronoun-heavy evidence keeps its
    subject.
    """
    prepared = extractor.prepare_claim(claim.text)
    labels: dict[SentenceId, Optional[Label]] = {}
    verdicts = []
    for evidence in evidence_lists:
        votes = []
        predicted = []
        for sid, _ in evidence:
            if sid not in labels:
                located = corpus.locate(sid)
                labels[sid] = None if located is None else classify_pair(model, extractor, prepared, *located)[0]
            label = labels[sid]
            if label is not None:
                votes.append(label)
                predicted.append(sid)
        verdicts.append((aggregate_verdict(votes), predicted))
    return verdicts


def verdict_for_claim(
    model: NliModel,
    extractor: FeatureExtractor,
    corpus: Corpus,
    claim: Claim,
    evidence: RankedEvidence,
) -> tuple[Label, list[SentenceId]]:
    """claim_verdicts of one evidence list. Kept because bench/ calls it
    (ROADMAP item 12)."""
    return claim_verdicts(model, extractor, corpus, claim, [evidence])[0]
