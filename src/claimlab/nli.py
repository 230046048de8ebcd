"""Three-way claim classification over (claim, evidence sentence) pairs.

Each of a claim's top evidence sentences is classified independently as
supported / refuted / not-enough-info; the claim verdict is the
majority vote, with ties broken by the fixed precedence
NotEnoughInfo, Supported, Refuted. A pair's evidence is a sentence of a
`corpus.Document`, located by its SentenceId and read as the document's
title, text and tokens. `claim_verdicts` votes over several evidence
lists of one claim text (one per regime and per claim sharing the text)
and classifies each distinct (claim text, sentence) pair once. Pairs
are featurized and classified a page at a time (`classify_pair` takes
one page's positions), both there and in NLI training, with the claim
side computed once per distinct claim text in a call.

Selection vectors live on the claim (see `features`): a pair starts
from its prepared claim's memo, and only the sentences the memo lacks
are featurized. A claim served alone, select then verdict, is the
extractor's last claim, and a claim in a run is in the run's dict of
claims, so either is prepared once, and its verdict copies the selected
sentences' vectors instead of featurizing them again. Training
interleaves claims, so it keeps its own memo of prepared claims, one per
distinct text, and claims that share a text share their vectors; it
steps the three softmax rows through `selection.sgd_epochs`,
the selector's SGD loop. A pair's class probabilities, in training and
in classification alike, come from one call of the generated softmax
kernel, `util.softmax_probabilities`, which adds each logit's products
left to right, so its bits are the same on every Python version.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

from .claims import Claim, Label
from .corpus import Corpus, Document, SentenceId
from .features import PAIR_FEATURE_NAMES, FeatureExtractor, PreparedClaim
from .selection import RankedEvidence, TrainingConfig, sgd_epochs
from .util import load_model, save_model, softmax_probabilities

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
        """Class probabilities in CLASS_ORDER, from the softmax kernel
        (util.softmax_probabilities); features has one value per weight."""
        return softmax_probabilities(len(features))(self.weights, self.biases, features)

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
    model: NliModel, extractor: FeatureExtractor, claim: PreparedClaim, document: Document, positions: Sequence[int]
) -> list[tuple[SentenceId, Label, list[float]]]:
    """Argmax class of each (claim, candidate) pair of one page, the
    candidates being the sentences at the given positions in the document,
    each with its SentenceId and class probabilities; exact ties resolve
    by CLASS_ORDER."""
    classified = []
    for sid, features in extractor.pair_features(claim, document, positions):
        probs = model.probabilities(features)
        best = 0
        for i in range(1, len(CLASS_ORDER)):
            if probs[i] > probs[best]:
                best = i
        classified.append((sid, CLASS_ORDER[best], probs))
    return classified


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
    prepared: dict[str, PreparedClaim] = {}
    for claim in claims:
        if claim.label is Label.NOT_ENOUGH_INFO:
            retrieved = selections.get(claim.claim_id, [])[:NEI_PAIRS_PER_CLAIM]
            sids = [sid for sid, _ in retrieved]
        else:
            sids = sorted(claim.gold_sentences())
        target = CLASS_ORDER.index(claim.label)
        if claim.text not in prepared:
            prepared[claim.text] = extractor.prepare_claim(claim.text)
        vectors: dict[SentenceId, list[float]] = {}
        for document, positions in corpus.pages_of(sids):
            vectors.update(extractor.pair_features(prepared[claim.text], document, positions))
        pairs += [(vectors[sid], target) for sid in sids if sid in vectors]
    return pairs


def train_nli(
    claims: Sequence[Claim],
    selections: Mapping[int, RankedEvidence],
    corpus: Corpus,
    extractor: FeatureExtractor,
    config: TrainingConfig = TrainingConfig(),
) -> NliModel:
    """Seeded gradient descent on softmax cross-entropy over pair features.

    Supported/refuted claims pair with each gold sentence that is a
    candidate (Corpus.pages_of); NEI claims with their own top retrieved
    sentences. Each distinct claim text is prepared once per call, and each
    of its sentences featurized once. All three classes must be present.
    """
    pairs = _training_pairs(claims, selections, corpus, extractor)
    present = {target for _, target in pairs}
    missing = [CLASS_ORDER[i].value for i in range(len(CLASS_ORDER)) if i not in present]
    if missing:
        raise ValueError(f"training data has no pairs for class(es): {', '.join(missing)}")

    model = NliModel(weights=[[0.0] * len(PAIR_FEATURE_NAMES) for _ in CLASS_ORDER], biases=[0.0] * len(CLASS_ORDER))
    sgd_epochs(model.weights, model.biases, lambda epoch: list(pairs), config, "nli-shuffle", model.probabilities)
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
    """One verdict per evidence list: each list's candidate sentences
    (Corpus.pages_of), classified separately, then majority-voted. The
    lists may come from several claims with its text; only the text is read.

    The claim is prepared once (or is the extractor's prepared claim) and
    each distinct sentence is classified once, however many lists rank
    it, with one classify_pair call per page. Each sentence is classified
    together with its page title, so pronoun-heavy evidence keeps its
    subject.
    """
    prepared = extractor.prepare_claim(claim.text)
    labels: dict[SentenceId, Label] = {}
    for document, positions in corpus.pages_of(sid for evidence in evidence_lists for sid, _ in evidence):
        for sid, label, _ in classify_pair(model, extractor, prepared, document, positions):
            labels[sid] = label
    verdicts = []
    for evidence in evidence_lists:
        predicted = [sid for sid, _ in evidence if sid in labels]
        verdicts.append((aggregate_verdict([labels[sid] for sid in predicted]), predicted))
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
