"""Evidence-retrieval and verdict metrics.

Two evidence criteria coexist on purpose: recall and the overall
pipeline score require a COMPLETE evidence group inside the top-k,
while mistake counting uses the looser rule that the top-k missed
every individual gold sentence. Reports label which rule produced
each number.

A report over a set with nothing to measure degrades instead of
failing: recall is None when no claim is verifiable, and the FEVER
score and label accuracy are None when there are no claims.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from .claims import Claim, Label
from .corpus import SentenceId


def _verifiable(claims: Sequence[Claim]) -> list[Claim]:
    return [c for c in claims if c.is_verifiable()]


def _check_ids(predicted_ids, claims: Sequence[Claim]) -> None:
    known = {c.claim_id for c in claims}
    unknown = sorted(set(predicted_ids) - known)
    if unknown:
        raise ValueError(f"predictions reference unknown claim ids: {unknown[:5]}")


def _group_covered(claim: Claim, top_k: set) -> bool:
    return any(set(group) <= top_k for group in claim.evidence_groups())


def recall_at_k(
    predictions: Mapping[int, Sequence[SentenceId]], claims: Sequence[Claim], k: int
) -> float:
    """Fraction of verifiable claims with a complete evidence group
    inside the top-k predicted sentences."""
    _check_ids(predictions.keys(), claims)
    verifiable = _verifiable(claims)
    if not verifiable:
        raise ValueError("no verifiable claims")
    covered = 0
    for claim in verifiable:
        top_k = {SentenceId(*sid) for sid in list(predictions.get(claim.claim_id, []))[:k]}
        if _group_covered(claim, top_k):
            covered += 1
    return covered / len(verifiable)


def document_recall_at_k(
    page_predictions: Mapping[int, Sequence[str]], claims: Sequence[Claim], k: int
) -> float:
    """Same complete-group rule applied to each group's set of pages."""
    _check_ids(page_predictions.keys(), claims)
    verifiable = _verifiable(claims)
    if not verifiable:
        raise ValueError("no verifiable claims")
    covered = 0
    for claim in verifiable:
        top_pages = set(list(page_predictions.get(claim.claim_id, []))[:k])
        groups = claim.evidence_groups()
        if any({sid.page_id for sid in group} <= top_pages for group in groups):
            covered += 1
    return covered / len(verifiable)


def count_mistakes(
    predictions: Mapping[int, Sequence], claims: Sequence[Claim], k: int, level: str = "sentence"
) -> tuple[int, int]:
    """(refuted, supported) mistake counts over verifiable claims.

    A mistake means the top-k retrieved evidence contains no gold
    evidence at all, from any group.
    """
    _check_ids(predictions.keys(), claims)
    refuted = supported = 0
    for claim in _verifiable(claims):
        top_k = list(predictions.get(claim.claim_id, []))[:k]
        if level == "sentence":
            hit = bool({SentenceId(*sid) for sid in top_k} & claim.gold_sentences())
        elif level == "document":
            gold_pages = {sid.page_id for group in claim.evidence_groups() for sid in group}
            hit = bool(set(top_k) & gold_pages)
        else:
            raise ValueError(f"unknown level {level!r}")
        if not hit:
            if claim.label is Label.REFUTED:
                refuted += 1
            else:
                supported += 1
    return refuted, supported


def fever_score(
    verdicts: Mapping[int, tuple[Label, Sequence[SentenceId]]],
    claims: Sequence[Claim],
    k: int = 5,
) -> float:
    """Official-style score: label correct and, for verifiable claims,
    a complete evidence group within the top-k predicted evidence."""
    missing = [c.claim_id for c in claims if c.claim_id not in verdicts]
    if missing:
        raise ValueError(f"missing verdicts for claim ids: {missing[:5]}")
    _check_ids(verdicts.keys(), claims)
    points = 0
    for claim in claims:
        label, evidence = verdicts[claim.claim_id]
        if label is not claim.label:
            continue
        if claim.is_verifiable():
            top_k = {SentenceId(*sid) for sid in list(evidence)[:k]}
            if not _group_covered(claim, top_k):
                continue
        points += 1
    return points / len(claims)


def label_accuracy(
    verdicts: Mapping[int, tuple[Label, Sequence[SentenceId]]], claims: Sequence[Claim]
) -> float:
    missing = [c.claim_id for c in claims if c.claim_id not in verdicts]
    if missing:
        raise ValueError(f"missing verdicts for claim ids: {missing[:5]}")
    correct = sum(1 for c in claims if verdicts[c.claim_id][0] is c.label)
    return correct / len(claims)


@dataclass
class EvaluationReport:
    k: int
    recall_at_k: float | None
    refuted_mistakes: int
    supported_mistakes: int
    fever_score: float | None
    label_accuracy: float | None
    n_claims: int
    n_verifiable: int
    per_claim: list[dict] = field(default_factory=list)
    has_verdicts: bool = False

    def to_jsonable(self) -> dict:
        payload = asdict(self)
        del payload["has_verdicts"]
        payload["recall_rule"] = "complete evidence group within top-k"
        payload["mistake_rule"] = "no individual gold sentence within top-k"
        return payload

    def metrics_row(self) -> dict:
        """The experiment report's per-(regime, dataset) numbers; the
        verdict metrics appear only when verdicts were scored."""
        names = ["k", "recall_at_k", "refuted_mistakes", "supported_mistakes"]
        if self.has_verdicts:
            names += ["fever_score", "label_accuracy"]
        return {name: getattr(self, name) for name in names}


def build_report(
    claims: Sequence[Claim],
    predictions: Mapping[int, Sequence[SentenceId]],
    verdicts: Mapping[int, tuple[Label, Sequence[SentenceId]]] | None = None,
    k: int = 5,
) -> EvaluationReport:
    refuted, supported = count_mistakes(predictions, claims, k)
    per_claim = []
    for claim in claims:
        top_k = {SentenceId(*sid) for sid in list(predictions.get(claim.claim_id, []))[:k]}
        detail = {
            "claim_id": claim.claim_id,
            "label": claim.label.value,
            "covered": _group_covered(claim, top_k) if claim.is_verifiable() else None,
            "mistake": (not bool(top_k & claim.gold_sentences())) if claim.is_verifiable() else None,
        }
        if verdicts is not None and claim.claim_id in verdicts:
            detail["predicted_label"] = verdicts[claim.claim_id][0].value
        per_claim.append(detail)
    n_verifiable = len(_verifiable(claims))
    scored = verdicts is not None and bool(claims)
    return EvaluationReport(
        k=k,
        recall_at_k=recall_at_k(predictions, claims, k) if n_verifiable else None,
        refuted_mistakes=refuted,
        supported_mistakes=supported,
        fever_score=fever_score(verdicts, claims, k) if scored else None,
        label_accuracy=label_accuracy(verdicts, claims) if scored else None,
        n_claims=len(claims),
        n_verifiable=n_verifiable,
        per_claim=per_claim,
        has_verdicts=verdicts is not None,
    )
