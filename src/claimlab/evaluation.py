"""Evidence-retrieval and verdict metrics.

Every metric aggregates one per-claim judgement of a verifiable claim's
top-k predictions, `(covered, hit)`:

- covered: a COMPLETE evidence group lies inside the top-k. Recall and
  the evidence check of the FEVER score use it.
- hit: at least one individual gold unit lies inside the top-k.
  Mistake counting uses this looser rule: a mistake is a claim with no
  hit. Reports label which rule produced each number.

At the "sentence" level the units are sentence ids; at the "document"
level both rules apply to each evidence group's pages, and predictions
are page ids.

A set with nothing to measure degrades instead of failing: a rate over
an empty set is None. So recall is None when no claim is verifiable,
and the FEVER score and label accuracy are None when there are no
claims.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

from .claims import Claim, Label
from .corpus import SentenceId

Verdicts = Mapping[int, tuple[Label, Sequence[SentenceId]]]


def _check_ids(predicted_ids, claims: Sequence[Claim]) -> None:
    known = {c.claim_id for c in claims}
    unknown = sorted(set(predicted_ids) - known)
    if unknown:
        raise ValueError(f"predictions reference unknown claim ids: {unknown[:5]}")


def _judge(claim: Claim, predicted: Sequence, k: int, level: str) -> tuple[bool, bool]:
    """(covered, hit) of a verifiable claim's top-k predicted units."""
    if level == "sentence":
        top_k = {SentenceId(*sid) for sid in list(predicted)[:k]}
        groups = [set(group) for group in claim.evidence_groups]
    elif level == "document":
        top_k = set(list(predicted)[:k])
        groups = [{sid.page_id for sid in group} for group in claim.evidence_groups]
    else:
        raise ValueError(f"unknown level {level!r}")
    return any(group <= top_k for group in groups), any(group & top_k for group in groups)


def _rate(flags: Sequence[bool]) -> Optional[float]:
    return sum(flags) / len(flags) if flags else None


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
    predictions: Mapping[int, Sequence],
    verdicts: Optional[Verdicts] = None,
    k: int = 5,
    level: str = "sentence",
) -> EvaluationReport:
    """Every metric from one pass over the claims.

    predictions are ranked sentence ids per claim, or page ids at the
    "document" level. The FEVER score judges each verdict's own
    evidence; with verdicts, every claim needs one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_ids(predictions.keys(), claims)
    if verdicts is not None:
        missing = [c.claim_id for c in claims if c.claim_id not in verdicts]
        if missing:
            raise ValueError(f"missing verdicts for claim ids: {missing[:5]}")
        _check_ids(verdicts.keys(), claims)
    per_claim, covered, correct, points = [], [], [], []
    mistakes = {Label.REFUTED: 0, Label.SUPPORTED: 0}
    for claim in claims:
        verifiable = claim.is_verifiable()
        row = {"claim_id": claim.claim_id, "label": claim.label.value, "covered": None, "mistake": None}
        if verifiable:
            is_covered, hit = _judge(claim, predictions.get(claim.claim_id, ()), k, level)
            row["covered"], row["mistake"] = is_covered, not hit
            covered.append(is_covered)
            if not hit:
                mistakes[claim.label] += 1
        if verdicts is not None:
            label, evidence = verdicts[claim.claim_id]
            row["predicted_label"] = label.value
            is_correct = label is claim.label
            correct.append(is_correct)
            points.append(is_correct and (not verifiable or _judge(claim, evidence, k, level)[0]))
        per_claim.append(row)
    return EvaluationReport(
        k=k,
        recall_at_k=_rate(covered),
        refuted_mistakes=mistakes[Label.REFUTED],
        supported_mistakes=mistakes[Label.SUPPORTED],
        fever_score=_rate(points),
        label_accuracy=_rate(correct),
        n_claims=len(claims),
        n_verifiable=len(covered),
        per_claim=per_claim,
        has_verdicts=verdicts is not None,
    )


def recall_at_k(
    predictions: Mapping[int, Sequence[SentenceId]], claims: Sequence[Claim], k: int
) -> Optional[float]:
    """Fraction of verifiable claims with a complete evidence group
    inside the top-k predicted sentences; None when none is verifiable.
    Kept because bench/ calls it (ROADMAP item 12)."""
    return build_report(claims, predictions, k=k).recall_at_k


def fever_score(verdicts: Verdicts, claims: Sequence[Claim], k: int = 5) -> Optional[float]:
    """Official-style score: label correct and, for verifiable claims,
    a complete evidence group within the top-k predicted evidence.
    None when there are no claims. Kept because bench/ calls it (ROADMAP
    item 12)."""
    return build_report(claims, {}, verdicts, k).fever_score


def orderings(report: Mapping) -> dict[str, Optional[bool]]:
    """The paper's directional results on one experiment report, each
    held when the remedy does at least as well as the baseline (a tie
    holds):

    a) ref makes no more refuted mistakes than baseline on dev;
    b) sup makes no more supported mistakes than baseline on dev;
    c) sr's dev recall matches or beats baseline's;
    d) da's adversarial recall matches or beats baseline's;
    e) da makes no more refuted mistakes than baseline on adversarial.

    An ordering that compares a None rate (a set with no verifiable
    claim) is None: not measurable, and never held. The report needs the
    dev and adversarial rows of baseline, sup, ref, sr and da.
    """
    rows = {(row["dataset"], row["regime"]): row for row in report["rows"]}

    def at_most(metric: str, dataset: str, lower: str, upper: str) -> Optional[bool]:
        low, high = rows[(dataset, lower)][metric], rows[(dataset, upper)][metric]
        return None if low is None or high is None else low <= high

    return {
        "a": at_most("refuted_mistakes", "dev", "ref", "baseline"),
        "b": at_most("supported_mistakes", "dev", "sup", "baseline"),
        "c": at_most("recall_at_k", "dev", "baseline", "sr"),
        "d": at_most("recall_at_k", "adversarial", "baseline", "da"),
        "e": at_most("refuted_mistakes", "adversarial", "da", "baseline"),
    }


def _ratio(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def format_report_row(row: Mapping) -> str:
    """One report row as a line of `claimlab run` output; a None rate prints n/a."""
    line = (
        f"{row['dataset']:<12} {row['regime']:<9} recall@{row['k']}={_ratio(row['recall_at_k'])} "
        f"refuted_mistakes={row['refuted_mistakes']} supported_mistakes={row['supported_mistakes']}"
    )
    if "fever_score" in row:
        line += f" fever={_ratio(row['fever_score'])} label_acc={_ratio(row['label_accuracy'])}"
    return line
