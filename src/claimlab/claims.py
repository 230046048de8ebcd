"""Claim records and wiki-fact-check compatible JSON-lines I/O.

Claims files use the common shared-task schema: one object per line
with "id", "label" ("SUPPORTS" | "REFUTES" | "NOT ENOUGH INFO"),
"claim", and nested "evidence" groups of [ann_id, ev_id, page, line]
quadruples; null pages mark unverifiable claims.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from .corpus import SentenceId
from .util import read_jsonl, write_jsonl


class Label(enum.Enum):
    SUPPORTED = "SUPPORTS"
    REFUTED = "REFUTES"
    NOT_ENOUGH_INFO = "NOT ENOUGH INFO"

    @classmethod
    def from_string(cls, raw: str) -> "Label":
        for label in cls:
            if raw == label.value or raw == label.name:
                return label
        raise ValueError(f"unknown label {raw!r}")


@dataclass(frozen=True)
class Claim:
    """A claim, its label and its raw evidence structure as found in the
    claims file. evidence_groups is derived from evidence when the claim
    is built: the alternative evidence groups as sentence ids (a group
    with a null page or line is dropped), empty for NEI. An evidence item
    with fewer than four fields raises a ValueError."""

    claim_id: int
    label: Label
    text: str
    evidence: tuple = ()
    extra: dict = field(default_factory=dict, compare=False)
    evidence_groups: tuple[tuple[SentenceId, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        groups = []
        for group in self.evidence:
            sids = []
            for item in group:
                if len(item) < 4:
                    raise ValueError(f"claim {self.claim_id}: evidence item {list(item)} has fewer than four fields")
                page, line = item[2], item[3]
                if page is None or line is None:
                    break
                sids.append(SentenceId(str(page), int(line)))
            else:
                if sids:
                    groups.append(tuple(sids))
        object.__setattr__(self, "evidence_groups", tuple(groups))

    def gold_sentences(self) -> set[SentenceId]:
        return {sid for group in self.evidence_groups for sid in group}

    def gold_pages(self) -> list[str]:
        """Evidence pages in first-appearance order, deduplicated."""
        return list(dict.fromkeys(sid.page_id for group in self.evidence_groups for sid in group))

    def is_verifiable(self) -> bool:
        return self.label is not Label.NOT_ENOUGH_INFO and bool(self.evidence_groups)


_KNOWN_KEYS = {"id", "label", "claim", "evidence"}


def _claim_row(obj: dict) -> tuple[int, Claim]:
    """One claims-file row as (claim id, claim)."""
    text = obj["claim"]
    if not isinstance(text, str):
        raise ValueError(f"claim text must be a string, got {text!r}")
    claim = Claim(
        claim_id=int(obj["id"]),
        label=Label.from_string(obj["label"]),
        text=text,
        evidence=tuple(tuple(tuple(item) for item in group) for group in obj.get("evidence", [])),
        extra={k: v for k, v in obj.items() if k not in _KNOWN_KEYS},
    )
    return claim.claim_id, claim


def claim_to_json(claim: Claim) -> dict:
    obj = {
        "id": claim.claim_id,
        "label": claim.label.value,
        "claim": claim.text,
        "evidence": [[list(item) for item in group] for group in claim.evidence],
    }
    obj.update(claim.extra)
    return obj


def load_claims(path: Union[str, Path]) -> list[Claim]:
    """The claims of a claims file, in file order."""
    return list(read_jsonl(path, _claim_row).values())


def save_claims(path: Union[str, Path], claims: Iterable[Claim]) -> None:
    write_jsonl(path, map(claim_to_json, claims))
