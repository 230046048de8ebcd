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
    claim_id: int
    label: Label
    text: str
    # Raw evidence structure as found in the claims file.
    evidence: tuple = ()
    extra: dict = field(default_factory=dict, compare=False)

    def evidence_groups(self) -> list[list[SentenceId]]:
        """Alternative evidence groups as sentence ids; empty for NEI."""
        groups = []
        for group in self.evidence:
            sids = []
            complete = True
            for item in group:
                page, line = item[2], item[3]
                if page is None or line is None:
                    complete = False
                    break
                sids.append(SentenceId(str(page), int(line)))
            if complete and sids:
                groups.append(sids)
        return groups

    def gold_sentences(self) -> set[SentenceId]:
        return {sid for group in self.evidence_groups() for sid in group}

    def gold_pages(self) -> list[str]:
        """Evidence pages in first-appearance order, deduplicated."""
        seen = []
        for group in self.evidence_groups():
            for sid in group:
                if sid.page_id not in seen:
                    seen.append(sid.page_id)
        return seen

    def is_verifiable(self) -> bool:
        return self.label is not Label.NOT_ENOUGH_INFO and bool(self.evidence_groups())


_KNOWN_KEYS = {"id", "label", "claim", "evidence"}


def claim_from_json(obj: dict) -> Claim:
    extra = {k: v for k, v in obj.items() if k not in _KNOWN_KEYS}
    return Claim(
        claim_id=int(obj["id"]),
        label=Label.from_string(obj["label"]),
        text=obj["claim"],
        evidence=tuple(tuple(tuple(item) for item in group) for group in obj.get("evidence", [])),
        extra=extra,
    )


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
    """The claims of a claims file; a repeated claim id raises a ValueError."""
    claims: dict[int, Claim] = {}
    for obj in read_jsonl(path):
        claim = claim_from_json(obj)
        if claim.claim_id in claims:
            raise ValueError(f"{path}: repeated claim id {claim.claim_id}")
        claims[claim.claim_id] = claim
    return list(claims.values())


def save_claims(path: Union[str, Path], claims: Iterable[Claim]) -> None:
    write_jsonl(path, map(claim_to_json, claims))
