"""Adversarial false-claim generation by sibling-entity substitution.

For a true claim with at least two linked entities, the second mention
(by character offset) is replaced with a seeded-uniform sibling from
the knowledge base. The source claim's evidence is carried over as the
refuting evidence of the generated claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .claims import Claim, Label
from .kb import KnowledgeBase, link_entities
from .util import stable_seed

# Keeps synthetic claim ids disjoint from source ids in any desk-scale set.
SYNTHETIC_ID_OFFSET = 10_000_000


@dataclass(frozen=True)
class SyntheticClaim:
    text: str
    source_claim_id: int
    replaced_entity_id: str
    replacement_entity_id: str
    evidence: tuple
    label: Label = Label.REFUTED


def generate_false_claim(claim: Claim, kb: KnowledgeBase, rng_seed: int) -> Optional[SyntheticClaim]:
    """One synthetic refuted claim from a supported claim, or None.

    None covers every degenerate case: fewer than two linked mentions,
    or a second entity without siblings.
    """
    if claim.label is not Label.SUPPORTED:
        raise ValueError(f"claim {claim.claim_id} is not a supported claim")
    mentions = link_entities(claim.text, kb)
    if len(mentions) < 2:
        return None
    target = mentions[1]
    siblings = sorted(kb.siblings(target.entity_id))
    if not siblings:
        return None
    replacement = random.Random(rng_seed).choice(siblings)
    replacement_name = kb.require(replacement).canonical_name
    text = claim.text[: target.start] + replacement_name + claim.text[target.end :]
    return SyntheticClaim(
        text=text,
        source_claim_id=claim.claim_id,
        replaced_entity_id=target.entity_id,
        replacement_entity_id=replacement,
        evidence=claim.evidence,
    )


def generate_augmentation_set(
    claims: Sequence[Claim], kb: KnowledgeBase, seed: int
) -> list[SyntheticClaim]:
    """Apply generate_false_claim to every supported claim, in order.

    Per-claim seeds derive deterministically from (seed, claim_id), so
    generation is reproducible and parallelizable per claim.
    """
    out = []
    for claim in claims:
        if claim.label is not Label.SUPPORTED:
            continue
        synthetic = generate_false_claim(claim, kb, stable_seed(seed, claim.claim_id))
        if synthetic is not None:
            out.append(synthetic)
    return out


def synthetic_to_claim(synthetic: SyntheticClaim) -> Claim:
    return Claim(
        claim_id=synthetic.source_claim_id + SYNTHETIC_ID_OFFSET,
        label=Label.REFUTED,
        text=synthetic.text,
        evidence=synthetic.evidence,
        extra={
            "source_claim_id": synthetic.source_claim_id,
            "replaced": synthetic.replaced_entity_id,
            "replacement": synthetic.replacement_entity_id,
        },
    )

