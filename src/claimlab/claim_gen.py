"""Adversarial false-claim generation by sibling-entity substitution.

For a true claim with at least two linked entities, the second mention
(by character offset) is replaced with a seeded-uniform sibling from
the knowledge base. The generated claim is a REFUTED `Claim` whose id is
the source's plus `SYNTHETIC_ID_OFFSET`; the source claim's evidence is
carried over as its refuting evidence, and its `extra` names the source
claim and the replaced and replacement entities.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .claims import Claim, Label
from .kb import KnowledgeBase, link_entities
from .util import stable_seed

# Keeps synthetic claim ids disjoint from source ids in any desk-scale set.
SYNTHETIC_ID_OFFSET = 10_000_000


def generate_false_claim(claim: Claim, kb: KnowledgeBase, rng_seed: int) -> Optional[Claim]:
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
    return Claim(
        claim_id=claim.claim_id + SYNTHETIC_ID_OFFSET,
        label=Label.REFUTED,
        text=text,
        evidence=claim.evidence,
        extra={"source_claim_id": claim.claim_id, "replaced": target.entity_id, "replacement": replacement},
    )


def generate_augmentation_set(
    claims: Sequence[Claim], kb: KnowledgeBase, seed: int
) -> list[Claim]:
    """The generate-claims stage: generate_false_claim applied to every
    supported claim, in order.

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


def synthetic_to_claim(claim: Claim) -> Claim:
    """The claim itself: generated claims are Claims already. Kept because
    bench/ calls it (ROADMAP item 12)."""
    return claim
