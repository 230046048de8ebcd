"""Entity-distribution analysis over labeled claims.

Builds 2x2 contingency tables (rows = a claim condition, columns =
refuted/supported) for linked-entity counts and pairwise direct
relatedness, and runs Pearson's chi-squared test with optional Yates
continuity correction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .claims import Claim, Label
from .kb import KnowledgeBase, link_entities

# chi^2(1) critical values; the statistic is reported instead of a p-value.
CHI2_CRITICAL_P01 = 6.635
CHI2_CRITICAL_P10 = 2.706


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Rows = condition / not-condition, columns = refuted / supported."""

    cells: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        for row in self.cells:
            for value in row:
                if value < 0:
                    raise ValueError("contingency cells must be non-negative")


def chi_squared(table: ContingencyTable2x2, yates: bool = False) -> float:
    """Pearson's chi-squared statistic (one degree of freedom) on a 2x2 table.

    With Yates correction each |O - E| is reduced by 0.5, floored at
    zero. Expected counts come from the marginal products over the
    grand total; any zero marginal makes the table degenerate.
    """
    (a, b), (c, d) = table.cells
    rows, cols = (a + b, c + d), (a + c, b + d)
    if min(rows) == 0 or min(cols) == 0:
        raise ValueError("degenerate table: zero row or column marginal")
    total = rows[0] + rows[1]
    correction = 0.5 if yates else 0.0
    statistic = 0.0
    for i in range(2):
        for j in range(2):
            expected = rows[i] * cols[j] / total
            diff = max(abs(table.cells[i][j] - expected) - correction, 0.0)
            statistic += diff * diff / expected
    return statistic


def directly_related(entity_a: str, entity_b: str, kb: KnowledgeBase) -> bool:
    """True when any relation edge joins the two entities, either direction."""
    record_a = kb.require(entity_a)
    record_b = kb.require(entity_b)
    return entity_b in record_a.relation_ids or entity_a in record_b.relation_ids


def entity_tables(claims: Sequence[Claim], kb: KnowledgeBase) -> tuple[ContingencyTable2x2, ContingencyTable2x2]:
    """The entity-count and relatedness tables; columns: refuted vs supported.

    Each refuted or supported claim is linked once, and its linked
    entities are the distinct entities its mentions name. Entity-count
    rows: <=1 linked entity vs >=2. Relatedness rows: directly related
    vs not, over the claims with >=2 linked entities; a claim is directly
    related when ANY pair of its linked entities shares a relation edge.
    """
    counts = [[0, 0], [0, 0]]
    related = [[0, 0], [0, 0]]
    for claim in claims:
        if claim.label is Label.NOT_ENOUGH_INFO:
            continue
        column = 0 if claim.label is Label.REFUTED else 1
        entity_ids = {m.entity_id for m in link_entities(claim.text, kb)}
        counts[0 if len(entity_ids) <= 1 else 1][column] += 1
        if len(entity_ids) >= 2:
            pairs = itertools.combinations(entity_ids, 2)
            related[0 if any(directly_related(a, b, kb) for a, b in pairs) else 1][column] += 1
    return tuple(ContingencyTable2x2(cells=(tuple(cells[0]), tuple(cells[1]))) for cells in (counts, related))


def _chi_squared_entry(table: ContingencyTable2x2) -> dict:
    entry: dict = {}
    for key, yates in (("uncorrected", False), ("yates", True)):
        try:
            statistic = chi_squared(table, yates=yates)
            entry[key] = {
                "statistic": statistic,
                "significant_p_lt_0_01": statistic > CHI2_CRITICAL_P01,
                "not_significant_p_gt_0_1": statistic < CHI2_CRITICAL_P10,
            }
        except ValueError as exc:
            entry[key] = {"statistic": None, "error": str(exc)}
    return entry


def analyze_claims(claims: Sequence[Claim], kb: KnowledgeBase) -> dict:
    """Full analysis payload: both tables, both statistics, significance flags."""
    counts, related = entity_tables(claims, kb)
    return {
        "entity_count_table": {
            "rows": ["<=1 entity", ">=2 entities"],
            "columns": [Label.REFUTED.value, Label.SUPPORTED.value],
            "cells": [list(row) for row in counts.cells],
        },
        "relatedness_table": {
            "rows": ["directly related", "not directly related"],
            "columns": [Label.REFUTED.value, Label.SUPPORTED.value],
            "cells": [list(row) for row in related.cells],
        },
        "chi_squared": {
            "entity_count": _chi_squared_entry(counts),
            "relatedness": _chi_squared_entry(related),
        },
        "critical_values": {"p_0_01": CHI2_CRITICAL_P01, "p_0_1": CHI2_CRITICAL_P10},
    }
