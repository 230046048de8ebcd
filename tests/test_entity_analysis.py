import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlab.claims import Label
from claimlab.entity_analysis import (
    CHI2_CRITICAL_P01,
    CHI2_CRITICAL_P10,
    ContingencyTable2x2,
    analyze_claims,
    chi_squared,
    directly_related,
    entity_tables,
)
from claimlab.kb import EntityRecord

from conftest import make_claim, make_kb

cells = st.integers(min_value=1, max_value=5000)
tables = st.tuples(cells, cells, cells, cells).map(
    lambda t: ContingencyTable2x2(cells=((t[0], t[1]), (t[2], t[3])))
)


def shortcut_chi2(table: ContingencyTable2x2, yates: bool) -> float:
    """Independent 2x2 formula: N(|ad-bc| - c*N/2)^2 / (r1*r2*c1*c2)."""
    (a, b), (c, d) = table.cells
    n = a + b + c + d
    diff = abs(a * d - b * c)
    if yates:
        diff = max(0.0, diff - n / 2)
    return n * diff * diff / ((a + b) * (c + d) * (a + c) * (b + d))


class TestChiSquared:
    def test_published_entity_count_value_with_yates(self):
        table = ContingencyTable2x2(cells=((4090, 4166), (2576, 2500)))
        assert chi_squared(table, yates=True) == pytest.approx(1.79, abs=0.01)

    def test_relatedness_table_values(self):
        # Uncorrected Pearson value, frozen from the shortcut-formula
        # oracle; with Yates the same table gives ~195.91.
        table = ContingencyTable2x2(cells=((571, 998), (1928, 1404)))
        assert chi_squared(table, yates=False) == pytest.approx(196.77, abs=0.01)
        assert chi_squared(table, yates=True) == pytest.approx(195.91, abs=0.01)

    def test_uniform_table_zero(self):
        table = ContingencyTable2x2(cells=((10, 10), (10, 10)))
        assert chi_squared(table, yates=False) == 0.0

    def test_degenerate_marginal_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            chi_squared(ContingencyTable2x2(cells=((0, 0), (5, 5))))
        with pytest.raises(ValueError, match="degenerate"):
            chi_squared(ContingencyTable2x2(cells=((5, 0), (7, 0))))

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable2x2(cells=((-1, 2), (3, 4)))

    @settings(max_examples=100, deadline=None)
    @given(table=tables, yates=st.booleans())
    def test_matches_shortcut_oracle(self, table, yates):
        assert chi_squared(table, yates=yates) == pytest.approx(
            shortcut_chi2(table, yates), abs=1e-9, rel=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(table=tables)
    def test_yates_never_exceeds_uncorrected(self, table):
        assert chi_squared(table, yates=True) <= chi_squared(table, yates=False) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(table=tables, yates=st.booleans())
    def test_invariant_under_row_and_column_swap(self, table, yates):
        (a, b), (c, d) = table.cells
        swapped = ContingencyTable2x2(cells=((d, c), (b, a)))
        assert chi_squared(table, yates) == pytest.approx(
            chi_squared(swapped, yates), rel=1e-12
        )


@pytest.fixture
def related_kb():
    return make_kb(
        [
            EntityRecord("A", "Alpha Dog", ("Alpha Dog",), (), ("C",)),
            EntityRecord("B", "Beta Cat", ("Beta Cat",), (), ()),
            EntityRecord("C", "Gamma Fox", ("Gamma Fox",), (), ()),
            EntityRecord("D", "Delta Owl", ("Delta Owl",), (), ("B",)),
        ]
    )


class TestDirectlyRelated:
    def test_edge_stored_on_first(self, related_kb):
        assert directly_related("A", "C", related_kb)

    def test_edge_stored_on_second_only(self, related_kb):
        # D holds the edge to B; the check is direction-agnostic.
        assert directly_related("B", "D", related_kb)

    def test_no_edge(self, related_kb):
        assert not directly_related("A", "B", related_kb)

    def test_unknown_entity_error(self, related_kb):
        with pytest.raises(KeyError):
            directly_related("A", "MISSING", related_kb)


class TestTables:
    def test_entity_count_table_by_hand(self, related_kb):
        claims = [
            make_claim(1, Label.REFUTED, "nothing linked here at all"),
            make_claim(2, Label.REFUTED, "Alpha Dog barked loudly."),
            make_claim(3, Label.REFUTED, "Alpha Dog chased Beta Cat."),
            make_claim(4, Label.SUPPORTED, "Alpha Dog met Beta Cat and Gamma Fox."),
        ]
        table = entity_tables(claims, related_kb)[0]
        assert table.cells == ((2, 0), (1, 1))

    def test_empty_claims_all_zero(self, related_kb):
        assert entity_tables([], related_kb)[0].cells == ((0, 0), (0, 0))

    def test_all_single_entity(self, related_kb):
        claims = [make_claim(1, Label.SUPPORTED, "Alpha Dog sat.")]
        assert entity_tables(claims, related_kb)[0].cells[1] == (0, 0)

    def test_nei_claims_ignored(self, related_kb):
        claims = [make_claim(1, Label.NOT_ENOUGH_INFO, "Alpha Dog chased Beta Cat.")]
        assert entity_tables(claims, related_kb)[0].cells == ((0, 0), (0, 0))

    def test_relatedness_any_pair_rule(self, related_kb):
        # A-C related even though A-B and B-C are not.
        claims = [make_claim(1, Label.SUPPORTED, "Alpha Dog met Beta Cat and Gamma Fox.")]
        table = entity_tables(claims, related_kb)[1]
        assert table.cells == ((0, 1), (0, 0))

    def test_single_entity_excluded(self, related_kb):
        claims = [make_claim(1, Label.REFUTED, "Alpha Dog sat alone.")]
        assert entity_tables(claims, related_kb)[1].cells == ((0, 0), (0, 0))

    def test_unrelated_pair(self, related_kb):
        claims = [make_claim(1, Label.REFUTED, "Alpha Dog ignored Beta Cat.")]
        assert entity_tables(claims, related_kb)[1].cells == ((0, 0), (1, 0))

    def test_entity_named_twice_counts_once(self, related_kb):
        # One linked entity: the <=1 row, and no pair to relate.
        claims = [make_claim(1, Label.REFUTED, "Alpha Dog chased Alpha Dog.")]
        counts, related = entity_tables(claims, related_kb)
        assert counts.cells == ((1, 0), (0, 0))
        assert related.cells == ((0, 0), (0, 0))

    def test_relatedness_contributors_bounded(self, related_kb):
        claims = [
            make_claim(1, Label.REFUTED, "Alpha Dog chased Beta Cat."),
            make_claim(2, Label.REFUTED, "Alpha Dog sat."),
            make_claim(3, Label.SUPPORTED, "Alpha Dog met Gamma Fox."),
        ]
        counts, related = entity_tables(claims, related_kb)
        for column in (0, 1):
            contributed = related.cells[0][column] + related.cells[1][column]
            assert contributed <= counts.cells[1][column]


def test_analysis_payload(related_kb):
    claims = [
        make_claim(1, Label.REFUTED, "Alpha Dog ignored Beta Cat."),
        make_claim(2, Label.SUPPORTED, "Alpha Dog met Gamma Fox."),
        make_claim(3, Label.SUPPORTED, "Alpha Dog sat."),
        make_claim(4, Label.REFUTED, "Beta Cat sat."),
    ]
    payload = analyze_claims(claims, related_kb)
    assert payload["entity_count_table"]["cells"] == [[1, 1], [1, 1]]
    assert payload["relatedness_table"]["cells"] == [[0, 1], [1, 0]]
    entry = payload["chi_squared"]["entity_count"]["uncorrected"]
    assert entry["statistic"] == pytest.approx(0.0)
    assert entry["not_significant_p_gt_0_1"]
    assert payload["critical_values"] == {"p_0_01": CHI2_CRITICAL_P01, "p_0_1": CHI2_CRITICAL_P10}
