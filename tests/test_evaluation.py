import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlab.claims import Label
from claimlab.corpus import SentenceId
from claimlab.evaluation import (
    build_report,
    fever_score,
    format_report_row,
    orderings,
    recall_at_k,
)

from conftest import make_claim

SUP = Label.SUPPORTED
REF = Label.REFUTED
NEI = Label.NOT_ENOUGH_INFO


def sid(page, line):
    return SentenceId(page, line)


class TestRecall:
    def test_any_group_rule(self):
        claim = make_claim(1, SUP, "c", [[("A", 0)], [("B", 0)]])
        predictions = {1: [sid("B", 0)]}
        assert recall_at_k(predictions, [claim], k=5) == 1.0

    def test_incomplete_group_not_covered(self):
        claim = make_claim(1, SUP, "c", [[("A", 0), ("A", 1)]])
        predictions = {1: [sid("A", 0)]}
        assert recall_at_k(predictions, [claim], k=5) == 0.0

    def test_no_verifiable_claims_is_none(self):
        assert recall_at_k({}, [make_claim(1, NEI, "c")], k=5) is None
        assert recall_at_k({}, [], k=5) is None

    def test_unknown_claim_id_error(self):
        claim = make_claim(1, SUP, "c", [[("A", 0)]])
        with pytest.raises(ValueError, match="unknown claim ids"):
            recall_at_k({99: []}, [claim], k=5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        claim = make_claim(1, SUP, "c", [[("A", 0)]])
        with pytest.raises(ValueError, match="k must be >= 1"):
            recall_at_k({1: [sid("A", 0)]}, [claim], k=k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_report([claim], {1: ["A"]}, k=k, level="document")
        with pytest.raises(ValueError, match="k must be >= 1"):
            fever_score({1: (SUP, [sid("A", 0)])}, [claim], k=k)

    def test_truncation_at_k(self):
        claim = make_claim(1, SUP, "c", [[("A", 9)]])
        predictions = {1: [sid("A", i) for i in range(10)]}
        assert recall_at_k(predictions, [claim], k=5) == 0.0
        assert recall_at_k(predictions, [claim], k=10) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(k1=st.integers(1, 10), k2=st.integers(1, 10))
    def test_monotone_in_k(self, k1, k2):
        claims = [
            make_claim(1, SUP, "a", [[("A", 0), ("A", 1)]]),
            make_claim(2, REF, "b", [[("B", 3)]]),
        ]
        predictions = {
            1: [sid("A", i) for i in (5, 0, 6, 1)],
            2: [sid("B", i) for i in (0, 1, 2, 3)],
        }
        lo, hi = min(k1, k2), max(k1, k2)
        assert recall_at_k(predictions, claims, lo) <= recall_at_k(predictions, claims, hi)


class TestDocumentRecall:
    def test_group_pages_must_all_appear(self):
        claim = make_claim(1, SUP, "c", [[("A", 0), ("B", 2)]])
        assert build_report([claim], {1: ["A"]}, k=20, level="document").recall_at_k == 0.0
        assert build_report([claim], {1: ["A", "B"]}, k=20, level="document").recall_at_k == 1.0
        assert build_report([claim], {1: ["C", "A", "B"]}, k=2, level="document").recall_at_k == 0.0

    def test_unknown_level_error(self):
        claim = make_claim(1, SUP, "c", [[("A", 0)]])
        with pytest.raises(ValueError, match="unknown level"):
            build_report([claim], {1: ["A"]}, k=20, level="page")


class TestMistakes:
    def test_partial_group_hit_is_not_a_mistake(self):
        # Contrast with recall: one sentence of a two-sentence group.
        claim = make_claim(1, SUP, "c", [[("A", 0), ("A", 1)]])
        predictions = {1: [sid("A", 0)]}
        report = build_report([claim], predictions, k=5)
        assert report.recall_at_k == 0.0
        assert (report.refuted_mistakes, report.supported_mistakes) == (0, 0)

    def test_total_miss_counts_by_label(self):
        claims = [
            make_claim(1, REF, "r", [[("A", 0)]]),
            make_claim(2, SUP, "s", [[("B", 0)]]),
        ]
        predictions = {1: [sid("X", 0)], 2: [sid("B", 0)]}
        report = build_report(claims, predictions, k=5)
        assert (report.refuted_mistakes, report.supported_mistakes) == (1, 0)

    def test_nei_never_counts(self):
        claims = [make_claim(1, NEI, "n")]
        report = build_report(claims, {}, k=5)
        assert (report.refuted_mistakes, report.supported_mistakes) == (0, 0)

    def test_document_level(self):
        claims = [make_claim(1, REF, "r", [[("A", 0), ("D", 1)]])]

        def mistakes(pages):
            report = build_report(claims, {1: pages}, k=20, level="document")
            return report.refuted_mistakes, report.supported_mistakes

        assert mistakes(["B", "C"]) == (1, 0)
        assert mistakes(["A"]) == (0, 0)
        assert mistakes(["D"]) == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_coverage_implies_non_mistake_for_single_sentence_groups(self, data):
        n = data.draw(st.integers(1, 6))
        claims = [make_claim(i, SUP, "c", [[(f"P{i}", 0)]]) for i in range(n)]
        predictions = {}
        for i in range(n):
            hit = data.draw(st.booleans())
            predictions[i] = [sid(f"P{i}", 0)] if hit else [sid("Other", 3)]
        k = data.draw(st.integers(1, 5))
        report = build_report(claims, predictions, k=k)
        covered = round(report.recall_at_k * n)
        assert covered + report.supported_mistakes == n

    @settings(max_examples=40, deadline=None)
    @given(k1=st.integers(1, 8), k2=st.integers(1, 8))
    def test_monotone_non_increasing_in_k(self, k1, k2):
        claims = [
            make_claim(1, REF, "a", [[("A", 3)]]),
            make_claim(2, SUP, "b", [[("B", 5)]]),
        ]
        predictions = {
            1: [sid("A", i) for i in (9, 8, 7, 3)],
            2: [sid("B", i) for i in (0, 1, 2, 3, 4, 5)],
        }
        lo, hi = min(k1, k2), max(k1, k2)
        low, high = build_report(claims, predictions, k=lo), build_report(claims, predictions, k=hi)
        assert high.refuted_mistakes <= low.refuted_mistakes and high.supported_mistakes <= low.supported_mistakes


class TestFeverScore:
    def test_labels_only_third_nei(self):
        claims = []
        verdicts = {}
        for i in range(9):
            label = (SUP, REF, NEI)[i % 3]
            evidence = [] if label is NEI else [[(f"P{i}", 0)]]
            claims.append(make_claim(i, label, "c", evidence))
            verdicts[i] = (label, [])  # correct label, no evidence retrieved
        assert fever_score(verdicts, claims, k=5) == pytest.approx(1 / 3)

    def test_perfect(self):
        claims = [make_claim(1, SUP, "c", [[("A", 0)]]), make_claim(2, NEI, "n")]
        verdicts = {1: (SUP, [sid("A", 0)]), 2: (NEI, [])}
        assert fever_score(verdicts, claims) == 1.0

    def test_missing_verdict_error(self):
        claims = [make_claim(1, SUP, "c", [[("A", 0)]])]
        with pytest.raises(ValueError, match="missing verdicts"):
            fever_score({}, claims)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_never_exceeds_label_accuracy(self, data):
        labels = data.draw(st.lists(st.sampled_from([SUP, REF, NEI]), min_size=1, max_size=8))
        claims = []
        verdicts = {}
        for i, label in enumerate(labels):
            evidence = [] if label is NEI else [[(f"P{i}", 0)]]
            claims.append(make_claim(i, label, "c", evidence))
            predicted = data.draw(st.sampled_from([SUP, REF, NEI]))
            with_evidence = data.draw(st.booleans())
            verdicts[i] = (predicted, [sid(f"P{i}", 0)] if with_evidence else [])
        report = build_report(claims, {}, verdicts)
        assert report.fever_score <= report.label_accuracy + 1e-12


class TestLabelAccuracy:
    def test_all_correct(self):
        claims = [make_claim(1, SUP, "c", [[("A", 0)]])]
        assert build_report(claims, {}, {1: (SUP, [])}).label_accuracy == 1.0

    def test_all_nei_on_balanced_set(self):
        claims = [
            make_claim(1, SUP, "a", [[("A", 0)]]),
            make_claim(2, REF, "b", [[("B", 0)]]),
            make_claim(3, NEI, "c"),
        ]
        verdicts = {i: (NEI, []) for i in (1, 2, 3)}
        assert build_report(claims, {}, verdicts).label_accuracy == pytest.approx(1 / 3)

    def test_seven_of_ten(self):
        claims = [make_claim(i, SUP, "c", [[("A", 0)]]) for i in range(10)]
        verdicts = {i: (SUP if i < 7 else REF, []) for i in range(10)}
        assert build_report(claims, {}, verdicts).label_accuracy == pytest.approx(0.7)


def test_report_fields():
    claims = [
        make_claim(1, SUP, "a", [[("A", 0)]]),
        make_claim(2, REF, "b", [[("B", 0)]]),
        make_claim(3, NEI, "c"),
    ]
    predictions = {1: [sid("A", 0)], 2: [sid("X", 9)]}
    verdicts = {1: (SUP, [sid("A", 0)]), 2: (REF, [sid("X", 9)]), 3: (NEI, [])}
    report = build_report(claims, predictions, verdicts, k=5)
    assert report.recall_at_k == pytest.approx(0.5)
    assert (report.refuted_mistakes, report.supported_mistakes) == (1, 0)
    assert report.fever_score == pytest.approx(2 / 3)
    assert report.label_accuracy == 1.0
    assert report.fever_score <= report.label_accuracy
    assert report.n_verifiable == 2
    payload = report.to_jsonable()
    assert payload["recall_rule"].startswith("complete evidence group")
    assert len(payload["per_claim"]) == 3


def test_report_without_verifiable_claims():
    claims = [make_claim(3, NEI, "c")]
    report = build_report(claims, {3: [sid("A", 0)]}, {3: (NEI, [])}, k=5)
    assert report.recall_at_k is None
    assert report.fever_score == report.label_accuracy == 1.0
    empty = build_report([], {}, {}, k=5)
    assert (empty.recall_at_k, empty.fever_score, empty.label_accuracy) == (None, None, None)
    assert empty.metrics_row() == {
        "k": 5,
        "recall_at_k": None,
        "refuted_mistakes": 0,
        "supported_mistakes": 0,
        "fever_score": None,
        "label_accuracy": None,
    }
    assert "fever_score" not in build_report([], {}, None, k=5).metrics_row()
    assert fever_score({}, [], 5) is None
    assert build_report([], {}, {}).label_accuracy is None


def ordering_report(**changes):
    """A report whose remedies tie the baseline on every metric, except
    for the (dataset, regime, metric) values given as dataset__regime__metric."""
    rows = []
    for dataset in ("dev", "adversarial"):
        for regime in ("baseline", "sup", "ref", "sr", "da"):
            row = {"dataset": dataset, "regime": regime, "recall_at_k": 0.5, "refuted_mistakes": 3, "supported_mistakes": 2}
            for key, value in changes.items():
                d, r, metric = key.split("__")
                if (d, r) == (dataset, regime):
                    row[metric] = value
            rows.append(row)
    return {"rows": rows}


def test_orderings_count_ties_as_held():
    assert orderings(ordering_report()) == dict.fromkeys("abcde", True)
    worse = ordering_report(
        dev__ref__refuted_mistakes=4,
        dev__sup__supported_mistakes=3,
        dev__sr__recall_at_k=0.25,
        adversarial__da__recall_at_k=0.25,
        adversarial__da__refuted_mistakes=4,
    )
    assert orderings(worse) == dict.fromkeys("abcde", False)
    better = ordering_report(
        dev__ref__refuted_mistakes=0,
        dev__sup__supported_mistakes=0,
        dev__sr__recall_at_k=1.0,
        adversarial__da__recall_at_k=1.0,
        adversarial__da__refuted_mistakes=0,
    )
    assert orderings(better) == dict.fromkeys("abcde", True)
    # Each ordering reads its own rows only.
    assert orderings(ordering_report(dev__baseline__refuted_mistakes=2)) == {
        "a": False, "b": True, "c": True, "d": True, "e": True
    }


def test_orderings_over_a_none_rate_are_not_measurable():
    """A set with no verifiable claim has recall None: every ordering
    that compares it is None, and the others still hold or fail."""
    no_adversarial = {f"adversarial__{r}__recall_at_k": None for r in ("baseline", "sup", "ref", "sr", "da")}
    assert orderings(ordering_report(**no_adversarial)) == {"a": True, "b": True, "c": True, "d": None, "e": True}
    # One None operand is enough.
    assert orderings(ordering_report(dev__sr__recall_at_k=None, dev__ref__refuted_mistakes=4)) == {
        "a": False, "b": True, "c": None, "d": True, "e": True
    }


def test_format_report_row_prints_none_as_na():
    row = {"dataset": "dev", "regime": "sr", "k": 5, "recall_at_k": None, "refuted_mistakes": 0}
    row.update(supported_mistakes=12, fever_score=None, label_accuracy=2 / 3)
    assert format_report_row(row) == (
        "dev          sr        recall@5=n/a refuted_mistakes=0 supported_mistakes=12 fever=n/a label_acc=0.667"
    )
    del row["fever_score"]
    assert format_report_row(row).endswith("supported_mistakes=12")


def run_robustness_script(report, seeds, tmp_path, monkeypatch, capsys) -> list[str]:
    """The output lines of scripts/run_robustness.py, with run_experiment
    stubbed to return report for every seed."""
    for row in report["rows"]:
        row["k"] = 5
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_robustness.py"
    spec = importlib.util.spec_from_file_location("run_robustness", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "run_experiment", lambda config: report)
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(tmp_path), "--seeds", seeds])
    script.main()
    return capsys.readouterr().out.splitlines()


def test_robustness_script_prints_rows_with_the_run_format(tmp_path, monkeypatch, capsys):
    """scripts/run_robustness.py prints each report row as `claimlab run`
    does, a None rate included."""
    report = ordering_report()
    for row in report["rows"]:
        if row["dataset"] == "dev":
            row.update(fever_score=None, label_accuracy=0.25)
    lines = run_robustness_script(report, "1", tmp_path, monkeypatch, capsys)
    assert lines[1 : 1 + len(report["rows"])] == [format_report_row(row) for row in report["rows"]]
    assert "fever=n/a" in lines[1]


def test_robustness_script_reports_unmeasurable_orderings(tmp_path, monkeypatch, capsys):
    """scripts/run_robustness.py prints an ordering over a None rate as
    n/a, counts it as not passing, and goes on to the next seed."""
    report = ordering_report(adversarial__baseline__recall_at_k=None, adversarial__da__recall_at_k=None)
    lines = run_robustness_script(report, "1,2", tmp_path, monkeypatch, capsys)
    assert lines.count("orderings: a=ok b=ok c=ok d=n/a e=ok") == 2
    assert "seeds passing each ordering (of 2): {'a': 2, 'b': 2, 'c': 2, 'd': 0, 'e': 2}" in lines
