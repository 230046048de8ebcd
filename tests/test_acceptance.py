"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import random
from contextlib import contextmanager

import pytest

from claimlab.claim_gen import generate_augmentation_set
from claimlab.claims import Label
from claimlab.corpus import IndexScorer, SentenceId, build_index, parse_query
from claimlab.entity_analysis import ContingencyTable2x2, chi_squared
from claimlab.evaluation import build_report, fever_score, orderings, recall_at_k
from claimlab.experiment import ExperimentConfig, run_experiment
from claimlab.kb import EntityRecord, link_entities
from claimlab.nli import CLASS_ORDER, aggregate_verdict
from claimlab.selection import NegativePool

from conftest import make_claim, make_corpus, make_kb

SUP = Label.SUPPORTED
REF = Label.REFUTED
NEI = Label.NOT_ENOUGH_INFO


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {summary}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {summary}")


def experiment_config(world, out_dir, seed):
    return ExperimentConfig(
        corpus=str(world / "corpus"),
        train_claims=str(world / "train.jsonl"),
        dev_claims=str(world / "dev.jsonl"),
        kb=str(world / "kb.jsonl"),
        out_dir=str(out_dir),
        seed=seed,
        epochs=6,
        learning_rate=0.05,
    )


def test_criterion_1_chi_squared_reproduction():
    with criterion(1, "entity-count table chi^2 with Yates reproduces the published 1.79"):
        table = ContingencyTable2x2(cells=((4090, 4166), (2576, 2500)))
        assert chi_squared(table, yates=True) == pytest.approx(1.79, abs=0.01)


def shortcut_chi2(cells, yates):
    (a, b), (c, d) = cells
    n = a + b + c + d
    diff = abs(a * d - b * c)
    if yates:
        diff = max(0.0, diff - n / 2)
    return n * diff * diff / ((a + b) * (c + d) * (a + c) * (b + d))


def test_criterion_2_chi_squared_oracle():
    with criterion(2, "chi^2 matches an independent oracle; relatedness-table value recorded"):
        rng = random.Random(20240817)
        for _ in range(100):
            cells = ((rng.randint(1, 4000), rng.randint(1, 4000)), (rng.randint(1, 4000), rng.randint(1, 4000)))
            for yates in (False, True):
                ours = chi_squared(ContingencyTable2x2(cells=cells), yates=yates)
                assert ours == pytest.approx(shortcut_chi2(cells, yates), abs=1e-9, rel=1e-9)

        table = ContingencyTable2x2(cells=((571, 998), (1928, 1404)))
        uncorrected = chi_squared(table, yates=False)
        corrected = chi_squared(table, yates=True)
        # Frozen from the independent shortcut-formula oracle. The
        # published statistic for this table is 195.91, which matches
        # the Yates-corrected value exactly; uncorrected it is 196.77.
        assert uncorrected == pytest.approx(196.77, abs=0.5)
        assert corrected == pytest.approx(195.91, abs=0.01)
        print(
            f"[acceptance]   note: relatedness table gives {uncorrected:.2f} uncorrected, "
            f"{corrected:.2f} with Yates; the published statistic is 195.91 (matches Yates)"
        )


def _metric_fixture():
    """20 claims covering multi-group, multi-sentence groups, and NEI."""
    claims, predictions, verdicts = [], {}, {}

    def add(claim, predicted_sids, predicted_label):
        claims.append(claim)
        predictions[claim.claim_id] = predicted_sids
        verdicts[claim.claim_id] = (predicted_label, predicted_sids)

    # 1-4: single-sentence groups, covered, correct labels.
    for i in range(1, 5):
        add(make_claim(i, SUP, "s", [[(f"P{i}", 0)]]), [SentenceId(f"P{i}", 0)], SUP)
    # 5-6: single-sentence groups, missed entirely (mistakes).
    add(make_claim(5, REF, "r", [[("P5", 0)]]), [SentenceId("X", 9)], REF)
    add(make_claim(6, SUP, "s", [[("P6", 0)]]), [SentenceId("X", 9)], SUP)
    # 7: two alternative groups, second one covered.
    add(make_claim(7, REF, "r", [[("A7", 0)], [("B7", 1)]]), [SentenceId("B7", 1)], REF)
    # 8: CONTRAST CASE - one sentence of a two-sentence group retrieved:
    # not covered for recall, but not a mistake either.
    add(make_claim(8, REF, "r", [[("P8", 0), ("P8", 1)]]), [SentenceId("P8", 0)], REF)
    # 9: two-sentence group fully retrieved.
    add(make_claim(9, SUP, "s", [[("P9", 0), ("P9", 1)]]),
        [SentenceId("P9", 0), SentenceId("P9", 1)], SUP)
    # 10: two-sentence group fully retrieved but only beyond the top-5 cut.
    add(
        make_claim(10, SUP, "s", [[("P10", 4), ("P10", 5)]]),
        [SentenceId("P10", i) for i in range(6)],
        SUP,
    )
    # 11: covered evidence, wrong label.
    add(make_claim(11, SUP, "s", [[("P11", 0)]]), [SentenceId("P11", 0)], REF)
    # 12: mixed groups - one incomplete, one complete.
    add(
        make_claim(12, REF, "r", [[("A12", 0), ("A12", 1)], [("B12", 0)]]),
        [SentenceId("A12", 0), SentenceId("B12", 0)],
        REF,
    )
    # 13-16: NEI claims, two labeled correctly.
    add(make_claim(13, NEI, "n"), [], NEI)
    add(make_claim(14, NEI, "n"), [SentenceId("Z", 0)], NEI)
    add(make_claim(15, NEI, "n"), [], SUP)
    add(make_claim(16, NEI, "n"), [], REF)
    # 17: refuted, gold sentence at rank 5 exactly.
    add(
        make_claim(17, REF, "r", [[("P17", 4)]]),
        [SentenceId("P17", i) for i in range(5)],
        REF,
    )
    # 18: supported, empty prediction list.
    add(make_claim(18, SUP, "s", [[("P18", 0)]]), [], SUP)
    # 19: refuted, three-sentence group with only two retrieved.
    add(
        make_claim(19, REF, "r", [[("P19", 0), ("P19", 1), ("P19", 2)]]),
        [SentenceId("P19", 0), SentenceId("P19", 1)],
        REF,
    )
    # 20: supported with duplicate pages across groups.
    add(make_claim(20, SUP, "s", [[("P20", 0)], [("P20", 1)]]), [SentenceId("P20", 1)], SUP)
    return claims, predictions, verdicts


def _reference_metrics(claims, predictions, verdicts, k):
    """Plain-loop reference implementations, kept independent on purpose."""
    verifiable = [c for c in claims if c.label is not NEI and c.evidence_groups]
    covered = 0
    ref_mistakes = sup_mistakes = 0
    for c in verifiable:
        top = [tuple(s) for s in list(predictions.get(c.claim_id, []))[:k]]
        groups = [[tuple(s) for s in g] for g in c.evidence_groups]
        if any(all(member in top for member in group) for group in groups):
            covered += 1
        hit = any(member in top for group in groups for member in group)
        if not hit:
            if c.label is REF:
                ref_mistakes += 1
            else:
                sup_mistakes += 1
    recall = covered / len(verifiable)
    correct = sum(1 for c in claims if verdicts[c.claim_id][0] is c.label)
    accuracy = correct / len(claims)
    points = 0
    for c in claims:
        label, evidence = verdicts[c.claim_id]
        if label is not c.label:
            continue
        if c.label is NEI or not c.evidence_groups:
            points += 1
            continue
        top = [tuple(s) for s in list(evidence)[:k]]
        groups = [[tuple(s) for s in g] for g in c.evidence_groups]
        if any(all(member in top for member in group) for group in groups):
            points += 1
    return recall, ref_mistakes, sup_mistakes, points / len(claims), accuracy


def test_criterion_3_metric_oracles():
    with criterion(3, "recall, mistakes, overall score, label accuracy match brute force exactly"):
        claims, predictions, verdicts = _metric_fixture()
        assert len(claims) == 20
        for k in (1, 3, 5):
            expected = _reference_metrics(claims, predictions, verdicts, k)
            report = build_report(claims, predictions, verdicts, k)
            got = (
                recall_at_k(predictions, claims, k),
                report.refuted_mistakes,
                report.supported_mistakes,
                fever_score(verdicts, claims, k),
                report.label_accuracy,
            )
            assert got == expected

        # The contrast case, asserted explicitly at k=5: claim 8 is not
        # covered for recall yet it is not a mistake.
        only_8 = [c for c in claims if c.claim_id == 8]
        preds_8 = {8: predictions[8]}
        assert recall_at_k(preds_8, only_8, 5) == 0.0
        report_8 = build_report(only_8, preds_8, k=5)
        assert (report_8.refuted_mistakes, report_8.supported_mistakes) == (0, 0)


def _generator_fixture():
    """30-entity KB and 50 claims with varying eligibility."""
    first = ["Mara", "Tobin", "Lena", "Ovid", "Petra", "Quinn", "Rolf", "Sana", "Tess", "Ugo"]
    records = []
    people = []
    for i, name in enumerate(first):
        full = f"{name} Varga"
        people.append(full)
        records.append(EntityRecord(f"P{i:02d}", full, (full,), ("OCC",), ()))
    shows = [
        "Quartzlane", "Rivermoor", "Saltmarsh", "Tallpines", "Umberhill",
        "Vexford", "Wrenfield", "Yarrowby", "Zephyrton", "Ashalon",
        "Briarwick", "Coldmere", "Dunwharf",
    ]
    for i, show in enumerate(shows):
        records.append(EntityRecord(f"S{i:02d}", show, (show,), ("GENRE",), ()))
    records.append(EntityRecord("S99", "Lonesome", ("Lonesome",), ("ONLY_CHILD",), ()))
    networks = ["KPX", "VTN", "RRO", "BLM", "QQC", "ZSF"]
    for i, net in enumerate(networks):
        records.append(EntityRecord(f"N{i:02d}", net, (net,), ("ORG",), ()))
    kb = make_kb(records)
    assert len(kb.entities) == 30

    claims = []
    next_id = 100
    for i in range(24):  # supported, two mentions, sibling-rich 2nd entity
        person = people[i % 10]
        show = shows[i % 13]
        claims.append(
            make_claim(next_id, SUP, f"{person} appeared in {show} last spring.", [[(person, i % 3)]])
        )
        next_id += 1
    for i in range(6):  # supported, 2nd entity has no siblings
        person = people[i % 10]
        claims.append(
            make_claim(next_id, SUP, f"{person} narrated Lonesome on radio.", [[(person, 0)]])
        )
        next_id += 1
    for i in range(8):  # supported, single mention
        claims.append(make_claim(next_id, SUP, f"{people[i % 10]} is a performer.", [[(people[i % 10], 1)]]))
        next_id += 1
    for i in range(7):  # refuted - never used by the generator
        claims.append(
            make_claim(next_id, REF, f"{people[i % 10]} runs {networks[i % 6]}.", [[(people[i % 10], 2)]])
        )
        next_id += 1
    for i in range(5):  # NEI
        claims.append(make_claim(next_id, NEI, f"{people[i % 10]} is beloved."))
        next_id += 1
    return kb, claims


def test_criterion_4_generator_invariants():
    with criterion(4, "span replacement, sibling parents, evidence copy, determinism, yield bound"):
        kb, claims = _generator_fixture()
        assert len(claims) == 50
        synthetics = generate_augmentation_set(claims, kb, seed=99)
        again = generate_augmentation_set(claims, kb, seed=99)
        assert [(s, s.extra) for s in synthetics] == [(s, s.extra) for s in again]  # determinism

        by_id = {c.claim_id: c for c in claims}
        assert synthetics
        for synthetic in synthetics:
            source = by_id[synthetic.extra["source_claim_id"]]
            mentions = link_entities(source.text, kb)
            target = mentions[1]
            assert target.entity_id == synthetic.extra["replaced"]
            # identical outside the replaced span
            assert synthetic.text[: target.start] == source.text[: target.start]
            assert synthetic.text.endswith(source.text[target.end :])
            replacement_name = kb.require(synthetic.extra["replacement"]).canonical_name
            assert (
                synthetic.text[target.start : target.start + len(replacement_name)]
                == replacement_name
            )
            # sibling via a shared parent, never the replaced entity itself
            assert synthetic.extra["replacement"] != synthetic.extra["replaced"]
            replaced = kb.require(synthetic.extra["replaced"])
            replacement = kb.require(synthetic.extra["replacement"])
            assert set(replaced.parent_ids) & set(replacement.parent_ids)
            # evidence carried over exactly
            assert synthetic.evidence == source.evidence
            assert synthetic.label is REF

        eligible = sum(
            1 for c in claims if c.label is SUP and len(link_entities(c.text, kb)) >= 2
        )
        assert len(synthetics) <= eligible
        # claims whose second entity has no siblings yield nothing
        lonesome_sources = {s.extra["source_claim_id"] for s in synthetics}
        for c in claims:
            if "Lonesome" in c.text:
                assert c.claim_id not in lonesome_sources


def test_criterion_5_negative_sampling_invariants():
    with criterion(5, "15 negatives per positive in 5/5/5 groups; degenerate corpus all group A"):
        pages = {
            "Pos": ["zeta quest begins here."]
            + [f"zeta quest chapter {i} continues." for i in range(1, 7)],
            "Hot": [f"zeta quest {w}." for w in ("now", "soon", "again", "forever", "tonight", "always")],
        }
        for i in range(1, 7):
            pages[f"Fresh{i}"] = [f"the zeta path number {i} is long and winding indeed."]
        pages["NoiseA"] = ["nothing relevant whatsoever."]
        pages["NoiseB"] = ["another fully unrelated page."]
        corpus = make_corpus(pages)
        index = build_index(corpus, "sentence")
        positives = {SentenceId("Pos", 0)}

        def draw(corpus, index, seed):
            """One draw of 5 per group, as selector training makes."""
            pool = NegativePool(IndexScorer(index), corpus, parse_query(index, "zeta quest"), positives, 5)
            return pool.draw(seed, 5)

        for seed in (1, 2, 3):
            negatives = draw(corpus, index, seed)
            assert len(negatives) == 15
            group_a, group_b, group_c = negatives[:5], negatives[5:10], negatives[10:]
            assert all(sid.page_id == "Pos" for sid in group_a)
            assert all(sid.page_id not in ("Pos",) for sid in group_b)
            c_pages = [sid.page_id for sid in group_c]
            assert len(set(c_pages)) == 5  # pairwise distinct documents
            used_before = {"Pos"} | {sid.page_id for sid in group_b}
            assert not set(c_pages) & used_before  # previously unused
            assert SentenceId("Pos", 0) not in negatives
            assert len(set(negatives)) == 15

        lonely = make_corpus({"Pos": ["zeta one.", "zeta two.", "zeta three."]})
        lonely_index = build_index(lonely, "sentence")
        degenerate = draw(lonely, lonely_index, 1)
        assert 0 < len(degenerate) <= 5
        assert all(sid.page_id == "Pos" for sid in degenerate)


def test_criterion_6_directional_robustness(fixture_world, tmp_path):
    with criterion(6, "regime orderings mirror the reported directional results (majority of seeds)"):
        per_seed = []

        for seed in (1, 2, 3):
            report = run_experiment(experiment_config(fixture_world, tmp_path / f"seed{seed}", seed))
            rows = {(r["dataset"], r["regime"]): r for r in report["rows"]}
            g = lambda d, r, k: rows[(d, r)][k]
            props = orderings(report)
            per_seed.append(props)
            print(
                f"[acceptance]   seed {seed}: "
                + " ".join(f"{name}={'ok' if ok else 'NO'}" for name, ok in props.items())
                + f" | baseline dev recall {g('dev','baseline','recall_at_k'):.2f},"
                + f" adversarial {g('adversarial','baseline','recall_at_k'):.2f};"
                + f" da adversarial {g('adversarial','da','recall_at_k'):.2f}"
            )
        # Majority of seeds must satisfy every property (and each property
        # individually holds on a majority of seeds).
        full_pass = sum(all(p.values()) for p in per_seed)
        assert full_pass >= 2
        for name in per_seed[0]:
            # An unmeasurable ordering (None) never counts as held.
            assert sum(p[name] is True for p in per_seed) >= 2, name


def test_criterion_7_verdict_aggregation():
    with criterion(7, "majority vote examples and full permutation invariance"):
        assert aggregate_verdict([REF, REF, REF, SUP, SUP]) is REF
        assert aggregate_verdict([SUP, SUP, REF, REF, NEI]) is SUP
        assert aggregate_verdict([NEI, NEI, SUP, SUP, REF]) is NEI
        for combo in itertools.combinations_with_replacement(CLASS_ORDER, 5):
            outcomes = {aggregate_verdict(list(p)) for p in set(itertools.permutations(combo))}
            assert len(outcomes) == 1


def test_criterion_8_end_to_end_determinism(fixture_world, tmp_path):
    with criterion(8, "two runs with one seed produce byte-identical report bundles"):
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        run_experiment(experiment_config(fixture_world, out_a, seed=7))
        run_experiment(experiment_config(fixture_world, out_b, seed=7))

        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
