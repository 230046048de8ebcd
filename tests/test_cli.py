import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claimlab
from claimlab.claims import load_claims
from claimlab.cli import main
from claimlab.corpus import build_index, ingest_corpus
from claimlab.experiment import ALL_REGIMES, ExperimentConfig, load_docs, run_experiment, write_selections
from claimlab.features import FeatureExtractor
from claimlab.selection import RelevanceModel, aggregate_sr, select_sentences
from claimlab.util import stable_seed
from claimlab.worldgen import WorldConfig, build_world, write_world

SMALL_WORLD = WorldConfig(
    seed=5,
    n_persons=12,
    n_shows=12,
    n_networks=4,
    n_towns=12,
    train_supported=8,
    train_supported_single=1,
    train_refuted=5,
    train_refuted_single=1,
    train_nei=5,
    dev_supported=4,
    dev_supported_single=1,
    dev_refuted=4,
    dev_refuted_single=1,
    dev_nei=4,
)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    write_world(build_world(SMALL_WORLD), out)
    return out


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_ingest(world_dir, capsys):
    assert main(["ingest", "--corpus", str(world_dir / "corpus")]) == 0
    out = capsys.readouterr().out
    assert "pages" in out


def test_retrieve_docs_format(world_dir, tmp_path):
    out = tmp_path / "docs.jsonl"
    assert (
        main(
            [
                "retrieve-docs",
                "--corpus",
                str(world_dir / "corpus"),
                "--claims",
                str(world_dir / "dev.jsonl"),
                "--k",
                "5",
                "--oracle-docs",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_jsonl(out)
    assert rows and set(rows[0]) == {"claim_id", "pages"}
    assert all(isinstance(row["pages"], list) for row in rows)


def test_generate_and_analyze(world_dir, tmp_path):
    synthetic = tmp_path / "synthetic.jsonl"
    assert (
        main(
            [
                "generate-claims",
                "--claims",
                str(world_dir / "train.jsonl"),
                "--kb",
                str(world_dir / "kb.jsonl"),
                "--seed",
                "3",
                "--out",
                str(synthetic),
            ]
        )
        == 0
    )
    rows = read_jsonl(synthetic)
    assert rows and {"id", "label", "claim", "evidence", "source_claim_id", "replaced", "replacement"} <= set(rows[0])
    assert all(row["label"] == "REFUTES" for row in rows)

    analysis = tmp_path / "analysis.json"
    assert (
        main(
            [
                "analyze-entities",
                "--claims",
                str(world_dir / "dev.jsonl"),
                "--kb",
                str(world_dir / "kb.jsonl"),
                "--out",
                str(analysis),
            ]
        )
        == 0
    )
    payload = json.loads(analysis.read_text())
    assert "entity_count_table" in payload and "chi_squared" in payload


@pytest.fixture(scope="module")
def pipeline_artifacts(world_dir, tmp_path_factory):
    """Chained CLI stages on the small world."""
    art = tmp_path_factory.mktemp("artifacts")
    corpus = str(world_dir / "corpus")
    train = str(world_dir / "train.jsonl")
    dev = str(world_dir / "dev.jsonl")
    kb = str(world_dir / "kb.jsonl")

    assert main(["generate-claims", "--claims", train, "--kb", kb, "--seed", "1", "--out", str(art / "syn.jsonl")]) == 0
    for regime, extra in (("baseline", []), ("sup", []), ("ref", []), ("da", ["--synthetic", str(art / "syn.jsonl")])):
        assert (
            main(
                [
                    "train-selector",
                    "--regime",
                    regime,
                    "--claims",
                    train,
                    "--corpus",
                    corpus,
                    "--seed",
                    "2",
                    "--out",
                    str(art / f"model_{regime}.json"),
                ]
                + extra
            )
            == 0
        )
    assert main(["retrieve-docs", "--corpus", corpus, "--claims", dev, "--k", "8", "--oracle-docs", "--out", str(art / "docs_dev.jsonl")]) == 0
    assert main(["retrieve-docs", "--corpus", corpus, "--claims", train, "--k", "8", "--out", str(art / "docs_train.jsonl")]) == 0
    assert (
        main(
            [
                "select",
                "--model",
                str(art / "model_baseline.json"),
                "--claims",
                dev,
                "--docs",
                str(art / "docs_dev.jsonl"),
                "--corpus",
                corpus,
                "--k",
                "5",
                "--out",
                str(art / "sel_dev.jsonl"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "select",
                "--model",
                str(art / "model_sup.json"),
                "--model2",
                str(art / "model_ref.json"),
                "--claims",
                dev,
                "--docs",
                str(art / "docs_dev.jsonl"),
                "--corpus",
                corpus,
                "--out",
                str(art / "sel_sr.jsonl"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "select",
                "--model",
                str(art / "model_baseline.json"),
                "--claims",
                train,
                "--docs",
                str(art / "docs_train.jsonl"),
                "--corpus",
                corpus,
                "--out",
                str(art / "sel_train.jsonl"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train-nli",
                "--claims",
                train,
                "--selections",
                str(art / "sel_train.jsonl"),
                "--corpus",
                corpus,
                "--seed",
                "4",
                "--out",
                str(art / "nli.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "verdict",
                "--model",
                str(art / "nli.json"),
                "--selections",
                str(art / "sel_dev.jsonl"),
                "--claims",
                dev,
                "--corpus",
                corpus,
                "--out",
                str(art / "verdicts.jsonl"),
            ]
        )
        == 0
    )
    return art


def test_selection_output_format(pipeline_artifacts):
    rows = read_jsonl(pipeline_artifacts / "sel_dev.jsonl")
    assert rows and set(rows[0]) == {"claim_id", "evidence"}
    page, line, score = rows[0]["evidence"][0]
    assert isinstance(page, str) and isinstance(line, int) and 0.0 < score < 1.0
    assert all(len(row["evidence"]) <= 5 for row in rows)


def test_select_model2_matches_per_model_merge(world_dir, pipeline_artifacts, tmp_path):
    """`select --model2` writes exactly the SR merge of two separate rankings."""
    corpus = ingest_corpus(world_dir / "corpus")
    extractor = FeatureExtractor.from_index(build_index(corpus, "sentence"))
    sup = RelevanceModel.load(pipeline_artifacts / "model_sup.json")
    ref = RelevanceModel.load(pipeline_artifacts / "model_ref.json")
    docs = load_docs(pipeline_artifacts / "docs_dev.jsonl")
    k = 5
    expected = {}
    for claim in load_claims(world_dir / "dev.jsonl"):
        pages = docs.get(claim.claim_id, [])
        expected[claim.claim_id] = aggregate_sr(
            select_sentences(sup, extractor, claim, pages, corpus, k),
            select_sentences(ref, extractor, claim, pages, corpus, k),
            k,
        )
    write_selections(tmp_path / "expected.jsonl", expected)
    assert (pipeline_artifacts / "sel_sr.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_verdict_output_format(pipeline_artifacts):
    rows = read_jsonl(pipeline_artifacts / "verdicts.jsonl")
    assert rows and set(rows[0]) == {"claim_id", "predicted_label", "predicted_evidence"}
    assert all(
        row["predicted_label"] in ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO") for row in rows
    )


def test_evaluate_report(world_dir, pipeline_artifacts, tmp_path):
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "evaluate",
                "--claims",
                str(world_dir / "dev.jsonl"),
                "--selections",
                str(pipeline_artifacts / "sel_dev.jsonl"),
                "--verdicts",
                str(pipeline_artifacts / "verdicts.jsonl"),
                "--docs",
                str(pipeline_artifacts / "docs_dev.jsonl"),
                "--k",
                "5",
                "--k-docs",
                "8",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    sentence = payload["sentence_level"]
    assert 0.0 <= sentence["recall_at_k"] <= 1.0
    assert sentence["fever_score"] <= sentence["label_accuracy"]
    assert "document_level" in payload


def test_evaluate_without_verifiable_claims(world_dir, pipeline_artifacts, tmp_path):
    """A claims file with only NOT ENOUGH INFO claims reports null recall."""
    nei = [row for row in read_jsonl(world_dir / "dev.jsonl") if row["label"] == "NOT ENOUGH INFO"]
    ids = {row["id"] for row in nei}
    inputs = {"claims": nei}
    for name in ("sel_dev", "docs_dev"):
        inputs[name] = [row for row in read_jsonl(pipeline_artifacts / f"{name}.jsonl") if row["claim_id"] in ids]
    for name, rows in inputs.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "report.json"
    args = ["evaluate", "--claims", str(tmp_path / "claims.jsonl"), "--selections", str(tmp_path / "sel_dev.jsonl")]
    assert main(args + ["--docs", str(tmp_path / "docs_dev.jsonl"), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["sentence_level"]["recall_at_k"] is None
    assert payload["sentence_level"]["n_verifiable"] == 0
    assert payload["document_level"]["recall_at_k"] is None


@pytest.mark.parametrize("k", ["-1", "0"])
def test_select_rejects_k_below_one(world_dir, pipeline_artifacts, tmp_path, capsys, k):
    out = tmp_path / "sel.jsonl"
    args = ["select", "--model", str(pipeline_artifacts / "model_baseline.json"), "--k", k, "--out", str(out)]
    args += ["--claims", str(world_dir / "dev.jsonl"), "--corpus", str(world_dir / "corpus")]
    assert main(args + ["--docs", str(pipeline_artifacts / "docs_dev.jsonl")]) == 1
    assert "error: select: k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--k", "--k-docs"])
def test_evaluate_rejects_k_below_one(world_dir, pipeline_artifacts, tmp_path, capsys, option):
    out = tmp_path / "report.json"
    args = ["evaluate", "--claims", str(world_dir / "dev.jsonl"), option, "-1", "--out", str(out)]
    args += ["--selections", str(pipeline_artifacts / "sel_dev.jsonl")]
    args += ["--docs", str(pipeline_artifacts / "docs_dev.jsonl")]
    assert main(args) == 1
    assert "error: evaluate: k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_retrieve_docs_rejects_non_finite_title_match_weight(world_dir, tmp_path, capsys, weight):
    out = tmp_path / "docs.jsonl"
    args = ["retrieve-docs", "--corpus", str(world_dir / "corpus"), "--claims", str(world_dir / "dev.jsonl")]
    assert main(args + ["--title-match-weight", weight, "--out", str(out)]) == 1
    assert "error: retrieve-docs: title_match_weight must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_train_selector_rejects_non_finite_learning_rate(world_dir, tmp_path, capsys, rate):
    out = tmp_path / "model.json"
    args = ["train-selector", "--regime", "baseline", "--claims", str(world_dir / "train.jsonl")]
    args += ["--corpus", str(world_dir / "corpus"), "--learning-rate", rate, "--out", str(out)]
    assert main(args) == 1
    assert "error: train-selector: learning_rate must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_requires_inputs(world_dir, tmp_path, capsys):
    code = main(["evaluate", "--claims", str(world_dir / "dev.jsonl"), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "need" in capsys.readouterr().err


def test_run_full_pipeline(world_dir, tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code = main(
        [
            "run",
            "--corpus",
            str(world_dir / "corpus"),
            "--train-claims",
            str(world_dir / "train.jsonl"),
            "--dev-claims",
            str(world_dir / "dev.jsonl"),
            "--kb",
            str(world_dir / "kb.jsonl"),
            "--seed",
            "7",
            "--k-docs",
            "8",
            "--regimes",
            "baseline,sr",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert {row["regime"] for row in report["rows"]} == {"baseline", "sr"}
    assert len(report["rows"]) == 4  # one row per regime per dataset
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "entity_analysis.json").exists()


def test_run_with_config_file(world_dir, tmp_path):
    config = {
        "corpus": str(world_dir / "corpus"),
        "train_claims": str(world_dir / "train.jsonl"),
        "dev_claims": str(world_dir / "dev.jsonl"),
        "kb": str(world_dir / "kb.jsonl"),
        "out_dir": str(tmp_path / "bundle"),
        "seed": 3,
        "k_docs": 8,
        "regimes": ["baseline"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 0
    report = json.loads((tmp_path / "bundle" / "report.json").read_text())
    assert report["regimes"] == ["baseline"]
    assert {row["regime"] for row in report["rows"]} == {"baseline"}


def test_run_missing_options(capsys):
    assert main(["run"]) == 1
    assert "missing required options" in capsys.readouterr().err


def test_stage_error_exit_code(tmp_path, capsys):
    code = main(
        [
            "run",
            "--corpus",
            str(tmp_path / "nope"),
            "--train-claims",
            "x",
            "--dev-claims",
            "y",
            "--kb",
            "z",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "stage 'ingest' failed" in capsys.readouterr().err


def test_run_rejects_repeated_regimes(world_dir, tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    args = ["run", "--corpus", str(world_dir / "corpus"), "--kb", str(world_dir / "kb.jsonl")]
    args += ["--train-claims", str(world_dir / "train.jsonl"), "--dev-claims", str(world_dir / "dev.jsonl")]
    assert main(args + ["--regimes", "baseline,baseline", "--out-dir", str(out_dir)]) == 1
    assert "error: run: regimes must not repeat a regime" in capsys.readouterr().err
    assert not out_dir.exists()



def test_run_rejects_k_docs_below_one(world_dir, tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    args = ["run", "--corpus", str(world_dir / "corpus"), "--kb", str(world_dir / "kb.jsonl")]
    args += ["--train-claims", str(world_dir / "train.jsonl"), "--dev-claims", str(world_dir / "dev.jsonl")]
    assert main(args + ["--k-docs", "0", "--out-dir", str(out_dir)]) == 1
    assert "error: run: k_docs: k must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()

@pytest.mark.parametrize("row", [{"id": 5, "lines": ""}, [1, 2], {"id": "A", "lines": 7}])
def test_ingest_malformed_row_is_an_error(tmp_path, capsys, row):
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert main(["ingest", "--corpus", str(dump)]) == 1
    assert capsys.readouterr().err.startswith(f"error: ingest: {dump}:1: ")


@pytest.mark.parametrize("command", ["analyze-entities", "generate-claims"])
def test_claims_row_not_an_object_is_an_error(world_dir, tmp_path, capsys, command):
    claims = tmp_path / "claims.jsonl"
    claims.write_text("[1, 2]\n", encoding="utf-8")
    args = [command, "--claims", str(claims), "--kb", str(world_dir / "kb.jsonl"), "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {command}: {claims}:1: row is not a JSON object")


def test_claims_row_not_valid_json_names_file_and_line(world_dir, tmp_path, capsys):
    """The error names the file's line, not the line inside the row."""
    first = (world_dir / "dev.jsonl").read_text(encoding="utf-8").splitlines()[0]
    claims = tmp_path / "claims.jsonl"
    claims.write_text(first + "\n" + first.replace(",", "", 1) + "\n", encoding="utf-8")
    args = ["analyze-entities", "--claims", str(claims), "--kb", str(world_dir / "kb.jsonl")]
    assert main(args + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: analyze-entities: {claims}:2: invalid JSON: Expecting ',' delimiter at column ")
    assert not (tmp_path / "out.json").exists()


GOOD_CLAIM = {"id": 1, "label": "SUPPORTS", "claim": "A b.", "evidence": [[[None, None, "A", 0]]]}


@pytest.mark.parametrize(
    "command, kind, row",
    [
        ("analyze-entities", "claims", {**GOOD_CLAIM, "id": 2, "evidence": [[[None, None, "A"]]]}),
        ("analyze-entities", "claims", {"id": 2, "label": "SUPPORTS", "evidence": []}),
        ("analyze-entities", "claims", {**GOOD_CLAIM, "id": "x1"}),
        ("analyze-entities", "claims", {**GOOD_CLAIM, "id": 2, "label": "MAYBE"}),
        ("analyze-entities", "kb", {"id": "E9", "aliases": []}),
        ("analyze-entities", "kb", {"id": "E9", "name": ""}),
        ("analyze-entities", "kb", {"id": "E9", "name": 9}),
        ("analyze-entities", "kb", {"id": "E9", "name": "Beta Cat", "aliases": ["Beta", 3]}),
        ("retrieve-docs", "claims", {**GOOD_CLAIM, "id": 2, "claim": 7}),
        ("evaluate", "selections", {"claim_id": 2, "evidence": [["A", 0]]}),
        ("evaluate", "docs", {"claim_id": 2}),
        ("evaluate", "verdicts", {"claim_id": 2, "predicted_label": "MAYBE", "predicted_evidence": []}),
    ],
    ids=[
        "short-evidence-item",
        "no-text",
        "bad-id",
        "bad-label",
        "no-kb-name",
        "empty-kb-name",
        "kb-name-not-text",
        "kb-alias-not-text",
        "claim-not-text",
        "short-selection",
        "no-pages",
        "bad-verdict",
    ],
)
def test_malformed_row_names_file_and_line(world_dir, tmp_path, command, kind, row):
    """A row its reader cannot parse fails with the file and the line,
    never with a traceback."""
    first = {
        "claims": GOOD_CLAIM,
        "kb": {"id": "E8", "name": "Alpha Dog"},
        "selections": {"claim_id": 1, "evidence": [["A", 0, 0.5]]},
        "docs": {"claim_id": 1, "pages": ["A"]},
        "verdicts": {"claim_id": 1, "predicted_label": "SUPPORTS", "predicted_evidence": [["A", 0]]},
    }[kind]
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_text(json.dumps(first) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    paths = {"claims": world_dir / "dev.jsonl", "kb": world_dir / "kb.jsonl", kind: bad}
    args = [command, "--claims", paths["claims"], "--out", tmp_path / "out.json"]
    if command == "analyze-entities":
        args += ["--kb", paths["kb"]]
    elif command == "retrieve-docs":
        args += ["--corpus", world_dir / "corpus"]
    else:
        args += [f"--{kind}", bad]
    env = {**os.environ, "PYTHONPATH": str(Path(claimlab.__file__).parents[1])}
    cli = [sys.executable, "-m", "claimlab.cli", *map(str, args)]
    done = subprocess.run(cli, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert f"error: {command}: {bad}:2: " in done.stderr
    assert "Traceback" not in done.stderr


def test_train_selector_regime_choices(world_dir, tmp_path, capsys):
    """--regime takes the trained regimes only; the merged sr is not one."""
    args = ["train-selector", "--claims", str(world_dir / "train.jsonl"), "--corpus", str(world_dir / "corpus")]
    args += ["--out", str(tmp_path / "model.json")]
    with pytest.raises(SystemExit) as exited:
        main(args + ["--regime", "sr"])
    assert exited.value.code == 2
    assert "invalid choice: 'sr'" in capsys.readouterr().err
    assert main(args + ["--regime", "da"]) == 1
    assert "error: train-selector: regime 'da' needs --synthetic" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()
    assert ALL_REGIMES == ("baseline", "sup", "ref", "sr", "da")


def bundle_files(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_subcommand_chain_rebuilds_run_bundle(world_dir, tmp_path):
    """The subcommands, chained with the seeds `run` derives from its own,
    write every file of a `run` bundle but the report and the manifest
    byte for byte, and `evaluate` reproduces the report's rows."""
    seed, epochs, rate = 1, 6, 0.05
    corpus, kb = str(world_dir / "corpus"), str(world_dir / "kb.jsonl")
    train, dev = str(world_dir / "train.jsonl"), str(world_dir / "dev.jsonl")
    config = ExperimentConfig(
        corpus=corpus, train_claims=train, dev_claims=dev, kb=kb, out_dir=str(tmp_path / "run"),
        seed=seed, epochs=epochs, learning_rate=rate,
    )
    report = run_experiment(config)
    out = tmp_path / "chain"

    def cli(*args):
        assert main([str(arg) for arg in args]) == 0

    def selections(dataset, regime):
        return out / "selections" / f"{dataset}_{regime}.jsonl"

    def selector(regime):
        return out / "models" / f"selector_{regime}.json"

    synthetic, adversarial = out / "synthetic_train.jsonl", out / "adversarial_dev.jsonl"
    cli("generate-claims", "--claims", train, "--kb", kb, "--seed", stable_seed(seed, "augment", "train"), "--out", synthetic)
    cli("generate-claims", "--claims", dev, "--kb", kb, "--seed", stable_seed(seed, "augment", "dev"), "--out", adversarial)
    cli("analyze-entities", "--claims", dev, "--kb", kb, "--out", out / "entity_analysis.json")
    datasets = {"dev": dev, "adversarial": adversarial}
    for dataset, claims in datasets.items():
        cli("retrieve-docs", "--corpus", corpus, "--claims", claims, "--oracle-docs", "--out", out / f"docs_{dataset}.jsonl")
    training = ["--corpus", corpus, "--claims", train, "--epochs", epochs, "--learning-rate", rate]
    for regime in ("baseline", "sup", "ref", "da"):
        seed_args = ["--seed", stable_seed(seed, "selector", regime)]
        cli("train-selector", *training, *seed_args, "--regime", regime, "--synthetic", synthetic, "--out", selector(regime))
    for dataset, claims in datasets.items():
        select = ["select", "--corpus", corpus, "--claims", claims, "--docs", out / f"docs_{dataset}.jsonl"]
        for regime in ("baseline", "sup", "ref", "da"):
            cli(*select, "--model", selector(regime), "--out", selections(dataset, regime))
        cli(*select, "--model", selector("sup"), "--model2", selector("ref"), "--out", selections(dataset, "sr"))
    # NEI training pairs: the baseline ranking over plain retrieval's pages.
    nei = tmp_path / "nei"
    cli("retrieve-docs", "--corpus", corpus, "--claims", train, "--out", nei / "docs.jsonl")
    select = ["select", "--corpus", corpus, "--claims", train, "--docs", nei / "docs.jsonl"]
    cli(*select, "--model", selector("baseline"), "--out", nei / "selections.jsonl")
    nli_args = ["--seed", stable_seed(seed, "nli"), "--selections", nei / "selections.jsonl"]
    cli("train-nli", *training, *nli_args, "--out", out / "models" / "nli.json")
    for regime in ALL_REGIMES:
        verdict = ["verdict", "--corpus", corpus, "--claims", dev, "--model", out / "models" / "nli.json"]
        cli(*verdict, "--selections", selections("dev", regime), "--out", out / "verdicts" / f"dev_{regime}.jsonl")

    expected = bundle_files(tmp_path / "run")
    del expected["report.json"], expected["manifest.json"]
    assert len(expected) == 25
    assert bundle_files(out) == expected

    for row in report["rows"]:
        dataset, regime = row["dataset"], row["regime"]
        evaluate = ["evaluate", "--claims", datasets[dataset], "--selections", selections(dataset, regime)]
        if dataset == "dev":
            evaluate += ["--verdicts", out / "verdicts" / f"dev_{regime}.jsonl"]
        cli(*evaluate, "--out", tmp_path / "evaluation.json")
        sentence = json.loads((tmp_path / "evaluation.json").read_text())["sentence_level"]
        metrics = {name: value for name, value in row.items() if name not in ("regime", "dataset")}
        assert {name: sentence[name] for name in metrics} == metrics
        assert "recall_at_k" in metrics and ("fever_score" in metrics) == (dataset == "dev")
