"""A run prepares each claim text once: `run_experiment` hands its
extractor one dict of prepared claims, so a claim and the selection
vectors on it, prepared in one stage, serve every later stage of the
run. The dict dies with its run, and the stage log, written beside the
bundle and never into it, counts what the dict holds after each stage.
"""

import json

import pytest

from claimlab.claims import load_claims
from claimlab.experiment import run_experiment

from conftest import record_computed
from test_acceptance import experiment_config
from test_claim_slot import count_parses
from test_experiment import bundle_files

STAGES = [
    "ingest",
    "index",
    "generate-claims",
    "analyze-entities",
    "retrieve-docs",
    "train-selector",
    "select",
    "train-nli",
    "verdict",
    "evaluate",
]


def test_a_run_prepares_each_claim_text_once(fixture_world, tmp_path, monkeypatch):
    """One run parses each claim text it reads once on the sentence index,
    and computes each (claim text, sentence) vector at most once across its
    stages; the stage log counts both, stage by stage. A second run in the
    same process parses every text again, and its bundle, written without
    a log, has the first's bytes."""
    parses = count_parses(monkeypatch)
    computed = record_computed(monkeypatch)
    log = tmp_path / "stages.jsonl"
    first = tmp_path / "first"
    run_experiment(experiment_config(fixture_world, first, seed=1), log)

    texts = {
        claim.text
        for path in (
            fixture_world / "train.jsonl",
            fixture_world / "dev.jsonl",
            first / "synthetic_train.jsonl",
            first / "adversarial_dev.jsonl",
        )
        for claim in load_claims(path)
    }
    sentence_parses = [index for index in parses if index.granularity == "sentence"]
    assert len(sentence_parses) == len(texts) > 0
    pairs = [(text, sid) for text, sid, _ in computed]
    assert len(pairs) == len(set(pairs)) > 0
    assert {text for text, _ in pairs} <= texts

    rows = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [row["stage"] for row in rows] == STAGES
    assert all(row["seconds"] >= 0.0 for row in rows)
    prepared = [row["claims_prepared"] for row in rows]
    finished = [row["vectors_finished"] for row in rows]
    assert prepared == sorted(prepared) and finished == sorted(finished)
    assert (prepared[-1], finished[-1]) == (len(texts), len(pairs))
    # The verdict stage reads the dev claims that select already prepared.
    verdict = STAGES.index("verdict")
    assert (prepared[verdict], finished[verdict]) == (prepared[verdict - 1], finished[verdict - 1])

    del parses[:]
    second = tmp_path / "second"
    run_experiment(experiment_config(fixture_world, second, seed=1))
    assert len([index for index in parses if index.granularity == "sentence"]) == len(texts)
    assert bundle_files(second) == bundle_files(first)


def test_a_stage_log_inside_the_bundle_is_refused(fixture_world, tmp_path):
    out_dir = tmp_path / "bundle"
    for inside in (out_dir / "stages.jsonl", out_dir, out_dir / "sub" / ".." / "log.jsonl"):
        with pytest.raises(ValueError, match="inside the bundle directory"):
            run_experiment(experiment_config(fixture_world, out_dir, seed=1), inside)
    assert not out_dir.exists()
    assert list(tmp_path.iterdir()) == []
