import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from collections import Counter

import pytest

import claimlab
from claimlab import corpus as corpus_module
from claimlab import experiment as experiment_module
from claimlab import nli as nli_module
from claimlab.claims import Label, load_claims, save_claims
from claimlab.corpus import build_index, ingest_corpus
from claimlab.evaluation import recall_at_k
from claimlab.experiment import (
    ALL_REGIMES,
    ExperimentConfig,
    StageError,
    load_docs,
    load_selections,
    load_verdicts,
    retrieve_docs,
    run_experiment,
    select_evidence,
    verdicts_for,
)
from claimlab.features import FeatureExtractor
from claimlab.nli import NliModel, train_nli, verdict_for_claim
from claimlab.retrieval import DocumentRetriever
from claimlab.selection import TrainingConfig, train_selectors
from claimlab.worldgen import WorldConfig, build_world, write_world

from conftest import count_tokenized, make_claim, write_jsonl

SMALL_WORLD = WorldConfig(
    seed=21,
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
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp_world")
    write_world(build_world(SMALL_WORLD), out)
    return out


def config_for(world, out_dir, **kwargs):
    defaults = dict(
        corpus=str(world / "corpus"),
        train_claims=str(world / "train.jsonl"),
        dev_claims=str(world / "dev.jsonl"),
        kb=str(world / "kb.jsonl"),
        out_dir=str(out_dir),
        seed=5,
        k_docs=8,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def bundle(world, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bundle")
    report = run_experiment(config_for(world, out_dir))
    return out_dir, report


def test_one_row_per_regime_per_dataset(bundle):
    _, report = bundle
    keys = [(row["regime"], row["dataset"]) for row in report["rows"]]
    assert len(keys) == len(set(keys))
    assert len(keys) == len(report["regimes"]) * 2


def test_reported_recall_matches_persisted_selections(bundle, world):
    """Numbers in the report must be recomputable from the artifact files."""
    out_dir, report = bundle
    dev = load_claims(world / "dev.jsonl")
    for row in report["rows"]:
        if row["dataset"] != "dev":
            continue
        selections = load_selections(out_dir / "selections" / f"dev_{row['regime']}.jsonl")
        predictions = {cid: [sid for sid, _ in ranked] for cid, ranked in selections.items()}
        assert recall_at_k(predictions, dev, row["k"]) == pytest.approx(row["recall_at_k"])


def bundle_files(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_manifest_lists_artifacts(bundle, world):
    out_dir, _ = bundle
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "config_hash" in manifest
    assert "out_dir" not in manifest["config"]
    files = bundle_files(out_dir)
    assert manifest["artifacts"] == {
        name: hashlib.sha256(data).hexdigest() for name, data in files.items() if name != "manifest.json"
    }
    assert "report.json" in manifest["artifacts"]
    assert any(name.startswith("models/") for name in manifest["artifacts"])
    assert manifest["inputs"]["kb"] == hashlib.sha256((world / "kb.jsonl").read_bytes()).hexdigest()
    corpus_bytes = b"".join(p.read_bytes() for p in sorted((world / "corpus").glob("*.jsonl")))
    assert manifest["inputs"]["corpus"] == hashlib.sha256(corpus_bytes).hexdigest()


def test_rerun_replaces_previous_bundle(world, tmp_path):
    """A rerun with fewer regimes leaves none of the first run's files."""
    out_dir = tmp_path / "runs" / "out"
    run_experiment(config_for(world, out_dir, regimes=("baseline", "sup")))
    assert (out_dir / "models" / "selector_sup.json").exists()
    run_experiment(config_for(world, out_dir, regimes=("baseline",)))
    fresh = tmp_path / "fresh"
    run_experiment(config_for(world, fresh, regimes=("baseline",)))
    assert bundle_files(out_dir) == bundle_files(fresh)
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["out"]


def test_failed_run_keeps_previous_bundle(world, tmp_path):
    """A run failing at ingest, or after earlier stages wrote files (no
    trainable claim), leaves the previous bundle and no temporary files."""
    out_dir = tmp_path / "runs" / "out"
    run_experiment(config_for(world, out_dir, regimes=("baseline",)))
    before = bundle_files(out_dir)
    nei_train = tmp_path / "nei_train.jsonl"
    save_claims(nei_train, [c for c in load_claims(world / "train.jsonl") if c.label is Label.NOT_ENOUGH_INFO])
    failing = {"ingest": {"kb": str(tmp_path / "missing.jsonl")}, "train-selector": {"train_claims": str(nei_train)}}
    for stage, change in failing.items():
        with pytest.raises(StageError) as err:
            run_experiment(config_for(world, out_dir, regimes=("baseline",), **change))
        assert err.value.stage == stage
        assert bundle_files(out_dir) == before
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["out"]


def test_directory_without_bundle_not_replaced(world, tmp_path):
    out_dir = tmp_path / "notes"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("mine")
    with pytest.raises(FileExistsError):
        run_experiment(config_for(world, out_dir, regimes=("baseline",)))
    assert bundle_files(out_dir) == {"keep.txt": b"mine"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes"]


def test_config_hash_follows_input_content(world, tmp_path):
    """The same world in two directories gives the same manifest; other
    input bytes give another config hash."""
    manifests = []
    for name in ("copy1", "copy2"):
        shutil.copytree(world, tmp_path / name)
        out_dir = tmp_path / f"out_{name}"
        run_experiment(config_for(tmp_path / name, out_dir, regimes=("baseline",)))
        manifests.append((out_dir / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    with open(tmp_path / "copy2" / "kb.jsonl", "a", encoding="utf-8") as handle:
        handle.write("\n")
    run_experiment(config_for(tmp_path / "copy2", tmp_path / "out_copy2", regimes=("baseline",)))
    changed = json.loads((tmp_path / "out_copy2" / "manifest.json").read_text())
    assert changed["config_hash"] != json.loads(manifests[0])["config_hash"]


def test_oracle_flag_appends_gold_pages(world, tmp_path):
    plain_dir = tmp_path / "plain"
    run_experiment(config_for(world, plain_dir, k_docs=1, oracle_docs=False, regimes=("baseline",)))
    oracle_dir = tmp_path / "oracle"
    run_experiment(config_for(world, oracle_dir, k_docs=1, oracle_docs=True, regimes=("baseline",)))
    plain = load_docs(plain_dir / "docs_dev.jsonl")
    oracle = load_docs(oracle_dir / "docs_dev.jsonl")
    dev = {c.claim_id: c for c in load_claims(world / "dev.jsonl")}
    assert any(set(oracle[cid]) - set(plain[cid]) for cid in oracle)
    for cid, claim in dev.items():
        for page in claim.gold_pages():
            assert page in oracle[cid]


def test_verdict_stage_classifies_each_pair_once(world, tmp_path, monkeypatch):
    """Across every regime's dev selections and every dev claim, the run
    classifies each distinct (claim text, located sentence) pair once,
    with one classify_pair call per (claim text, page), and each regime's
    verdicts equal verdict_for_claim applied claim by claim."""
    classified = []
    calls = []
    original = nli_module.classify_pair

    def counting(model, extractor, claim, document, positions):
        calls.append((claim.text, document.page_id))
        classified.extend((claim.text, document.page_id, position) for position in positions)
        return original(model, extractor, claim, document, positions)

    monkeypatch.setattr(nli_module, "classify_pair", counting)
    out_dir = tmp_path / "out"
    run_experiment(config_for(world, out_dir))
    monkeypatch.undo()

    corpus = ingest_corpus(world / "corpus")
    dev = load_claims(world / "dev.jsonl")
    selections = {name: load_selections(out_dir / "selections" / f"dev_{name}.jsonl") for name in ALL_REGIMES}
    text_of = {claim.claim_id: claim.text for claim in dev}
    located = [
        (text_of[cid], sid)
        for ranked in selections.values()
        for cid, evidence in ranked.items()
        for sid, _ in evidence
        if corpus.locate(sid) is not None
    ]
    assert len(classified) == len(set(located)) < len(located)
    assert len(calls) == len({(text, sid.page_id) for text, sid in located}) < len(classified)
    model = NliModel.load(out_dir / "models" / "nli.json")
    extractor = FeatureExtractor(build_index(corpus, "sentence"))
    for name, ranked in selections.items():
        assert load_verdicts(out_dir / "verdicts" / f"dev_{name}.jsonl") == {
            claim.claim_id: verdict_for_claim(model, extractor, corpus, claim, ranked.get(claim.claim_id, []))
            for claim in dev
        }


def test_each_selection_file_read_once_per_run(world, tmp_path, monkeypatch):
    """The evaluate stage scores the dev selections the verdict stage read
    from their files, so each persisted selection file is read once."""
    read = Counter()
    original = experiment_module.load_selections

    def counting(path):
        read[Path(path).name] += 1
        return original(path)

    monkeypatch.setattr(experiment_module, "load_selections", counting)
    out_dir = tmp_path / "out"
    run_experiment(config_for(world, out_dir))
    assert read == Counter(path.name for path in (out_dir / "selections").iterdir())


def test_sr_absent_when_not_requested(world, tmp_path):
    report = run_experiment(config_for(world, tmp_path / "nobase", regimes=("baseline",)))
    assert all(row["regime"] == "baseline" for row in report["rows"])
    assert not (tmp_path / "nobase" / "selections" / "dev_sr.jsonl").exists()


def test_empty_evaluation_sets_give_null_metrics(world, tmp_path):
    """NOT ENOUGH INFO dev claims yield no adversarial claims and nothing
    verifiable: recall is null, and the verdict metrics stay defined."""
    nei_dev = tmp_path / "nei_dev.jsonl"
    nei = [c for c in load_claims(world / "dev.jsonl") if c.label is Label.NOT_ENOUGH_INFO]
    save_claims(nei_dev, nei)
    report = run_experiment(config_for(world, tmp_path / "out", dev_claims=str(nei_dev)))
    assert report["n_adversarial_claims"] == 0
    assert report["n_dev_claims"] == len(nei)
    assert len(report["rows"]) == 2 * len(report["regimes"])
    for row in report["rows"]:
        assert row["recall_at_k"] is None
        assert (row["refuted_mistakes"], row["supported_mistakes"]) == (0, 0)
        if row["dataset"] == "dev":
            assert 0.0 <= row["fever_score"] == row["label_accuracy"] <= 1.0
        else:
            assert "fever_score" not in row
    persisted = json.loads((tmp_path / "out" / "report.json").read_text())
    assert persisted["rows"] == report["rows"]


def test_stage_error_carries_stage_name(tmp_path):
    config = ExperimentConfig(
        corpus=str(tmp_path / "missing"),
        train_claims="x",
        dev_claims="y",
        kb="z",
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(StageError) as err:
        run_experiment(config)
    assert err.value.stage == "ingest"


def test_unknown_regime_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown regimes"):
        ExperimentConfig(
            corpus="c", train_claims="t", dev_claims="d", kb="k",
            out_dir=str(tmp_path), regimes=("baseline", "bogus"),
        )


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"regimes": ()}, "regimes must name at least one regime"),
        ({"regimes": ("baseline", "baseline")}, "regimes must not repeat a regime"),
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite and positive"),
        ({"negatives_per_positive": 0}, "negatives_per_positive must be >= 1"),
        ({"k_sentences": 0}, "k_sentences must be >= 1"),
        ({"k_docs": 0}, "k_docs: k must be >= 1"),
    ],
)
def test_bad_setting_rejected_at_construction(overrides, message):
    """A setting no stage can use fails when the config is built, before
    any stage runs."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(corpus="c", train_claims="t", dev_claims="d", kb="k", out_dir="out", **overrides)


def test_bundle_independent_of_hash_seed(fixture_world, tmp_path):
    """Two processes with different PYTHONHASHSEED values write the same
    bundle bytes: no float result may follow a set's iteration order."""
    script = """
import sys
from claimlab.experiment import ExperimentConfig, run_experiment
world, out = sys.argv[1:]
run_experiment(ExperimentConfig(
    corpus=world + "/corpus", train_claims=world + "/train.jsonl", dev_claims=world + "/dev.jsonl",
    kb=world + "/kb.jsonl", out_dir=out, seed=1, regimes=("baseline",),
))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(claimlab.__file__).parents[1])}
    bundles = {}
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        subprocess.run(
            [sys.executable, "-c", script, str(fixture_world), str(out)],
            env={**env, "PYTHONHASHSEED": hash_seed},
            check=True,
            timeout=120,
        )
        bundles[hash_seed] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert sorted(bundles["1"]) == sorted(bundles["2"])
    differing = [name for name in bundles["1"] if bundles["1"][name] != bundles["2"][name]]
    assert differing == []


def bundle_digest(out_dir):
    """sha256 over every bundle file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for name, data in bundle_files(out_dir).items():
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "config, digest",
    [
        (WorldConfig(), "d8d348b9fa186e2aea3205eb14e5b5392db1a2a5089167c7ffe080e4ea17f456"),
        (SMALL_WORLD, "5db9cbd040c6af2929977f41c3f7cae8977866bfa6aafde28026a917480d3486"),
    ],
    ids=["default-world", "small-world"],
)
def test_bundle_bytes_pinned(tmp_path, config, digest):
    """run_experiment with the benchmark's settings (experiment seed 1, 6
    epochs, lr 0.05, every regime) writes the same bytes across versions:
    a faster feature or verdict path must not move a model weight, a
    score or a verdict."""
    world = tmp_path / "world"
    write_world(build_world(config), world)
    out_dir = tmp_path / "out"
    run_experiment(
        ExperimentConfig(
            corpus=str(world / "corpus"),
            train_claims=str(world / "train.jsonl"),
            dev_claims=str(world / "dev.jsonl"),
            kb=str(world / "kb.jsonl"),
            out_dir=str(out_dir),
            seed=1,
            epochs=6,
            learning_rate=0.05,
        )
    )
    assert bundle_digest(out_dir) == digest


def test_corpus_text_is_tokenized_once(tmp_path, monkeypatch):
    """Ingesting, both indexes, selector training, retrieval, selection,
    NLI training and verdicts split each sentence text and display title
    once, when its Document is built; a claim text is tokenized only by
    parse_query, once per parse."""
    pages = {
        "Ada_Hartley": ["Ada Hartley is an actor.", "She starred in Quillstone for years.", "She was born in 1960."],
        "Quillstone": ["Quillstone is a hit sitcom.", ""],
        "Bo_Winters": ["Bo Winters is an actor.", "He starred in Fernbank for years.", "He was born in 1955."],
        "Fernbank": ["Fernbank is a hit sitcom.", "Viewers adore the hit sitcom."],
        "Granite_(town)": ["", "Granite is a town in the hills."],
    }
    dump = [{"id": page, "lines": "\n".join(f"{i}\t{t}" for i, t in enumerate(texts))} for page, texts in pages.items()]
    claims = [
        make_claim(1, Label.SUPPORTED, "Ada Hartley starred in Quillstone.", [[("Ada_Hartley", 1)]]),
        make_claim(2, Label.SUPPORTED, "Bo Winters starred in Fernbank.", [[("Bo_Winters", 1)]]),
        make_claim(3, Label.REFUTED, "Ada Hartley was born in 2001.", [[("Ada_Hartley", 2)]]),
        make_claim(4, Label.REFUTED, "Bo Winters was born in 2002.", [[("Bo_Winters", 2)]]),
        make_claim(5, Label.NOT_ENOUGH_INFO, "Ada Hartley is respected."),
    ]
    texts = count_tokenized(monkeypatch)
    parsed = Counter()
    original = corpus_module.parse_query

    def counting(index, text):
        parsed[text] += 1
        return original(index, text)

    for name, module in list(sys.modules.items()):
        if name.startswith("claimlab") and getattr(module, "parse_query", None) is original:
            monkeypatch.setattr(module, "parse_query", counting)

    corpus = ingest_corpus(write_jsonl(tmp_path / "corpus.jsonl", dump))
    doc_index, sentence_index = build_index(corpus, "document"), build_index(corpus, "sentence")
    extractor = FeatureExtractor.from_index(sentence_index)
    configs = {regime: TrainingConfig(seed=1) for regime in ("baseline", "sup", "ref")}
    models = train_selectors(claims, [], corpus, extractor, configs)
    docs = retrieve_docs(DocumentRetriever(corpus, doc_index), claims, oracle_docs=True)
    selections = select_evidence(models, extractor, corpus, claims, docs, 5, ("sup", "ref"))
    nli_model = train_nli(claims, selections["baseline"], corpus, extractor, TrainingConfig(seed=1))
    verdicts_for(nli_model, extractor, corpus, claims, selections)

    corpus_texts = Counter(doc.title for doc in corpus.documents.values())
    corpus_texts.update(text for doc in corpus.documents.values() for _, text in doc.sentences)
    assert {text: texts[text] for text in corpus_texts} == corpus_texts
    assert texts - corpus_texts == parsed
    assert set(parsed) == {claim.text for claim in claims}
