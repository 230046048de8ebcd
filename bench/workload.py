"""One benchmark workload in one process; started by bench/run.py.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/workload.py \
        --workload experiment-1x --seed 13 --seconds 20 --trace 0

Prints progress and every metric by name with its unit, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, measured untraced; with --trace 1 they are its
per_layer metrics, from a run traced by spans.Tracer. Why each workload
exists, and what it is known to stress, is in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from claimlab import claim_gen, claims, corpus, evaluation, experiment, features, kb, nli, retrieval, selection
from claimlab.claims import Claim, Label
from claimlab.util import stable_seed
from claimlab.worldgen import WorldConfig, build_world, write_world

import spans
import tiling
from hostspeed import HostSpeed, Timing

ROOT = Path(__file__).resolve().parent.parent

# Experiment settings from ROADMAP.md: experiment seed 1, 6 epochs, lr 0.05.
EXPERIMENT_SEED = 1
EPOCHS = 6
LEARNING_RATE = 0.05
K_DOCS = 20
K_SENTENCES = 5
NEGATIVES_PER_POSITIVE = 15

VERIFY_COPIES = 8
# Set-up is repeated and its median reported; the 1x set-up is cheap.
EXPERIMENT_SETUPS = 11
VERIFY_SETUPS = 3
# At least 1000 latency samples, so p99 has at least 10 samples beyond it.
MIN_LATENCY_SAMPLES = 1000
MIN_TIMED_EXPERIMENTS = 2

@dataclass
class Loaded:
    """What the load and index calls produce."""

    corpus: corpus.Corpus
    kb: kb.KnowledgeBase
    train: list[Claim]
    dev: list[Claim]
    sentence_index: corpus.InvertedIndex
    extractor: features.FeatureExtractor
    retriever: retrieval.DocumentRetriever


def load_and_index(paths: dict[str, Path]) -> Loaded:
    corp = corpus.ingest_corpus(paths["corpus"])
    kbase = kb.KnowledgeBase.load(paths["kb"])
    train = claims.load_claims(paths["train"])
    dev = claims.load_claims(paths["dev"])
    doc_index = corpus.build_index(corp, "document")
    sentence_index = corpus.build_index(corp, "sentence")
    extractor = features.FeatureExtractor.from_index(sentence_index)
    retriever = retrieval.DocumentRetriever(corp, doc_index, retrieval.DocRetrievalConfig(k=K_DOCS))
    return Loaded(corp, kbase, train, dev, sentence_index, extractor, retriever)


@dataclass
class Server:
    """Verifies one claim at a time: retrieve, select with one model, verdict."""

    loaded: Loaded
    selector: selection.RelevanceModel
    nli_model: nli.NliModel
    datasets: dict[str, list[Claim]] = field(default_factory=dict)

    def verify(self, claim: Claim) -> tuple[Label, list[corpus.SentenceId]]:
        base = self.loaded
        pages = base.retriever.retrieve(claim.text)
        ranked = selection.select_sentences(
            self.selector, base.extractor, claim, pages, base.corpus, K_SENTENCES
        )
        return nli.verdict_for_claim(self.nli_model, base.extractor, base.corpus, claim, ranked)

    def valid(self, verdict) -> bool:
        label, evidence = verdict
        return (
            isinstance(label, Label)
            and len(evidence) <= K_SENTENCES
            and all(self.loaded.corpus.get_sentence(sid) for sid in evidence)
        )


def training_config(*seed_parts) -> selection.TrainingConfig:
    return selection.TrainingConfig(
        epochs=EPOCHS,
        learning_rate=LEARNING_RATE,
        seed=stable_seed(EXPERIMENT_SEED, *seed_parts),
        negatives_per_positive=NEGATIVES_PER_POSITIVE,
    )


def setup_verify(paths: dict[str, Path], world_seed: int) -> tuple[Server, list[Claim]]:
    """Everything before the first claim: load, index, train `da` and NLI
    on copy-0 training claims, and build the shuffled claim stream."""
    base = load_and_index(paths)
    train = [c for c in base.train if tiling.copy_of_claim(c.claim_id) == 0]
    synthetic = [
        claim_gen.synthetic_to_claim(s)
        for s in claim_gen.generate_augmentation_set(
            train, base.kb, seed=stable_seed(EXPERIMENT_SEED, "augment", "train")
        )
    ]
    adversarial = [
        claim_gen.synthetic_to_claim(s)
        for s in claim_gen.generate_augmentation_set(
            base.dev, base.kb, seed=stable_seed(EXPERIMENT_SEED, "augment", "dev")
        )
    ]
    selector = selection.train_selector(
        train,
        synthetic,
        base.corpus,
        base.sentence_index,
        base.extractor,
        selection.Regime.DATA_AUGMENTED,
        training_config("selector", "da"),
    )
    nei_selections = {
        c.claim_id: selection.select_sentences(
            selector, base.extractor, c, base.retriever.retrieve(c.text), base.corpus, K_SENTENCES
        )
        for c in train
        if c.label is Label.NOT_ENOUGH_INFO
    }
    nli_model = nli.train_nli(train, nei_selections, base.corpus, base.extractor, training_config("nli"))
    server = Server(base, selector, nli_model, {"dev": base.dev, "adversarial": adversarial})
    stream = base.dev + adversarial
    random.Random(world_seed).shuffle(stream)
    return server, stream


@dataclass
class StreamResult:
    latencies: list[float]  # reference seconds, one per claim answered
    ref_elapsed: float  # sum of latencies
    wall_elapsed: float  # sum of unscaled latencies
    served: int
    failed: int
    verdicts: list  # first pass, in stream order


def serve_stream(
    server: Server, stream: list[Claim], seconds: float, min_samples: int, speed: HostSpeed
) -> StreamResult:
    """Closed loop, one client: the next claim is sent when the last returns.

    Runs at least one full pass, then keeps cycling the stream until both
    `seconds` of wall time have passed and `min_samples` claims were
    served. Host-speed probes run between claims, and each claim's
    latency is scaled by the probes around it (hostspeed.py). A claim
    fails if it raises, its verdict is invalid, or a repeat of it gets a
    different verdict than its first pass.
    """
    walls, marks, served, errors = [], [], [], 0
    clock = speed.clock_ns
    gc.collect()
    speed.sample()
    speed.deferring = True
    start = clock()
    i = 0
    while i < len(stream) or i < min_samples or (clock() - start) / 1e9 < seconds:
        if speed.due:
            speed.sample()
        claim = stream[i % len(stream)]
        start_mark = speed.mark()
        t0 = clock()
        try:
            verdict = server.verify(claim)
        except Exception:
            traceback.print_exc()
            errors += 1
            verdict = None
        else:
            walls.append((clock() - t0) / 1e9)
            marks.append((start_mark, speed.mark()))
        served.append(verdict)
        i += 1
    speed.deferring = False
    speed.sample()
    latencies = [speed.scale(wall, *mark) for wall, mark in zip(walls, marks)]
    first = served[: len(stream)]
    failed = errors + sum(
        1
        for j, verdict in enumerate(served)
        if verdict is not None and (not server.valid(verdict) or verdict != first[j % len(stream)])
    )
    return StreamResult(latencies, sum(latencies), sum(walls), len(served), failed, first)


def verdict_digest(stream: list[Claim], verdicts: list) -> str:
    h = hashlib.sha256()
    for claim, verdict in zip(stream, verdicts):
        label, evidence = verdict if verdict is not None else (None, [])
        row = [claim.claim_id, label.value if label else None, [list(sid) for sid in evidence]]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def stream_metrics(result: StreamResult) -> dict[str, float]:
    lat = sorted(result.latencies)
    return {
        "verify_claims_per_s": len(lat) / result.ref_elapsed,
        "verify_latency_p50_ms": percentile(lat, 0.50) * 1e3,
        "verify_latency_p99_ms": percentile(lat, 0.99) * 1e3,
    }


def bundle_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 and byte count of a bundle, manifest.json excluded: the
    manifest hashes absolute input paths (see NOTES.md)."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel == "manifest.json":
            continue
        data = path.read_bytes()
        size += len(data)
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def orderings(report: dict) -> dict[str, bool]:
    """The paper's directional results, as scripts/run_robustness.py checks them."""
    rows = {(r["dataset"], r["regime"]): r for r in report["rows"]}

    def g(dataset, regime, key):
        return rows[(dataset, regime)][key]

    return {
        "a": g("dev", "ref", "refuted_mistakes") <= g("dev", "baseline", "refuted_mistakes"),
        "b": g("dev", "sup", "supported_mistakes") <= g("dev", "baseline", "supported_mistakes"),
        "c": g("dev", "sr", "recall_at_k") >= g("dev", "baseline", "recall_at_k"),
        "d": g("adversarial", "da", "recall_at_k") >= g("adversarial", "baseline", "recall_at_k"),
        "e": g("adversarial", "da", "refuted_mistakes") <= g("adversarial", "baseline", "refuted_mistakes"),
    }


def report_ok(report: dict, n_dev: int) -> bool:
    expected = {(d, r) for d in ("dev", "adversarial") for r in experiment.ALL_REGIMES}
    rows = {(r["dataset"], r["regime"]): r for r in report["rows"]}
    if set(rows) != expected or report["n_dev_claims"] != n_dev or report["n_adversarial_claims"] < 1:
        return False
    for (dataset, _), row in rows.items():
        keys = ["recall_at_k"] + (["fever_score", "label_accuracy"] if dataset == "dev" else [])
        if not all(0.0 <= row[key] <= 1.0 for key in keys):
            return False
    return True


def quality_metric_names() -> list[str]:
    datasets = ("dev", "adversarial")
    names = [f"evaluation.recall_at_k.{d}.{r}" for d in datasets for r in experiment.ALL_REGIMES]
    return names + [f"evaluation.fever_score.dev.{r}" for r in experiment.ALL_REGIMES] + ["evaluation.orderings_held"]


def quality_metrics(values: dict[str, float], report: dict) -> None:
    for row in report["rows"]:
        values[f"evaluation.recall_at_k.{row['dataset']}.{row['regime']}"] = row["recall_at_k"]
        if "fever_score" in row:
            values[f"evaluation.fever_score.dev.{row['regime']}"] = row["fever_score"]
    values["evaluation.orderings_held"] = sum(orderings(report).values())


def input_stats(loaded: Loaded) -> str:
    retriever_index = loaded.retriever.index
    postings = sum(
        len(plist) for index in (retriever_index, loaded.sentence_index) for plist in index.postings.values()
    )
    return (
        f"corpus pages={len(loaded.corpus)} sentences={loaded.corpus.sentence_count()} "
        f"index_postings={postings}"
    )


def timed(speed: HostSpeed, fn, *args):
    gc.collect()
    return speed.measure(fn, *args)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    values: dict[str, float] = field(default_factory=dict)
    walls: dict[str, float] = field(default_factory=dict)  # unscaled times, for the log
    attempted: int = 0
    failed: int = 0

    def add_stream(self, result: StreamResult) -> None:
        self.values.update(stream_metrics(result))
        self.walls["verify_claims_per_s"] = len(result.latencies) / result.wall_elapsed
        self.attempted += result.served
        self.failed += result.failed

    def add_times(self, name: str, timings: list[Timing]) -> None:
        self.values[name] = statistics.median(t.ref for t in timings)
        self.walls[name] = statistics.median(t.wall for t in timings)


def print_timings(label: str, timings: list[Timing]) -> None:
    print(f"{label} (reference s): " + " ".join(f"{t.ref:.4f}" for t in timings))
    print(f"{label} (wall s):      " + " ".join(f"{t.wall:.4f}" for t in timings))


class ExperimentWorkload:
    """run_experiment end to end on the default generated world."""

    def __init__(self, seed: int, work: Path, speed: HostSpeed):
        self.world = build_world(WorldConfig(seed=seed))
        self.paths = write_world(self.world, work / "world")
        self.work = work
        self.speed = speed
        self._runs = 0

    def describe(self) -> str:
        return (
            f"input pages={len(self.world.pages)} train_claims={len(self.world.train_rows)} "
            f"dev_claims={len(self.world.dev_rows)}"
        )

    def config(self) -> experiment.ExperimentConfig:
        # A fresh out_dir per run: reruns into one out_dir change the manifest (NOTES.md).
        self._runs += 1
        return experiment.ExperimentConfig(
            corpus=str(self.paths["corpus"]),
            train_claims=str(self.paths["train"]),
            dev_claims=str(self.paths["dev"]),
            kb=str(self.paths["kb"]),
            out_dir=str(self.work / f"run{self._runs}"),
            seed=EXPERIMENT_SEED,
            epochs=EPOCHS,
            learning_rate=LEARNING_RATE,
            k_docs=K_DOCS,
            k_sentences=K_SENTENCES,
            negatives_per_positive=NEGATIVES_PER_POSITIVE,
        )

    def experiment(self, outcome: Outcome, digests: list[str]):
        """One checked run_experiment: (report or None on failure, Timing, out_dir)."""
        config = self.config()
        out_dir = Path(config.out_dir)
        outcome.attempted += 1
        try:
            report, timing = timed(self.speed, experiment.run_experiment, config)
        except Exception:
            traceback.print_exc()
            outcome.failed += 1
            return None, None, out_dir
        digest, _ = bundle_digest(out_dir)
        held = orderings(report) if report_ok(report, len(self.world.dev_rows)) else None
        ok = held is not None and (not digests or digest == digests[0])
        digests.append(digest)
        marks = " ".join(f"{k}={'ok' if v else 'VIOLATED'}" for k, v in (held or {}).items())
        print(f"experiment {len(digests)}: {timing.ref:.3f} s (wall {timing.wall:.3f} s) "
              f"bundle={digest} orderings {marks}" + ("" if ok else "  CHECK FAILED"))
        if not ok:
            outcome.failed += 1
        return report, timing, out_dir

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        setups = []
        for _ in range(EXPERIMENT_SETUPS):
            loaded, timing = timed(self.speed, load_and_index, self.paths)
            setups.append(timing)
        print_timings("setup", setups)
        print(input_stats(loaded))

        # The first experiment warms the interpreter; it is checked, not timed.
        digests: list[str] = []
        report, _, first_out = self.experiment(outcome, digests)
        if report is None:
            raise RuntimeError("the first experiment failed")
        times = []
        start = time.perf_counter()
        while outcome.attempted <= MIN_TIMED_EXPERIMENTS or time.perf_counter() - start < seconds:
            report, timing, out_dir = self.experiment(outcome, digests)
            if report is not None:
                times.append(timing)
            shutil.rmtree(out_dir, ignore_errors=True)
        if not times:
            raise RuntimeError("no timed experiment completed")

        # The 1x serving loop: the first bundle's da selector and NLI model
        # verify its dev and adversarial claims one at a time.
        server = Server(
            loaded,
            selection.RelevanceModel.load(first_out / "models" / "selector_da.json"),
            nli.NliModel.load(first_out / "models" / "nli.json"),
        )
        stream = loaded.dev + claims.load_claims(first_out / "adversarial_dev.jsonl")
        result = serve_stream(server, stream, 0.0, MIN_LATENCY_SAMPLES, self.speed)
        print(f"serve-1x: {len(result.latencies)} claims in {result.ref_elapsed:.3f} s "
              f"(wall {result.wall_elapsed:.3f} s), stream={len(stream)} "
              f"verdicts={verdict_digest(stream, result.verdicts)}")

        outcome.add_stream(result)
        outcome.add_times("setup_s", setups)
        outcome.add_times("experiment_s", times)
        outcome.values["peak_rss_mb"] = peak_rss_mb()
        return outcome

    def trace(self, tracer: spans.Tracer) -> Outcome:
        outcome = Outcome()
        with tracer:
            load_and_index(self.paths)
        digests: list[str] = []
        self.experiment(outcome, digests)  # warm-up, as in measure()
        _, untraced, _ = self.experiment(outcome, digests)
        with tracer:
            report, traced, out_dir = self.experiment(outcome, digests)
        if report is None or untraced is None:
            raise RuntimeError("an experiment of the traced run failed")
        values = outcome.values
        quality_metrics(values, report)
        values["experiment.bundle_bytes"] = bundle_digest(out_dir)[1]
        values["trace.overhead_s"] = traced.ref - untraced.ref
        values["trace.overhead_share"] = (traced.ref - untraced.ref) / untraced.ref
        return outcome


class VerifyWorkload:
    """Claims served one at a time on an 8x tiled corpus."""

    def __init__(self, seed: int, work: Path, speed: HostSpeed):
        self.seed = seed
        self.world = tiling.tiled_world(seed, VERIFY_COPIES)
        self.paths = write_world(self.world, work / "world")
        self.speed = speed

    def describe(self) -> str:
        dev_texts = [row["claim"] for row in self.world.dev_rows]
        repeated = 1 - len(set(dev_texts)) / len(dev_texts)
        return (
            f"input copies={VERIFY_COPIES} pages={len(self.world.pages)} "
            f"train_claims(copy 0)={len(self.world.train_rows) // VERIFY_COPIES} "
            f"dev_claims={len(dev_texts)} dev_repeated_text_share={repeated:.4f}"
        )

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        setups, model_digests = [], set()
        for _ in range(VERIFY_SETUPS):
            server = stream = None  # release the previous set-up before timing the next
            (server, stream), timing = timed(self.speed, setup_verify, self.paths, self.seed)
            setups.append(timing)
            model_digests.add(model_digest(server))
        print_timings("setup", setups)
        print("models=" + " ".join(sorted(model_digests)))
        print(input_stats(server.loaded))
        repeated = 1 - len({c.text for c in stream}) / len(stream)
        print(f"stream claims={len(stream)} repeated_text_share={repeated:.4f}")

        result = serve_stream(server, stream, seconds, MIN_LATENCY_SAMPLES, self.speed)
        print(f"serve-8x: {len(result.latencies)} claims in {result.ref_elapsed:.3f} s "
              f"(wall {result.wall_elapsed:.3f} s), verdicts={verdict_digest(stream, result.verdicts)}")
        outcome.add_stream(result)
        # Every set-up must train the same models; a mismatch is one failed operation.
        outcome.attempted += 1
        outcome.failed += len(model_digests) != 1
        outcome.add_times("setup_s", setups)
        # The job of this workload is one pass over the stream.
        outcome.values["experiment_s"] = len(stream) / outcome.values["verify_claims_per_s"]
        outcome.walls["experiment_s"] = len(stream) / outcome.walls["verify_claims_per_s"]
        outcome.values["peak_rss_mb"] = peak_rss_mb()
        return outcome

    def trace(self, tracer: spans.Tracer) -> Outcome:
        outcome = Outcome()
        with tracer:
            server, stream = setup_verify(self.paths, self.seed)
        untraced = serve_stream(server, stream, 0.0, 0, self.speed)
        with tracer:
            traced = serve_stream(server, stream, 0.0, 0, self.speed)
        outcome.attempted = untraced.served + traced.served
        outcome.failed = untraced.failed + traced.failed
        if traced.verdicts != untraced.verdicts:
            print("CHECK FAILED: traced verdicts differ from untraced")
            outcome.failed += 1
        # Only the da selector runs here, and no bundle is written: the
        # other quality rows and the bundle size read 0 (NOTES.md).
        values = outcome.values
        values.update({name: 0.0 for name in quality_metric_names()})
        values["experiment.bundle_bytes"] = 0
        verdicts = {c.claim_id: v for c, v in zip(stream, traced.verdicts) if v is not None}
        for name, dataset in server.datasets.items():
            predictions = {c.claim_id: verdicts[c.claim_id][1] for c in dataset if c.claim_id in verdicts}
            values[f"evaluation.recall_at_k.{name}.da"] = evaluation.recall_at_k(predictions, dataset, K_SENTENCES)
        dev = server.datasets["dev"]
        if all(c.claim_id in verdicts for c in dev):
            values["evaluation.fever_score.dev.da"] = evaluation.fever_score(
                {c.claim_id: verdicts[c.claim_id] for c in dev}, dev, K_SENTENCES
            )
        values["trace.overhead_s"] = traced.ref_elapsed - untraced.ref_elapsed
        values["trace.overhead_share"] = (traced.ref_elapsed - untraced.ref_elapsed) / untraced.ref_elapsed
        return outcome


WORKLOADS = {"experiment-1x": ExperimentWorkload, "verify-8x": VerifyWorkload}


def model_digest(server: Server) -> str:
    payload = [server.selector.weights, server.selector.bias, server.nli_model.weights, server.nli_model.biases]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="WorldConfig seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally blocks, which remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    hash_seed = os.environ.get("PYTHONHASHSEED")
    if hash_seed != "0":
        # Bundles depend on the hash seed (NOTES.md), so it must be pinned.
        parser.error("run under PYTHONHASHSEED=0 (bench/run.py sets it)")

    print(f"claimlab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env python={platform.python_version()} commit={commit()} nproc={os.cpu_count()} "
          f"hash_seed={hash_seed} world_seed={args.seed} platform={platform.platform()}")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=scratch))
    try:
        speed = HostSpeed()
        workload = WORKLOADS[args.workload](args.seed, work, speed)
        print(workload.describe())
        if args.trace:
            tracer = spans.Tracer(clock_ns=speed.ref_clock_ns)
            with speed:
                outcome = workload.trace(tracer)
            for site in tracer.missing_sites:
                print(f"trace: binding site {site} not found")
            values = {**tracer.summarize(), **outcome.values}
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(out)
            print(f"trace: {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
        else:
            with speed:
                outcome = workload.measure(args.seconds)
            values = outcome.values
        factors = sorted(speed.factors)
        print(f"host speed: {len(factors)} probes, slowdown vs reference min={factors[0]:.3f} "
              f"median={statistics.median(factors):.3f} max={factors[-1]:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in declared_metrics(bool(args.trace)):
        if metric["name"] not in values:
            raise KeyError(f"workload {args.workload} did not measure {metric['name']}")
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        wall = outcome.walls.get(metric["name"])
        print(f"metric {metric['name']} {value:.6g} {metric['unit']}"
              + ("" if wall is None else f" (unscaled {wall:.6g})"))
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"metric failed_share {failed_share:.6g} ratio ({outcome.failed} of {outcome.attempted} operations)")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
