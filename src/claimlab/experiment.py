"""End-to-end experiment: ingest, augment, train all regimes, evaluate.

Produces one report row per requested regime per evaluation set (the
original dev claims and the synthetic adversarial claims generated
from them). All artifacts land under the output directory; reported
numbers are recomputed from the persisted selection files, never from
memory, and a set with nothing to measure reports null metrics. Two
runs with the same config and seed produce byte-identical bundles.

Each pipeline step is one function that `run_experiment` and the CLI
subcommand of the same name both call: `ingest_corpus`,
`generate_augmentation_set`, `analyze_claims`, `retrieve_docs`,
`train_selectors`, `select_evidence`, `train_nli`, `verdicts_for` and
`evaluate_evidence`. `selection.REGIMES` says what each regime is: the
claims a trained one learns from, or the selectors a merged one merges.
The NEI training pairs of train-nli are the baseline selector's
`select_evidence` ranking over plain (non-oracle) `retrieve_docs` pages.

Within one stage-function call, work is done once per distinct claim
content and handed to every claim id that shares it: `retrieve_docs`
retrieves each claim text once, `select_evidence` ranks each distinct
(text, candidate pages) once for every model, and
`verdicts_for` classifies each distinct (text, sentence) pair once for
every claim and regime. These memos are locals of the call.

Across the stages of one run, the claims are prepared once:
`run_experiment` hands its extractor one dict of prepared claims, one
per claim text (see `features`), so a selection vector computed for a
text in `train-selector`, `select` or `train-nli` serves every later
stage, and the verdict stage computes none. The dict dies with the run.
A stage function called on its own, as each CLI subcommand calls it,
takes an extractor that keeps only its last claim. The run's stage log
(see `run_experiment`) counts the claims and vectors the dict holds
after each stage.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from .claim_gen import generate_augmentation_set
from .claims import Claim, Label, load_claims, save_claims
from .corpus import Corpus, SentenceId, build_index, corpus_files, ingest_corpus
from .entity_analysis import analyze_claims
from .evaluation import EvaluationReport, build_report
from .features import FeatureExtractor, PreparedClaim, prepared_counts
from .kb import KnowledgeBase
from .nli import NliModel, claim_verdicts, train_nli
from .retrieval import DocRetrievalConfig, DocumentRetriever, with_gold_pages
from .selection import (
    REGIMES,
    RankedEvidence,
    RelevanceModel,
    TrainingConfig,
    aggregate_sr,
    rank_candidates,
    train_selectors,
)
from .util import (
    PathLike,
    check_fields,
    dumps_canonical,
    read_jsonl,
    sha256_files,
    sha256_hex,
    stable_seed,
    write_json,
    write_jsonl,
)

ALL_REGIMES = tuple(REGIMES)

Verdict = tuple[Label, list[SentenceId]]


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str, stages: list[dict], claims: Mapping[str, PreparedClaim]) -> Iterator[None]:
    """Tag any failure inside the block with the stage name; once the block
    succeeds, append its stage log row to stages: its wall seconds, and the
    claims prepared and selection vectors finished by its end, read from
    the run's claims."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    seconds = time.perf_counter() - start
    prepared, finished = prepared_counts(claims)
    stages.append({"stage": name, "seconds": seconds, "claims_prepared": prepared, "vectors_finished": finished})


# The ExperimentConfig fields that name input files or the bundle directory.
PATH_FIELDS = ("corpus", "train_claims", "dev_claims", "kb", "out_dir")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str
    train_claims: str
    dev_claims: str
    kb: str
    out_dir: str
    seed: int = 7
    k_docs: int = DocRetrievalConfig.k
    k_sentences: int = 5
    regimes: tuple[str, ...] = ALL_REGIMES
    oracle_docs: bool = True
    epochs: int = TrainingConfig.epochs
    learning_rate: float = TrainingConfig.learning_rate
    negatives_per_positive: int = TrainingConfig.negatives_per_positive

    def __post_init__(self):
        """Reject a bad setting before any stage runs, naming the field:
        first its type (util.check_fields; a path may be any path-like),
        then its range. The training and retrieval ranges are checked by
        building the configs they feed; DocRetrievalConfig calls k_docs "k"."""
        check_fields(ExperimentConfig, {name: value for name, value in vars(self).items() if name not in PATH_FIELDS})
        if self.k_sentences < 1:
            raise ValueError("k_sentences must be >= 1")
        if not self.regimes:
            raise ValueError("regimes must name at least one regime")
        unknown = [r for r in self.regimes if r not in ALL_REGIMES]
        if unknown:
            raise ValueError(f"unknown regimes: {unknown}")
        if len(set(self.regimes)) < len(self.regimes):
            raise ValueError(f"regimes must not repeat a regime, got {list(self.regimes)}")
        self.training_config(self.seed)
        try:
            self.retrieval_config()
        except ValueError as error:
            raise ValueError(f"k_docs: {error}") from None

    def training_config(self, seed: int) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            seed=seed,
            negatives_per_positive=self.negatives_per_positive,
        )

    def retrieval_config(self) -> DocRetrievalConfig:
        return DocRetrievalConfig(k=self.k_docs)

    def hashable_dict(self) -> dict:
        """Config without any path, for the manifest hash; the inputs
        enter the hash by content instead."""
        fields = asdict(self)
        for name in PATH_FIELDS:
            del fields[name]
        fields["regimes"] = list(self.regimes)
        return fields


# Artifact files: JSON lines keyed by claim id, written in claim-id order.


def write_selections(path: PathLike, selections: Mapping[int, RankedEvidence]) -> None:
    rows = (
        {"claim_id": cid, "evidence": [[*sid, score] for sid, score in ranked]}
        for cid, ranked in sorted(selections.items())
    )
    write_jsonl(path, rows)


def load_selections(path: PathLike) -> dict[int, RankedEvidence]:
    def row(obj: dict) -> tuple[int, RankedEvidence]:
        ranked = [(SentenceId(str(page), int(line)), float(score)) for page, line, score in obj["evidence"]]
        return int(obj["claim_id"]), ranked

    return read_jsonl(path, row)


def write_docs(path: PathLike, docs: Mapping[int, list[str]]) -> None:
    write_jsonl(path, ({"claim_id": cid, "pages": pages} for cid, pages in sorted(docs.items())))


def load_docs(path: PathLike) -> dict[int, list[str]]:
    return read_jsonl(path, lambda obj: (int(obj["claim_id"]), [str(p) for p in obj["pages"]]))


def write_verdicts(path: PathLike, verdicts: Mapping[int, Verdict]) -> None:
    rows = (
        {
            "claim_id": cid,
            "predicted_label": label.value,
            "predicted_evidence": [list(sid) for sid in evidence],
        }
        for cid, (label, evidence) in sorted(verdicts.items())
    )
    write_jsonl(path, rows)


def load_verdicts(path: PathLike) -> dict[int, Verdict]:
    def row(obj: dict) -> tuple[int, Verdict]:
        evidence = [SentenceId(str(p), int(l)) for p, l in obj["predicted_evidence"]]
        return int(obj["claim_id"]), (Label.from_string(obj["predicted_label"]), evidence)

    return read_jsonl(path, row)


# One function per pipeline step; the CLI subcommands call them too.


def retrieve_docs(
    retriever: DocumentRetriever, claims: Sequence[Claim], oracle_docs: bool
) -> dict[int, list[str]]:
    """Candidate pages per claim, each distinct claim text retrieved once;
    with oracle_docs each claim's own gold pages are appended."""
    retrieved: dict[str, list[str]] = {}
    docs = {}
    for claim in claims:
        if claim.text not in retrieved:
            retrieved[claim.text] = retriever.retrieve(claim.text)
        pages = retrieved[claim.text]
        docs[claim.claim_id] = with_gold_pages(pages, claim) if oracle_docs else list(pages)
    return docs


def select_evidence(
    models: Mapping[str, RelevanceModel],
    extractor: FeatureExtractor,
    corpus: Corpus,
    claims: Sequence[Claim],
    docs: Mapping[int, Sequence[str]],
    k: int,
    sr: Optional[tuple[str, str]] = None,
) -> dict[str, dict[int, RankedEvidence]]:
    """Top-k evidence per claim for every model, from one
    selection.rank_candidates call per distinct (claim text, candidate
    pages): one held pass over the candidates, then a best-first walk per
    model that finishes only the candidates whose bound can reach its
    top k, each at most once for all the models. With sr=(first, second),
    the two models' rankings are also merged by confidence under the key
    "sr", claim by claim."""
    per_model: dict[str, dict[int, RankedEvidence]] = {name: {} for name in models}
    ranked: dict[tuple[str, tuple[str, ...]], dict[str, RankedEvidence]] = {}
    for claim in claims:
        pages = tuple(docs.get(claim.claim_id, ()))
        key = (claim.text, pages)
        if key not in ranked:
            ranked[key] = dict(zip(models, rank_candidates(list(models.values()), extractor, claim, pages, corpus, k)))
        for name, evidence in ranked[key].items():
            per_model[name][claim.claim_id] = evidence
    if sr is not None:
        first, second = (per_model[name] for name in sr)
        per_model["sr"] = {cid: aggregate_sr(first[cid], second[cid], k) for cid in first}
    return per_model


def verdicts_for(
    model: NliModel,
    extractor: FeatureExtractor,
    corpus: Corpus,
    claims: Sequence[Claim],
    selections: Mapping[str, Mapping[int, RankedEvidence]],
) -> dict[str, dict[int, Verdict]]:
    """Verdicts per claim for every named selection (one per regime), with
    one claim_verdicts call per distinct claim text, over the evidence
    lists of every claim that has it: each distinct (claim text, sentence)
    pair is classified once across the claims and regimes."""
    by_text: dict[str, list[Claim]] = {}
    for claim in claims:
        by_text.setdefault(claim.text, []).append(claim)
    per_name: dict[str, dict[int, Verdict]] = {name: {} for name in selections}
    for same_text in by_text.values():
        slots = list(product(same_text, selections))
        evidence_lists = [selections[name].get(claim.claim_id, []) for claim, name in slots]
        verdicts = claim_verdicts(model, extractor, corpus, same_text[0], evidence_lists)
        for (claim, name), verdict in zip(slots, verdicts):
            per_name[name][claim.claim_id] = verdict
    return per_name


def evaluate_evidence(
    claims: Sequence[Claim],
    k: int,
    selections: Optional[Mapping[int, RankedEvidence]] = None,
    verdicts: Optional[Mapping[int, Verdict]] = None,
) -> EvaluationReport:
    """Sentence-level metrics of ranked evidence, or of the verdicts'
    evidence when no selections are given."""
    if selections is not None:
        predictions = {cid: [sid for sid, _ in ranked] for cid, ranked in selections.items()}
    else:
        predictions = {cid: evidence for cid, (_, evidence) in verdicts.items()}
    return build_report(claims, predictions, verdicts, k)


def _trained_regimes(requested: tuple[str, ...]) -> list[str]:
    """Selectors to actually train: the requested trained regimes, then
    those a requested merged regime merges."""
    trained = [r for r in requested if not REGIMES[r].merges]
    return list(dict.fromkeys(trained + [needed for r in requested for needed in REGIMES[r].merges]))


def run_experiment(config: ExperimentConfig, stage_log: Optional[PathLike] = None) -> dict:
    """Run every stage and write the bundle to config.out_dir.

    The bundle is built in a temporary sibling directory that replaces
    out_dir only once every stage has succeeded: a rerun leaves no file
    of the previous bundle behind, and a failed run leaves the previous
    bundle as it was. An existing out_dir that holds files but no
    manifest.json is not a bundle and is never replaced.

    With stage_log, the run ends, failed or not, by writing there one JSON
    line per stage that succeeded, in run order: the stage, its wall
    seconds, and the claims prepared and selection vectors finished by
    its end. The log is no part of the bundle, so a path inside out_dir
    is refused.
    """
    out_dir = Path(config.out_dir).resolve()
    if stage_log is not None and Path(stage_log).resolve().is_relative_to(out_dir):
        raise ValueError(f"stage log {stage_log} is inside the bundle directory {out_dir}")
    if out_dir.exists() and any(out_dir.iterdir()) and not (out_dir / "manifest.json").is_file():
        raise FileExistsError(f"{out_dir} holds files but no bundle; not replacing it")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    stages: list[dict] = []
    try:
        report = _write_bundle(config, work, stages)
        if out_dir.exists():
            previous = work.with_name(work.name + "-previous")
            out_dir.rename(previous)
            work.rename(out_dir)
            shutil.rmtree(previous)
        else:
            work.rename(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if stage_log is not None:
            write_jsonl(stage_log, stages)
    return report


def _write_bundle(config: ExperimentConfig, out_dir: Path, stages: list[dict]) -> dict:
    # The run's claims, one per text, each with its vector memo (see features).
    run_claims: dict[str, PreparedClaim] = {}
    stage = partial(_stage, stages=stages, claims=run_claims)

    with stage("ingest"):
        inputs = {
            "corpus": sha256_files(corpus_files(config.corpus)),
            "train_claims": sha256_files([config.train_claims]),
            "dev_claims": sha256_files([config.dev_claims]),
            "kb": sha256_files([config.kb]),
        }
        corpus = ingest_corpus(config.corpus)
        kb = KnowledgeBase.load(config.kb)
        train = load_claims(config.train_claims)
        dev = load_claims(config.dev_claims)

    with stage("index"):
        doc_index = build_index(corpus, "document")
        extractor = FeatureExtractor(build_index(corpus, "sentence"), run_claims)
        retriever = DocumentRetriever(corpus, doc_index, config.retrieval_config())

    with stage("generate-claims"):
        synthetic_train = generate_augmentation_set(train, kb, stable_seed(config.seed, "augment", "train"))
        adversarial = generate_augmentation_set(dev, kb, stable_seed(config.seed, "augment", "dev"))
        save_claims(out_dir / "synthetic_train.jsonl", synthetic_train)
        save_claims(out_dir / "adversarial_dev.jsonl", adversarial)

    with stage("analyze-entities"):
        write_json(out_dir / "entity_analysis.json", analyze_claims(dev, kb))

    datasets = (("dev", dev), ("adversarial", adversarial))

    with stage("retrieve-docs"):
        for name, claims in datasets:
            write_docs(out_dir / f"docs_{name}.jsonl", retrieve_docs(retriever, claims, config.oracle_docs))

    with stage("train-selector"):
        configs = {
            regime: config.training_config(stable_seed(config.seed, "selector", regime))
            for regime in _trained_regimes(config.regimes)
        }
        models = train_selectors(train, synthetic_train, corpus, extractor, configs)
        for regime, model in models.items():
            model.save(out_dir / "models" / f"selector_{regime}.json")

    with stage("select"):
        sr = REGIMES["sr"].merges if "sr" in config.regimes else None
        for dataset, claims in datasets:
            docs = load_docs(out_dir / f"docs_{dataset}.jsonl")
            selected = select_evidence(models, extractor, corpus, claims, docs, config.k_sentences, sr)
            for name in config.regimes:
                write_selections(out_dir / "selections" / f"{dataset}_{name}.jsonl", selected[name])

    with stage("train-nli"):
        base = "baseline" if "baseline" in models else sorted(models)[0]
        nei = [claim for claim in train if claim.label is Label.NOT_ENOUGH_INFO]
        nei_docs = retrieve_docs(retriever, nei, oracle_docs=False)
        nei_selections = select_evidence({base: models[base]}, extractor, corpus, nei, nei_docs, config.k_sentences)
        nli_config = config.training_config(stable_seed(config.seed, "nli"))
        nli_model = train_nli(train, nei_selections[base], corpus, extractor, nli_config)
        nli_model.save(out_dir / "models" / "nli.json")

    with stage("verdict"):
        dev_selections = {
            name: load_selections(out_dir / "selections" / f"dev_{name}.jsonl") for name in config.regimes
        }
        for name, verdicts in verdicts_for(nli_model, extractor, corpus, dev, dev_selections).items():
            write_verdicts(out_dir / "verdicts" / f"dev_{name}.jsonl", verdicts)

    with stage("evaluate"):
        rows = []
        for regime_name in config.regimes:
            for dataset, claims in datasets:
                # The dev selections are the files the verdict stage read.
                if dataset == "dev":
                    selections = dev_selections[regime_name]
                    verdicts = load_verdicts(out_dir / "verdicts" / f"dev_{regime_name}.jsonl")
                else:
                    selections = load_selections(out_dir / "selections" / f"{dataset}_{regime_name}.jsonl")
                    verdicts = None
                metrics = evaluate_evidence(claims, config.k_sentences, selections, verdicts).metrics_row()
                rows.append({"regime": regime_name, "dataset": dataset, **metrics})
        report = {
            "seed": config.seed,
            "oracle_docs": config.oracle_docs,
            "regimes": list(config.regimes),
            "rows": rows,
            "n_dev_claims": len(dev),
            "n_adversarial_claims": len(adversarial),
            "n_synthetic_train": len(synthetic_train),
        }
        write_json(out_dir / "report.json", report)

    settings = config.hashable_dict()
    manifest = {
        "config": settings,
        "inputs": inputs,
        "config_hash": sha256_hex(dumps_canonical({"config": settings, "inputs": inputs})),
        "artifacts": {
            path.relative_to(out_dir).as_posix(): sha256_files([path])
            for path in sorted(out_dir.rglob("*"))
            if path.is_file()
        },
    }
    write_json(out_dir / "manifest.json", manifest)
    return report
