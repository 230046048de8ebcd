"""End-to-end experiment: ingest, augment, train all regimes, evaluate.

Produces one report row per requested regime per evaluation set (the
original dev claims and the synthetic adversarial claims generated
from them). All artifacts land under the output directory; reported
numbers are recomputed from the persisted selection files, never from
memory, and a set with nothing to measure reports null metrics. Two
runs with the same config and seed produce byte-identical bundles.

Each pipeline step is one function that `run_experiment` and the CLI
subcommand of the same name both call: `ingest_corpus`,
`generate_claims`, `analyze_claims`, `retrieve_docs`, `train_selectors`,
`select_evidence`, `train_nli`, `verdicts_for` and `evaluate_evidence`.
The NEI training pairs of train-nli are the baseline selector's
`select_evidence` ranking over plain (non-oracle) `retrieve_docs` pages.
As `select_evidence` featurizes each claim's candidates once for every
model, `verdicts_for` classifies each distinct (claim, sentence) pair
once for every regime's selections.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from .claim_gen import generate_augmentation_set, synthetic_to_claim
from .claims import Claim, Label, load_claims, save_claims
from .corpus import Corpus, SentenceId, build_index, corpus_files, ingest_corpus
from .entity_analysis import analyze_claims
from .evaluation import EvaluationReport, build_report
from .features import FeatureExtractor
from .kb import KnowledgeBase
from .nli import NliModel, claim_verdicts, train_nli
from .retrieval import DocRetrievalConfig, DocumentRetriever
from .selection import (
    RankedEvidence,
    Regime,
    RelevanceModel,
    TrainingConfig,
    aggregate_sr,
    featurize_candidates,
    top_k,
    train_selectors,
)
from .util import (
    PathLike,
    dumps_canonical,
    read_jsonl,
    sha256_files,
    sha256_hex,
    stable_seed,
    write_json,
    write_jsonl,
)

ALL_REGIMES = ("baseline", "sup", "ref", "sr", "da")

Verdict = tuple[Label, list[SentenceId]]


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Tag any failure inside the block with the stage name."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


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
        """Reject a bad setting before any stage runs, naming the field.
        The training and retrieval settings are checked by building the
        configs they feed; DocRetrievalConfig calls k_docs "k"."""
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
        for name in ("out_dir", "corpus", "train_claims", "dev_claims", "kb"):
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
    return {
        int(obj["claim_id"]): [
            (SentenceId(str(page), int(line)), float(score)) for page, line, score in obj["evidence"]
        ]
        for obj in read_jsonl(path)
    }


def write_docs(path: PathLike, docs: Mapping[int, list[str]]) -> None:
    write_jsonl(path, ({"claim_id": cid, "pages": pages} for cid, pages in sorted(docs.items())))


def load_docs(path: PathLike) -> dict[int, list[str]]:
    return {int(obj["claim_id"]): [str(p) for p in obj["pages"]] for obj in read_jsonl(path)}


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
    return {
        int(obj["claim_id"]): (
            Label.from_string(obj["predicted_label"]),
            [SentenceId(str(p), int(l)) for p, l in obj["predicted_evidence"]],
        )
        for obj in read_jsonl(path)
    }


# One function per pipeline step; the CLI subcommands call them too.


def generate_claims(claims: Sequence[Claim], kb: KnowledgeBase, seed: int) -> list[Claim]:
    """Synthetic refuted claims from the supported ones, as Claim records."""
    return [synthetic_to_claim(s) for s in generate_augmentation_set(claims, kb, seed=seed)]


def retrieve_docs(
    retriever: DocumentRetriever, claims: Sequence[Claim], oracle_docs: bool
) -> dict[int, list[str]]:
    """Candidate pages per claim; with oracle_docs the gold pages are appended."""
    return {
        claim.claim_id: retriever.retrieve_oracle(claim) if oracle_docs else retriever.retrieve(claim.text)
        for claim in claims
    }


def select_evidence(
    models: Mapping[str, RelevanceModel],
    extractor: FeatureExtractor,
    corpus: Corpus,
    claims: Sequence[Claim],
    docs: Mapping[int, Sequence[str]],
    k: int,
    sr: Optional[tuple[str, str]] = None,
) -> dict[str, dict[int, RankedEvidence]]:
    """Top-k evidence per claim for every model, from one featurize pass
    per claim. With sr=(first, second), the two models' rankings are also
    merged by confidence under the key "sr"."""
    per_model: dict[str, dict[int, RankedEvidence]] = {name: {} for name in models}
    for claim in claims:
        featurized = featurize_candidates(extractor, claim, docs.get(claim.claim_id, []), corpus)
        for name, model in models.items():
            per_model[name][claim.claim_id] = top_k(model, featurized, k)
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
    each distinct (claim, sentence) pair classified once across them, the
    way select_evidence scores every model from one featurize pass."""
    per_name: dict[str, dict[int, Verdict]] = {name: {} for name in selections}
    for claim in claims:
        evidence_lists = [ranked.get(claim.claim_id, []) for ranked in selections.values()]
        for name, verdict in zip(selections, claim_verdicts(model, extractor, corpus, claim, evidence_lists)):
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


def _trained_regimes(requested: tuple[str, ...]) -> list[Regime]:
    """Models to actually train; SR is an aggregation of sup and ref."""
    names = [r for r in requested if r != "sr"]
    if "sr" in requested:
        names += [needed for needed in ("sup", "ref") if needed not in names]
    return [Regime(name) for name in names]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every stage and write the bundle to config.out_dir.

    The bundle is built in a temporary sibling directory that replaces
    out_dir only once every stage has succeeded: a rerun leaves no file
    of the previous bundle behind, and a failed run leaves the previous
    bundle as it was. An existing out_dir that holds files but no
    manifest.json is not a bundle and is never replaced.
    """
    out_dir = Path(config.out_dir).resolve()
    if out_dir.exists() and any(out_dir.iterdir()) and not (out_dir / "manifest.json").is_file():
        raise FileExistsError(f"{out_dir} holds files but no bundle; not replacing it")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        report = _write_bundle(config, work)
        if out_dir.exists():
            previous = work.with_name(work.name + "-previous")
            out_dir.rename(previous)
            work.rename(out_dir)
            shutil.rmtree(previous)
        else:
            work.rename(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def _write_bundle(config: ExperimentConfig, out_dir: Path) -> dict:
    with _stage("ingest"):
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

    with _stage("index"):
        doc_index = build_index(corpus, "document")
        sentence_index = build_index(corpus, "sentence")
        extractor = FeatureExtractor(sentence_index)
        retriever = DocumentRetriever(corpus, doc_index, config.retrieval_config())

    with _stage("generate-claims"):
        synthetic_train = generate_claims(train, kb, stable_seed(config.seed, "augment", "train"))
        adversarial = generate_claims(dev, kb, stable_seed(config.seed, "augment", "dev"))
        save_claims(out_dir / "synthetic_train.jsonl", synthetic_train)
        save_claims(out_dir / "adversarial_dev.jsonl", adversarial)

    with _stage("analyze-entities"):
        write_json(out_dir / "entity_analysis.json", analyze_claims(dev, kb))

    datasets = (("dev", dev), ("adversarial", adversarial))

    with _stage("retrieve-docs"):
        for name, claims in datasets:
            write_docs(out_dir / f"docs_{name}.jsonl", retrieve_docs(retriever, claims, config.oracle_docs))

    with _stage("train-selector"):
        configs = {
            regime: config.training_config(stable_seed(config.seed, "selector", regime.value))
            for regime in _trained_regimes(config.regimes)
        }
        trained = train_selectors(train, synthetic_train, corpus, sentence_index, extractor, configs)
        models = {}
        for regime, model in trained.items():
            model.save(out_dir / "models" / f"selector_{regime.value}.json")
            models[regime.value] = model

    with _stage("select"):
        sr = ("sup", "ref") if "sr" in config.regimes else None
        for dataset, claims in datasets:
            docs = load_docs(out_dir / f"docs_{dataset}.jsonl")
            selected = select_evidence(models, extractor, corpus, claims, docs, config.k_sentences, sr)
            for name in config.regimes:
                write_selections(out_dir / "selections" / f"{dataset}_{name}.jsonl", selected[name])

    with _stage("train-nli"):
        base = "baseline" if "baseline" in models else sorted(models)[0]
        nei = [claim for claim in train if claim.label is Label.NOT_ENOUGH_INFO]
        nei_docs = retrieve_docs(retriever, nei, oracle_docs=False)
        nei_selections = select_evidence({base: models[base]}, extractor, corpus, nei, nei_docs, config.k_sentences)
        nli_config = config.training_config(stable_seed(config.seed, "nli"))
        nli_model = train_nli(train, nei_selections[base], corpus, extractor, nli_config)
        nli_model.save(out_dir / "models" / "nli.json")

    with _stage("verdict"):
        selections = {name: load_selections(out_dir / "selections" / f"dev_{name}.jsonl") for name in config.regimes}
        for name, verdicts in verdicts_for(nli_model, extractor, corpus, dev, selections).items():
            write_verdicts(out_dir / "verdicts" / f"dev_{name}.jsonl", verdicts)

    with _stage("evaluate"):
        rows = []
        for regime_name in config.regimes:
            for dataset, claims in datasets:
                selections = load_selections(out_dir / "selections" / f"{dataset}_{regime_name}.jsonl")
                verdicts = None
                if dataset == "dev":
                    verdicts = load_verdicts(out_dir / "verdicts" / f"dev_{regime_name}.jsonl")
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
