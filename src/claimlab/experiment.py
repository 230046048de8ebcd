"""End-to-end experiment: ingest, augment, train all regimes, evaluate.

Produces one report row per requested regime per evaluation set (the
original dev claims and the synthetic adversarial claims generated
from them). All artifacts land under the output directory; reported
numbers are recomputed from the persisted selection files, never from
memory. Two runs with the same config and seed produce byte-identical
bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar, Union

from .claim_gen import generate_augmentation_set, save_synthetic, synthetic_to_claim
from .claims import Label, load_claims
from .corpus import SentenceId, build_index, ingest_corpus
from .entity_analysis import analyze_claims
from .evaluation import count_mistakes, fever_score, label_accuracy, recall_at_k
from .features import FeatureExtractor
from .kb import KnowledgeBase
from .nli import train_nli, verdict_for_claim
from .retrieval import DocRetrievalConfig, DocumentRetriever
from .selection import (
    Regime,
    TrainingConfig,
    aggregate_sr,
    select_for_models,
    select_sentences,
    train_selector,
)
from .util import dumps_canonical, sha256_hex, stable_seed

ALL_REGIMES = ("baseline", "sup", "ref", "sr", "da")

T = TypeVar("T")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _run_stage(name: str, fn: Callable[[], T]) -> T:
    try:
        return fn()
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
    k_docs: int = 20
    k_sentences: int = 5
    regimes: tuple[str, ...] = ALL_REGIMES
    oracle_docs: bool = True
    epochs: int = 2
    learning_rate: float = 0.1
    negatives_per_positive: int = 15

    def __post_init__(self):
        if self.k_docs < 1 or self.k_sentences < 1:
            raise ValueError("k values must be >= 1")
        unknown = [r for r in self.regimes if r not in ALL_REGIMES]
        if unknown:
            raise ValueError(f"unknown regimes: {unknown}")

    def hashable_dict(self) -> dict:
        """Config without the output directory, for the manifest hash."""
        return {
            "corpus": str(self.corpus),
            "train_claims": str(self.train_claims),
            "dev_claims": str(self.dev_claims),
            "kb": str(self.kb),
            "seed": self.seed,
            "k_docs": self.k_docs,
            "k_sentences": self.k_sentences,
            "regimes": list(self.regimes),
            "oracle_docs": self.oracle_docs,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "negatives_per_positive": self.negatives_per_positive,
        }

    @classmethod
    def from_file(cls, path: Union[str, Path], **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        raw.update({k: v for k, v in overrides.items() if v is not None})
        if "regimes" in raw:
            raw["regimes"] = tuple(raw["regimes"])
        return cls(**raw)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")


def write_selections(path: Path, selections: dict[int, list[tuple[SentenceId, float]]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for claim_id in sorted(selections):
            evidence = [[sid.page_id, sid.line_index, score] for sid, score in selections[claim_id]]
            handle.write(json.dumps({"claim_id": claim_id, "evidence": evidence}, sort_keys=True))
            handle.write("\n")


def load_selections(path: Union[str, Path]) -> dict[int, list[tuple[SentenceId, float]]]:
    selections: dict[int, list[tuple[SentenceId, float]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            selections[int(obj["claim_id"])] = [
                (SentenceId(str(page), int(line)), float(score))
                for page, line, score in obj["evidence"]
            ]
    return selections


def write_docs(path: Path, docs: dict[int, list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for claim_id in sorted(docs):
            handle.write(json.dumps({"claim_id": claim_id, "pages": docs[claim_id]}, sort_keys=True))
            handle.write("\n")


def load_docs(path: Union[str, Path]) -> dict[int, list[str]]:
    docs: dict[int, list[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                obj = json.loads(raw)
                docs[int(obj["claim_id"])] = [str(p) for p in obj["pages"]]
    return docs


def write_verdicts(path: Path, verdicts: dict[int, tuple[Label, list[SentenceId]]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for claim_id in sorted(verdicts):
            label, evidence = verdicts[claim_id]
            handle.write(
                json.dumps(
                    {
                        "claim_id": claim_id,
                        "predicted_label": label.value,
                        "predicted_evidence": [[sid.page_id, sid.line_index] for sid in evidence],
                    },
                    sort_keys=True,
                )
            )
            handle.write("\n")


def load_verdicts(path: Union[str, Path]) -> dict[int, tuple[Label, list[SentenceId]]]:
    verdicts: dict[int, tuple[Label, list[SentenceId]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            verdicts[int(obj["claim_id"])] = (
                Label.from_string(obj["predicted_label"]),
                [SentenceId(str(p), int(l)) for p, l in obj["predicted_evidence"]],
            )
    return verdicts


def _trained_regimes(requested: tuple[str, ...]) -> list[Regime]:
    """Models to actually train; SR is an aggregation of sup and ref."""
    names = [r for r in requested if r != "sr"]
    if "sr" in requested:
        for needed in ("sup", "ref"):
            if needed not in names:
                names.append(needed)
    return [Regime.from_string(name) for name in names]


def run_experiment(config: ExperimentConfig) -> dict:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def ingest():
        corpus = ingest_corpus(config.corpus)
        kb = KnowledgeBase.load(config.kb)
        train = load_claims(config.train_claims)
        dev = load_claims(config.dev_claims)
        return corpus, kb, train, dev

    corpus, kb, train, dev = _run_stage("ingest", ingest)

    def index():
        doc_index = build_index(corpus, "document")
        sentence_index = build_index(corpus, "sentence")
        extractor = FeatureExtractor.from_index(sentence_index)
        retriever = DocumentRetriever(corpus, doc_index, DocRetrievalConfig(k=config.k_docs))
        return sentence_index, extractor, retriever

    sentence_index, extractor, retriever = _run_stage("index", index)

    def generate():
        synthetic_train = generate_augmentation_set(
            train, kb, seed=stable_seed(config.seed, "augment", "train")
        )
        synthetic_dev = generate_augmentation_set(
            dev, kb, seed=stable_seed(config.seed, "augment", "dev")
        )
        save_synthetic(out_dir / "synthetic_train.jsonl", synthetic_train)
        save_synthetic(out_dir / "adversarial_dev.jsonl", synthetic_dev)
        return synthetic_train, [synthetic_to_claim(s) for s in synthetic_dev]

    synthetic_train, adversarial = _run_stage("generate-claims", generate)

    _run_stage(
        "analyze-entities",
        lambda: _write_json(out_dir / "entity_analysis.json", analyze_claims(dev, kb)),
    )

    datasets = (("dev", dev), ("adversarial", adversarial))

    def retrieve_docs():
        for name, claims in datasets:
            docs = {
                claim.claim_id: (
                    retriever.retrieve_oracle(claim)
                    if config.oracle_docs
                    else retriever.retrieve(claim.text)
                )
                for claim in claims
            }
            write_docs(out_dir / f"docs_{name}.jsonl", docs)

    _run_stage("retrieve-docs", retrieve_docs)

    def train_selectors():
        synthetic_claims = [synthetic_to_claim(s) for s in synthetic_train]
        models = {}
        for regime in _trained_regimes(config.regimes):
            model = train_selector(
                train,
                synthetic_claims,
                corpus,
                sentence_index,
                extractor,
                regime,
                TrainingConfig(
                    epochs=config.epochs,
                    learning_rate=config.learning_rate,
                    seed=stable_seed(config.seed, "selector", regime.value),
                    negatives_per_positive=config.negatives_per_positive,
                ),
            )
            model.save(out_dir / "models" / f"selector_{regime.value}.json")
            models[regime.value] = model
        return models

    models = _run_stage("train-selector", train_selectors)

    def select():
        for dataset, claims in datasets:
            docs = load_docs(out_dir / f"docs_{dataset}.jsonl")
            per_model = {name: {} for name in models}
            for claim in claims:
                ranked = select_for_models(
                    models, extractor, claim, docs.get(claim.claim_id, []), corpus, config.k_sentences
                )
                for name, evidence in ranked.items():
                    per_model[name][claim.claim_id] = evidence
            for regime_name in config.regimes:
                if regime_name == "sr":
                    selections = {
                        cid: aggregate_sr(
                            per_model["sup"][cid], per_model["ref"][cid], config.k_sentences
                        )
                        for cid in per_model["sup"]
                    }
                else:
                    selections = per_model[regime_name]
                write_selections(out_dir / "selections" / f"{dataset}_{regime_name}.jsonl", selections)

    _run_stage("select", select)

    def build_nli():
        nei_claims = [c for c in train if c.label is Label.NOT_ENOUGH_INFO]
        base_name = "baseline" if "baseline" in models else sorted(models)[0]
        base_model = models[base_name]
        nei_selections = {}
        for claim in nei_claims:
            pages = retriever.retrieve(claim.text)
            nei_selections[claim.claim_id] = select_sentences(
                base_model, extractor, claim, pages, corpus, config.k_sentences
            )
        nli_model = train_nli(
            train,
            nei_selections,
            corpus,
            extractor,
            TrainingConfig(
                epochs=config.epochs,
                learning_rate=config.learning_rate,
                seed=stable_seed(config.seed, "nli"),
            ),
        )
        nli_model.save(out_dir / "models" / "nli.json")
        return nli_model

    nli_model = _run_stage("train-nli", build_nli)

    def verdicts_stage():
        for regime_name in config.regimes:
            selections = load_selections(out_dir / "selections" / f"dev_{regime_name}.jsonl")
            verdicts = {
                claim.claim_id: verdict_for_claim(
                    nli_model, extractor, corpus, claim, selections.get(claim.claim_id, [])
                )
                for claim in dev
            }
            write_verdicts(out_dir / "verdicts" / f"dev_{regime_name}.jsonl", verdicts)

    _run_stage("verdict", verdicts_stage)

    def evaluate():
        rows = []
        for regime_name in config.regimes:
            for dataset, claims in datasets:
                selections = load_selections(
                    out_dir / "selections" / f"{dataset}_{regime_name}.jsonl"
                )
                predictions = {cid: [sid for sid, _ in ranked] for cid, ranked in selections.items()}
                refuted, supported = count_mistakes(predictions, claims, config.k_sentences)
                row = {
                    "regime": regime_name,
                    "dataset": dataset,
                    "recall_at_k": recall_at_k(predictions, claims, config.k_sentences),
                    "k": config.k_sentences,
                    "refuted_mistakes": refuted,
                    "supported_mistakes": supported,
                }
                if dataset == "dev":
                    verdicts = load_verdicts(out_dir / "verdicts" / f"dev_{regime_name}.jsonl")
                    row["fever_score"] = fever_score(verdicts, claims, config.k_sentences)
                    row["label_accuracy"] = label_accuracy(verdicts, claims)
                rows.append(row)
        report = {
            "seed": config.seed,
            "oracle_docs": config.oracle_docs,
            "regimes": list(config.regimes),
            "rows": rows,
            "n_dev_claims": len(dev),
            "n_adversarial_claims": len(adversarial),
            "n_synthetic_train": len(synthetic_train),
        }
        _write_json(out_dir / "report.json", report)
        return report

    report = _run_stage("evaluate", evaluate)

    config_blob = dumps_canonical(config.hashable_dict())
    manifest = {
        "config": config.hashable_dict(),
        "config_hash": sha256_hex(config_blob),
        "artifacts": sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()),
    }
    _write_json(out_dir / "manifest.json", manifest)
    return report
