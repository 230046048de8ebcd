"""Command-line interface for the fact verification pipeline.

Subcommands: ingest, retrieve-docs, generate-claims, analyze-entities,
train-selector, select, train-nli, verdict, evaluate, and run (the full
experiment). Each pipeline step runs through the same stage function
as in `run`. Exit code 0 on success, nonzero with a stage-tagged
message otherwise.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .claim_gen import generate_augmentation_set
from .claims import Label, load_claims, save_claims
from .corpus import build_index, ingest_corpus
from .entity_analysis import analyze_claims
from .evaluation import build_report, format_report_row
from .experiment import (
    ALL_REGIMES,
    PATH_FIELDS,
    ExperimentConfig,
    StageError,
    evaluate_evidence,
    load_docs,
    load_selections,
    load_verdicts,
    retrieve_docs,
    run_experiment,
    select_evidence,
    verdicts_for,
    write_docs,
    write_selections,
    write_verdicts,
)
from .features import FeatureExtractor
from .kb import KnowledgeBase
from .nli import NliModel, train_nli
from .retrieval import DocRetrievalConfig, DocumentRetriever
from .selection import REGIMES, RelevanceModel, TrainingConfig, train_selectors
from .util import check_fields, read_json, write_json


def cmd_ingest(args) -> int:
    corpus = ingest_corpus(args.corpus)
    stats = {"pages": len(corpus), "sentences": corpus.sentence_count()}
    if args.out:
        write_json(args.out, stats)
    print(f"ingested {stats['pages']} pages, {stats['sentences']} sentences")
    return 0


def cmd_retrieve_docs(args) -> int:
    corpus = ingest_corpus(args.corpus)
    index = build_index(corpus, "document")
    retriever = DocumentRetriever(
        corpus, index, DocRetrievalConfig(k=args.k, title_match_weight=args.title_match_weight)
    )
    docs = retrieve_docs(retriever, load_claims(args.claims), args.oracle_docs)
    write_docs(args.out, docs)
    print(f"retrieved documents for {len(docs)} claims -> {args.out}")
    return 0


def cmd_generate_claims(args) -> int:
    claims = load_claims(args.claims)
    kb = KnowledgeBase.load(args.kb)
    synthetic = generate_augmentation_set(claims, kb, args.seed)
    save_claims(args.out, synthetic)
    supported = sum(1 for c in claims if c.label is Label.SUPPORTED)
    print(f"generated {len(synthetic)} false claims from {supported} supported claims -> {args.out}")
    return 0


def cmd_analyze_entities(args) -> int:
    claims = load_claims(args.claims)
    kb = KnowledgeBase.load(args.kb)
    write_json(args.out, analyze_claims(claims, kb))
    print(f"entity analysis over {len(claims)} claims -> {args.out}")
    return 0


def _load_corpus_bundle(corpus_path: str):
    corpus = ingest_corpus(corpus_path)
    return corpus, FeatureExtractor(build_index(corpus, "sentence"))


def cmd_train_selector(args) -> int:
    corpus, extractor = _load_corpus_bundle(args.corpus)
    claims = load_claims(args.claims)
    synthetic = load_claims(args.synthetic) if args.synthetic else []
    if REGIMES[args.regime].synthetic and not synthetic:
        print(f"error: train-selector: regime {args.regime!r} needs --synthetic", file=sys.stderr)
        return 1
    config = TrainingConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
        negatives_per_positive=args.negatives_per_positive,
    )
    model = train_selectors(claims, synthetic, corpus, extractor, {args.regime: config})[args.regime]
    model.save(args.out)
    print(f"trained {args.regime} selector on {model.metadata['n_claims']} claims -> {args.out}")
    return 0


def cmd_select(args) -> int:
    corpus, extractor = _load_corpus_bundle(args.corpus)
    claims = load_claims(args.claims)
    docs = load_docs(args.docs)
    models = {"model": RelevanceModel.load(args.model)}
    if args.model2:
        models["model2"] = RelevanceModel.load(args.model2)
    sr = ("model", "model2") if args.model2 else None
    selected = select_evidence(models, extractor, corpus, claims, docs, args.k, sr)
    selections = selected["sr" if sr else "model"]
    write_selections(args.out, selections)
    print(f"selected evidence for {len(selections)} claims -> {args.out}")
    return 0


def cmd_train_nli(args) -> int:
    corpus, extractor = _load_corpus_bundle(args.corpus)
    claims = load_claims(args.claims)
    selections = load_selections(args.selections) if args.selections else {}
    model = train_nli(
        claims,
        selections,
        corpus,
        extractor,
        TrainingConfig(epochs=args.epochs, learning_rate=args.learning_rate, seed=args.seed),
    )
    model.save(args.out)
    print(f"trained verdict classifier on {model.metadata['n_pairs']} pairs -> {args.out}")
    return 0


def cmd_verdict(args) -> int:
    corpus, extractor = _load_corpus_bundle(args.corpus)
    claims = load_claims(args.claims)
    selections = {"verdict": load_selections(args.selections)}
    verdicts = verdicts_for(NliModel.load(args.model), extractor, corpus, claims, selections)["verdict"]
    write_verdicts(args.out, verdicts)
    print(f"verdicts for {len(verdicts)} claims -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    claims = load_claims(args.claims)
    if not args.selections and not args.verdicts and not args.docs:
        print("error: evaluate: need --selections, --verdicts, or --docs", file=sys.stderr)
        return 1
    payload: dict = {"n_claims": len(claims)}
    if args.selections or args.verdicts:
        selections = load_selections(args.selections) if args.selections else None
        verdicts = load_verdicts(args.verdicts) if args.verdicts else None
        payload["sentence_level"] = evaluate_evidence(claims, args.k, selections, verdicts).to_jsonable()
    if args.docs:
        docs = load_docs(args.docs)
        payload["document_level"] = build_report(claims, docs, k=args.k_docs, level="document").metrics_row()
    write_json(args.out, payload)
    print(f"evaluation report -> {args.out}")
    return 0


def cmd_run(args) -> int:
    fields = read_json(args.config) if args.config else {}
    if not isinstance(fields, dict):
        raise ValueError(f"config {args.config} must hold a JSON object, not a {type(fields).__name__}")
    for name in PATH_FIELDS + ("seed", "k_docs", "k_sentences", "oracle_docs"):
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if args.regimes:
        fields["regimes"] = args.regimes.split(",")
    check_fields(ExperimentConfig, fields)
    missing = [name for name in PATH_FIELDS if name not in fields]
    if missing:
        print(f"error: run: missing required options: {', '.join(missing)}", file=sys.stderr)
        return 1
    config = ExperimentConfig(**{**fields, "regimes": tuple(fields.get("regimes", ALL_REGIMES))})
    report = run_experiment(config, args.stage_log)
    for row in report["rows"]:
        print(format_report_row(row))
    print(f"report bundle -> {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="claimlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and validate a corpus dump")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("retrieve-docs", help="top-k candidate pages per claim")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--k", type=int, default=DocRetrievalConfig.k)
    p.add_argument("--title-match-weight", type=float, default=DocRetrievalConfig.title_match_weight)
    p.add_argument("--oracle-docs", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_retrieve_docs)

    p = sub.add_parser("generate-claims", help="synthesize false claims from supported ones")
    p.add_argument("--claims", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate_claims)

    p = sub.add_parser("analyze-entities", help="entity count/relatedness tables and chi-squared")
    p.add_argument("--claims", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_analyze_entities)

    p = sub.add_parser("train-selector", help="train the sentence relevance model")
    p.add_argument("--regime", required=True, choices=[name for name, spec in REGIMES.items() if not spec.merges])
    p.add_argument("--claims", required=True)
    p.add_argument("--synthetic")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=TrainingConfig.seed)
    p.add_argument("--epochs", type=int, default=TrainingConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainingConfig.learning_rate)
    p.add_argument("--negatives-per-positive", type=int, default=TrainingConfig.negatives_per_positive)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_selector)

    p = sub.add_parser("select", help="rank evidence sentences for claims")
    p.add_argument("--model", required=True)
    p.add_argument("--model2", help="second model; results are aggregated by confidence")
    p.add_argument("--claims", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, default=ExperimentConfig.k_sentences)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("train-nli", help="train the three-way verdict classifier")
    p.add_argument("--claims", required=True)
    p.add_argument("--selections", help="ranked evidence for NEI training pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=TrainingConfig.seed)
    p.add_argument("--epochs", type=int, default=TrainingConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainingConfig.learning_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_nli)

    p = sub.add_parser("verdict", help="classify claims from their selected evidence")
    p.add_argument("--model", required=True)
    p.add_argument("--selections", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_verdict)

    p = sub.add_parser("evaluate", help="recall@k, mistakes, overall score, label accuracy")
    p.add_argument("--claims", required=True)
    p.add_argument("--selections")
    p.add_argument("--verdicts")
    p.add_argument("--docs")
    p.add_argument("--k", type=int, default=ExperimentConfig.k_sentences)
    p.add_argument("--k-docs", type=int, default=DocRetrievalConfig.k)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline experiment")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--corpus")
    p.add_argument("--train-claims")
    p.add_argument("--dev-claims")
    p.add_argument("--kb")
    p.add_argument("--seed", type=int)
    p.add_argument("--k-docs", type=int)
    p.add_argument("--k-sentences", type=int)
    p.add_argument("--regimes", help=f"comma-separated subset of {','.join(ALL_REGIMES)}")
    p.add_argument("--oracle-docs", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--out-dir")
    p.add_argument("--stage-log", help="per-stage JSON lines (seconds, claims prepared, vectors finished), outside --out-dir")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
