"""Span tracing from outside the program, for the traced benchmark run.

The tracer replaces each traced callable at every name a caller binds
it to (`claimlab.experiment` imports with `from .x import y`, so both
`claimlab.experiment.select_sentences` and `claimlab.selection.
select_sentences` are binding sites). Each call records a span (layer
name, parent span, start, end) in memory, timed by the clock the caller
passes (the benchmark passes a reference-speed clock, see hostspeed.py);
counters are taken at the same boundaries. `summarize` derives
per-layer totals, self times and counts; `write_spans` writes the spans
out as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

from claimlab.claims import Label


def _count_result(counter: str):
    def observe(tracer, args, kwargs, result):
        tracer.counters[counter] += len(result)

    return observe


def _observe_features(tracer, args, kwargs, result):
    # args = (extractor, claim_text, title, body[, position])
    position = args[4] if len(args) > 4 else kwargs.get("position", 0.0)
    tracer.feature_inputs.add((args[1], args[2], args[3], float(position)))


def _observe_index(tracer, args, kwargs, result):
    tracer.postings[result.granularity] = sum(len(plist) for plist in result.postings.values())


def _observe_augmentation(tracer, args, kwargs, result):
    tracer.counters["claim_gen.supported_in"] += sum(1 for c in args[0] if c.label is Label.SUPPORTED)
    tracer.counters["claim_gen.synthetic_out"] += len(result)


# Layer name -> (binding sites, observer). A site is "module:attribute"
# or "module:Class.attribute". Several callables may share one layer.
LAYERS = {
    "corpus.ingest_corpus": (["claimlab.corpus:ingest_corpus", "claimlab.experiment:ingest_corpus"], None),
    "corpus.build_index": (["claimlab.corpus:build_index", "claimlab.experiment:build_index"], _observe_index),
    "corpus.tfidf_rank": (
        ["claimlab.corpus:tfidf_rank", "claimlab.retrieval:tfidf_rank", "claimlab.selection:tfidf_rank"],
        _count_result("corpus.tfidf_units_ranked"),
    ),
    "claims.load_claims": (["claimlab.claims:load_claims", "claimlab.experiment:load_claims"], None),
    "kb.KnowledgeBase.load": (["claimlab.kb:KnowledgeBase.load"], None),
    "kb.link_entities": (
        ["claimlab.kb:link_entities", "claimlab.claim_gen:link_entities", "claimlab.entity_analysis:link_entities"],
        None,
    ),
    "features.FeatureExtractor.from_index": (["claimlab.features:FeatureExtractor.from_index"], None),
    "features.selection_features": (["claimlab.features:FeatureExtractor.selection_features"], _observe_features),
    "features.pair_features": (["claimlab.features:FeatureExtractor.pair_features"], None),
    "retrieval.DocumentRetriever.init": (["claimlab.retrieval:DocumentRetriever.__init__"], None),
    "retrieval.retrieve": (["claimlab.retrieval:DocumentRetriever.retrieve"], None),
    "selection.sample_negatives": (
        ["claimlab.selection:sample_negatives"],
        _count_result("selection.negatives_sampled"),
    ),
    "selection.train_selector": (["claimlab.selection:train_selector", "claimlab.experiment:train_selector"], None),
    "selection.select_sentences": (
        ["claimlab.selection:select_sentences", "claimlab.experiment:select_sentences"],
        None,
    ),
    "selection.aggregate_sr": (["claimlab.selection:aggregate_sr", "claimlab.experiment:aggregate_sr"], None),
    "nli.train_nli": (["claimlab.nli:train_nli", "claimlab.experiment:train_nli"], None),
    "nli.verdict_for_claim": (["claimlab.nli:verdict_for_claim", "claimlab.experiment:verdict_for_claim"], None),
    "nli.classify_pair": (["claimlab.nli:classify_pair"], None),
    "claim_gen.generate_augmentation_set": (
        ["claimlab.claim_gen:generate_augmentation_set", "claimlab.experiment:generate_augmentation_set"],
        _observe_augmentation,
    ),
    "entity_analysis.analyze_claims": (
        ["claimlab.entity_analysis:analyze_claims", "claimlab.experiment:analyze_claims"],
        None,
    ),
    "experiment.artifact_io": (
        [
            f"claimlab.experiment:{name}"
            for name in (
                "_write_json", "save_synthetic", "write_docs", "load_docs", "write_selections",
                "load_selections", "write_verdicts", "load_verdicts",
            )
        ]
        + ["claimlab.selection:RelevanceModel.save", "claimlab.nli:NliModel.save"],
        None,
    ),
    "experiment.run_experiment": (["claimlab.experiment:run_experiment"], None),
}


class Tracer:
    """Wraps the LAYERS binding sites while installed; spans stay in memory."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans: list[list] = []  # [layer, parent index or -1, start_ns, end_ns]
        self.counters: Counter = Counter()
        self.feature_inputs: set = set()
        self.postings: dict[str, int] = {}
        self.missing_sites: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, observe):
        spans, stack, clock = self.spans, self._stack, self.clock_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer, (sites, observe) in LAYERS.items():
            for site in sites:
                module_name, _, path = site.partition(":")
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if not hasattr(owner, attr):
                    self.missing_sites.append(site)
                    continue
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, layer, observe))
                else:
                    replacement = self._wrap(original, layer, observe)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summarize(self) -> dict[str, float]:
        """Per-layer total seconds, self seconds and call counts, plus counters.

        A layer's total counts only its outermost spans, so a layer that
        calls itself is not counted twice. Self time is a span's duration
        minus the durations of its direct children.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for layer, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total_ns, self_ns, calls = Counter(), Counter(), Counter()
        candidates = 0
        for i, (layer, parent, start, end) in enumerate(spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                total_ns[layer] += end - start
            if layer == "features.selection_features" and parent >= 0 and spans[parent][0] == "selection.select_sentences":
                candidates += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = total_ns[layer] / 1e9
            out[f"{layer}_self_s"] = self_ns[layer] / 1e9
            out[f"{layer}_calls"] = calls[layer]
        feature_calls = calls["features.selection_features"]
        out["features.selection_features_unique_share"] = (
            len(self.feature_inputs) / feature_calls if feature_calls else 0.0
        )
        out["selection.candidates_scored"] = candidates
        out["selection.negatives_sampled"] = self.counters["selection.negatives_sampled"]
        out["corpus.tfidf_units_ranked"] = self.counters["corpus.tfidf_units_ranked"]
        out["corpus.index_postings"] = sum(self.postings.values())
        supported = self.counters["claim_gen.supported_in"]
        out["claim_gen.synthetic_yield"] = self.counters["claim_gen.synthetic_out"] / supported if supported else 0.0
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path: Path) -> None:
        """JSON lines: a header naming the fields, then one array per span.
        A span's id is its line number after the header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["layer", "parent", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
