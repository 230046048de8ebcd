"""One path per pipeline step: no claimlab module calls the one-regime,
one-model, one-list or one-metric shims that remain only for the
benchmark harness; the pipeline calls train_selectors, select_evidence,
FeatureExtractor(index), claim_verdicts and build_report."""

import ast
from pathlib import Path

import claimlab

PACKAGE = Path(claimlab.__file__).resolve().parent

SHIMS = ("select_sentences", "train_selector", "from_index", "verdict_for_claim", "recall_at_k", "fever_score")


def called_names(path: Path) -> set[str]:
    """The name of every function or method a module calls."""
    called = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                called.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return called


def test_no_module_calls_a_shim():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    callers = {name: [path.stem for path in sources if name in called_names(path)] for name in SHIMS}
    assert callers == {name: [] for name in SHIMS}
