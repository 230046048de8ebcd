"""One path per pipeline step: no claimlab module calls the one-regime,
one-model, one-list, one-metric or claim-conversion shims that remain
only for the benchmark harness; the pipeline calls train_selectors,
select_evidence, FeatureExtractor(index), claim_verdicts, build_report,
generate_augmentation_set and ingest_corpus (not parse_dump_line). And
one regime representation: only
selection, whose train_selector shim takes it, names the Regime enum;
every other module reads selection.REGIMES."""

import ast
from pathlib import Path

import claimlab

PACKAGE = Path(claimlab.__file__).resolve().parent

SHIMS = (
    "select_sentences",
    "train_selector",
    "from_index",
    "verdict_for_claim",
    "recall_at_k",
    "fever_score",
    "synthetic_to_claim",
    "parse_dump_line",
)


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


def named(path: Path) -> set[str]:
    """Every identifier a module uses, binds or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    return names


def test_only_selection_names_regime():
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.stem for path in sources if "Regime" in named(path)] == ["selection"]
