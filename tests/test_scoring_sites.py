"""Linear models score through one kernel, util.linear_form, and rank
lists through its batch form, util.logistic_scores, never by sorting with
a per-item score call; the feature and selection kernels name sentences
by the SentenceId objects each corpus.Document holds, never by ids built
per candidate."""

import ast
from pathlib import Path

import claimlab

PACKAGE = Path(claimlab.__file__).resolve().parent


def constructs(path: Path, name: str) -> bool:
    """Whether the module calls the name, bare or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                return True
    return False


def test_no_module_reduces_a_dot_product():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert [path.stem for path in sources if "reduce(add, map(mul" in path.read_text(encoding="utf-8")] == []


def test_feature_and_selection_kernels_build_no_sentence_id():
    assert constructs(PACKAGE / "claims.py", "SentenceId")
    assert [stem for stem in ("features", "selection") if constructs(PACKAGE / f"{stem}.py", "SentenceId")] == []


def sorts_by_score(path: Path) -> bool:
    """Whether the module calls sorted(), .sort(), min(), max() or a heapq
    selection with a key that calls a .score( method."""
    orderings = {"sorted", "sort", "min", "max", "nlargest", "nsmallest"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in orderings:
                for keyword in node.keywords:
                    if keyword.arg == "key" and "score" in {
                        inner.func.attr
                        for inner in ast.walk(keyword.value)
                        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                    }:
                        return True
    return False


def test_no_module_sorts_by_a_score_call(tmp_path):
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.stem for path in sources if sorts_by_score(path)] == []
    # The check sees the sort _fit used to run.
    probe = tmp_path / "probe.py"
    probe.write_text("hardest = sorted(negatives, key=lambda item: (-model.score(item[1]), item[0]))[:keep]\n")
    assert sorts_by_score(probe)
