"""Linear models score through one kernel, util.linear_form, and the
feature and selection kernels name sentences by the SentenceId objects
each corpus.Document holds, never by ids built per candidate."""

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
