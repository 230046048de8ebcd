"""Files are read in one place: util is the one module that opens a
file, and JSON is parsed only by util.read_json (config and model files)
and util.read_jsonl (every JSON-lines file), plus corpus.parse_dump_line,
the one-line wrapper kept for the benchmark harness."""

import ast
import inspect
from pathlib import Path

import claimlab
from claimlab.util import read_jsonl

PACKAGE = Path(claimlab.__file__).resolve().parent


def _parses_json(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("load", "loads")
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    )


def json_parsers(path: Path) -> set[str]:
    """"module:function" for each innermost function of a module that calls
    json.load or json.loads; a call outside any function is "module"."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}:{child.name}")
                continue
            if _parses_json(child):
                found.add(where)
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return found


def calls_open(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr == "open"
            ):
                return True
    return False


def imports_from_json(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return any(isinstance(node, ast.ImportFrom) and node.module == "json" for node in ast.walk(tree))


def test_only_util_parses_json():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    parsers = set().union(*map(json_parsers, sources))
    assert parsers == {"util:read_json", "util:read_jsonl", "corpus:parse_dump_line"}
    assert [path.stem for path in sources if imports_from_json(path)] == []


def test_only_util_opens_files():
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.stem for path in sources if calls_open(path)] == ["util"]


def test_read_jsonl_parse_is_required():
    assert inspect.signature(read_jsonl).parameters["parse"].default is inspect.Parameter.empty
