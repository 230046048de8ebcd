"""Text is split into tokens in one place: corpus.Document tokenizes
each title and sentence once, and every other module reads those
tokens; kb splits aliases and claims with corpus.token_spans."""

import ast
from pathlib import Path

import claimlab

PACKAGE = Path(claimlab.__file__).resolve().parent


def names_used(path: Path) -> set[str]:
    """Every name a module imports, reads or reaches as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_only_corpus_tokenizes():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    users = {
        name: [path.stem for path in sources if name in names_used(path)] for name in ("tokenize", "display_title")
    }
    assert users == {"tokenize": ["corpus"], "display_title": ["corpus"]}
