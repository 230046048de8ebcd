"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import claimlab

PACKAGE = Path(claimlab.__file__).resolve().parent


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
