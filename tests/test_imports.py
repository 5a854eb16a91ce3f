"""Every name a module of ``src/wptkit`` or ``tests`` imports is read.

An import binds a name: the alias, or the first part of a dotted module
path.  The module must read that name somewhere (as a plain name or the
base of an attribute).  ``wptkit/__init__.py`` only re-exports, so its
imports count as used; ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "wptkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda i: i[1])
            if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unread_import_is_found():
    tree = ast.parse("import cmath\nimport os.path\nfrom math import pi as tau, e\nprint(e, os)\n")
    assert unused_imports(tree) == ["line 1: cmath", "line 3: tau"]
