"""Every public function and class of ``src/wptkit`` has a reader.

A public module-level name must be read somewhere in the package outside
its own definition (in its module, or through ``from .mod import name``
or ``mod.name`` in another) or be exported by ``wptkit/__init__.py``.  A
helper that only tests call is either exported or removed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wptkit"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names_read(module: str, tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """(home module, name) for each package name that ``module`` reads:
    its own names outside their definitions, and names it imports from or
    reads off another module of the package."""
    out = set()
    for top in tree.body:
        defines = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != defines:
                out.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules:
                out.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                out.add((node.value.id, node.attr))
    return out


def test_every_public_definition_is_used_or_exported():
    trees = _trees()
    modules = set(trees) - {"__init__"}
    read = set()
    for module, tree in trees.items():
        read |= _names_read(module, tree, modules)
    # The console-script entry point (pyproject.toml) is read from outside.
    read.add(("cli", "main"))
    unused = [f"{module}.{name}" for module in sorted(modules)
              for name in _public_definitions(trees[module]) if (module, name) not in read]
    assert not unused, f"neither used in the package nor exported: {unused}"
