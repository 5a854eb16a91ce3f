"""Every square that ``src/wptkit`` computes is the product ``x * x``.

IEEE 754 rounds ``x * x`` correctly and gives inf where it overflows;
``x ** 2`` calls libm ``pow``, which may be off in the last bit, and
raises ``OverflowError`` on floats.  A square is ``netcore.square(x)`` or
``v * v``, never ``x ** 2``.  Constant bases such as ``(18e-3) ** 2``
fold to one literal and are allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wptkit"


def _pow2_sites(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            and not isinstance(node.left, ast.Constant)]


def test_no_computed_value_is_squared_with_pow():
    sites = [site for path in sorted(PACKAGE.glob("*.py")) for site in _pow2_sites(path)]
    assert not sites, "square with netcore.square(x) or v * v:\n" + "\n".join(sites)
