"""The tolerance policy: every threshold is a name in errors.py's block."""

import ast
from pathlib import Path

import finegames

SRC = Path(finegames.__file__).parent


def small_float_literals(tree: ast.AST) -> list[tuple[int, float]]:
    """(line, value) of every float literal with 0 < |value| < 1e-6."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-6
    ]


def test_tolerance_literals_live_only_in_the_policy_block():
    # The block is errors.py's module-level assignments; a threshold
    # anywhere else, in errors.py's own functions too, must use a name.
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "errors.py":
            tree.body = [stmt for stmt in tree.body if not isinstance(stmt, ast.Assign)]
        stray += [f"{path.name}:{line}: {value!r}" for line, value in small_float_literals(tree)]
    assert stray == []
