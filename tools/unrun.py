"""List the src/finegames statements that the tier-1 suite never runs.

Runs pytest in this process under sys.settrace, recording each line
executed in a finegames module, then walks every module's AST and
prints each statement none of whose lines ran (docstrings are not
statements here). A compound statement counts as run when its header
or any statement inside it ran. Tests that start a subprocess are not
traced, so what runs only there is listed too.

    PYTHONPATH=src python tools/unrun.py [pytest args ...]

Defaults to the tier-1 invocation over tests/. Exits with pytest's code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finegames"


def _trace(ran: set):
    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(str(PACKAGE)):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    return call


def _is_docstring(node: ast.stmt) -> bool:
    value = node.value if isinstance(node, ast.Expr) else None
    return isinstance(value, ast.Constant) and isinstance(value.value, str)


def _unrun(body: list, lines: set, path: str, out: list) -> bool:
    """Append body's unrun statements to out; True if any of them ran."""
    any_ran = False
    for node in body:
        if node is body[0] and _is_docstring(node):
            continue
        inner = [b for field in ("body", "orelse", "finalbody") for b in getattr(node, field, [])]
        inner += [b for handler in getattr(node, "handlers", []) for b in handler.body]
        inner += [b for case in getattr(node, "cases", []) for b in case.body]
        first = min((b.lineno for b in inner), default=node.end_lineno + 1)
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        header = range(start, first if inner else node.end_lineno + 1)
        child_out: list = []
        ran = bool(lines.intersection(header)) | _unrun(inner, lines, path, child_out)
        if ran:
            out.extend(child_out)
        else:
            out.append(f"{path}:{node.lineno}: {ast.unparse(node).splitlines()[0]}")
        any_ran |= ran
    return any_ran


def main(argv: list[str]) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]
    ran: set = set()
    tracer = _trace(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    out: list = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = {line for name, line in ran if name == str(module)}
        tree = ast.parse(module.read_text(), str(module))
        _unrun(tree.body, lines, f"src/finegames/{module.name}", out)
    print("\n".join(out))
    print(f"{len(out)} unrun statements in src/finegames")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
