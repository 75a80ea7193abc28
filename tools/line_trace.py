"""Run pytest under a line tracer and list the package statements that never ran.

    python3 tools/line_trace.py [pytest args]

Every argument goes to pytest, which runs in this process with this
checkout's ``src`` first on the path. ``sys.settrace`` and
``threading.settrace`` record the lines executed by frames whose code lives
in this checkout's ``src/elmbench``; code that tests run in a subprocess is
not seen. For each module of the package it then prints the total lines, the
code lines (no docstrings, comments or blank lines) and every statement of
its syntax tree that never ran, with its line number and text. It exits with
pytest's exit code. It is a review aid, not a test; tracing makes the suite
about twice as slow.
"""

import ast
import io
import os
import sys
import threading
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "elmbench"
# Tokens that hold no code: a line made only of these is blank or a comment.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def trace(argv: list) -> tuple[int, dict]:
    """Run pytest on argv; its exit code and the lines run per package file."""
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set] = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = executed.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    module = sys.modules.get("elmbench")
    if module is not None and Path(module.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"imported elmbench from {module.__file__}, not {PACKAGE}")
    return int(code), executed


def _docstrings(tree: ast.Module) -> list:
    """The docstring expressions of the module, its classes and its functions."""
    owners = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [owner.body[0] for owner in owners
            if owner.body and isinstance(owner.body[0], ast.Expr)
            and isinstance(owner.body[0].value, ast.Constant)
            and isinstance(owner.body[0].value.value, str)]


def _span(node: ast.stmt) -> range:
    """The lines that belong to the statement itself: a compound one's header only."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, first + 1))
    return range(first, node.end_lineno + 1)


def report(path: Path, ran: set) -> None:
    """Print the line counts of path and its statements that never ran."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    docs = _docstrings(tree)
    doc_lines = {i for d in docs for i in range(d.lineno, d.end_lineno + 1)}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = {row for tok in tokens if tok.type not in NOT_CODE
            for row in range(tok.start[0], tok.end[0] + 1)}
    skipped = {id(d) for d in docs}
    missed = sorted(node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.stmt) and id(node) not in skipped
                    and ran.isdisjoint(_span(node)))
    print(f"{path.relative_to(ROOT)}: {len(lines)} lines, {len(code - doc_lines)} code lines, "
          f"{len(missed)} statements never executed")
    for lineno in missed:
        print(f"  {lineno:5d}  {lines[lineno - 1].strip()}")


def main() -> int:
    code, executed = trace(sys.argv[1:])
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        report(path, executed.get(str(path), set()))
    return code


if __name__ == "__main__":
    sys.exit(main())
