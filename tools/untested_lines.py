"""List the statements of ``src/treelab`` that a pytest run never executes.

Run from the repository root (extra arguments go to pytest):

    PYTHONPATH=src python tools/untested_lines.py -q

pytest runs in this process under a ``sys.settrace`` tracer limited to
``src/treelab``; the package must not be imported before it starts.  Every
statement (found with ``ast``) on none of whose lines a line event fired is
printed as ``module:line  source``.  Docstrings, ``def``/``class`` lines,
imports and ``global``/``nonlocal`` are left out; a compound statement counts
by its header lines.  The exit code is pytest's.  Tests run in subprocesses are
not traced.  Needs nothing beyond pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treelab"
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
         ast.Global, ast.Nonlocal)


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement, a compound one by its header, in line order."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append((node.lineno, max(node.lineno, last)))
    return sorted(spans)


def main(args: list[str]) -> int:
    hits: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    if any(name == "treelab" or name.startswith("treelab.") for name in sys.modules):
        raise SystemExit("treelab was imported before tracing started")
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text, ran = source.splitlines(), hits.get(str(path), set())
        for first, last in statement_spans(source):
            if ran.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.stem}:{first}  {text[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
