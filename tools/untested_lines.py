"""Statement lines of ``src/mopsched`` functions that no test runs.

Usage (from the repository root):

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this process, on ``-q tests`` when no argument is given and
on the given arguments otherwise, under a line tracer (``sys.settrace`` and
``threading.settrace``) that records only frames of code under
``src/mopsched``.  Then prints, file by file with a count, each statement
line inside a function that no traced frame executed, and exits with
pytest's exit code.  It needs nothing beyond the standard library and
pytest.

A statement counts as run when any line of its own span ran: its whole
extent for a simple statement, its header (up to its first body statement)
for a compound one.  Statements that compile to no bytecode are never
listed, nor is code that runs at import (module and class bodies).

What it answers is "did a test run this line?", not "is this line needed?":
a listed line may guard a case no test builds, and a line not listed may be
run by a test that checks nothing about it.  Lines that only a forked
process runs are invisible to it, since a forked child traces into its own
memory; a horizon's share workers run the same code as the calling
process's share, so that hides no line of its own.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "mopsched") + os.sep
sys.path.insert(0, str(SRC))


def executable_lines(code):
    """Lines of ``code`` and of every code object nested in it that carry bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statement_spans(tree):
    """(first line, last line) of the own span of each statement inside a function."""
    spans = []

    def visit(stmts, in_function):
        for node in stmts:
            if in_function:
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                spans.append((first, max(first, last)))
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()), in_function or is_def)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, in_function or is_def)
            for case in getattr(node, "cases", ()):
                visit(case.body, in_function or is_def)

    visit(tree.body, False)
    return spans


def untested(path, ran):
    """Sorted first lines of the statements of ``path`` none of whose own lines ran."""
    source = path.read_text()
    exe = executable_lines(compile(source, str(path), "exec"))
    out = []
    for first, last in statement_spans(ast.parse(source)):
        own = set(range(first, last + 1))
        if own & exe and not own & ran:
            out.append(first)
    return sorted(set(out))


class LineTracer:
    """Records the line events of frames of code under ``PACKAGE``, by file.

    A code object is no longer traced once each line it compiles to, bar
    its first, has run; the lines that never run keep their code traced.
    """

    def __init__(self):
        self.ran = {}  # absolute file name -> set of line numbers
        self._codes = {}  # code object -> (its file's line set, its lines not yet run), or None

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            entry = self._codes[code]
        except KeyError:
            name = os.path.abspath(code.co_filename)
            entry = None
            if name.startswith(PACKAGE):
                unseen = {line for _, _, line in code.co_lines() if line is not None}
                unseen.discard(code.co_firstlineno)
                entry = self.ran.setdefault(name, set()), unseen
            self._codes[code] = entry
        if entry is None or not entry[1]:
            return None
        lines, unseen = entry

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
                unseen.discard(frame.f_lineno)
            return local

        return local


def main(argv):
    import pytest

    tracer = LineTracer()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted((SRC / "mopsched").glob("*.py")):
        lines = untested(path, tracer.ran.get(str(path), set()))
        if not lines:
            continue
        total += len(lines)
        text = path.read_text().splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(lines)} untested lines")
        for line in lines:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"\n{total} untested statement lines in functions of src/mopsched")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
