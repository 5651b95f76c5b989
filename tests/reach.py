"""Print the statements of src/semiabel that no tier-1 test executes.

Usage:
    python tests/reach.py              # the tier-1 suite, as pytest runs it
    python tests/reach.py -k pairing   # ... with extra pytest arguments

The suite runs in this process under sys.settrace, recording the lines
executed in src/semiabel/*.py; then each statement with code of its own
that never ran is printed as ``file:line  source``.  A compound statement
(def, if, for, with, try, ...) counts by its header, the lines before its
body; its body's statements count on their own.  Processes the tests
start (the CLI process tests) are not traced, so a statement only they
run is listed.  The exit status is pytest's.

Standard library only, besides the pytest the suite needs; pytest does
not collect this file, as it does not match test_*.py.  Tracing makes the
suite several times slower than a plain run.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semiabel"


def code_lines(code):
    """The lines that carry bytecode in code and in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def statement_spans(tree):
    """(first, last) line of each statement of tree; a compound statement
    spans its decorators and header, up to the line before its body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            yield first, max(first, last)


def unreached(path, hit):
    """(line, source) of each statement of path with bytecode of its own
    and no line in hit, in line order."""
    text = path.read_text()
    lines = code_lines(compile(text, str(path), "exec"))
    source = text.splitlines()
    out = []
    for first, last in statement_spans(ast.parse(text)):
        span = set(range(first, last + 1)) & lines
        if span and not span & hit:
            out.append((first, source[first - 1].strip()))
    return sorted(out)


def _line_tracer(hit):
    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    return local


def traced_run(args):
    """pytest's exit status on args, and the lines run in each source file."""
    hits = {p: set() for p in SRC.glob("*.py")}
    tracers = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(name).resolve()
            tracers[name] = _line_tracer(hits[path]) if path in hits else None
        return tracers[name]

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(argv):
    os.chdir(ROOT)
    status, hits = traced_run(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv]
    )
    total = 0
    for path in sorted(hits):
        for line, text in unreached(path, hits[path]):
            print(f"{path.relative_to(ROOT)}:{line}  {text}")
            total += 1
    print(f"{total} statements of src/semiabel not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
