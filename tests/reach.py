"""Print the statements of src/semiabel that no tier-1 test executes, and
those that only tests requesting monkeypatch reach.

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

The lines run from the set-up to the teardown of a test that requests
the monkeypatch fixture are counted apart, and a second list prints the
statements that only such tests reach: code that no real input runs
unless a patch plants a defect or a wrong value.  A statement left in
that list is either a safety check, which no correct computation trips
(an identity cross-check, a failure count, the exit-2 path), or dead
code.

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


class PatchedTests:
    """pytest plugin: `patched` is True from the set-up to the teardown of
    a test that requests the monkeypatch fixture."""

    def __init__(self):
        self.ids, self.patched = set(), False

    def pytest_collection_modifyitems(self, items):
        self.ids = {item.nodeid for item in items if "monkeypatch" in item.fixturenames}

    def pytest_runtest_logstart(self, nodeid):
        self.patched = nodeid in self.ids

    def pytest_runtest_logfinish(self, nodeid):
        self.patched = False


def _line_tracer(hit, patched_hit, tests):
    def local(frame, event, arg):
        if event == "line":
            (patched_hit if tests.patched else hit).add(frame.f_lineno)
        return local

    return local


def traced_run(args):
    """pytest's exit status on args, and the lines run in each source file
    outside and inside the tests that request monkeypatch."""
    hits = {p: set() for p in SRC.glob("*.py")}
    patched = {p: set() for p in hits}
    tests = PatchedTests()
    tracers = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(name).resolve()
            tracers[name] = (
                _line_tracer(hits[path], patched[path], tests) if path in hits else None
            )
        return tracers[name]

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits, patched


def main(argv):
    os.chdir(ROOT)
    status, hits, patched = traced_run(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv]
    )
    never, only_patched = [], []
    for path in sorted(hits):
        missed = unreached(path, hits[path] | patched[path])
        never += [(path, line, text) for line, text in missed]
        only_patched += [
            (path, line, text)
            for line, text in unreached(path, hits[path])
            if (line, text) not in missed
        ]
    for label, found in (
        ("not executed", never),
        ("reached only by tests that request monkeypatch", only_patched),
    ):
        for path, line, text in found:
            print(f"{path.relative_to(ROOT)}:{line}  {text}")
        print(f"{len(found)} statements of src/semiabel {label}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
