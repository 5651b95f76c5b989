"""Rebuild the golden report files and show how they would change.

Usage:
    python tests/golden.py            # print the field-wise diff only
    python tests/golden.py --write    # ... and overwrite the golden files

Without --write the exit status is 1 when any golden line differs, so
the script alone checks that a change keeps the reports byte for byte.
Its first line is the line count of ``src/semiabel/*.py``, so the same
run also gives the size that the byte-identical reports come from.

Each file is rebuilt from the line generator its golden test in
test_cli.py calls, so the test and this script cannot disagree about how
a line is made.  The diff names, for every changed line, each JSON field
that moved (old -> new), and the largest relative change of a number,
kept apart for the residual fields (``residual``, ``max_residual``): a
residual that moves from 2.2e-16 to 0 changes by 1 relative.  The golden
tests themselves still compare byte for byte.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "semiabel"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import test_cli  # noqa: E402

MISSING = object()
RESIDUAL_FIELDS = ("residual", "max_residual")


def _build(tmp):
    return {
        "golden_table_reports.jsonl": test_cli.table_report_lines(),
        "golden_eval_reports.jsonl": test_cli.eval_expg_logg_lines(tmp),
        "golden_verify_reports.jsonl": [
            test_cli.verify_report_line(tmp, seed) for seed in test_cli.VERIFY_GOLDEN_SEEDS
        ],
        "golden_task_reports.jsonl": test_cli.task_report_lines(tmp),
    }


def source_lines():
    """Lines of src/semiabel/*.py, counted as wc -l counts them."""
    return sum(p.read_text().count("\n") for p in SRC.glob("*.py"))


def field_changes(old, new, path=""):
    """(path, old, new) for each JSON leaf that differs; a list that
    changes length, and a field present on one side only, is one leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            sub = f"{path}.{k}" if path else k
            yield from field_changes(old.get(k, MISSING), new.get(k, MISSING), sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from field_changes(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def relative_change(old, new):
    """|new - old| / |old| for two numbers, inf from zero, else None."""
    if not (_is_number(old) and _is_number(new)):
        return None
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return abs(new - old) / abs(old)


def _show(v):
    return "(absent)" if v is MISSING else json.dumps(v)


def diff_lines(old_lines, new_lines):
    """(printable lines, number of changed lines, {"residual": r, "other":
    r}) with r the largest relative change of a number in a residual
    field, or in any other field, or None where no such number moved."""
    out, changed, largest = [], 0, {"residual": None, "other": None}
    for i in range(max(len(old_lines), len(new_lines))):
        old = old_lines[i] if i < len(old_lines) else None
        new = new_lines[i] if i < len(new_lines) else None
        if old == new:
            continue
        changed += 1
        if old is None or new is None:
            out.append(f"  line {i + 1}: {'added' if old is None else 'removed'}")
            continue
        fields = list(field_changes(json.loads(old), json.loads(new)))
        if not fields:
            out.append(f"  line {i + 1}: bytes differ, every field equal")
        for path, a, b in fields:
            rel = relative_change(a, b)
            note = "" if rel is None else f"  (relative {rel:.3g})"
            out.append(f"  line {i + 1} {path}: {_show(a)} -> {_show(b)}{note}")
            kind = "residual" if path.rsplit(".", 1)[-1] in RESIDUAL_FIELDS else "other"
            if rel is not None and (largest[kind] is None or rel > largest[kind]):
                largest[kind] = rel
    return out, changed, largest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="overwrite the golden files")
    args = ap.parse_args(argv)
    print(f"src/semiabel/*.py: {source_lines()} lines")
    with tempfile.TemporaryDirectory() as tmp:
        built = _build(Path(tmp))
    differs = False
    for name, lines in built.items():
        path = HERE / name
        old_lines = path.read_text().splitlines()
        new_lines = [line.rstrip("\n") for line in lines]
        out, changed, largest = diff_lines(old_lines, new_lines)
        summary = f"{name}: {changed} of {len(new_lines)} lines differ"
        for kind, label in (("other", "a number"), ("residual", "a residual")):
            if largest[kind] is not None:
                summary += f"; largest relative change of {label} {largest[kind]:.3g}"
        print(summary)
        for line in out:
            print(line)
        if changed and args.write:
            path.write_text("".join(lines))
            print(f"  written: {path.name}")
        differs = differs or bool(changed)
    return 1 if differs and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
