"""Traced stand-in for ``python -m semiabel.cli``: runs the CLI's ``main``
under the span tracer and writes the span summary to a file.

Usage:  python semibench/child.py <summary.json> <cli arguments...>

The CLI's stdout and exit code pass through unchanged.
"""

import json
import sys
from pathlib import Path

from spans import Tracer


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    import semiabel.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.op(lambda: semiabel.cli.main(argv))
    finally:
        tracer.uninstall()
    Path(summary_path).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
