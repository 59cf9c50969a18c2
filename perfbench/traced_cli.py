"""``python -m momzeta`` with the benchmark's tracer installed.

Usage: traced_cli.py SPANS_FILE ARGS...  Runs momzeta.cli.main(ARGS) with
every layer wrapped, then writes the spans as JSON to SPANS_FILE.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from momzeta import cli

    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin("cli.main")
        try:
            code = cli.main(argv)
        finally:
            tracer.end(root)
    finally:
        tracer.uninstall()
    with open(spans_file, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
