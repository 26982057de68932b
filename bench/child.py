"""Run one iotsla command in-process under the tracer.

Usage: ``python3 bench/child.py SPANS_OUT ARG...`` with ``src`` on
PYTHONPATH.  It behaves like ``python3 -m iotsla ARG...`` and also writes
the spans and counts of the call to SPANS_OUT as JSON.  The traced
``cli_session`` run starts it in place of ``python3 -m iotsla``.
"""

import importlib
import json
import sys

from spans import Tracer


def main() -> int:
    out_path, *argv = sys.argv[1:]
    cli = importlib.import_module("iotsla.cli")
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
