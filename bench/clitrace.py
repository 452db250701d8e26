"""Run the burntrack command with spans around the library's public functions.

Usage: python3 bench/clitrace.py SPANS_FILE [burntrack arguments...]

Behaves like the ``burntrack`` command (same stdout, same exit code) and
writes the spans of the run to SPANS_FILE: ``cli.import`` for importing
burntrack.cli, ``cli.main`` for the command itself, and the library's
spans under it.  burntrack must be importable (PYTHONPATH=src).
"""

import os
import sys
from time import perf_counter_ns

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = perf_counter_ns()
    import burntrack.cli

    t1 = perf_counter_ns()
    tracer.spans.append((-1, "cli.import", t0, t1, t1, None, None, None))
    tracer.install()
    try:
        return tracer.wrap("cli.main", burntrack.cli.main)(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
