"""Run one ``meshpool`` command under the tracer (quickstart with --trace 1).

Usage: python perfbench/cli_child.py SPANS_JSON MESHPOOL_ARGS...

The import of ``meshpool.cli`` is recorded as span ``cli.import``; the
command then runs through ``meshpool.cli.main`` with every public function
wrapped, and the spans are written to SPANS_JSON when it returns.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import meshpool.cli
    imported = time.perf_counter_ns()

    from tracer import Tracer

    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    tracer.install()
    try:
        return meshpool.cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
