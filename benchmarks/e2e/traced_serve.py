"""``python -m benchmarks.e2e.traced_serve --trace-out PATH serve ...``

The benchmark's launcher for the traced pass: wraps the layers' public
callables (:func:`benchmarks.e2e.trace.install`), runs the unmodified
``repro`` CLI with the remaining arguments, and writes the spans to
``PATH`` after ``POST /shutdown`` has drained the server.
"""

from __future__ import annotations

import sys

from benchmarks.e2e.trace import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
