"""End-to-end, wall-clock, layer-attributed benchmark of the progressive
SkyMapJoin engine, driven through ``repro.serve`` from outside the program.

Run it with ``python3 -m benchmarks.e2e`` from the repository root; see
``README.md`` in this directory for workloads, metrics and how to read the
trace output.
"""

import sys
from pathlib import Path

#: Repository root (holds ``BENCHMARK.json`` and ``src/``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

# The driver runs ``python3 -m benchmarks.e2e`` without PYTHONPATH; the
# program under test lives in the src layout next to this package.
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
