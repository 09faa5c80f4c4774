"""Benchmark: the DataSource storage backends behind one batch-scan API.

Two claims, both asserted:

* **Backend invisibility** — the engine produces the *identical result
  sequence* whether the same logical data lives in RAM
  (:class:`~repro.storage.table.Table`) or in an mmap-backed columnar
  directory (:class:`~repro.storage.sources.columnar.ColumnarFileSource`).

* **Bounded-memory planning** — planning (phases 0–2) straight off the
  columnar mmap allocates *less* Python memory than the in-memory path
  even when the columnar dataset is several times larger: lazy partitions
  store ``int64`` row ids instead of boxed row tuples, and the column
  data stays on disk behind the mmap.  Measured with ``tracemalloc``
  around (load +) plan; the in-memory baseline loads the *same* columnar
  file into a ``Table`` first — exactly what a RAM-resident deployment
  would have to do.

Results land in ``BENCH_storage_backends.json`` at the repository root;
a ``--smoke`` run writes nothing unless ``--out`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage_backends.py          # full
    PYTHONPATH=src python benchmarks/bench_storage_backends.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import tracemalloc

from repro.core.engine import ProgXeEngine
from repro.data.workloads import SyntheticWorkload
from repro.runtime.clock import VirtualClock
from repro.storage.sources import ColumnarFileSource, write_columnar
from repro.storage.table import Table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_storage_backends.json"
SEED = 20100301  # shared with the figure benches


def build_datasets(tmp: pathlib.Path, n: int, d: int):
    """One workload at size ``n`` in both backends; returns the dict."""
    workload = SyntheticWorkload(n=n, d=d, sigma=0.05, seed=SEED)
    tables = workload.tables()
    columnar = {}
    for alias, table in tables.items():
        path = tmp / f"{alias}_{n}.col"
        write_columnar(path, table)
        columnar[alias] = ColumnarFileSource(path, name=alias)
    return workload, {"memory": tables, "columnar": columnar}


def result_keys(workload, sources):
    engine = ProgXeEngine(workload.query().bind(sources), VirtualClock())
    return [r.key() for r in engine.run()]


def assert_backend_invisibility(tmp: pathlib.Path, n: int, d: int) -> dict:
    """Identical result sequences across the two backends."""
    workload, backends = build_datasets(tmp, n, d)
    reference = None
    timings = {}
    for backend, sources in backends.items():
        wall0 = time.perf_counter()
        keys = result_keys(workload, sources)
        timings[backend] = round(time.perf_counter() - wall0, 4)
        if reference is None:
            reference = keys
        else:
            assert keys == reference, (
                f"{backend} result sequence diverged from memory"
            )
    print(
        f"  {len(reference or [])} identical results  "
        + "  ".join(f"{b}={t:.3f}s" for b, t in timings.items())
    )
    return {
        "n": n,
        "d": d,
        "checks": [{"results": len(reference or []), "wall_seconds": timings}],
    }


def _traced(fn):
    """``(peak_bytes, wall_seconds, value)`` of running ``fn`` under tracemalloc."""
    tracemalloc.start()
    wall0 = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - wall0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, wall, value


def plan_memory_profile(tmp: pathlib.Path, n: int, factor: int, d: int) -> dict:
    """Peak planning memory: in-RAM tables at ``n`` vs columnar at ``factor*n``."""
    workload_small, _ = build_datasets(tmp, n, d)
    big_n = factor * n
    workload_big, _ = build_datasets(tmp, big_n, d)
    columnar_small = {
        alias: ColumnarFileSource(tmp / f"{alias}_{n}.col", name=alias)
        for alias in ("R", "T")
    }

    def plan_in_memory():
        # The RAM-resident deployment: load the columnar file into Tables,
        # then plan — tuple/object materialisation is part of the cost.
        tables = {
            alias: Table(alias, src.schema, src.iter_rows())
            for alias, src in columnar_small.items()
        }
        engine = ProgXeEngine(workload_small.query().bind(tables), VirtualClock())
        engine.plan()
        return engine

    def plan_columnar():
        sources = {
            alias: ColumnarFileSource(tmp / f"{alias}_{big_n}.col", name=alias)
            for alias in ("R", "T")
        }
        engine = ProgXeEngine(workload_big.query().bind(sources), VirtualClock())
        engine.plan()
        return engine

    mem_peak, mem_wall, _ = _traced(plan_in_memory)
    col_peak, col_wall, _ = _traced(plan_columnar)

    profile = {
        "in_memory_rows_per_table": n,
        "columnar_rows_per_table": big_n,
        "size_factor": factor,
        "in_memory_plan_peak_bytes": mem_peak,
        "columnar_plan_peak_bytes": col_peak,
        "peak_ratio_columnar_over_memory": round(col_peak / mem_peak, 4),
        "in_memory_plan_wall_seconds": round(mem_wall, 4),
        "columnar_plan_wall_seconds": round(col_wall, 4),
    }
    print(
        f"  plan peak: memory(n={n}) {mem_peak/1e6:.1f} MB vs "
        f"columnar(n={big_n}) {col_peak/1e6:.1f} MB "
        f"(ratio {profile['peak_ratio_columnar_over_memory']})"
    )
    return profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: small n, relaxed memory assertion; no "
                        "JSON written unless --out is given explicitly")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        equiv_n, mem_n, factor, d = 500, 800, 3, 2
    else:
        equiv_n, mem_n, factor, d = 3000, 20000, 4, 2

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_storage_") as tmpdir:
        tmp = pathlib.Path(tmpdir)
        print(f"backend invisibility (n={equiv_n}, d={d}):")
        equivalence = assert_backend_invisibility(tmp, equiv_n, d)
        print(f"bounded-memory planning (factor {factor}x):")
        profile = plan_memory_profile(tmp, mem_n, factor, d)

    ratio = profile["peak_ratio_columnar_over_memory"]
    if args.smoke:
        assert ratio < 2.0, (
            f"columnar planning peak {ratio}x the in-memory peak at "
            f"{factor}x the data — lazy partitions are not engaging"
        )
    else:
        assert ratio < 1.0, (
            f"columnar planning at {factor}x the data should stay under the "
            f"in-memory peak, got ratio {ratio}"
        )

    payload = {
        "bench": "storage_backends",
        "smoke": args.smoke,
        "equivalence": equivalence,
        "planning_memory": profile,
        "claims": [
            "identical result sequences across memory/columnar backends",
            f"columnar planning at {factor}x the rows peaks at "
            f"{ratio}x the in-memory path's Python allocations",
        ],
    }
    out = args.out or (None if args.smoke else DEFAULT_OUT)
    if out is not None:
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
