"""Benchmark: the vectorized skyline kernel vs the scalar reference loop.

Unlike the figure-reproduction benches (which report deterministic virtual
time), this bench measures *wall-clock* seconds: its entire point is that
the matrix formulation of the dominance/window kernels makes the same
work run faster on real hardware.  It measures the **kernel**: scalar
``bnl_skyline`` (the library's independent reference) vs ``skyline_mask``
(the kernel of the engine, push-through and the blocking baselines' batch
skylines) over synthetic point clouds at 10k/100k tuples.

Every measurement asserts that scalar and vectorized produce *identical*
result multisets — the scalar loop is the oracle.  Results land in
``BENCH_vectorized.json`` at the repository root so the project's
performance trajectory is recorded alongside the code.

Usage::

    PYTHONPATH=src python benchmarks/bench_vectorized.py            # full run
    PYTHONPATH=src python benchmarks/bench_vectorized.py --smoke    # CI scale
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections import Counter

import numpy as np

from repro.skyline.bnl import bnl_skyline
from repro.skyline.vectorized import skyline_mask

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_vectorized.json"
SEED = 20100301  # shared with the figure benches

#: (workload label, dimension, generator) — anticorrelated data has a huge
#: skyline, so it is only run at the smaller sizes (the scalar loop is
#: quadratic in the window there).
KERNEL_WORKLOADS = {
    "independent-3d": ("independent", 3),
    "anticorrelated-2d": ("anticorrelated", 2),
}

def generate_points(distribution: str, n: int, d: int, rng) -> np.ndarray:
    """Synthetic minimisation-space point cloud."""
    if distribution == "independent":
        return rng.random((n, d))
    if distribution == "anticorrelated":
        # Points near the hyperplane sum(x) = d/2: large skylines.
        base = rng.random((n, 1))
        noise = rng.normal(scale=0.05, size=(n, d))
        pts = 0.5 + (base - 0.5) * np.ones((1, d)) * np.linspace(1, -1, d) + noise
        return np.clip(pts, 0.0, 1.0)
    raise ValueError(f"unknown distribution {distribution!r}")


def multiset(vectors) -> Counter:
    return Counter(tuple(float(x) for x in v) for v in vectors)


def time_call(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def bench_kernels(sizes: list[int], anticorrelated_cap: int) -> list[dict]:
    entries = []
    rng = np.random.default_rng(SEED)
    for label, (distribution, d) in KERNEL_WORKLOADS.items():
        for n in sizes:
            if distribution == "anticorrelated" and n > anticorrelated_cap:
                continue
            pts = generate_points(distribution, n, d, rng)
            pts_rows = [tuple(row) for row in pts.tolist()]
            scalar_out, scalar_s = time_call(bnl_skyline, pts_rows)
            mask, vector_s = time_call(skyline_mask, pts)
            identical = multiset(scalar_out) == multiset(pts[mask])
            assert identical, (
                f"{label} n={n}: skyline_mask differs from the scalar oracle"
            )
            entry = {
                "layer": "kernel",
                "workload": label,
                "kernel": "skyline_mask",
                "n": n,
                "d": d,
                "skyline_size": len(scalar_out),
                "scalar_seconds": round(scalar_s, 4),
                "vectorized_seconds": round(vector_s, 4),
                "speedup": round(scalar_s / vector_s, 2) if vector_s else None,
                "identical": identical,
            }
            entries.append(entry)
            print(
                f"  {label:>18}  n={n:>7,}  "
                f"bnl {scalar_s:8.3f}s  skyline_mask {vector_s:8.3f}s  "
                f"speedup {entry['speedup']:>7}x  "
                f"|skyline|={len(scalar_out)}"
            )
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10_000, 100_000],
        help="kernel input sizes (default: 10000 100000)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI scale: equality assertions only, no JSON written "
        "unless --out is given explicitly",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    sizes = [500, 2_000] if args.smoke else args.sizes
    anticorrelated_cap = max(sizes) if args.smoke else 10_000

    print("vectorized-vs-scalar kernel benchmark")
    print(f"  sizes={sizes}  seed={SEED}")
    entries = bench_kernels(sizes, anticorrelated_cap)

    kernel_at_max = [e for e in entries if e["n"] == max(sizes)]
    best = max(e["speedup"] for e in kernel_at_max)
    print(f"  best kernel speedup at n={max(sizes):,}: {best}x")

    out_path = args.out or (None if args.smoke else DEFAULT_OUT)
    if out_path is not None:
        payload = {
            "benchmark": "skyline_mask vs the scalar BNL reference",
            "command": "PYTHONPATH=src python benchmarks/bench_vectorized.py",
            "seed": SEED,
            "sizes": sizes,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "entries": entries,
        }
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
