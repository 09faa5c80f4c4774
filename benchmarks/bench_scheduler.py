"""Benchmark: interleaved multi-query serving vs sequential execution.

The scheduler's reason to exist is *latency under concurrency*: with N
queries in flight, a sequential server makes query i wait for the full
runtime of every query before it, while the cooperative scheduler
interleaves kernel steps so every query's first provably-final results
surface almost immediately.  This bench quantifies that on the shared
virtual-time axis (deterministic across machines; wall-clock seconds are
reported alongside for flavour):

* **sequential** — queries run one after another; query i's
  time-to-first-result on the global timeline is the sum of the full
  virtual cost of queries ``0..i-1`` plus its own solo time-to-first.
* **interleaved** — all queries admitted to the
  :class:`~repro.session.scheduler.QueryScheduler` (fair share in virtual
  time, bounded bursts); time-to-first (and time-to-kth) is read off the
  scheduler's ``global_vtime`` timeline.

Every run asserts that each interleaved query's result *sequence* equals
its solo run's — scheduling must never change answers.  Results land in
``BENCH_scheduler.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py            # full run
    PYTHONPATH=src python benchmarks/bench_scheduler.py --smoke    # CI scale
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

from repro.data.workloads import SyntheticWorkload
from repro.session.service import Session

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_scheduler.json"
SEED = 20100301  # shared with the figure benches
KTH = 5  # the "k-th result" latency probe


def make_queries(count: int, n: int, d: int, distribution: str):
    return [
        SyntheticWorkload(
            distribution=distribution, n=n, d=d, sigma=0.05, seed=SEED + i
        ).bound()
        for i in range(count)
    ]


def solo_runs(session: Session, queries) -> list[dict]:
    """Run each query alone; collect its solo latency profile."""
    runs = []
    for bound in queries:
        wall0 = time.perf_counter()
        stream = session.execute(bound)
        stream.drain()
        wall = time.perf_counter() - wall0
        rec = stream.recorder
        runs.append(
            {
                "keys": [r.key() for r in stream.results],
                "ttf": rec.time_to_first(),
                "ttk": rec.events[KTH - 1].vtime if len(rec.events) >= KTH else None,
                "total_vtime": rec.total_vtime,
                "wall_seconds": wall,
            }
        )
    return runs


def sequential_timeline(solos) -> dict:
    """Global-timeline latencies when the queries run back to back."""
    ttf, ttk, offset = [], [], 0.0
    for solo in solos:
        if solo["ttf"] is not None:
            ttf.append(offset + solo["ttf"])
        if solo["ttk"] is not None:
            ttk.append(offset + solo["ttk"])
        offset += solo["total_vtime"]
    return {
        "mean_ttf_vtime": statistics.mean(ttf) if ttf else None,
        "mean_ttk_vtime": statistics.mean(ttk) if ttk else None,
        "total_vtime": offset,
        "wall_seconds": sum(s["wall_seconds"] for s in solos),
    }


def interleaved_timeline(session: Session, queries, solos) -> dict:
    """Run all queries under the scheduler; latencies off global_vtime."""
    scheduler = session.scheduler()
    handles = [scheduler.submit(bound) for bound in queries]
    first_wall: dict[int, float] = {}
    wall0 = time.perf_counter()
    for query, _result in scheduler.run():
        first_wall.setdefault(query.qid, time.perf_counter() - wall0)
    wall = time.perf_counter() - wall0

    for handle, solo in zip(handles, solos):
        got = [r.key() for r in handle.results]
        assert got == solo["keys"], (
            f"{handle.name}: interleaved result sequence differs from solo run"
        )
    ttf = [
        h.first_result_global_vtime
        for h in handles
        if h.first_result_global_vtime is not None
    ]
    ttk = [
        h.emission_global_vtimes[KTH - 1]
        for h in handles
        if len(h.emission_global_vtimes) >= KTH
    ]
    return {
        "mean_ttf_vtime": statistics.mean(ttf) if ttf else None,
        "mean_ttk_vtime": statistics.mean(ttk) if ttk else None,
        "total_vtime": scheduler.global_vtime,
        "wall_seconds": wall,
        "mean_ttf_wall": (
            statistics.mean(first_wall.values()) if first_wall else None
        ),
    }


def bench_level(concurrency: int, n: int, d: int, distribution: str) -> dict:
    queries = make_queries(concurrency, n, d, distribution)
    solos = solo_runs(Session(), queries)
    seq = sequential_timeline(solos)
    inter = interleaved_timeline(Session(), queries, solos)
    speedup_ttf = (
        round(seq["mean_ttf_vtime"] / inter["mean_ttf_vtime"], 2)
        if seq["mean_ttf_vtime"] and inter["mean_ttf_vtime"]
        else None
    )
    speedup_ttk = (
        round(seq["mean_ttk_vtime"] / inter["mean_ttk_vtime"], 2)
        if seq["mean_ttk_vtime"] and inter["mean_ttk_vtime"]
        else None
    )
    entry = {
        "concurrency": concurrency,
        "n": n,
        "d": d,
        "distribution": distribution,
        "results_per_query": [len(s["keys"]) for s in solos],
        "sequential": seq,
        "interleaved": inter,
        "ttf_speedup": speedup_ttf,
        "ttk_speedup": speedup_ttk,
        "identical": True,  # asserted above
    }
    def fmt(value, width):
        return "-" * width if value is None else format(value, f">{width}.0f")

    print(
        f"  N={concurrency:>2}  mean time-to-first  "
        f"sequential {fmt(seq['mean_ttf_vtime'], 12)}  "
        f"interleaved {fmt(inter['mean_ttf_vtime'], 10)}  "
        f"speedup {speedup_ttf or '-':>6}x   (k={KTH}th: {speedup_ttk or '-'}x)"
    )
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--levels", type=int, nargs="+", default=[2, 4, 8, 16],
        help="concurrency levels to measure (default: 2 4 8 16)",
    )
    parser.add_argument("-n", type=int, default=400, help="rows per table")
    parser.add_argument("-d", type=int, default=3, help="skyline dimensions")
    parser.add_argument(
        "--distribution", default="anticorrelated",
        choices=["independent", "correlated", "anticorrelated"],
        help="workload shape; anticorrelated has the serving-style profile "
        "(large skyline, early first results, long tail of regions)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI scale: 2 interleaved queries, result-set equality "
        "asserted, no JSON written unless --out is given explicitly",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    levels = [2] if args.smoke else args.levels
    n = 150 if args.smoke else args.n

    print("interleaved-vs-sequential scheduler benchmark")
    print(
        f"  levels={levels}  n={n}  d={args.d}  "
        f"distribution={args.distribution}  seed={SEED}"
    )
    entries = [
        bench_level(level, n, args.d, args.distribution)
        for level in levels
    ]

    by_level = {e["concurrency"]: e for e in entries}
    if 4 in by_level and not args.smoke:
        speedup = by_level[4]["ttf_speedup"]
        assert speedup is not None and speedup >= 2.0, (
            "mean time-to-first at 4 concurrent queries must be at least "
            f"2x better than sequential, got {speedup}x"
        )
    if args.smoke:
        smoke_speedup = entries[0]["ttf_speedup"]
        assert smoke_speedup is not None and smoke_speedup > 1.0, (
            "interleaving 2 queries should beat sequential time-to-first, "
            f"got {smoke_speedup}x"
        )
        print(f"  smoke OK: equality holds, ttf speedup {smoke_speedup}x")

    out_path = args.out or (None if args.smoke else DEFAULT_OUT)
    if out_path is not None:
        payload = {
            "benchmark": "cooperative multi-query scheduler vs sequential",
            "command": "PYTHONPATH=src python benchmarks/bench_scheduler.py",
            "metric": (
                "time-to-first/kth-result on the shared virtual-time "
                "timeline (global_vtime)"
            ),
            "seed": SEED,
            "kth": KTH,
            "python": sys.version.split()[0],
            "entries": entries,
        }
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
