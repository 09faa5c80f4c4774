"""Benchmark: streaming ingestion — patched replanning vs full replanning.

A follow query's inputs keep growing, and every arrival forces a
replanning decision for the *next* query over the same tables: with the
delta path the cached grids are **patched** with just the appended
suffix (``PartitionStore.get_or_patch``); without it every arrival is a
cache invalidation and the full table is re-partitioned from scratch.
This bench quantifies the phase-1 (partitioning) gap on both axes at
several arrival cadences (the pending suffix split into 1, 4, 8
arrival batches):

* **virtual time** — deterministic: a patch charges one ``cache_op``
  plus ``partition_op`` per *appended* row, a full replan charges
  ``partition_op`` per *total* row;
* **wall seconds** — the real latency of extending the cached grid vs
  re-partitioning the whole table.

Two equivalence properties are asserted **unconditionally** on every
run (smoke and full):

* *differential replay* — a :class:`~repro.core.streaming.StreamingKernel`
  fed the same arrival schedule emits exactly the one-shot batch result
  set over the final table contents, in a valid progressive order;
* *patch transparency* — after every arrival batch, the patched-plan
  query's result sequence is identical to a privately replanned twin's.

Results land in ``BENCH_streaming.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full run
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke    # CI scale
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.cache.plan_cache import PlanCache
from repro.core.engine import ProgXeEngine
from repro.core.plan import default_input_cells
from repro.data.workloads import SyntheticWorkload
from repro.runtime.clock import VirtualClock
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.storage.grid import GridPartitioner
from repro.storage.table import Table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_streaming.json"
SEED = 20100301  # shared with the figure benches
ALIASES = ("R", "T")
PREFIX_FRACTION = 0.5  # live prefix; the rest arrives mid-run


def split_tables(n: int, d: int, distribution: str):
    """Live-prefix tables plus the pending arrival rows per side."""
    workload = SyntheticWorkload(
        distribution=distribution, n=n, d=d, sigma=0.05, seed=SEED
    )
    live, arriving = {}, {}
    for alias, table in workload.tables().items():
        rows = list(table.rows)
        cut = max(1, int(len(rows) * PREFIX_FRACTION))
        live[alias] = Table.from_rows(alias, list(table.schema.columns), rows[:cut])
        arriving[alias] = rows[cut:]
    return workload, live, arriving


def chunk_schedule(arriving: dict, cadence: int) -> list[dict]:
    """Split each side's pending rows into ``cadence`` arrival batches."""
    batches = []
    for i in range(cadence):
        batch = {}
        for alias in ALIASES:
            rows = arriving[alias]
            size = (len(rows) + cadence - 1) // cadence
            batch[alias] = rows[i * size:(i + 1) * size]
        batches.append(batch)
    return batches


def differential_replay(workload, cadence: int, n: int, d: int, distribution: str):
    """Drive a follow kernel under the arrival schedule; assert replay."""
    _, live, arriving = split_tables(n, d, distribution)
    engine = ProgXeEngine(
        workload.query().bind(live), VirtualClock(), follow=True
    )
    kernel = engine.kernel()
    results = []
    for batch in chunk_schedule(arriving, cadence):
        for _ in range(25):
            results.extend(kernel.step().results)
        for alias in ALIASES:
            live[alias].extend_rows(batch[alias])
    kernel.close_ingest()
    while not kernel.finished:
        results.extend(kernel.step().results)

    one_shot = ProgXeEngine(workload.query().bind(live), VirtualClock())
    batch_keys = [r.key() for r in one_shot.run()]
    assert {r.key() for r in results} == set(batch_keys), (
        f"cadence={cadence}: streamed result set diverged from the "
        "one-shot batch run over the final table contents"
    )
    return {
        "results": len(results),
        "rows_ingested": kernel.rows_ingested,
        "polls": kernel.polls,
        "regions_added": kernel.regions_added,
        "cells_reopened": kernel.cells_reopened,
    }


def plan_once(session: Session, bound):
    """Plan + drain one query through ``session``; profile the planning."""
    instance, clock, _name = session.build_algorithm(bound)
    wall0 = time.perf_counter()
    instance.plan()
    plan_wall = time.perf_counter() - wall0
    keys = [r.key() for r in instance.run()]
    return {
        "plan_wall_seconds": plan_wall,
        "plan_vtime": clock.now(),
        "cache_events": instance.cache_events,
        "keys": keys,
    }


def partition_sides(bound):
    """``(table, attributes, join_attr, alias)`` per side, as the planner
    hands them to phase 1 (tables are live references — appends show)."""
    return [
        (bound.left_table, bound.left_map_attrs,
         bound.query.join.left_attr, bound.left_alias),
        (bound.right_table, bound.right_map_attrs,
         bound.query.join.right_attr, bound.right_alias),
    ]


def assert_patch_transparency(workload, live, arriving, cadence: int) -> dict:
    """Engine-level check: after every arrival, a patched plan's result
    set equals a full-replan twin's, and the plan really came out of the
    patch path.  Returns the patched session's final cache snapshot."""
    patched_session = Session()
    replan_session = Session(config=EngineConfig(share_partitions=False))
    # Query 1 plans cold and seeds the cache with the prefix grids.
    cold = plan_once(patched_session, workload.query().bind(live))
    assert cold["cache_events"] == {"partition_misses": 2}
    for i, batch in enumerate(chunk_schedule(arriving, cadence)):
        for alias in ALIASES:
            live[alias].extend_rows(batch[alias])
        bound = workload.query().bind(live)
        patched = plan_once(patched_session, bound)
        replanned = plan_once(replan_session, bound)
        # Identical result *sets* (a patched grid keeps the delta as
        # extension partitions, so the emission order may differ from a
        # freshly built grid's) — and pure patches, never a rebuild.
        assert set(patched["keys"]) == set(replanned["keys"]), (
            f"cadence={cadence}, arrival {i}: patched-plan results "
            "diverged from the full-replan twin"
        )
        assert patched["cache_events"] == {"partition_patched": 2}, (
            f"cadence={cadence}, arrival {i}: expected pure patches, "
            f"got {patched['cache_events']}"
        )
    cache_stats = patched_session.plan_cache.stats()
    assert cache_stats.patched == 2 * cadence
    assert cache_stats.invalidations == 0
    return cache_stats.as_dict()


def bench_cadence(cadence: int, n: int, d: int, distribution: str) -> dict:
    workload, live, arriving = split_tables(n, d, distribution)
    replay = differential_replay(workload, cadence, n, d, distribution)
    cache_snapshot = assert_patch_transparency(
        workload, live, arriving, cadence
    )

    # Phase-1 partitioning cost, measured in isolation: extend the cached
    # grid with the delta (the streaming path) vs re-partition the whole
    # table (what every arrival would cost without it).  Charges mirror
    # ``repro.core.plan._partition_side``.
    _, live2, arriving2 = split_tables(n, d, distribution)
    bound = workload.query().bind(live2)
    cache = PlanCache()
    patch_clock, replan_clock = VirtualClock(), VirtualClock()
    partitioners = {
        alias: GridPartitioner(default_input_cells(len(attrs)))
        for _table, attrs, _join, alias in partition_sides(bound)
    }
    for table, attrs, join_attr, alias in partition_sides(bound):
        _, outcome, _ = cache.get_or_partition_outcome(
            partitioners[alias], table, attrs, join_attr, source=alias
        )
        assert outcome == "miss"
    patch_wall = replan_wall = 0.0
    for batch in chunk_schedule(arriving2, cadence):
        for alias in ALIASES:
            live2[alias].extend_rows(batch[alias])
        for table, attrs, join_attr, alias in partition_sides(bound):
            wall0 = time.perf_counter()
            _, outcome, delta_rows = cache.get_or_partition_outcome(
                partitioners[alias], table, attrs, join_attr, source=alias
            )
            patch_wall += time.perf_counter() - wall0
            assert outcome == "patched", outcome
            patch_clock.charge("cache_op")
            patch_clock.charge("partition_op", delta_rows)

            fresh = GridPartitioner(default_input_cells(len(attrs)))
            wall0 = time.perf_counter()
            fresh.partition(table, attrs, join_attr, source=alias)
            replan_wall += time.perf_counter() - wall0
            replan_clock.charge("partition_op", len(table))

    patched_vtime = patch_clock.now() / cadence
    replan_vtime = replan_clock.now() / cadence
    patched_wall = patch_wall / cadence
    replan_wall = replan_wall / cadence
    vtime_speedup = round(replan_vtime / patched_vtime, 2)
    wall_speedup = round(replan_wall / patched_wall, 2)

    entry = {
        "cadence": cadence,
        "n": n,
        "d": d,
        "distribution": distribution,
        "rows_per_arrival": sum(
            len(rows) for rows in arriving2.values()
        ) // cadence,
        "replay": replay,
        "partitioning_vtime": {
            "patched_mean": round(patched_vtime, 2),
            "full_replan_mean": round(replan_vtime, 2),
            "speedup": vtime_speedup,
        },
        "partitioning_wall_seconds": {
            "patched_mean": round(patched_wall, 6),
            "full_replan_mean": round(replan_wall, 6),
            "speedup": wall_speedup,
        },
        "cache": cache_snapshot,
        "identical_results": True,  # asserted above
    }
    print(
        f"  cadence={cadence:>2}  phase-1 after each arrival:  "
        f"vtime {replan_vtime:>10.0f} -> {patched_vtime:>8.0f} "
        f"({vtime_speedup}x)   wall {replan_wall * 1e3:>8.2f}ms -> "
        f"{patched_wall * 1e3:>6.2f}ms ({wall_speedup}x)"
    )
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cadences", type=int, nargs="+", default=[1, 4, 8],
        help="arrival batch counts to measure (default: 1 4 8)",
    )
    # Smaller default than the planning-only benches: every cadence level
    # fully *executes* 2 queries per arrival (the transparency check) plus
    # a complete streamed run, not just the planning prologue.
    parser.add_argument("-n", type=int, default=8000, help="rows per table")
    parser.add_argument("-d", type=int, default=2, help="skyline dimensions")
    parser.add_argument(
        "--distribution", default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI scale: differential replay + patch transparency "
        "asserted, no JSON written unless --out is given explicitly",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    cadences = [4] if args.smoke else args.cadences
    if any(cadence < 1 for cadence in cadences):
        parser.error("--cadences entries must be >= 1")
    n = 2000 if args.smoke else args.n

    print("streaming-ingestion benchmark (patched vs full replanning)")
    print(
        f"  cadences={cadences}  n={n}  d={args.d}  "
        f"distribution={args.distribution}  seed={SEED}"
    )
    entries = [
        bench_cadence(cadence, n, args.d, args.distribution)
        for cadence in cadences
    ]

    for entry in entries:
        vt = entry["partitioning_vtime"]["speedup"]
        if args.smoke:
            assert vt > 1.2, (
                f"cadence={entry['cadence']}: patching should beat full "
                f"re-partitioning even at smoke scale, got {vt}x"
            )
        else:
            assert vt >= 1.8, (
                f"cadence={entry['cadence']}: expected >=1.8x phase-1 "
                f"vtime reduction from the patch path, got {vt}x"
            )
    if args.smoke:
        print(
            "  smoke OK: replay + patch transparency hold, "
            f"vtime speedup {entries[0]['partitioning_vtime']['speedup']}x"
        )

    out_path = args.out or (None if args.smoke else DEFAULT_OUT)
    if out_path is not None:
        payload = {
            "benchmark": "streaming ingestion (patched vs full replanning)",
            "command": "PYTHONPATH=src python benchmarks/bench_streaming.py",
            "metric": (
                "phase-1 partitioning cost after each arrival batch over "
                "growing tables: patching the cached grids with the delta "
                "vs re-partitioning the whole table (virtual time + wall "
                "seconds), with differential replay and patch "
                "transparency asserted"
            ),
            "seed": SEED,
            "python": sys.version.split()[0],
            "entries": entries,
        }
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
