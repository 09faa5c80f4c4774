"""Benchmark: planning wall time — look-ahead and kernel set-up before the
first tuple.

ProgXe plans before it touches a tuple: phase 2's output-space look-ahead
(signature pruning, region boxes, cell coverage, cones) and the kernel's
EL-graph build put a floor under time-to-first-result.  This bench times
that floor for each query shape of ``benchmarks/e2e`` and for ROADMAP item
7's independent 100k-per-side query under the ``default`` preset: the
best of 7 builds of ``ProgXeEngine(...).kernel()`` over a warm partition
cache (phase 1 is a cache hit, as for every query after the first), with
the look-ahead alone (``run_lookahead``) timed inside the same builds.
Each row also records the plan's shape and its planning charges, which
must not move between the rows of two commits.

A second section times push-through (the ProgXe+ variants' phase 0) on
item 7's query, ``SyntheticWorkload(dist, n, d=3, sigma=0.001, seed=7)``,
at 30k and 100k per side on independent and anticorrelated data: one
run of ``ProgXeEngine(bound, VirtualClock(), pushthrough=True,
verify=False)``, with the wall time of each side's ``prune_source`` call
inside planning, the drain, time-to-first and time-to-last result, the
rows each side keeps and the ``dominance_cmp`` charged.

A third section times ProgOrder's ranking, the kernel's ``rank_fn``
(``region_benefit`` over ``region_cost``), over whole executions: each e2e
query shape drained in process (``ProgXeEngine(...).kernel()`` stepped to
the end over a warm partition cache) and one ``ingest-follow`` session
(``benchmarks.e2e.ingest.follow_session``).  A row holds the best-of-5
wall seconds, the rank calls and the seconds inside ``region_benefit``
(timed in one extra, instrumented run), and the vtime, steps and results,
which must not move between the rows of two commits.

Rows are stored under a label, so one JSON holds the parent commit's
numbers next to the change's: run the script once per tree.

Usage::

    PYTHONPATH=src python benchmarks/bench_planning.py --label after
    PYTHONPATH=/path/to/parent/src python benchmarks/bench_planning.py --label before
    PYTHONPATH=src python benchmarks/bench_planning.py --section pushthrough
    PYTHONPATH=src python benchmarks/bench_planning.py --section ordering
    PYTHONPATH=src python benchmarks/bench_planning.py --smoke    # CI scale
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_planning.json"
if str(REPO_ROOT) not in sys.path:  # the e2e workloads live beside this file
    sys.path.insert(0, str(REPO_ROOT))

import repro.core.kernel as kernel_module  # noqa: E402
import repro.core.plan as plan_module  # noqa: E402
from benchmarks.e2e.ingest import follow_session  # noqa: E402
from benchmarks.e2e.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from repro.cache.plan_cache import PlanCache  # noqa: E402
from repro.core.engine import ProgXeEngine  # noqa: E402
from repro.data.workloads import SyntheticWorkload  # noqa: E402
from repro.planner.choose import Planner  # noqa: E402
from repro.runtime.clock import VirtualClock  # noqa: E402
from repro.session.config import EngineConfig  # noqa: E402
from repro.session.service import Session  # noqa: E402

REPEATS = 7
#: The planning charges; a row's counts are the same before and after.
CHARGES = ("partition_op", "discard", "graph_op", "cache_op")
#: Push-through section: rows per side, at full and at smoke scale.
PUSHTHROUGH_SIZES = (30_000, 100_000)
PUSHTHROUGH_SMOKE_SIZES = (2_000, 6_000)
#: Ordering section: timed runs per row.
ORDERING_REPEATS = 5


def shapes(smoke: bool):
    """``(name, bound, preset)`` for each e2e query shape, then item 7's."""
    for workload in WORKLOADS.values():
        if smoke:
            workload = workload.scaled(8)
        session = Session().register_tables(workload.tables(DEFAULT_SEED))
        for spec in workload.queries:
            preset = spec.request.get("preset", "default")
            yield f"{workload.name}/{spec.name}", session.sql(spec.sql()), preset
    n = 4_000 if smoke else 100_000
    bound = SyntheticWorkload("independent", n=n, d=3, sigma=0.001, seed=7).bound()
    yield f"item7-independent-{n // 1000}k/default", bound, "default"


def engine_kwargs(preset: str, planner: Planner) -> dict:
    config = EngineConfig.preset(preset)
    kwargs = config.engine_kwargs()
    if config.planner:
        kwargs["planner"] = planner
    return kwargs


def time_planning(bound, preset: str, repeats: int) -> dict:
    """Best-of-``repeats`` planning and look-ahead seconds over a warm
    cache, plus the last build's plan shape and charges."""
    cache, planner = PlanCache(), Planner()
    kwargs = engine_kwargs(preset, planner)
    ProgXeEngine(bound, VirtualClock(), cache=cache, **kwargs).kernel()  # warm
    lookahead = plan_module.run_lookahead
    spent: list[float] = []

    def timed(*args, **kw):
        start = time.perf_counter()
        try:
            return lookahead(*args, **kw)
        finally:
            spent.append(time.perf_counter() - start)

    best = best_lookahead = float("inf")
    plan_module.run_lookahead = timed
    try:
        for _ in range(repeats):
            clock = VirtualClock()
            start = time.perf_counter()
            kernel = ProgXeEngine(bound, clock, cache=cache, **kwargs).kernel()
            best = min(best, time.perf_counter() - start)
            best_lookahead = min(best_lookahead, spent[-1])
    finally:
        plan_module.run_lookahead = lookahead
    grid = kernel.plan.grid
    return {
        "planning_ms": round(best * 1e3, 3),
        "lookahead_ms": round(best_lookahead * 1e3, 3),
        "regions": len(kernel.plan.regions),
        "cells": grid.active_count,
        "marked": grid.marked_count,
        "charges": {k: clock.count(k) for k in CHARGES},
    }


def identical_replans(bound, preset: str) -> bool:
    """Two builds over one warm cache give the same plan and charges."""
    cache, planner = PlanCache(), Planner()
    kwargs = engine_kwargs(preset, planner)
    ProgXeEngine(bound, VirtualClock(), cache=cache, **kwargs).kernel()  # warm
    seen = []
    for _ in range(2):
        clock = VirtualClock()
        kernel = ProgXeEngine(bound, clock, cache=cache, **kwargs).kernel()
        seen.append((
            [(r.rid, r.lower, r.upper, r.in_degree, r.out_edges)
             for r in kernel.plan.regions],
            [(c.coords, c.pending, [x.coords for x in c.cone_lower])
             for c in kernel.plan.grid.cells.values()],
            clock.snapshot(),
        ))
    return seen[0] == seen[1]


def time_pushthrough(bound) -> dict:
    """One ProgXe+ run: planning with each side's ``prune_source`` call
    timed inside it, then the drain, step by step."""
    prune = plan_module.prune_source
    pruning: list[float] = []

    def timed(*args, **kw):
        start = time.perf_counter()
        try:
            return prune(*args, **kw)
        finally:
            pruning.append(time.perf_counter() - start)

    clock = VirtualClock()
    plan_module.prune_source = timed
    try:
        start = time.perf_counter()
        kernel = ProgXeEngine(bound, clock, pushthrough=True, verify=False).kernel()
        planning = time.perf_counter() - start
    finally:
        plan_module.prune_source = prune
    planning_cmp = clock.count("dominance_cmp")
    first, results = None, 0
    while not kernel.finished:
        results += len(kernel.step().results)
        if results and first is None:
            first = time.perf_counter() - start
    last = time.perf_counter() - start
    pruned = kernel.plan.prune_stats
    return {
        "planning_s": round(planning, 3),
        "prune_s": [round(t, 3) for t in pruning],
        "drain_s": round(last - planning, 3),
        "ttfr_s": round(first if first is not None else last, 3),
        "ttl_s": round(last, 3),
        "results": results,
        "kept": [len(bound.left_table) - pruned.get("left_pruned", 0),
                 len(bound.right_table) - pruned.get("right_pruned", 0)],
        "dominance_cmp": {"planning": planning_cmp, "total": clock.count("dominance_cmp")},
    }


def pushthrough_rows(smoke: bool) -> dict:
    rows = {}
    for dist in ("independent", "anticorrelated"):
        for n in PUSHTHROUGH_SMOKE_SIZES if smoke else PUSHTHROUGH_SIZES:
            bound = SyntheticWorkload(dist, n=n, d=3, sigma=0.001, seed=7).bound()
            name = f"{dist}-{n // 1000}k"
            row = rows[name] = time_pushthrough(bound)
            print(
                f"  {name:32s} planning {row['planning_s']:7.3f} s  "
                f"prune {'+'.join(f'{t:.3f}' for t in row['prune_s'])} s  "
                f"TTL {row['ttl_s']:7.3f} s  kept {row['kept']}  "
                f"cmp {row['dominance_cmp']['planning']:,}"
            )
            if smoke:
                again = time_pushthrough(bound)
                for key in ("kept", "results", "dominance_cmp"):
                    assert again[key] == row[key], f"{name}: {key} differs"
    return rows


def ordering_runs(smoke: bool):
    """``(name, run)`` per e2e query shape and the ``ingest-follow``
    session; ``run()`` executes once and returns ``(vtime, steps,
    results)``."""
    for workload in WORKLOADS.values():
        if smoke:
            workload = workload.scaled(8)
        tables = workload.tables(DEFAULT_SEED)
        session = Session().register_tables(tables)
        for spec in workload.queries:
            preset = spec.request.get("preset", "default")
            cache, planner = PlanCache(), Planner()
            kwargs = engine_kwargs(preset, planner)

            def drain(bound=session.sql(spec.sql()), cache=cache, kwargs=kwargs):
                clock = VirtualClock()
                kernel = ProgXeEngine(bound, clock, cache=cache, **kwargs).kernel()
                results = 0
                while not kernel.finished:
                    results += len(kernel.step().results)
                return clock.now(), kernel.steps, results

            yield f"{workload.name}/{spec.name}", drain
        if workload.chunks:

            def follow(tables=tables, workload=workload):
                record = follow_session(
                    tables, workload, workload.n, deadline=time.perf_counter() + 600
                )
                assert not record.failures, record.failures
                stats = record.stats
                return stats["vtime"], stats["steps"], stats["results"]

            yield f"{workload.name}/session", follow


def time_ordering(run, repeats: int) -> dict:
    """Best-of-``repeats`` wall seconds of ``run``, then one run with
    ``region_benefit`` counted and timed."""
    run()  # warm: the partition cache, the planner's statistics
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = run()
        best = min(best, time.perf_counter() - start)
    benefit = kernel_module.region_benefit
    spent: list[float] = []

    def timed(*args):
        start = time.perf_counter()
        try:
            return benefit(*args)
        finally:
            spent.append(time.perf_counter() - start)

    kernel_module.region_benefit = timed
    try:
        counted = run()
    finally:
        kernel_module.region_benefit = benefit
    assert counted == outcome, f"instrumented run differs: {counted} != {outcome}"
    vtime, steps, results = outcome
    return {
        "wall_s": round(best, 4),
        "rank_calls": len(spent),
        "rank_s": round(sum(spent), 4),
        "vtime": vtime,
        "steps": steps,
        "results": results,
    }


def ordering_rows(smoke: bool) -> dict:
    rows = {}
    for name, run in ordering_runs(smoke):
        row = rows[name] = time_ordering(run, 2 if smoke else ORDERING_REPEATS)
        print(
            f"  {name:32s} wall {row['wall_s']:8.4f} s  "
            f"rank {row['rank_s']:7.4f} s / {row['rank_calls']} calls  "
            f"{row['steps']} steps, {row['results']} results"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="after",
        help="row set to write: 'after' (default) or 'before' (run in the "
        "parent commit's tree)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI scale (workloads at n/8, item 7 at 4k, 2 repeats): checks "
        "that replanning is deterministic; no JSON written unless --out",
    )
    parser.add_argument(
        "--section", choices=("all", "shapes", "pushthrough", "ordering"),
        default="all", help="which section to run and write (default: all)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else REPEATS
    run_shapes = args.section in ("all", "shapes")

    rows = {}
    if run_shapes:
        print(f"planning benchmark ({args.label}): best of {repeats}, warm cache")
    for name, bound, preset in shapes(args.smoke) if run_shapes else ():
        row = time_planning(bound, preset, repeats)
        rows[name] = row
        print(
            f"  {name:32s} planning {row['planning_ms']:9.2f} ms  "
            f"look-ahead {row['lookahead_ms']:9.2f} ms  "
            f"{row['regions']} regions, {row['cells']} cells"
        )
        if args.smoke:
            assert identical_replans(bound, preset), f"{name}: replans differ"
    if args.smoke and run_shapes:
        print("  smoke OK: every shape replans to an identical plan")
    pushed = {}
    if args.section in ("all", "pushthrough"):
        print(f"push-through ({args.label}): one ProgXe+ run per input")
        pushed = pushthrough_rows(args.smoke)
        if args.smoke:
            print("  smoke OK: push-through reruns keep the same rows and charges")

    ordered = {}
    if args.section in ("all", "ordering"):
        print(f"ordering ({args.label}): best of "
              f"{2 if args.smoke else ORDERING_REPEATS} executions")
        ordered = ordering_rows(args.smoke)
        if args.smoke:
            print("  smoke OK: instrumented runs keep the same vtime, steps and results")

    out_path = args.out or (None if args.smoke else DEFAULT_OUT)
    if out_path is None:
        return 0
    payload = json.loads(out_path.read_text()) if out_path.exists() else {
        "benchmark": "planning wall time (look-ahead + EL-graph, warm cache)",
        "command": "PYTHONPATH=src python benchmarks/bench_planning.py --label after",
        "metric": (
            "best-of-7 wall ms of ProgXeEngine(...).kernel() over a warm "
            "partition cache (planning_ms) and of run_lookahead inside it "
            "(lookahead_ms), per e2e query shape and item 7's independent "
            "100k-per-side default query; charges are the plan's planning "
            "clock counts"
        ),
        "seed": DEFAULT_SEED,
        "rows": {},
    }
    host = {"python": sys.version.split()[0], "machine": platform.machine()}
    if run_shapes:
        payload["rows"][args.label] = {**host, "shapes": rows}
    if pushed:
        section = payload.setdefault("pushthrough", {
            "metric": (
                "one run of ProgXeEngine(bound, VirtualClock(), pushthrough="
                "True, verify=False) on SyntheticWorkload(dist, n, d=3, "
                "sigma=0.001, seed=7): wall seconds of planning (prune_s: "
                "each side's prune_source inside it), drain, TTFR and TTL; "
                "rows kept per side; dominance_cmp charged in planning and "
                "in total"
            ),
            "rows": {},
        })
        section["rows"][args.label] = {**host, "inputs": pushed}
    if ordered:
        section = payload.setdefault("ordering", {
            "metric": (
                "per e2e query shape (drained in process over a warm "
                "partition cache) and one ingest-follow session: best-of-5 "
                "wall seconds (wall_s); rank_fn's region_benefit calls and "
                "the seconds inside them, from one more instrumented run; "
                "vtime, steps and results, which the ordering must not move"
            ),
            "rows": {},
        })
        section["rows"][args.label] = {**host, "queries": ordered}
        before = section["rows"].get("before", {}).get("queries", {})
        section["speedup"] = {
            name: round(before[name]["wall_s"] / row["wall_s"], 2)
            for name, row in section["rows"].get("after", {}).get("queries", {}).items()
            if name in before
        }
    before = payload["rows"].get("before", {}).get("shapes", {})
    after = payload["rows"].get("after", {}).get("shapes", {})
    payload["speedup"] = {
        name: {
            key: round(before[name][key] / after[name][key], 2)
            for key in ("planning_ms", "lookahead_ms")
        }
        for name in after
        if name in before
    }
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"  wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
