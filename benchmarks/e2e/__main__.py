"""``python3 -m benchmarks.e2e`` — the repository's benchmark command.

Two ways to call it:

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
  once and prints, as the last line, the result object the benchmark driver
  reads (``correct`` / ``attempted`` / ``failed`` / ``metrics``).
* without ``--workload`` it runs the whole set ``--repeat`` times (default
  2), prints every metric by name with unit, sample count and run-to-run
  spread against the bound fixed in ``BENCHMARK.json``, and ends with one
  JSON record (machine fingerprint, seed, per-workload metrics).

``--smoke`` keeps the code path and the oracle but runs at n / 8 with at
most four queries per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

from benchmarks.e2e import ROOT
from benchmarks.e2e.metrics import load_contract, spread, supported
from benchmarks.e2e.runner import Outcome, run
from benchmarks.e2e.workloads import DEFAULT_SEED, DRAW, WORKLOADS

SMOKE_DIVISOR = 8
SMOKE_SECONDS = 1.0
SMOKE_MAX_QUERIES = 4


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable); default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds the inputs: row order, ids, join-key labels")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics) instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help=f"n / {SMOKE_DIVISOR}, <= {SMOKE_MAX_QUERIES} queries per workload")
    parser.add_argument("--repeat", type=int, default=None,
                        help="runs of the set in this invocation (default 2; 1 with --workload or --smoke)")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    repeat = args.repeat or (1 if args.workload or args.smoke else 2)
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in contract[group]}

    runs: dict[str, list[Outcome]] = {name: [] for name in names}
    for _ in range(repeat):
        for name in names:
            workload = WORKLOADS[name]
            outcome = run(
                workload.scaled(SMOKE_DIVISOR) if args.smoke else workload,
                seed=args.seed, traced=bool(args.trace),
                seconds=SMOKE_SECONDS if args.smoke else args.seconds,
                max_queries=SMOKE_MAX_QUERIES if args.smoke else None,
            )
            if outcome.correct and set(outcome.metrics) != set(declared):
                outcome.failed += 1
                outcome.failures.append(
                    "metrics differ from BENCHMARK.json: "
                    f"{sorted(set(outcome.metrics) ^ set(declared))}"
                )
            runs[name].append(outcome)
            report(outcome, declared)

    ok = all(o.correct for outcomes in runs.values() for o in outcomes)
    if repeat > 1:
        report_spread(runs, declared)
    if len(names) == 1 and repeat == 1:
        record = contract_result(runs[names[0]][0], declared)
    else:
        record = full_record(args, runs, declared, group)
    print(json.dumps(record))
    return 0 if ok else 1


def report(outcome: Outcome, declared: dict) -> None:
    print(f"== {outcome.workload}: attempted={outcome.attempted} failed={outcome.failed} "
          f"samples={outcome.samples} oracle={'ok' if outcome.correct else 'FAILED'} "
          f"speed={outcome.speed:.3f} (durations were divided by it; raw = shown x speed)")
    for why in outcome.failures:
        print(f"   failure: {why}")
    for name, value in outcome.metrics.items():
        unit = declared.get(name, {}).get("unit", "?")
        line = f"   {name:<48}{value:>16.6g} {unit:<6} n={outcome.samples}"
        # The client's percentiles come from the reference window.
        quantile = 0.9 if "_p90" in name else 0.5 if "_p50" in name else None
        n = int(outcome.metrics.get("client.samples", outcome.samples))
        if quantile is not None and not supported(n, quantile):
            line += f"  (n={n}: under ten samples beyond the percentile)"
        print(line)
    sys.stdout.flush()


def report_spread(runs: dict[str, list[Outcome]], declared: dict) -> None:
    """Run-to-run spread per metric against its bound; a metric whose spread
    exceeds its bound cannot resolve a change of that size: ``unresolved``."""
    print("== spread over runs: (max - min) / median")
    for workload, outcomes in runs.items():
        for name in outcomes[0].metrics:
            bound = declared.get(name, {}).get("bound")
            value = spread(o.metrics[name] for o in outcomes if name in o.metrics)
            verdict = "" if bound is None else ("ok" if value <= bound else "unresolved")
            print(f"   {workload:<14}{name:<48}{value:>9.4f}"
                  + (f"  bound {bound:g}  {verdict}" if bound is not None else ""))
        counts = {json.dumps(o.result_counts, sort_keys=True) for o in outcomes}
        print(f"   {workload:<14}result counts {'repeat exactly' if len(counts) == 1 else 'DIFFER'}")


def contract_result(outcome: Outcome, declared: dict) -> dict:
    """The object the benchmark driver reads from the last line."""
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"]}
            for name, value in outcome.metrics.items() if name in declared
        },
    }


def full_record(args, runs: dict[str, list[Outcome]], declared: dict, group: str) -> dict:
    return {
        "benchmark": "benchmarks.e2e",
        "claim": None,
        "machine": fingerprint(),
        "seed": args.seed,
        "draw": DRAW,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "group": group,
        "workloads": {
            name: {
                "runs": [contract_result(o, declared) | {"samples": o.samples,
                                                         "result_counts": o.result_counts,
                                                         "failures": o.failures}
                         for o in outcomes],
                "median": {
                    metric: statistics.median(o.metrics[metric] for o in outcomes)
                    for metric in outcomes[0].metrics
                    if all(metric in o.metrics for o in outcomes)
                },
            }
            for name, outcomes in runs.items()
        },
    }


def fingerprint() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    raise SystemExit(main())
