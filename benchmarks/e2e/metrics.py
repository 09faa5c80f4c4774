"""Metric arithmetic: percentiles with their sample-count rule, the
end-to-end metrics of one measured window, and run-to-run spread.

Names, units, directions and bounds live in ``BENCHMARK.json`` only; this
module computes values and checks them against that file.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Callable, Iterable, Sequence

import numpy as np

from benchmarks.e2e import ROOT
from benchmarks.e2e.client import QueryRecord


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``samples``."""
    return float(np.percentile(samples, q * 100)) if len(samples) else math.nan


def supported(n: int, q: float) -> bool:
    """A percentile is reported as evidence only with at least ten samples
    beyond it: p90 needs 100 samples, the median 20."""
    return n * (1.0 - q) >= 10.0 - 1e-9


def spread(values: Iterable[float]) -> float:
    """``(max - min) / median`` of one metric over repeated runs."""
    values = list(values)
    width = max(values) - min(values)
    median = statistics.median(values)
    return width / abs(median) if median else (math.inf if width else 0.0)


def passed(records: Sequence[QueryRecord]) -> list[QueryRecord]:
    return [r for r in records if not r.failures and r.complete_s is not None]


def end_to_end(
    records: Sequence[QueryRecord],
    *,
    window_s: float,
    cpu_s: float,
    peak_rss_mb: float,
    setup_s: Sequence[float],
    speed: float = 1.0,
) -> dict[str, float]:
    """The end-to-end metrics of one untraced measured window.

    ``speed`` is how many times slower than the reference the measured core
    ran during the window (:mod:`benchmarks.e2e.speed`); every duration is
    divided by it.  ``setup_s`` arrives corrected, each set-up by its own
    speed.

    Per-query values are reduced over the queries that passed every check
    (a failed query contributes to ``failed`` only): the median per query
    shape, averaged over the shapes of the rotation.  On a one-shape
    workload that is the plain median; on ``many-small`` a plain median
    would sit on the boundary between two shapes' clusters (0.05 s and
    0.5 s queries) and jump with the count on either side.
    """
    good = passed(records)
    with_results = [r for r in good if r.result_times]
    completed = max(1, len(good))
    return {
        "setup_s": statistics.median(setup_s),
        "ttfr_s_p50": _typical(with_results, lambda r: r.result_times[0]) / speed,
        "tt50_s_p50": _typical(
            with_results, lambda r: r.result_times[math.ceil(len(r.result_times) / 2) - 1]
        ) / speed,
        "ttl_s_p50": _typical(good, lambda r: r.complete_s) / speed,
        "result_delay_s_mean": _typical(
            with_results, lambda r: statistics.fmean(r.result_times)
        ) / speed,
        "queries_per_s": len(good) / (window_s / speed),
        "cpu_s_per_query": cpu_s / completed / speed,
        "peak_rss_mb": peak_rss_mb,
    }


def _typical(records: Sequence[QueryRecord], value: Callable[[QueryRecord], float]) -> float:
    by_shape: dict[str, list[float]] = {}
    for record in records:
        by_shape.setdefault(record.spec, []).append(value(record))
    if not by_shape:
        return math.nan
    return statistics.fmean(statistics.median(v) for v in by_shape.values())
