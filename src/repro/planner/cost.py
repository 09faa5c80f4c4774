"""The planner's estimates: statistics in, numbers out, no tuple touched.

Every formula here is a pre-execution estimate derived from
:class:`~repro.planner.statistics.SourceStatistics` summaries, printed by
EXPLAIN next to the observed value (bytes scanned and the expected skyline
size come straight from
:meth:`~repro.planner.statistics.SourceStatistics.estimated_bytes` and
paper Eq. 1, :func:`repro.skyline.estimate.expected_skyline_size`):

* **partition fanout** — expected number of *occupied* grid cells per
  source at the granularity the plan uses (per-dimension histogram masses
  give per-cell occupancy probabilities; the balls-in-bins expectation
  ``sum(1 - (1 - p_cell)^n)`` counts cells that receive at least one row);
* **expected join cardinality** — the classical ``n_l * n_r / max(ndv)``
  equi-join estimate over the join-key NDVs.

Example::

    partition_fanout(stats, ("a0", "a1"), cells=4)
    join_cardinality(left, right, "jkey", "jkey")
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.planner.statistics import SourceStatistics


def partition_fanout(
    stats: SourceStatistics,
    attributes: Sequence[str],
    cells: int,
    rows: float | None = None,
    correlation: float | None = None,
) -> float:
    """Expected occupied grid cells at ``cells`` per dimension.

    Per-dimension occupancy probabilities come from re-bucketing each
    attribute's histogram into ``cells`` buckets; assuming dimension
    independence, a cell's probability is the product of its
    per-dimension bucket masses, and the expectation of occupied cells
    is ``sum(1 - (1 - p)^n)`` over all cells.  Capped at both the cell
    count and the row count (each row occupies exactly one cell).

    ``correlation`` (mean pairwise ``|r|`` over ``attributes``, from
    :meth:`SourceStatistics.mean_abs_correlation`) shrinks the
    independence product: perfectly correlated dimensions occupy a
    1-D diagonal of cells, so the fanout exponent interpolates from
    ``d`` (independent) down to ``1`` (|r| = 1).
    """
    n = float(rows if rows is not None else stats.row_count)
    if n <= 0:
        return 1.0
    per_dimension: list[list[float]] = []
    for attribute in attributes:
        column = stats.column(attribute)
        if column is None or not column.histogram:
            per_dimension.append([1.0 / cells] * cells)
            continue
        per_dimension.append(_rebucket(column.histogram, cells))
    if not per_dimension:
        return 1.0
    expected = 0.0
    for probability in _cell_probabilities(per_dimension):
        if probability <= 0.0:
            continue
        expected += 1.0 - (1.0 - min(probability, 1.0)) ** n
    d = len(per_dimension)
    fanout = max(1.0, min(expected, float(cells**d), n))
    if correlation and d > 1:
        r = min(1.0, max(0.0, abs(correlation)))
        # Occupied cells scale like cells^d_eff with the effective
        # dimensionality d_eff = 1 + (d-1)(1-|r|).
        exponent = (1.0 + (d - 1) * (1.0 - r)) / d
        fanout = max(1.0, min(fanout**exponent, fanout))
    return fanout


def join_cardinality(
    left: SourceStatistics,
    right: SourceStatistics,
    left_key: str,
    right_key: str,
    rows_left: float | None = None,
    rows_right: float | None = None,
) -> float:
    """Equi-join estimate ``n_l * n_r / max(ndv_l, ndv_r)``."""
    n_l = float(rows_left if rows_left is not None else left.row_count)
    n_r = float(rows_right if rows_right is not None else right.row_count)
    ndv = max(left.key_ndv(left_key), right.key_ndv(right_key), 1.0)
    return max(1.0, n_l * n_r / ndv)


def _rebucket(histogram: Sequence[int], cells: int) -> list[float]:
    """Redistribute histogram mass into ``cells`` equal-width buckets."""
    total = float(sum(histogram))
    if total <= 0:
        return [1.0 / cells] * cells
    out = [0.0] * cells
    bins = len(histogram)
    for index, count in enumerate(histogram):
        if count == 0:
            continue
        # The source bin [index, index+1) / bins maps onto cell space.
        lo = index * cells / bins
        hi = (index + 1) * cells / bins
        mass = count / total
        start, stop = int(lo), min(int(math.ceil(hi)), cells)
        span = hi - lo
        for cell in range(start, max(stop, start + 1)):
            if cell >= cells:
                break
            overlap = min(hi, cell + 1) - max(lo, cell)
            if overlap > 0 and span > 0:
                out[cell] += mass * overlap / span
    return out


def _cell_probabilities(per_dimension: list[list[float]]):
    """Yield the product probability of every cell (cartesian product)."""
    if len(per_dimension) == 1:
        yield from per_dimension[0]
        return
    head, *rest = per_dimension
    for p in head:
        for q in _cell_probabilities(rest):
            yield p * q
