"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import tuple_level
from repro.data.workloads import SyntheticWorkload
from repro.join.nested_loop import nested_loop_join
from repro.join.predicates import EquiJoin
from repro.query.smj import BoundQuery
from repro.skyline.bnl import bnl_skyline_entries

#: Phase-2 flush granularities worth running a guarantee at: the default,
#: and one join pair per ``insert_batch`` call (the finest the engine has).
FLUSH_SIZES = [None, 1]
FLUSH_IDS = ["batch-default", "batch-1"]


def set_flush_pairs(monkeypatch, pairs: int | None) -> None:
    """Flush a region's join every ``pairs`` pairs; ``None`` keeps the default."""
    if pairs is not None:
        monkeypatch.setattr(tuple_level, "FLUSH_PAIRS", pairs)


def oracle_candidates(bound: BoundQuery) -> list[tuple[tuple[float, ...], tuple]]:
    """All mapped join results of a bound query, via the oracle join."""
    predicate = EquiJoin(bound.left_join_index, bound.right_join_index)
    out = []
    for lrow, rrow in nested_loop_join(
        bound.left_table.rows, bound.right_table.rows, predicate
    ):
        mapped = bound.map_pair(lrow, rrow)
        out.append((bound.vector_of(mapped), (lrow, rrow)))
    return out


def oracle_skyline_keys(bound: BoundQuery) -> set[tuple]:
    """Identity keys of the true final skyline (brute force)."""
    candidates = oracle_candidates(bound)
    return {payload for _, payload in bnl_skyline_entries(candidates)}


def mean_cone_size_from_scratch(grid) -> float:
    """``OutputGrid.mean_cone_size`` recounted from the cells themselves."""
    live = [c for c in grid.cells.values() if not c.marked]
    if not live:
        return 1.0
    total = sum(len(c.cone_lower) + len(c.cone_upper) + 1 for c in live)
    return total / len(live)


@pytest.fixture
def small_bound() -> BoundQuery:
    """A small independent 2-d workload most suites can share."""
    return SyntheticWorkload(
        distribution="independent", n=120, d=2, sigma=0.05, seed=42
    ).bound()


@pytest.fixture
def anti_bound() -> BoundQuery:
    """A small anti-correlated 3-d workload (large skyline)."""
    return SyntheticWorkload(
        distribution="anticorrelated", n=100, d=3, sigma=0.05, seed=7
    ).bound()


def make_bound(
    distribution: str = "independent",
    n: int = 100,
    d: int = 2,
    sigma: float = 0.05,
    seed: int = 0,
    skew: float | None = None,
) -> BoundQuery:
    """Parametrised workload builder for property tests."""
    return SyntheticWorkload(
        distribution=distribution, n=n, d=d, sigma=sigma, seed=seed, skew=skew
    ).bound()
