"""Every region the look-ahead builds holds at least one join pair.

Region-level elimination (Example 2) and cell premarking (Example 3) let
any live region prune others with its upper corner: the region must hold a
tuple ``v <= upper``.  That is sound only because a region exists just for
partition pairs whose exact signatures share a join value.  These
properties check the fact itself against the partitions' rows — for the
grid and the quad-tree, for a static plan and for every region a follow
kernel builds while rows arrive.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import STEP_INGEST
from repro.core.lookahead import build_regions, run_lookahead
from repro.core.plan import QueryPlan
from repro.core.streaming import StreamingKernel
from repro.data.workloads import (
    RefinementWorkload,
    SupplyChainWorkload,
    SyntheticWorkload,
    TravelWorkload,
)
from repro.runtime.clock import VirtualClock
from repro.storage.grid import GridPartitioner
from repro.storage.quadtree import QuadTreePartitioner
from repro.storage.table import Table

PARTITIONINGS = ["grid", "quadtree"]

workloads = st.builds(
    SyntheticWorkload,
    distribution=st.sampled_from(["independent", "anticorrelated", "correlated"]),
    n=st.integers(min_value=8, max_value=80),
    d=st.integers(min_value=1, max_value=3),
    sigma=st.sampled_from([0.01, 0.05, 0.3]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def has_join_pair(bound, region) -> bool:
    """Whether some left row of the region's pair joins some right row."""
    keys = {row[bound.left_join_index] for row in region.left_partition.rows}
    return any(
        row[bound.right_join_index] in keys
        for row in region.right_partition.rows
    )


def partitioner(kind: str):
    return QuadTreePartitioner(6) if kind == "quadtree" else GridPartitioner(3)


def structures(bound, kind):
    p = partitioner(kind)
    left = p.partition(bound.left_table, bound.left_map_attrs,
                       bound.query.join.left_attr, source=bound.left_alias)
    right = p.partition(bound.right_table, bound.right_map_attrs,
                        bound.query.join.right_attr, source=bound.right_alias)
    return left, right


def result_vectors(bound):
    """The mapped vector of every join result."""
    jl, jr = bound.left_join_index, bound.right_join_index
    by_key = {}
    for row in bound.right_table.rows:
        by_key.setdefault(row[jr], []).append(row)
    return [
        bound.vector_of(bound.map_pair(lrow, rrow))
        for lrow in bound.left_table.rows
        for rrow in by_key.get(lrow[jl], ())
    ]


def dominated_by_a_result(corner, vectors) -> bool:
    return any(
        all(v <= c for v, c in zip(vec, corner))
        and any(v < c for v, c in zip(vec, corner))
        for vec in vectors
    )


def assert_pruning_is_witnessed(bound, kind, cells=4):
    """Every region the look-ahead discards and every cell it premarks is
    dominated wholesale by a real join result, not by an empty region."""
    left, right = structures(bound, kind)
    built = build_regions(bound, left, right, VirtualClock())
    regions, grid = run_lookahead(bound, left, right, cells, VirtualClock())
    assert all(has_join_pair(bound, r) for r in built)
    vectors = result_vectors(bound)
    kept = {r.rid for r in regions}
    for r in built:
        if r.rid not in kept:
            assert dominated_by_a_result(r.lower, vectors)
    for cell in grid.cells.values():
        if cell.marked:
            assert dominated_by_a_result(cell.lower, vectors)


@pytest.mark.parametrize("kind", PARTITIONINGS)
@given(workload=workloads)
@settings(max_examples=40, deadline=None)
def test_every_static_region_joins(kind, workload):
    bound = workload.bound()
    left, right = structures(bound, kind)
    regions = build_regions(bound, left, right, VirtualClock())
    assert all(has_join_pair(bound, r) for r in regions)
    # No joining pair is left without a region.
    built = {(r.left_partition, r.right_partition) for r in regions}
    for lp in left:
        for rp in right:
            if (lp, rp) not in built:
                keys = {row[bound.left_join_index] for row in lp.rows}
                assert not any(
                    row[bound.right_join_index] in keys for row in rp.rows
                )


@pytest.mark.parametrize("kind", PARTITIONINGS)
@given(workload=workloads.filter(lambda w: w.d >= 2))
@settings(max_examples=30, deadline=None)
def test_pruning_is_witnessed_by_a_result(kind, workload):
    assert_pruning_is_witnessed(workload.bound(), kind)


FAMILIES = {
    "supply-chain": SupplyChainWorkload(n_suppliers=90, n_transporters=90, seed=3),
    "travel": TravelWorkload(n_rome=80, n_paris=80, seed=4),
    "refinement": RefinementWorkload(n_products=80, n_offers=80, seed=5),
    "anticorrelated-3d": SyntheticWorkload(
        distribution="anticorrelated", n=90, d=3, sigma=0.1, seed=2
    ),
}


@pytest.mark.parametrize("kind", PARTITIONINGS)
@pytest.mark.parametrize("family", FAMILIES)
def test_pruning_is_witnessed_on_every_workload_family(family, kind):
    assert_pruning_is_witnessed(FAMILIES[family].bound(), kind)


@pytest.mark.parametrize("kind", PARTITIONINGS)
@given(
    workload=workloads.filter(lambda w: w.d >= 2),
    frac=st.sampled_from([0.3, 0.6]),
    chunks=st.lists(
        st.tuples(st.sampled_from(["R", "T"]), st.integers(1, 30)),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=25, deadline=None)
def test_every_streamed_region_joins(kind, workload, frac, chunks):
    full = workload.tables()
    tables = {
        alias: Table(alias, list(t.schema.columns),
                     t.rows[: max(1, int(len(t.rows) * frac))])
        for alias, t in full.items()
    }
    bound = workload.query().bind(tables)
    plan = QueryPlan.build(
        bound, VirtualClock(), follow=True, partitioning=kind,
        leaf_capacity=6, input_cells=3 if kind == "grid" else None,
    )
    kernel = StreamingKernel(plan)
    kernel.step()  # bootstrap
    for alias, size in chunks:
        table = tables[alias]
        table.extend_rows(full[alias].rows[len(table): len(table) + size])
        while not kernel.finished and kernel.step().kind != STEP_INGEST:
            pass
        assert all(has_join_pair(bound, r) for r in kernel.state.regions.values())
    kernel.close_ingest()
    while not kernel.finished:
        kernel.step()
    assert all(has_join_pair(bound, r) for r in kernel.state.regions.values())
