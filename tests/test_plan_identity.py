"""The array look-ahead builds the very plan the per-pair loops built.

``tests/plan_reference.py`` keeps the loop forms of the pair test, the
region coverage, the cone wiring and the EL-graph edges.  Over small
random inputs, for grid and quad-tree partitioning, the array builders
must reproduce them exactly — region ids, boxes, expected sizes and
coverage; cells in activation order
with their region lists; cone lists in order and pending counts; edges and
in-degrees; per-kind clock charges — both for a static plan and for a
follow kernel wiring the regions of arriving rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elimination_graph import EliminationGraph
from repro.core.kernel import STEP_INGEST
from repro.core.lookahead import run_lookahead
from repro.core.output_grid import OutputGrid
from repro.core.plan import QueryPlan, default_output_cells
from repro.core.streaming import StreamingKernel
from repro.data.workloads import SyntheticWorkload
from repro.runtime.clock import VirtualClock
from repro.storage.grid import GridPartitioner
from repro.storage import signatures
from repro.storage.quadtree import QuadTreePartitioner
from repro.storage.signatures import ExactSignature, SignatureCodes, pair_overlap
from repro.storage.table import Table

from tests import plan_reference as reference

PARTITIONINGS = ["grid", "quadtree"]

workloads = st.builds(
    SyntheticWorkload,
    distribution=st.sampled_from(["independent", "anticorrelated", "correlated"]),
    n=st.integers(min_value=8, max_value=70),
    d=st.integers(min_value=1, max_value=3),
    sigma=st.sampled_from([0.02, 0.1, 0.5]),
    seed=st.integers(min_value=0, max_value=10_000),
)


def partitioner(kind: str):
    if kind == "quadtree":
        return QuadTreePartitioner(6)
    return GridPartitioner(3)


def structures(bound, kind):
    p = partitioner(kind)
    return (
        p.partition(bound.left_table, bound.left_map_attrs,
                    bound.query.join.left_attr, source=bound.left_alias),
        p.partition(bound.right_table, bound.right_map_attrs,
                    bound.query.join.right_attr, source=bound.right_alias),
    )


def assert_same_plan(got_regions, got_grid, want_regions, want_grid):
    got = reference.plan_state(got_regions, got_grid)
    want = reference.plan_state(want_regions, want_grid)
    assert got["regions"] == want["regions"]
    assert got["cells"] == want["cells"]
    for r in got_regions:
        assert type(r.rid) is int and type(r.expected_join) is float
        assert all(type(c) is int for c in r.cell_min + r.cell_max)


@pytest.mark.parametrize("kind", PARTITIONINGS)
@given(workload=workloads, cells=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_static_plan_equals_the_loop_builders(kind, workload, cells):
    bound = workload.bound()
    left, right = structures(bound, kind)
    clock, want_clock = VirtualClock(), VirtualClock()
    regions, grid = run_lookahead(bound, left, right, cells, clock)
    want_regions, want_grid = reference.lookahead(
        bound, left, right, cells, want_clock
    )
    EliminationGraph(regions, clock)
    reference.graph_edges(want_regions, want_clock)
    assert_same_plan(regions, grid, want_regions, want_grid)
    assert clock.snapshot() == want_clock.snapshot()
    assert clock.now() == want_clock.now()


def random_signatures(rng, count):
    """Signatures over a small mixed domain: ints, the same values as
    floats (``1 == 1.0``) and strings, so histograms overlap unevenly."""
    domain = [*range(6), *(float(v) for v in range(3, 9)), "a", "b", "c"]
    return [
        ExactSignature(
            domain[i] for i in rng.integers(0, len(domain), rng.integers(1, 25))
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("lanes", [1, 5, 2**13])
def test_pair_overlap_equals_the_signature_methods(monkeypatch, lanes):
    """Every pair's sharing and expected size, in steps of ``lanes``
    matches, twice over the same codes (the second time from the cached
    arrays)."""
    monkeypatch.setattr(signatures, "_PAIR_LANES", lanes)
    rng = np.random.default_rng(lanes)
    left_codes, right_codes = SignatureCodes(), SignatureCodes()
    for _ in range(40):
        left = random_signatures(rng, int(rng.integers(0, 6)))
        right = random_signatures(rng, int(rng.integers(0, 6)))
        for _ in range(2):
            share, expected = pair_overlap(left, right, left_codes, right_codes)
            assert share.shape == expected.shape == (len(left), len(right))
            for i, a in enumerate(left):
                for j, b in enumerate(right):
                    assert share[i, j] == a.may_share(b)
                    if share[i, j]:
                        assert expected[i, j] == a.expected_join_size(b)


def copy_tables(tables):
    return {
        a: Table(a, list(t.schema.columns), list(t.rows)) for a, t in tables.items()
    }


def follow_pair(workload, frac, kind):
    """Two follow kernels over equal live prefixes — the array kernel and
    the loop reference — plus the rows still to arrive."""
    live, arriving = {}, {}
    for alias, table in workload.tables().items():
        cut = max(1, int(len(table.rows) * frac))
        live[alias] = Table(alias, list(table.schema.columns), table.rows[:cut])
        arriving[alias] = table.rows[cut:]
    kernels = []
    for cls in (StreamingKernel, reference.ReferenceStreamingKernel):
        tables = copy_tables(live)
        bound = workload.query().bind(tables)
        plan = QueryPlan.build(
            bound, VirtualClock(), follow=True, partitioning=kind,
            leaf_capacity=6,
            input_cells=3 if kind == "grid" else None,
        )
        kernels.append((cls(plan), tables))
    return kernels, arriving


def step_both(kernels):
    """One step of each kernel; both must take the same kind of step."""
    reports = [k.step() for k, _ in kernels]
    assert reports[0].kind == reports[1].kind
    assert [r.key() for r in reports[0].results] == [
        r.key() for r in reports[1].results
    ]
    return reports[0]


schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(["R", "T"]),
        st.integers(min_value=1, max_value=25),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("kind", PARTITIONINGS)
@given(
    workload=workloads.filter(lambda w: w.d >= 2),
    frac=st.sampled_from([0.3, 0.6]),
    schedule=schedules,
)
@settings(max_examples=25, deadline=None)
def test_follow_wiring_equals_the_loop_builders(kind, workload, frac, schedule):
    kernels, arriving = follow_pair(workload, frac, kind)
    taken = {"R": 0, "T": 0}
    for steps, alias, size in schedule:
        for _ in range(steps):
            step_both(kernels)
        chunk = arriving[alias][taken[alias]: taken[alias] + size]
        taken[alias] += len(chunk)
        for _, tables in kernels:
            tables[alias].extend_rows(chunk)
        # Run both to the arrival poll that absorbs the chunk.
        while not kernels[0][0].finished:
            if step_both(kernels).kind == STEP_INGEST:
                break
        (got, _), (want, _) = kernels
        assert_same_plan(
            got.state.regions.values(), got.plan.grid,
            want.state.regions.values(), want.plan.grid,
        )
        assert got.clock.snapshot() == want.clock.snapshot()
    for kernel, _ in kernels:
        kernel.close_ingest()
    while not kernels[0][0].finished:
        step_both(kernels)
    assert kernels[1][0].finished
    (got, _), (want, _) = kernels
    assert got.clock.snapshot() == want.clock.snapshot()
    assert (got.regions_added, got.regions_pruned, got.cells_reopened) == (
        want.regions_added, want.regions_pruned, want.cells_reopened
    )


# ----------------------------------------------------------------------
# incremental wiring == a from-scratch build over the same cells
# ----------------------------------------------------------------------
def rebuilt_cones(grid):
    """A fresh grid with ``grid``'s cells — same order, same marked and
    settled flags — and cones built from scratch."""
    fresh = OutputGrid(grid.lower, grid.upper, grid.cells_per_dim)
    for coords, cell in grid.cells.items():
        twin = fresh.activate(coords)
        twin.marked, twin.settled = cell.marked, cell.settled
    fresh.build_cones()
    return fresh


def assert_cones_match_a_rebuild(grid):
    """Over unmarked cells, the cone lists (marked members dropped, order
    kept) and the pending counts equal a from-scratch build's."""
    fresh = rebuilt_cones(grid)
    checked = 0
    for coords, cell in grid.cells.items():
        if cell.marked:
            continue
        twin = fresh.cells[coords]
        for name in ("cone_lower", "cone_upper", "strict_upper"):
            live = [c.coords for c in getattr(cell, name) if not c.marked]
            assert live == [c.coords for c in getattr(twin, name)], name
        assert cell.pending == twin.pending
        checked += 1
    return checked


@pytest.mark.parametrize("kind", PARTITIONINGS)
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_incremental_cones_equal_a_rebuild_after_polls(kind, seed):
    workload = SyntheticWorkload(n=240, d=2, sigma=0.05, seed=seed)
    tables = workload.tables()
    live = {
        a: Table(a, list(t.schema.columns), t.rows[: len(t.rows) * 2 // 5])
        for a, t in tables.items()
    }
    bound = workload.query().bind(live)
    plan = QueryPlan.build(
        bound, VirtualClock(), follow=True, partitioning=kind,
        output_cells=default_output_cells(2),
    )
    kernel = StreamingKernel(plan)
    kernel.step()  # bootstrap
    checked = polls = 0
    for alias in ("R", "T", "R", "T"):
        rows = tables[alias].rows
        start = len(live[alias])
        live[alias].extend_rows(rows[start: start + len(rows) * 3 // 20])
        for _ in range(5):  # some regions run, settling and marking cells
            kernel.step()
        while kernel.step().kind != STEP_INGEST:
            pass
        polls += 1
        checked += assert_cones_match_a_rebuild(kernel.plan.grid)
    assert polls == 4 and kernel.regions_added > 0 and checked > 0
