"""Tests for ProgDetermine: settle/mark/emit bookkeeping (paper §V)."""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.lookahead import run_lookahead
from repro.core.output_grid import OutputCell, OutputGrid
from repro.core.progdetermine import ExecutionState
from repro.errors import ExecutionError
from repro.runtime.clock import VirtualClock
from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import dominates
from repro.storage.grid import GridPartitioner

from tests.conftest import mean_cone_size_from_scratch
from tests.sweep_first import insert_batch_sweep_first


def build_state(bound, k_in=3, k_out=6):
    p = GridPartitioner(k_in)
    lg = p.partition(
        bound.left_table, bound.left_map_attrs, bound.query.join.left_attr,
        source=bound.left_alias,
    )
    rg = p.partition(
        bound.right_table, bound.right_map_attrs, bound.query.join.right_attr,
        source=bound.right_alias,
    )
    clock = VirtualClock()
    regions, grid = run_lookahead(bound, lg, rg, k_out, clock)
    return ExecutionState(bound, regions, grid, clock), regions, grid


class TestSettlement:
    def test_settle_decrements_upper_pending(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked and c.cone_upper]
        cell = live[0]
        before = {id(uc): uc.pending for uc in cell.cone_upper}
        state.settle(cell)
        for uc in cell.cone_upper:
            assert uc.pending == before[id(uc)] - 1

    def test_settle_idempotent(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked and c.cone_upper]
        cell = live[0]
        state.settle(cell)
        pendings = [uc.pending for uc in cell.cone_upper]
        state.settle(cell)  # second settle must not double-decrement
        assert [uc.pending for uc in cell.cone_upper] == pendings

    def test_empty_cell_emits_vacuously(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [
            c for c in grid.cells.values()
            if not c.marked and not c.settled and c.pending == 0
        ]
        if live:
            cell = live[0]
            state.settle(cell)
            assert cell.emitted
            assert state.drain_emissions() == []  # no entries to emit


class TestMarking:
    def test_mark_drops_entries(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked]
        cell = live[0]
        cell.append(np.zeros((1, 2)), [("l",)], [("r",)], np.zeros((1, 2)))
        assert len(cell.entries) == 1
        state.mark_cell(cell)
        assert cell.marked and cell.settled
        assert cell.entries == [] and cell.size == 0
        assert cell.vector_matrix() is None

    def test_mean_cone_size_tracks_marks(self, anti_bound):
        # The grid keeps running totals instead of walking every cell per
        # call; marking (cascades included) must leave them exact.
        state, regions, grid = build_state(anti_bound)
        assert grid.mean_cone_size() == mean_cone_size_from_scratch(grid)
        rng = random.Random(3)
        live = [c for c in grid.cells.values() if not c.marked]
        assert len(live) > 10
        for cell in rng.sample(live, len(live) // 2):
            state.mark_cell(cell)
            assert grid.mean_cone_size() == mean_cone_size_from_scratch(grid)
        for cell in live:
            state.mark_cell(cell)
        assert grid.mean_cone_size() == 1.0  # nothing live is left

    def test_mark_idempotent(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked and c.cone_upper]
        cell = live[0]
        state.mark_cell(cell)
        pendings = [uc.pending for uc in cell.cone_upper]
        state.mark_cell(cell)
        assert [uc.pending for uc in cell.cone_upper] == pendings

    def test_mark_emitted_cell_is_invariant_violation(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked]
        cell = live[0]
        cell.emitted = True
        with pytest.raises(ExecutionError, match="emission guarantee"):
            state.mark_cell(cell)

    def test_marking_all_cells_discards_region(self, small_bound):
        state, regions, grid = build_state(small_bound)
        target = next(
            r for r in regions if not r.discarded and r.unmarked_covered > 0
        )
        for cell in list(target.covered):
            if not cell.marked:
                state.mark_cell(cell)
        assert target.discarded
        assert target in state.drain_discarded()


def insert_one(state, vector, tag):
    """One-row :meth:`ExecutionState.insert_batch` call."""
    matrix = np.asarray([vector], dtype=float)
    state.insert_batch(matrix, [(f"l{tag}",)], [(f"r{tag}",)], matrix)


class TestInsertion:
    def test_insert_into_marked_cell_discards(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked]
        cell = live[0]
        state.mark_cell(cell)
        # Vector placed at the cell's own lower corner maps back to it.
        before = state.discarded_on_arrival
        insert_one(state, cell.lower, "")
        assert state.discarded_on_arrival == before + 1

    def test_insert_dominated_is_dropped(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        state.active_region = region
        cell = next(c for c in region.covered if not c.marked)
        good = cell.lower
        worse = tuple(v + 1e-6 for v in good)
        insert_one(state, good, 1)
        before = state.dominated_on_arrival
        insert_one(state, worse, 2)
        assert state.dominated_on_arrival == before + 1
        assert len(cell.entries) == 1

    def test_insert_evicts_dominated_same_cell(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        state.active_region = region
        cell = next(c for c in region.covered if not c.marked)
        worse = tuple(v + 1e-6 for v in cell.lower)
        insert_one(state, worse, 1)
        insert_one(state, cell.lower, 2)
        assert len(cell.entries) == 1
        assert cell.entries[0][1] == ("l2",)

    def test_equal_vectors_coexist(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        state.active_region = region
        cell = next(c for c in region.covered if not c.marked)
        insert_one(state, cell.lower, 1)
        insert_one(state, cell.lower, 2)
        assert len(cell.entries) == 2

    def test_insert_settled_cell_is_invariant_violation(self, small_bound):
        state, regions, grid = build_state(small_bound)
        cell = next(c for c in grid.cells.values() if not c.marked)
        cell.reg_count = 0
        with pytest.raises(ExecutionError, match="RegCount"):
            insert_one(state, cell.lower, "")

    def test_insert_into_inactive_cell_is_invariant_violation(self):
        grid = OutputGrid([0.0, 0.0], [2.0, 2.0], 2)
        grid.activate((0, 0)).reg_count = 1
        grid.build_cones()
        state = ExecutionState(None, [], grid, VirtualClock())
        insert_one(state, (0.5, 0.5), 1)
        assert grid.cells[(0, 0)].size == 1
        with pytest.raises(ExecutionError, match="inactive cell"):
            insert_one(state, (1.5, 1.5), 2)


# ----------------------------------------------------------------------
# the open cells as a running skyline over successive batches
# ----------------------------------------------------------------------
def open_state(k=1):
    """An all-active 2-d grid over ``[0, 8]²`` whose every cell still
    awaits a region."""
    grid = OutputGrid([0.0, 0.0], [8.0, 8.0], k)
    for coords in itertools.product(range(k), repeat=2):
        grid.activate(coords).reg_count = 1
    grid.build_cones()
    return ExecutionState(None, [], grid, VirtualClock())


def insert_rows(state, points, tag=0):
    vectors = np.asarray(points, dtype=float).reshape(len(points), 2)
    rows = [(tag, i) for i in range(len(points))]
    state.insert_batch(vectors, rows, rows, vectors)


def held_vectors(state):
    return sorted(
        tuple(e[0]) for c in state.grid.cells.values() for e in c.entries
    )


# Half-unit coordinates: sums are exact and ties are common.
_HALVES = st.integers(0, 16).map(lambda v: v / 2)
_POINT_BATCHES = st.lists(
    st.lists(st.tuples(_HALVES, _HALVES), min_size=0, max_size=12),
    min_size=1,
    max_size=5,
)


class TestRunningSkyline:
    def test_first_row_is_accepted(self):
        state = open_state()
        insert_one(state, (1.0, 2.0), "a")
        assert held_vectors(state) == [(1.0, 2.0)]
        assert state.live_entries == 1
        assert state.dominated_on_arrival == 0

    def test_one_row_evicts_every_entry_it_dominates(self):
        state = open_state()
        insert_one(state, (2.0, 2.0), "a")
        insert_one(state, (3.0, 1.0), "b")
        insert_one(state, (1.0, 1.0), "c")
        assert held_vectors(state) == [(1.0, 1.0)]
        assert state.live_entries == 1

    def test_dominated_rows_within_one_batch_are_dropped(self):
        state = open_state()
        insert_rows(state, [(2.0, 2.0), (1.0, 1.0), (3.0, 0.5), (4.0, 4.0)])
        assert held_vectors(state) == [(1.0, 1.0), (3.0, 0.5)]
        assert state.dominated_on_arrival == 2

    def test_equal_rows_within_one_batch_coexist(self):
        state = open_state()
        insert_rows(state, [(1.0, 1.0), (1.0, 1.0)])
        assert held_vectors(state) == [(1.0, 1.0), (1.0, 1.0)]

    def test_survivors_keep_arrival_order(self):
        state = open_state()
        insert_rows(state, [(1.0, 3.0), (3.0, 1.0), (2.0, 2.0)])
        insert_one(state, (2.5, 0.5), "x")
        (cell,) = state.grid.cells.values()
        assert [e[0] for e in cell.entries] == [(1.0, 3.0), (2.0, 2.0), (2.5, 0.5)]

    def test_empty_batch_changes_nothing(self):
        state = open_state()
        insert_one(state, (1.0, 2.0), "a")
        before = state.clock.snapshot()
        insert_rows(state, np.empty((0, 2)))
        assert held_vectors(state) == [(1.0, 2.0)]
        assert state.clock.snapshot() == before

    def test_comparisons_are_charged(self):
        state = open_state()
        insert_one(state, (1.0, 2.0), "a")
        insert_one(state, (2.0, 1.0), "b")
        assert state.clock.count("dominance_cmp") > 0

    def test_a_row_below_a_strict_upper_cell_marks_it(self):
        state = open_state(k=2)  # cells of width 4
        insert_one(state, (5.0, 5.0), "a")
        insert_one(state, (0.5, 0.5), "b")
        upper = state.grid.cells[(1, 1)]
        assert upper.marked and upper.size == 0
        assert held_vectors(state) == [(0.5, 0.5)]
        assert state.live_entries == 1

    def test_rows_arriving_in_a_marked_cell_are_discarded(self):
        state = open_state(k=2)
        insert_one(state, (0.5, 0.5), "a")
        insert_rows(state, [(6.0, 6.0), (4.5, 7.0)], tag=1)
        assert state.discarded_on_arrival == 2
        assert state.clock.count("discard") == 2
        assert held_vectors(state) == [(0.5, 0.5)]

    @given(k=st.integers(1, 3), batches=_POINT_BATCHES)
    @settings(max_examples=80, deadline=None)
    def test_open_cells_hold_the_skyline_of_everything_inserted(self, k, batches):
        state = open_state(k=k)
        for b, batch in enumerate(batches):
            insert_rows(state, batch, tag=b)
        everything = [p for batch in batches for p in batch]
        assert held_vectors(state) == sorted(map(tuple, bnl_skyline(everything)))
        assert state.live_entries == len(held_vectors(state))

    @given(k=st.integers(1, 3), batches=_POINT_BATCHES)
    @settings(max_examples=60, deadline=None)
    def test_evicted_entries_are_dominated_by_the_batch(self, k, batches):
        state = open_state(k=k)
        evict = OutputCell.evict
        evicted: list = []

        def spy_evict(cell, dead):
            evicted.extend(e[0] for e in itertools.compress(cell.entries, dead))
            return evict(cell, dead)

        with mock.patch.object(OutputCell, "evict", spy_evict):
            for b, batch in enumerate(batches):
                evicted.clear()
                insert_rows(state, batch, tag=b)
                for vec in evicted:
                    assert any(dominates(tuple(p), vec) for p in batch)


# ----------------------------------------------------------------------
# scan-first cell-group insertion against the sweep-first reference
# ----------------------------------------------------------------------
_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 0.75])  # exact ties are common
_BATCH_KINDS = ["cell"] * 4 + ["duplicate", "inf", "rounded-sum pair"]


@st.composite
def insertion_scenarios(draw):
    """A small all-active grid — open, settled and marked cells, entries in
    every unmarked one — plus one or two batches and the marking mode."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2 if d == 4 else 3))
    cells = list(itertools.product(range(k), repeat=d))
    states = st.sampled_from(["open", "open", "settled", "marked"])
    status = {coords: draw(states) for coords in cells}

    def point(coords):
        return [c + draw(_OFFSETS) for c in coords]

    entries = {
        coords: [point(coords) for _ in range(draw(st.integers(0, 3)))]
        for coords in cells
        if status[coords] != "marked"
    }
    batches = []
    for _ in range(draw(st.integers(1, 2))):
        batch: list = []
        for _ in range(draw(st.integers(1, 20))):
            kind = draw(st.sampled_from(_BATCH_KINDS))
            if kind == "duplicate" and batch:
                batch.append(list(draw(st.sampled_from(batch))))
            elif kind == "inf":
                p = point(draw(st.sampled_from(cells)))
                p[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-np.inf, np.inf]))
                batch.append(p)
            elif kind == "rounded-sum pair" and d > 1:
                # Equal float sums, the dominated vector first: only the
                # dominator survives.
                rest = point(draw(st.sampled_from(cells)))[2:]
                batch += [[1e16, 0.5, *rest], [1e16, 0.25, *rest]]
            else:
                batch.append(point(draw(st.sampled_from(cells))))
        # Open cells whose last region completes after this batch.
        closed = [c for c in cells if status[c] == "open" and draw(st.booleans())]
        batches.append((batch, closed))
    return d, k, status, entries, batches, draw(st.booleans())


def build_scenario(scenario):
    d, k, status, entries, _, careful = scenario
    grid = OutputGrid([0.0] * d, [float(k)] * d, k)
    for coords, kind in status.items():
        cell = grid.activate(coords)
        cell.marked = kind == "marked"
        cell.settled = kind != "open"
        cell.reg_count = int(kind == "open")
    grid.build_cones()
    state = ExecutionState(None, [], grid, VirtualClock())
    state.careful_marking = careful
    for coords, points in entries.items():
        if points:
            vectors = np.asarray(points, dtype=float)
            rows = [("E", coords, i) for i in range(len(points))]
            grid.cells[coords].append(vectors, rows, rows, vectors)
            state.live_entries += len(points)
    return state


def legal_rows(state, batch):
    """The batch rows that do not land in a settled, unmarked cell (an
    engine error)."""
    vectors = np.asarray(batch, dtype=float).reshape(len(batch), -1)
    with np.errstate(invalid="ignore"):  # ±inf cast to a grid coordinate
        coords = state.grid.coords_matrix(vectors).tolist()
    cells = [state.grid.cells[tuple(c)] for c in coords]
    return vectors[[c.marked or not c.settled for c in cells]]


def run_insertions(scenario, insert):
    """Everything an insertion can change, observed through ``insert``;
    regions completing between batches make emissions observable."""
    state = build_scenario(scenario)
    evicted, marks, emissions = [], [], []
    evict, mark = OutputCell.evict, state.mark_cell

    def spy_evict(cell, dead):
        evicted.append((cell.coords, list(itertools.compress(cell.entries, dead))))
        return evict(cell, dead)

    def spy_mark(cell):
        marks.append(cell.coords)
        mark(cell)

    state.mark_cell = spy_mark
    with mock.patch.object(OutputCell, "evict", spy_evict), np.errstate(invalid="ignore"):
        for b, (batch, closed) in enumerate(scenario[4]):
            vectors = legal_rows(state, batch)
            rows = [("B", b, i) for i in range(len(vectors))]
            insert(state, vectors, rows, rows, vectors)
            for coords in closed:
                state.grid.cells[coords].reg_count = 0
                state.settle(state.grid.cells[coords])
            emissions.append(state.drain_emissions())
    clock = state.clock
    return {
        "cells": [
            (c.coords, c.entries, c.marked, c.settled, c.emitted, c.pending)
            for c in state.grid.cells.values()
        ],
        "evicted": evicted,
        "marks": marks,
        "emissions": emissions,
        "counters": (
            state.live_entries, state.dominated_on_arrival,
            state.discarded_on_arrival, state.inserted, state.peak_live_entries,
        ),
        "clock": {k: v for k, v in clock.snapshot().items() if k != "dominance_cmp"},
        "vtime_without_dominance": clock.now() - clock.count("dominance_cmp"),
    }


def per_tuple_scan_charge(cell, vectors):
    """What a per-tuple §III-B scan charges looking for each candidate's
    first dominator: own entries two tests each, then the lower cone in
    order."""
    pool = [
        (present, cost)
        for block, cost in [(cell, 2), *((lc, 1) for lc in cell.cone_lower)]
        if block.size
        for present in block.vector_matrix().tolist()
    ]
    total = 0
    for v in vectors.tolist():
        for present, cost in pool:
            if dominates(present, v):
                total += 1
                break
            total += cost
    return total


class TestScanFirstInsertion:
    """Running the own + lower-cone scan before the intra-group sweep
    changes only ``dominance_cmp``."""

    @given(insertion_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_as_sweep_first(self, scenario):
        got = run_insertions(scenario, ExecutionState.insert_batch)
        want = run_insertions(scenario, insert_batch_sweep_first)
        assert got == want

    @pytest.mark.parametrize(
        "insert", [ExecutionState.insert_batch, insert_batch_sweep_first]
    )
    def test_equal_rounded_sums_keep_only_the_dominator(self, insert):
        # (1e16, 1) and (1e16, 0) have the same float sum.
        batch = [[1e16, 1.0], [1e16, 0.0]]
        state = build_scenario((2, 1, {(0, 0): "open"}, {}, [], False))
        vectors = np.asarray(batch)
        rows = [("B", i) for i in range(len(batch))]
        insert(state, vectors, rows, rows, vectors)
        assert state.grid.cells[(0, 0)].vector_matrix().tolist() == [[1e16, 0.0]]
        assert state.dominated_on_arrival == 1

    @given(insertion_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_scan_is_charged_as_the_per_tuple_scan(self, scenario):
        state = build_scenario(scenario)
        vectors = legal_rows(state, scenario[4][0][0])
        assume(len(vectors))
        with np.errstate(invalid="ignore"):
            coords = state.grid.coords_matrix(vectors)
        target = tuple(coords[0].tolist())
        assume(scenario[2][target] == "open")
        vectors = vectors[(coords == coords[0]).all(axis=1)]  # one cell group
        expected = per_tuple_scan_charge(state.grid.cells[target], vectors)
        assume(expected)  # an empty pool is not scanned
        clock = state.clock
        totals: list[int] = []
        clock.set_tripwire(lambda: totals.append(clock.count("dominance_cmp")))
        rows = [("B", i) for i in range(len(vectors))]
        with np.errstate(invalid="ignore"):
            state.insert_batch(vectors, rows, rows, vectors)
        # The scan is the group's first dominance charge.
        assert next(total for total in totals if total) == expected


class TestBoundedBroadcasts:
    def test_large_group_against_a_large_cell_stays_small(self):
        """16 384 candidates against 4 000 held entries (d = 4): one
        unblocked scan or eviction broadcast would hold hundreds of MB of
        ``(d, pool, group)`` booleans."""
        d = 4
        rng = np.random.default_rng(5)

        def simplex(n, low, width):
            # Rows summing to a constant: mutually incomparable.
            points = rng.random((n, d))
            return low + width * points / points.sum(axis=1, keepdims=True)

        grid = OutputGrid([0.0] * d, [8.0] * d, 1)
        cell = grid.activate((0,) * d)
        cell.reg_count = 1
        grid.build_cones()
        state = ExecutionState(None, [], grid, VirtualClock())
        held = simplex(4000, 4.0, 2.0)  # coordinates in [4, 6]
        rows = [("E", i) for i in range(len(held))]
        cell.append(held, rows, rows, held)
        state.live_entries = len(held)
        # Survivors beat every held entry; the rest are beaten by them.
        survivors = simplex(6000, 1.0, 1.0)
        beaten = 7.0 + 0.9 * rng.random((16384 - len(survivors), d))
        batch = np.concatenate([survivors, beaten])[rng.permutation(16384)]
        rows = [("B", i) for i in range(len(batch))]

        tracemalloc.start()
        try:
            state.insert_batch(batch, rows, rows, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert cell.size == state.live_entries == len(survivors)
        assert sorted(map(tuple, cell.vector_matrix())) == sorted(
            map(tuple, survivors)
        )


class TestCompletion:
    def test_complete_region_settles_exclusive_cells(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        exclusive = [c for c in region.covered if c.reg_count == 1]
        state.complete_region(region)
        for cell in exclusive:
            assert cell.settled

    def test_verify_drained_detects_leftovers(self, small_bound):
        state, regions, grid = build_state(small_bound)
        with pytest.raises(ExecutionError, match="unemitted"):
            state.verify_drained()
