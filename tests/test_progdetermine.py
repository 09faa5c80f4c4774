"""Tests for ProgDetermine: settle/mark/emit bookkeeping (paper §V)."""

import random

import numpy as np
import pytest

from repro.core.lookahead import run_lookahead
from repro.core.progdetermine import ExecutionState
from repro.errors import ExecutionError
from repro.runtime.clock import VirtualClock
from repro.storage.grid import GridPartitioner

from tests.conftest import mean_cone_size_from_scratch


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


class TestInsertion:
    def test_insert_into_marked_cell_discards(self, small_bound):
        state, regions, grid = build_state(small_bound)
        live = [c for c in grid.cells.values() if not c.marked]
        cell = live[0]
        state.mark_cell(cell)
        # Vector placed at the cell's own lower corner maps back to it.
        before = state.discarded_on_arrival
        state.insert(cell.lower, ("l",), ("r",), cell.lower)
        assert state.discarded_on_arrival == before + 1

    def test_insert_dominated_is_dropped(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        state.active_region = region
        cell = next(c for c in region.covered if not c.marked)
        good = cell.lower
        worse = tuple(v + 1e-6 for v in good)
        state.insert(good, ("l1",), ("r1",), good)
        before = state.dominated_on_arrival
        state.insert(worse, ("l2",), ("r2",), worse)
        assert state.dominated_on_arrival == before + 1
        assert len(cell.entries) == 1

    def test_insert_evicts_dominated_same_cell(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        state.active_region = region
        cell = next(c for c in region.covered if not c.marked)
        worse = tuple(v + 1e-6 for v in cell.lower)
        state.insert(worse, ("l1",), ("r1",), worse)
        state.insert(cell.lower, ("l2",), ("r2",), cell.lower)
        assert len(cell.entries) == 1
        assert cell.entries[0][1] == ("l2",)

    def test_equal_vectors_coexist(self, small_bound):
        state, regions, grid = build_state(small_bound)
        region = next(r for r in regions if not r.discarded and r.covered)
        state.active_region = region
        cell = next(c for c in region.covered if not c.marked)
        state.insert(cell.lower, ("l1",), ("r1",), cell.lower)
        state.insert(cell.lower, ("l2",), ("r2",), cell.lower)
        assert len(cell.entries) == 2

    def test_insert_settled_cell_is_invariant_violation(self, small_bound):
        state, regions, grid = build_state(small_bound)
        cell = next(c for c in grid.cells.values() if not c.marked)
        cell.reg_count = 0
        with pytest.raises(ExecutionError, match="RegCount"):
            state.insert(cell.lower, ("l",), ("r",), cell.lower)


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
