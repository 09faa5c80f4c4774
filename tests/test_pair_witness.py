"""The witness pass on pairs changes nothing but ``dominance_cmp``.

While a region is active, ``ExecutionState.insert_batch`` tests each batch
once against the region's witness pool (the entries of its corner cell and
that cell's lower cone) after grouping it by cell, removes what the pool
dominates, and leaves the pool out of every cell-group scan.
``tests/insert_reference.py`` keeps the loop without the pass; here the
two run the same scenarios — the small all-active grids of
``tests/test_progdetermine.py`` with a region corner drawn among their
cells — and must agree on cell entries, evictions, marks in order,
emissions in order, the state's counters and every clock kind, except
``dominance_cmp``, which may only fall.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import progdetermine
from repro.core.engine import ProgXeEngine
from repro.core.output_grid import OutputCell
from repro.core.progdetermine import ExecutionState
from repro.core.regions import OutputRegion
from repro.data.workloads import SyntheticWorkload
from repro.runtime.clock import VirtualClock
from repro.skyline import vectorized

from tests import insert_reference
from tests.test_progdetermine import build_scenario, insertion_scenarios, legal_rows

#: Where the corner cell's group goes in a batch: as drawn, moved to the
#: front (its group goes in first) or to the back (last).
PLACEMENTS = ("as drawn", "first", "last")


@st.composite
def witnessed_scenarios(draw):
    """An insertion scenario, the active region's corner cell, and where
    the corner's rows go in each batch."""
    scenario = draw(insertion_scenarios())
    corner = draw(st.sampled_from(sorted(scenario[2])))
    return scenario, corner, draw(st.sampled_from(PLACEMENTS))


def activate(state: ExecutionState, corner: tuple) -> None:
    """Make a region whose corner cell is ``corner`` the active one."""
    region = OutputRegion(0, None, None, corner, corner, 1.0)
    region.cell_min = corner
    state.regions[0] = region
    state.active_region = region


def batch_rows(state: ExecutionState, corner: tuple, batch, placement: str) -> np.ndarray:
    """The batch rows a region with this corner can produce — those landing
    in a marked cell or in an open cell ``>=`` the corner — with the
    corner's rows placed as ``placement`` says."""
    vectors = legal_rows(state, batch)
    with np.errstate(invalid="ignore"):  # ±inf cast to a grid coordinate
        coords = state.grid.coords_matrix(vectors)
    cells = [state.grid.cells[tuple(c)] for c in coords.tolist()]
    above = (coords >= np.asarray(corner)).all(axis=1).tolist()
    keep = [cell.marked or up for cell, up in zip(cells, above)]
    vectors, coords = vectors[keep], coords[keep]
    at = (coords == np.asarray(corner)).all(axis=1)
    if placement == "first" and at.any():
        first = int(np.argmax(at))
        vectors = np.concatenate([vectors[first : first + 1], np.delete(vectors, first, axis=0)])
    elif placement == "last":
        vectors = np.concatenate([vectors[~at], vectors[at]])
    return vectors


def run(scenario, corner, placement, insert) -> dict:
    """Everything one run of the scenario's batches through ``insert`` can
    change, with the corner's region active; closing cells between batches
    makes emissions observable."""
    state = build_scenario(scenario)
    activate(state, corner)
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
            vectors = batch_rows(state, corner, batch, placement)
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
            state.live_entries, state.inserted, state.peak_live_entries,
            state.dominated_on_arrival, state.discarded_on_arrival,
        ),
        "clock": {k: v for k, v in clock.snapshot().items() if k != "dominance_cmp"},
        "vtime_without_dominance": clock.now() - clock.count("dominance_cmp"),
        "dominance_cmp": clock.count("dominance_cmp"),
        "pairs_skipped": state.pairs_skipped,
    }


def assert_same_but_fewer_comparisons(got: dict, want: dict) -> None:
    assert got["dominance_cmp"] <= want["dominance_cmp"]
    assert want["pairs_skipped"] == 0  # the reference has no pass
    assert got["pairs_skipped"] <= got["counters"][3]  # among the dominated
    for key in ("dominance_cmp", "pairs_skipped"):
        del got[key], want[key]
    assert got == want


class TestAgainstTheReferenceLoop:
    @pytest.mark.parametrize("lanes", ["default", "one"])
    @given(case=witnessed_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_same_outcome_fewer_comparisons(self, case, lanes):
        with pytest.MonkeyPatch.context() as patch:
            if lanes == "one":
                patch.setattr(progdetermine, "DOMINANCE_LANES", 1)
                patch.setattr(vectorized, "LANES", 1)
            got = run(*case, ExecutionState.insert_batch)
            want = run(*case, insert_reference.insert_batch)
        assert_same_but_fewer_comparisons(got, want)

    @pytest.mark.parametrize("careful", [False, True])
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_the_corner_group_first_or_last(self, placement, careful):
        # Entries in the corner (1, 1), below it and above it; the batch
        # lands in the corner and every cell above it, twice.
        cells = list(itertools.product(range(3), repeat=2))
        status = {c: "open" for c in cells}
        entries = {c: [[c[0] + 0.75, c[1] + 0.75]] for c in cells}
        batch = [[x + dx, y + dy] for x, y in cells for dx, dy in ((0.5, 0.25), (0.25, 0.5))]
        scenario = (2, 3, status, entries, [(batch, [])], careful)
        got = run(scenario, (1, 1), placement, ExecutionState.insert_batch)
        want = run(scenario, (1, 1), placement, insert_reference.insert_batch)
        assert got["pairs_skipped"] > 0
        assert got["dominance_cmp"] < want["dominance_cmp"]
        assert_same_but_fewer_comparisons(got, want)

    @pytest.mark.parametrize("corner_first", [True, False])
    def test_a_pair_only_the_corner_group_dominates_still_dies(self, corner_first):
        # The pool (one entry, in the corner's lower cone) dominates
        # nothing here.  ``a`` lands in the corner (1, 1) and dominates
        # ``p`` in (2, 1), which it does not mark.  With the corner's group
        # first, ``p`` must meet ``a`` in its scan; otherwise ``a`` evicts
        # ``p`` when its group goes in.
        cells = list(itertools.product(range(3), repeat=2))
        status = {c: "open" for c in cells}
        entries = {(0, 1): [[0.9, 1.9]]}
        a, p = [1.5, 1.5], [2.5, 1.75]
        batch = [a, p] if corner_first else [p, a]
        scenario = (2, 3, status, entries, [(batch, [])], False)
        got = run(scenario, (1, 1), "as drawn", ExecutionState.insert_batch)
        want = run(scenario, (1, 1), "as drawn", insert_reference.insert_batch)
        p_row = ("B", 0, batch.index(p))
        p_cell = next(c for c in got["cells"] if c[0] == (2, 1))
        assert all(entry[1] != p_row for entry in p_cell[1])
        assert got["pairs_skipped"] == 0
        assert got["counters"][3] == int(corner_first)  # dominated on arrival
        assert_same_but_fewer_comparisons(got, want)


class TestKernelStats:
    def test_a_finished_kernel_reports_the_skipped_pairs(self):
        workload = SyntheticWorkload("anticorrelated", n=300, d=3, sigma=0.05, seed=11)
        engine = ProgXeEngine(workload.bound(), VirtualClock(), input_cells=3)
        list(engine.run())
        stats = engine.stats
        assert 0 < stats["pairs_skipped"] <= stats["dominated_on_arrival"]
        assert stats["pairs_skipped"] == engine.state.pairs_skipped

    def test_no_active_region_no_pass(self):
        # Direct calls, without a region, run the loop as the reference.
        cells = list(itertools.product(range(3), repeat=2))
        scenario = (
            2, 3, {c: "open" for c in cells},
            {c: [[c[0] + 0.75, c[1] + 0.75]] for c in cells},
            [([[x + 0.5, y + 0.25] for x, y in cells], [])], False,
        )
        states = []
        for insert in (ExecutionState.insert_batch, insert_reference.insert_batch):
            state = build_scenario(scenario)
            vectors = legal_rows(state, scenario[4][0][0])
            rows = [("B", i) for i in range(len(vectors))]
            insert(state, vectors, rows, rows, vectors)
            states.append((state.clock.snapshot(), state.pairs_skipped))
        assert states[0] == states[1]
        assert states[0][1] == 0
