"""Tests for the output grid: geometry, cones, marking bookkeeping."""

import numpy as np
import pytest

from repro.core.output_grid import OutputCell, OutputGrid
from repro.errors import ExecutionError


def make_grid(k=4, d=2):
    return OutputGrid([0.0] * d, [8.0] * d, k)


class TestGeometry:
    def test_coords_of_interior_point(self):
        grid = make_grid()
        assert grid.coords_of((1.0, 5.0)) == (0, 2)

    def test_boundary_clamping(self):
        grid = make_grid()
        assert grid.coords_of((8.0, 8.0)) == (3, 3)
        assert grid.coords_of((-1.0, 9.0)) == (0, 3)

    def test_cell_lower(self):
        grid = make_grid()
        assert grid.cell_lower((1, 2)) == (2.0, 4.0)

    def test_box_cell_range(self):
        grid = make_grid()
        cmin, cmax = grid.box_cell_range((1.0, 1.0), (5.0, 3.0))
        assert cmin == (0, 0)
        assert cmax == (2, 1)

    def test_iter_coords_in_range(self):
        grid = make_grid()
        coords = list(grid.iter_coords_in_range((0, 0), (1, 2)))
        assert len(coords) == 6
        assert (0, 0) in coords and (1, 2) in coords

    def test_iter_single_cell(self):
        grid = make_grid()
        assert list(grid.iter_coords_in_range((2, 2), (2, 2))) == [(2, 2)]

    def test_invalid_cells_per_dim(self):
        with pytest.raises(ValueError):
            OutputGrid([0.0], [1.0], 0)

    def test_degenerate_range(self):
        grid = OutputGrid([5.0], [5.0], 4)  # zero-width domain
        assert grid.coords_of((5.0,)) == (0,)


class TestActivation:
    def test_activate_idempotent(self):
        grid = make_grid()
        a = grid.activate((1, 1))
        b = grid.activate((1, 1))
        assert a is b
        assert grid.active_count == 1

    def test_cell_for_vector_requires_active(self):
        grid = make_grid()
        grid.activate((0, 0))
        assert grid.cell_for_vector((0.5, 0.5)).coords == (0, 0)
        with pytest.raises(ExecutionError, match="inactive cell"):
            grid.cell_for_vector((7.9, 7.9))


class TestCones:
    def _activated(self):
        grid = make_grid(k=4)
        for coords in [(0, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 3)]:
            grid.activate(coords)
        grid.build_cones()
        return grid

    def test_cone_lower_membership(self):
        grid = self._activated()
        c22 = grid.cells[(2, 2)]
        lower_coords = {c.coords for c in c22.cone_lower}
        # Everything componentwise <= (2,2) except itself.
        assert lower_coords == {(0, 0), (0, 2), (2, 0), (1, 1)}

    def test_cone_upper_is_inverse(self):
        grid = self._activated()
        for cell in grid.cells.values():
            for uc in cell.cone_upper:
                assert cell in uc.cone_lower

    def test_incomparable_cells_not_in_cones(self):
        grid = self._activated()
        c02 = grid.cells[(0, 2)]
        coords = {c.coords for c in c02.cone_lower} | {
            c.coords for c in c02.cone_upper
        }
        assert (2, 0) not in coords  # incomparable with (0,2)

    def test_strict_upper_subset_of_upper(self):
        grid = self._activated()
        c00 = grid.cells[(0, 0)]
        strict = {c.coords for c in c00.strict_upper}
        assert strict == {(1, 1), (2, 2), (3, 3)}
        upper = {c.coords for c in c00.cone_upper}
        assert strict <= upper

    def test_pending_counts_unsettled_cone_lower(self):
        grid = self._activated()
        assert grid.cells[(2, 2)].pending == 4
        assert grid.cells[(0, 0)].pending == 0

    def test_marked_cells_excluded_from_cones(self):
        grid = make_grid(k=4)
        grid.activate((0, 0)).marked = True
        grid.cells[(0, 0)].settled = True
        grid.activate((1, 1))
        grid.build_cones()
        assert grid.cells[(1, 1)].cone_lower == []
        assert grid.cells[(1, 1)].pending == 0

    def test_cone_size_bound_matches_paper(self):
        # §III-B: comparisons restricted to k^d - (k-1)^d cells when the
        # full grid is active (the slice-sharing cone, self included).
        k, d = 4, 2
        grid = OutputGrid([0.0] * d, [8.0] * d, k)
        for i in range(k):
            for j in range(k):
                grid.activate((i, j))
        grid.build_cones()
        # For the top corner cell: its comparable-lower set is the full
        # cone; slice-sharing part has k^d - (k-1)^d cells (incl. itself).
        top = grid.cells[(k - 1, k - 1)]
        slice_sharing = [
            c for c in top.cone_lower
            if any(a == b for a, b in zip(c.coords, top.coords))
        ]
        assert len(slice_sharing) + 1 == k**d - (k - 1) ** d


class TestStatistics:
    def test_counters(self):
        grid = make_grid()
        a = grid.activate((0, 0))
        b = grid.activate((1, 1))
        b.marked = True
        a.append(np.zeros((1, 2)), [("l",)], [("r",)], np.zeros((1, 2)))
        assert grid.active_count == 2
        assert grid.marked_count == 1
        assert grid.live_entry_count() == 1

    def test_mean_cone_size_live_only(self):
        grid = make_grid()
        grid.activate((0, 0))
        grid.activate((1, 1))
        grid.build_cones()
        assert grid.mean_cone_size() == pytest.approx(2.0)  # 1 edge each + self

    def test_mean_cone_size_empty(self):
        assert make_grid().mean_cone_size() == 1.0


class TestOutputCell:
    def test_emittable_conditions(self):
        cell = OutputCell((0, 0), (0.0, 0.0))
        assert not cell.emittable  # not settled
        cell.settled = True
        assert cell.emittable
        cell.pending = 1
        assert not cell.emittable
        cell.pending = 0
        cell.marked = True
        assert not cell.emittable
        cell.marked = False
        cell.emitted = True
        assert not cell.emittable
