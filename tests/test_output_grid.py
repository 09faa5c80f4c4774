"""Tests for the output grid: geometry, cones, marking bookkeeping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.output_grid import OutputCell, OutputGrid
from repro.core.regions import OutputRegion
from repro.runtime.clock import VirtualClock

from tests.plan_reference import coords_of, iter_coords_in_range


#: One coordinate: near the [0, 8] grid, or far beyond it on either side.
COORD = st.floats(-2, 10) | st.sampled_from([-1e30, 1e30])


def make_grid(k=4, d=2):
    return OutputGrid([0.0] * d, [8.0] * d, k)


def region_over(lower, upper, rid=0):
    return OutputRegion(rid, None, None, lower, upper, 1.0)


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
        region = region_over((1.0, 1.0), (5.0, 3.0))
        grid.cover([region], VirtualClock())
        assert region.cell_min == (0, 0)
        assert region.cell_max == (2, 1)

    def test_iter_coords_in_range(self):
        grid = make_grid()
        region = region_over((0.5, 0.5), (3.5, 5.5))
        clock = VirtualClock()
        grid.cover([region], clock)
        # Row-major, last coordinate fastest; one partition_op per cell.
        assert [c.coords for c in region.covered] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]
        assert clock.count("partition_op") == 6

    def test_iter_single_cell(self):
        grid = make_grid()
        region = region_over((4.5, 4.5), (5.5, 5.5))
        grid.cover([region], VirtualClock())
        assert [c.coords for c in region.covered] == [(2, 2)]

    def test_invalid_cells_per_dim(self):
        with pytest.raises(ValueError):
            OutputGrid([0.0], [1.0], 0)

    def test_degenerate_range(self):
        grid = OutputGrid([5.0], [5.0], 4)  # zero-width domain
        assert grid.coords_of((5.0,)) == (0,)

    @given(
        k=st.integers(1, 5),
        points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=20),
    )
    @settings(max_examples=60)
    def test_coords_matrix_routes_like_coords_of(self, k, points):
        # Outside [0, 8] included: both forms clamp to the boundary cells,
        # also ±1e30, beyond 2^63 cells, where an int cast would wrap.
        grid = make_grid(k=k)
        batched = grid.coords_matrix(np.array(points)).tolist()
        assert [tuple(c) for c in batched] == [coords_of(grid, p) for p in points]
        assert [grid.coords_of(p) for p in points] == [tuple(c) for c in batched]

    def test_coords_matrix_never_makes_a_negative_index(self):
        # A NaN coordinate is not rejected upstream yet; it lands in cell 0.
        coords = make_grid().coords_matrix(np.array([[np.nan, 1e30], [-1e30, np.inf]]))
        assert coords.tolist() == [[0, 3], [0, 3]]

    def test_coords_matrix_of_an_empty_batch(self):
        coords = make_grid().coords_matrix(np.empty((0, 2)))
        assert coords.shape == (0, 2)


class TestBatchedRanges:
    """The array forms the streaming look-ahead uses per block of pairs."""

    def test_cell_ranges_equal_box_cell_range(self):
        grid = make_grid()  # domain [0, 8]^2, 4 cells of width 2
        boxes = [
            ((1.0, 1.0), (5.0, 3.0)),      # inside
            ((2.0, 4.0), (2.0, 4.0)),      # degenerate, on cell boundaries
            ((-3.0, 1.0), (1.0, 11.0)),    # straddling two edges
            ((-0.5, -0.5), (8.5, 8.5)),    # containing the whole domain
            ((-9.0, -7.0), (-1.0, -2.0)),  # wholly below
            ((8.0, 9.0), (12.0, 30.0)),    # wholly above
            ((-4.0, 9.0), (-2.0, 10.0)),   # outside on opposite sides
        ]
        lowers = np.array([lo for lo, _ in boxes])
        uppers = np.array([hi for _, hi in boxes])
        # The batched form is coords_matrix on each corner matrix.
        cmins, cmaxs = grid.coords_matrix(lowers), grid.coords_matrix(uppers)
        for n, (lo, hi) in enumerate(boxes):
            want_min, want_max = coords_of(grid, lo), coords_of(grid, hi)
            assert tuple(cmins[n].tolist()) == want_min
            assert tuple(cmaxs[n].tolist()) == want_max

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_all_marked_equals_brute_force(self, d):
        rng = np.random.default_rng(100 + d)
        k = 5 if d < 4 else 3
        verdicts = set()
        for _ in range(20):
            grid = make_grid(k=k, d=d)
            # Three kinds of cell: never activated, active and unmarked,
            # active and marked (the majority, so some ranges are all marked).
            for coords in itertools.product(range(k), repeat=d):
                draw = rng.random()
                if draw >= 0.2:
                    grid.activate(coords).marked = draw >= 0.4
            a = rng.integers(0, k, size=(60, d))
            b = rng.integers(0, k, size=(60, d))
            cmins, cmaxs = np.minimum(a, b), np.maximum(a, b)
            want = [
                all(
                    coords in grid.cells and grid.cells[coords].marked
                    for coords in iter_coords_in_range(lo, hi)
                )
                for lo, hi in zip(cmins.tolist(), cmaxs.tolist())
            ]
            assert grid.all_marked(cmins, cmaxs).tolist() == want
            verdicts.update(want)
        assert verdicts == {True, False}

    def test_unactivated_cells_count_as_not_marked(self):
        grid = make_grid()
        grid.activate((3, 3)).marked = True
        grid.activate((2, 3))  # active, not marked
        one = lambda *c: np.array([c])  # noqa: E731
        assert grid.all_marked(one(3, 3), one(3, 3)).tolist() == [True]
        assert grid.all_marked(one(2, 3), one(3, 3)).tolist() == [False]
        assert grid.all_marked(one(3, 2), one(3, 3)).tolist() == [False]
        assert grid.all_marked(np.empty((0, 2), int), np.empty((0, 2), int)).size == 0


class TestActivation:
    def test_activate_idempotent(self):
        grid = make_grid()
        a = grid.activate((1, 1))
        b = grid.activate((1, 1))
        assert a is b
        assert grid.active_count == 1


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
