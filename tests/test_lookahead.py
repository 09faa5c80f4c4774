"""Tests for the output-space look-ahead phase (paper §III-A)."""

import numpy as np
import pytest

from tests import plan_reference as reference
from tests.conftest import make_bound, oracle_skyline_keys
from repro.core.lookahead import (
    build_block_regions,
    build_output_grid,
    build_regions,
    eliminate_dominated_regions,
    premark_dominated_cells,
    run_lookahead,
)
from repro.core.regions import OutputRegion
from repro.runtime.clock import VirtualClock
from repro.storage.grid import GridPartitioner
from repro.storage.signatures import SignatureCodes


def grids_for(bound, k=3):
    p = GridPartitioner(k)
    left = p.partition(
        bound.left_table, bound.left_map_attrs, bound.query.join.left_attr,
        source=bound.left_alias,
    )
    right = p.partition(
        bound.right_table, bound.right_map_attrs, bound.query.join.right_attr,
        source=bound.right_alias,
    )
    return left, right


class TestBuildRegions:
    def test_regions_only_for_joinable_pairs(self):
        bound = make_bound(n=100, sigma=0.02, seed=1)
        left, right = grids_for(bound)
        clock = VirtualClock()
        regions = build_regions(bound, left, right, clock)
        assert regions
        for r in regions:
            assert r.left_partition.signature.may_share(
                r.right_partition.signature
            )

    def test_low_selectivity_prunes_pairs(self):
        bound = make_bound(n=120, sigma=0.005, seed=2)
        left, right = grids_for(bound)
        regions = build_regions(bound, left, right, VirtualClock())
        total_pairs = left.partition_count * right.partition_count
        assert len(regions) < total_pairs

    def test_region_boxes_contain_all_mapped_results(self):
        """Soundness of interval mapping: every join result of a partition
        pair falls inside the pair's region box."""
        bound = make_bound(n=80, d=2, sigma=0.1, seed=3)
        left, right = grids_for(bound)
        regions = build_regions(bound, left, right, VirtualClock())
        by_pair = {
            (r.left_partition.coords, r.right_partition.coords): r
            for r in regions
        }
        jl, jr = bound.left_join_index, bound.right_join_index
        for lp in left:
            for rp in right:
                for lrow in lp.rows:
                    for rrow in rp.rows:
                        if lrow[jl] != rrow[jr]:
                            continue
                        region = by_pair[(lp.coords, rp.coords)]
                        vec = bound.vector_of(bound.map_pair(lrow, rrow))
                        for v, lo, hi in zip(vec, region.lower, region.upper):
                            assert lo - 1e-9 <= v <= hi + 1e-9

    def test_every_region_holds_a_join_pair(self):
        """What elimination and premarking rest on: each region's two
        partitions share a join key, so its join is never empty."""
        bound = make_bound(n=100, sigma=0.1, seed=4)
        left, right = grids_for(bound)
        regions = build_regions(bound, left, right, VirtualClock())
        assert regions
        jl, jr = bound.left_join_index, bound.right_join_index
        for r in regions:
            keys = {row[jl] for row in r.left_partition.rows}
            assert any(row[jr] in keys for row in r.right_partition.rows)


class TestElimination:
    def test_dominated_regions_discarded(self):
        bound = make_bound("anticorrelated", n=150, d=2, sigma=0.1, seed=5)
        left, right = grids_for(bound, k=4)
        clock = VirtualClock()
        regions = build_regions(bound, left, right, clock)
        survivors = eliminate_dominated_regions(regions, clock)
        assert len(survivors) < len(regions)
        for r in regions:
            if r not in survivors:
                assert r.discarded

    def test_elimination_is_sound(self):
        """No discarded region may contain a final skyline result."""
        for seed in range(3):
            bound = make_bound("independent", n=100, d=2, sigma=0.1, seed=seed)
            left, right = grids_for(bound, k=4)
            clock = VirtualClock()
            regions = build_regions(bound, left, right, clock)
            survivors = eliminate_dominated_regions(regions, clock)
            surviving_pairs = {
                (r.left_partition.coords, r.right_partition.coords)
                for r in survivors
            }
            # Locate the partition pair of every oracle skyline member.
            lattrs = bound.left_map_indices
            rattrs = bound.right_map_indices
            for lrow, rrow in oracle_skyline_keys(bound):
                lcoords = left.cell_of([lrow[i] for i in lattrs])
                rcoords = right.cell_of([rrow[i] for i in rattrs])
                assert (lcoords, rcoords) in surviving_pairs

    def test_one_graph_op_per_region(self):
        bound = make_bound(n=100, sigma=0.1, seed=6)
        left, right = grids_for(bound)
        regions = build_regions(bound, left, right, VirtualClock())
        clock = VirtualClock()
        eliminate_dominated_regions(regions, clock)
        assert clock.snapshot() == {"graph_op": len(regions)}


class TestOutputGridConstruction:
    def test_coverage_counts(self):
        bound = make_bound(n=80, d=2, sigma=0.1, seed=7)
        left, right = grids_for(bound)
        clock = VirtualClock()
        regions = build_regions(bound, left, right, clock)
        regions = eliminate_dominated_regions(regions, clock)
        grid = build_output_grid(bound, regions, 6, clock)
        total_cover = sum(len(r.covered) for r in regions)
        total_reg_count = sum(c.reg_count for c in grid.cells.values())
        assert total_cover == total_reg_count
        for r in regions:
            assert r.unmarked_covered == len(r.covered)

    def test_premark_marks_cells(self):
        bound = make_bound("anticorrelated", n=150, d=2, sigma=0.2, seed=8)
        left, right = grids_for(bound, k=4)
        clock = VirtualClock()
        regions = build_regions(bound, left, right, clock)
        regions = eliminate_dominated_regions(regions, clock)
        grid = build_output_grid(bound, regions, 8, clock)
        marked = premark_dominated_cells(regions, grid, clock)
        assert marked > 0
        assert grid.marked_count == marked

    def test_premark_never_marks_skyline_cells(self):
        """Marked cells must not contain any final skyline vector."""
        for seed in range(3):
            bound = make_bound("independent", n=120, d=2, sigma=0.1, seed=seed)
            left, right = grids_for(bound, k=4)
            clock = VirtualClock()
            regions, grid = run_lookahead(bound, left, right, 8, clock)
            skyline_vectors = {
                bound.vector_of(bound.map_pair(lkey, rkey))
                for lkey, rkey in oracle_skyline_keys(bound)
            }
            for vec in skyline_vectors:
                cell = grid.cells.get(grid.coords_of(vec))
                assert cell is not None, "skyline vector in inactive cell"
                assert not cell.marked, "skyline vector in marked cell"


class TestRunLookahead:
    def test_full_pipeline(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=9)
        left, right = grids_for(bound)
        regions, grid = run_lookahead(bound, left, right, 6, VirtualClock())
        assert regions
        assert grid.active_count > 0
        # Cones were built: some live cell has neighbours.
        live = [c for c in grid.cells.values() if not c.marked]
        assert any(c.cone_lower or c.cone_upper for c in live)


# ----------------------------------------------------------------------
# the array forms against the per-pair / broadcast forms they replaced
# ----------------------------------------------------------------------
def per_pair_regions(bound, left, right, clock):
    """``build_regions`` as it was: one ``region_box`` call per pair."""
    regions, _ = reference.block_regions(
        bound, list(left), list(right), left.attributes, right.attributes,
        clock,
    )
    return [
        (r.rid, r.left_partition, r.right_partition, r.lower, r.upper,
         r.expected_join)
        for r in regions
    ]


class TestBatchedBuilder:
    @pytest.mark.parametrize("distribution", ["independent", "anticorrelated"])
    @pytest.mark.parametrize("sigma", [0.01, 0.2])
    def test_regions_equal_the_per_pair_loop(self, distribution, sigma):
        bound = make_bound(distribution, n=150, d=3, sigma=sigma, seed=21)
        left, right = grids_for(bound, k=3)
        clock, reference_clock = VirtualClock(), VirtualClock()
        regions = build_regions(bound, left, right, clock)
        want = per_pair_regions(bound, left, right, reference_clock)
        got = [
            (r.rid, r.left_partition, r.right_partition, r.lower, r.upper,
             r.expected_join)
            for r in regions
        ]
        assert got == want
        assert all(type(v) is float for r in regions for v in r.lower + r.upper)
        assert clock.snapshot() == reference_clock.snapshot()

    def test_empty_side_builds_nothing(self):
        bound = make_bound(n=40, seed=22)
        left, _ = grids_for(bound)
        clock = VirtualClock()
        regions, pruned = build_block_regions(
            bound, list(left), [], left.attributes, (), clock,
            codes=(left.signature_codes, SignatureCodes()),
        )
        assert (regions, pruned, clock.snapshot()) == ([], 0, {})


def broadcast_dominated(uppers, lowers):
    """The ``(G, N, d)`` broadcast both pruning passes used to build."""
    uppers, lowers = np.asarray(uppers), np.asarray(lowers)
    le = uppers[:, None, :] <= lowers[None, :, :]
    lt = uppers[:, None, :] < lowers[None, :, :]
    return (le.all(axis=2) & lt.any(axis=2)).any(axis=0)


def random_regions(rng, n, d):
    """Regions over small-integer boxes, so exact ties are common."""
    regions = []
    for rid in range(n):
        lower = rng.integers(0, 5, size=d)
        upper = lower + rng.integers(0, 3, size=d)  # zero-width sides too
        regions.append(
            OutputRegion(
                rid, None, None,
                tuple(map(float, lower)), tuple(map(float, upper)), 1.0,
            )
        )
    return regions


class TestDominancePruningAgainstBroadcast:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_region_elimination(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(25):
            regions = random_regions(rng, int(rng.integers(1, 40)), d)
            want = broadcast_dominated(
                [r.upper for r in regions], [r.lower for r in regions]
            ).tolist()
            clock = VirtualClock()
            survivors = eliminate_dominated_regions(regions, clock)
            assert [r.discarded for r in regions] == want
            assert survivors == [r for r in regions if not r.discarded]
            assert clock.count("graph_op") == len(regions)

    def test_exact_ties_never_eliminate(self):
        """upper == lower on every dimension is not dominance."""
        point = OutputRegion(0, None, None, (2.0, 2.0), (2.0, 2.0), 1.0)
        twin = OutputRegion(1, None, None, (2.0, 2.0), (3.0, 3.0), 1.0)
        beyond = OutputRegion(2, None, None, (2.0, 2.5), (4.0, 4.0), 1.0)
        survivors = eliminate_dominated_regions(
            [point, twin, beyond], VirtualClock()
        )
        assert survivors == [point, twin]
        assert beyond.discarded  # (2, 2) <= (2, 2.5), strictly on one side

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cell_premarking(self, d):
        rng = np.random.default_rng(400 + d)
        bound = make_bound(n=30, d=d, seed=23)
        for _ in range(15):
            regions = random_regions(rng, int(rng.integers(1, 25)), d)
            grid = build_output_grid(bound, regions, 4, VirtualClock())
            cells = list(grid.cells.values())
            want = broadcast_dominated(
                [r.upper for r in regions], [c.lower for c in cells]
            ).tolist()
            marked = premark_dominated_cells(regions, grid, VirtualClock())
            assert [c.marked for c in cells] == want
            assert marked == sum(want)
