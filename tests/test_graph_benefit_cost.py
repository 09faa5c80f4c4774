"""Tests for the EL-Graph, benefit model and cost model (paper §IV)."""

import math

import pytest

from tests.conftest import make_bound
from repro.core.benefit import progressive_count, region_benefit, region_cardinality
from repro.core.cost import kung_alpha, region_cost
from repro.core import progorder
from repro.core.elimination_graph import EliminationGraph
from repro.core.lookahead import run_lookahead
from repro.core.progdetermine import ExecutionState
from repro.core.regions import OutputRegion
from repro.runtime.clock import VirtualClock
from repro.skyline.estimate import expected_skyline_size
from repro.storage.grid import GridPartitioner
from repro.storage.partition import InputPartition


def lookahead_for(bound, k_in=3, k_out=6):
    p = GridPartitioner(k_in)
    left = p.partition(
        bound.left_table, bound.left_map_attrs, bound.query.join.left_attr,
        source=bound.left_alias,
    )
    right = p.partition(
        bound.right_table, bound.right_map_attrs, bound.query.join.right_attr,
        source=bound.right_alias,
    )
    clock = VirtualClock()
    regions, grid = run_lookahead(bound, left, right, k_out, clock)
    return regions, grid, clock


def synthetic_region(rid, cmin, cmax, expected_join=10.0):
    lp = InputPartition("R", (0,), (0.0,), (1.0,))
    rp = InputPartition("T", (0,), (0.0,), (1.0,))
    region = OutputRegion(rid, lp, rp, (0.0, 0.0), (1.0, 1.0), expected_join)
    region.cell_min = cmin
    region.cell_max = cmax
    region.covered = [object()]  # non-empty so the graph keeps it
    return region


class TestEliminationGraph:
    def test_edge_when_strictly_below(self):
        a = synthetic_region(0, (0, 0), (1, 1))
        b = synthetic_region(1, (3, 3), (4, 4))
        graph = EliminationGraph([a, b], VirtualClock())
        assert b.rid in a.out_edges
        assert a.rid not in b.out_edges
        assert b.in_degree == 1
        assert [r.rid for r in graph.roots()] == [0]

    def test_no_edge_between_incomparable(self):
        a = synthetic_region(0, (0, 3), (1, 4))
        b = synthetic_region(1, (3, 0), (4, 1))
        graph = EliminationGraph([a, b], VirtualClock())
        assert not a.out_edges and not b.out_edges
        assert len(graph.roots()) == 2

    def test_mutual_partial_elimination_cycle(self):
        # Overlapping boxes can each hold a cell strictly below a cell of
        # the other -> cycle, no roots (Figure 6.d).
        a = synthetic_region(0, (0, 0), (5, 5))
        b = synthetic_region(1, (1, 1), (6, 6))
        graph = EliminationGraph([a, b], VirtualClock())
        assert graph.roots() == []
        assert len(graph.remaining()) == 2

    def test_remove_rootles_cascade(self):
        a = synthetic_region(0, (0, 0), (1, 1))
        b = synthetic_region(1, (3, 3), (4, 4))
        graph = EliminationGraph([a, b], VirtualClock())
        a.processed = True
        new_roots = graph.remove(a)
        assert [r.rid for r in new_roots] == [1]

    def test_real_workload_has_roots(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=3)
        regions, grid, clock = lookahead_for(bound)
        graph = EliminationGraph(regions, clock)
        live = [r for r in regions if not r.discarded]
        if live:
            assert graph.remaining()

    def test_paper_example_4_shape(self):
        """Figure 7's qualitative shape: a region whose cells sit lowest
        eliminates regions positioned strictly above it."""
        r13 = synthetic_region(0, (2, 0), (4, 1))  # low delay band
        r41 = synthetic_region(1, (6, 3), (8, 5))  # strictly above-right
        r22 = synthetic_region(2, (5, 1), (7, 4))  # partially above
        EliminationGraph([r13, r41, r22], VirtualClock())  # wires edges
        assert r41.rid in r13.out_edges
        assert r22.rid in r13.out_edges


class TestBenefitModel:
    def test_cardinality_matches_eq1(self):
        region = synthetic_region(0, (0, 0), (1, 1), expected_join=100.0)
        assert region_cardinality(region, 2) == pytest.approx(
            expected_skyline_size(100.0, 2)
        )
        assert region_cardinality(region, 3) == pytest.approx(
            math.log(100.0) ** 2 / 2
        )

    def test_progcount_zero_when_fully_dependent(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=4)
        regions, grid, clock = lookahead_for(bound)
        live = [r for r in regions if not r.discarded and r.covered]
        counts = {r.rid: progressive_count(r) for r in live}
        # ProgCount is bounded by the covered-cell count.
        for r in live:
            assert 0 <= counts[r.rid] <= len(r.covered)
        # At least one region must be able to release something (else the
        # whole workload would deadlock, which execution disproves).
        assert any(c > 0 for c in counts.values())

    def test_benefit_in_cardinality_range(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=5)
        regions, grid, clock = lookahead_for(bound)
        for r in regions:
            if r.discarded or not r.covered:
                continue
            b = region_benefit(r, 2)
            assert 0.0 <= b <= r.cardinality + 1e-9

    def test_benefit_zero_for_empty_region(self):
        region = synthetic_region(0, (0, 0), (1, 1))
        region.covered = []
        assert region_benefit(region, 2) == 0.0


class TestProgCountStaircase:
    """Hand-computed ProgCount on a controlled staircase layout — the
    paper's Example 5 / Figure 8 scenario, rebuilt with known geometry.

    Four regions on an 8x8 output grid (cell coordinates):

    * A covers {(0,4),(0,5),(1,4),(1,5)}   (upper-left step)
    * B covers {(2,2),(2,3),(3,2),(3,3)}   (middle step)
    * C covers {(4,0),(4,1),(5,0),(5,1)}   (lower-right step)
    * D covers {(1,1),(1,2)}               (a dominator below A and B)

    Expected (Definition 2): ProgCount(D)=2 (fully independent);
    ProgCount(B)=0 (all four cells have D's cells in their cones);
    ProgCount(A)=2 (its x=1 column depends on D, its x=0 column not);
    ProgCount(C)=2 (its y=1 row depends on D's (1,1), its y=0 row not).
    """

    def _build(self, **changes):
        """The layout with ``changes`` (name -> cells) applied — a new name
        adds a region — wired as the look-ahead wires it, and an execution
        state over it."""
        from repro.core.output_grid import OutputGrid

        grid = OutputGrid([0.0, 0.0], [8.0, 8.0], 8)
        layout = {
            "A": [(0, 4), (0, 5), (1, 4), (1, 5)],
            "B": [(2, 2), (2, 3), (3, 2), (3, 3)],
            "C": [(4, 0), (4, 1), (5, 0), (5, 1)],
            "D": [(1, 1), (1, 2)],
        }
        layout.update(changes)
        regions = {}
        for rid, (name, cells) in enumerate(layout.items()):
            region = synthetic_region(rid, min(cells), max(cells))
            region.covered = []
            for coords in cells:
                cell = grid.activate(coords)
                cell.reg_count += 1
                cell.region_ids.append(rid)
                region.covered.append(cell)
            region.unmarked_covered = len(region.covered)
            regions[name] = region
        grid.build_cones()
        state = ExecutionState(None, list(regions.values()), grid, VirtualClock())
        return regions, state

    @staticmethod
    def _complete(state, region):
        """What the kernel does when a region's processing ends."""
        region.processed = True
        state.complete_region(region)

    def test_progcounts_match_hand_computation(self):
        regions, _ = self._build()
        assert progressive_count(regions["D"]) == 2
        assert progressive_count(regions["B"]) == 0
        assert progressive_count(regions["A"]) == 2
        assert progressive_count(regions["C"]) == 2

    def test_progcount_recovers_after_dependency_resolves(self):
        """Once D completes and its cells settle, A, B and C become
        independent."""
        regions, state = self._build()
        self._complete(state, regions["D"])
        assert progressive_count(regions["B"]) == 4
        assert progressive_count(regions["A"]) == 4
        assert progressive_count(regions["C"]) == 4

    # D's box grown to (2,2), a cell B covers too.
    SHARED = [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_done_region_coverage_does_not_block(self):
        """A completed region's coverage of a cone cell is no external
        dependency: the shared cell stays unsettled, fed by B alone, and
        blocks none of B's cells."""
        regions, state = self._build(D=self.SHARED)
        self._complete(state, regions["D"])
        shared = state.grid.cells[(2, 2)]
        assert not shared.settled and shared.reg_count == 1
        assert progressive_count(regions["B"]) == 4

    def test_pending_feeder_of_a_shared_cell_blocks(self):
        """The converse: while E, still pending, also feeds the shared
        cell, every cell of B above it is blocked."""
        regions, state = self._build(D=self.SHARED, E=[(2, 2)])
        self._complete(state, regions["D"])
        assert state.grid.cells[(2, 2)].reg_count == 2
        assert progressive_count(regions["B"]) == 1
        assert progressive_count(regions["E"]) == 1


class TestCostModel:
    def test_kung_alpha(self):
        assert kung_alpha(2) == 1
        assert kung_alpha(3) == 1
        assert kung_alpha(4) == 2
        assert kung_alpha(5) == 3
        with pytest.raises(ValueError):
            kung_alpha(0)

    def test_cost_components_grow_with_inputs(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=6)
        regions, grid, clock = lookahead_for(bound)
        live = [r for r in regions if not r.discarded and r.covered]
        costs = {r.rid: region_cost(r, grid, 2) for r in live}
        for r in live:
            n_a, n_b = r.join_cost_inputs
            assert costs[r.rid] >= n_a * n_b  # C_join is a lower bound

    def test_cost_increases_with_join_size(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=6)
        regions, grid, clock = lookahead_for(bound)
        live = [r for r in regions if not r.discarded and r.covered]
        r = live[0]
        base = region_cost(r, grid, 2)
        r.expected_join *= 10
        assert region_cost(r, grid, 2) > base


class TestRank:
    def test_rank_is_benefit_over_cost(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=6)
        regions, grid, clock = lookahead_for(bound)
        live = [r for r in regions if not r.discarded and r.covered]
        assert live
        for r in live:
            benefit, cost, rank = progorder.region_rank(r, grid, 2)
            assert (benefit, cost) == (region_benefit(r, 2), region_cost(r, grid, 2))
            assert rank == benefit / cost

    def test_zero_cost_ranks_by_benefit(self, monkeypatch):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=6)
        regions, grid, clock = lookahead_for(bound)
        r = next(r for r in regions if not r.discarded and r.covered)
        monkeypatch.setattr(progorder, "region_cost", lambda *args: 0.0)
        benefit = region_benefit(r, 2)
        assert progorder.region_rank(r, grid, 2) == (benefit, 0.0, benefit)
