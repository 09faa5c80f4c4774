"""Tests for ProgOrder and the random-order ablation (paper §IV-D)."""


from tests.conftest import make_bound
from repro.core.elimination_graph import EliminationGraph
from repro.core.progorder import ProgOrder, RandomOrder
from repro.core.regions import OutputRegion
from repro.runtime.clock import VirtualClock
from repro.storage.partition import InputPartition


def region(rid, cmin, cmax, rank=1.0):
    lp = InputPartition("R", (0,), (0.0,), (1.0,))
    rp = InputPartition("T", (0,), (0.0,), (1.0,))
    r = OutputRegion(rid, lp, rp, (0.0, 0.0), (1.0, 1.0), 10.0)
    r.cell_min, r.cell_max = cmin, cmax
    r.covered = [object()]
    r.cardinality = rank  # smuggle a fixed rank through for tests
    return r


def fixed_rank(r):
    return r.cardinality


class TestProgOrder:
    def test_pops_highest_rank_root_first(self):
        a = region(0, (0, 3), (1, 4), rank=1.0)
        b = region(1, (3, 0), (4, 1), rank=5.0)  # anti-diagonal: incomparable
        graph = EliminationGraph([a, b], VirtualClock())
        policy = ProgOrder(graph, fixed_rank, VirtualClock())
        assert policy.next_region().rid == 1

    def test_only_roots_initially_queued(self):
        a = region(0, (0, 0), (1, 1), rank=1.0)
        b = region(1, (3, 3), (4, 4), rank=100.0)  # dominated by a: not root
        graph = EliminationGraph([a, b], VirtualClock())
        policy = ProgOrder(graph, fixed_rank, VirtualClock())
        first = policy.next_region()
        assert first.rid == 0  # despite b's higher rank

    def test_new_roots_enter_after_removal(self):
        a = region(0, (0, 0), (1, 1), rank=1.0)
        b = region(1, (3, 3), (4, 4), rank=2.0)
        graph = EliminationGraph([a, b], VirtualClock())
        policy = ProgOrder(graph, fixed_rank, VirtualClock())
        first = policy.next_region()
        first.processed = True
        policy.on_region_done(first)
        second = policy.next_region()
        assert second.rid == 1

    def test_done_regions_skipped(self):
        a = region(0, (0, 0), (1, 1), rank=1.0)
        b = region(1, (0, 2), (1, 3), rank=5.0)
        graph = EliminationGraph([a, b], VirtualClock())
        policy = ProgOrder(graph, fixed_rank, VirtualClock())
        b.discarded = True
        assert policy.next_region().rid == 0

    def test_cycle_breaking_fallback(self):
        # Mutual partial elimination: no roots at all.
        a = region(0, (0, 0), (5, 5), rank=1.0)
        b = region(1, (1, 1), (6, 6), rank=2.0)
        graph = EliminationGraph([a, b], VirtualClock())
        policy = ProgOrder(graph, fixed_rank, VirtualClock())
        got = policy.next_region()
        assert got is not None
        assert got.rid == 1  # cycle broken by rank

    def test_exhaustion_returns_none(self):
        a = region(0, (0, 0), (1, 1))
        graph = EliminationGraph([a], VirtualClock())
        policy = ProgOrder(graph, fixed_rank, VirtualClock())
        first = policy.next_region()
        first.processed = True
        policy.on_region_done(first)
        assert policy.next_region() is None

    def test_all_regions_eventually_handed_out(self):
        bound = make_bound(n=100, d=2, sigma=0.1, seed=2)
        from repro.core.lookahead import run_lookahead
        from repro.storage.grid import GridPartitioner

        p = GridPartitioner(3)
        lg = p.partition(bound.left_table, bound.left_map_attrs,
                         bound.query.join.left_attr, source="R")
        rg = p.partition(bound.right_table, bound.right_map_attrs,
                         bound.query.join.right_attr, source="T")
        clock = VirtualClock()
        regions, grid = run_lookahead(bound, lg, rg, 6, clock)
        graph = EliminationGraph(regions, clock)
        policy = ProgOrder(graph, lambda r: 1.0, clock)
        seen = set()
        while True:
            r = policy.next_region()
            if r is None:
                break
            r.processed = True
            seen.add(r.rid)
            policy.on_region_done(r)
        live = {r.rid for r in regions if not r.discarded}
        assert live <= seen | {r.rid for r in regions if r.discarded}


class TestRandomOrder:
    def test_covers_all_regions(self):
        regions = [region(i, (0, 2 * i), (1, 2 * i + 1)) for i in range(5)]
        graph = EliminationGraph(regions, VirtualClock())
        policy = RandomOrder(graph, fixed_rank, VirtualClock(), seed=3)
        seen = []
        while True:
            r = policy.next_region()
            if r is None:
                break
            r.processed = True
            seen.append(r.rid)
            policy.on_region_done(r)
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_seed_determines_order(self):
        def order_for(seed):
            regions = [region(i, (0, 2 * i), (1, 2 * i + 1)) for i in range(6)]
            graph = EliminationGraph(regions, VirtualClock())
            policy = RandomOrder(graph, fixed_rank, VirtualClock(), seed=seed)
            out = []
            while True:
                r = policy.next_region()
                if r is None:
                    break
                r.processed = True
                out.append(r.rid)
            return out

        assert order_for(1) == order_for(1)
        assert order_for(1) != order_for(2)

    def test_skips_discarded(self):
        regions = [region(i, (0, 2 * i), (1, 2 * i + 1)) for i in range(3)]
        regions[1].discarded = True
        graph = EliminationGraph(regions, VirtualClock())
        policy = RandomOrder(graph, fixed_rank, VirtualClock(), seed=0)
        seen = set()
        while True:
            r = policy.next_region()
            if r is None:
                break
            r.processed = True
            seen.add(r.rid)
        assert 1 not in seen
