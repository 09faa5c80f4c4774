"""Tests for cross-query work sharing (:mod:`repro.cache`).

The contract under test: sharing phase-1 partitioning across plans is an
invisible optimisation — a cache hit must never change any query's emitted
result *sequence* — plus the bookkeeping around it (hit/miss/eviction
accounting, LRU bounds, version-token invalidation, the session/scheduler
knobs, and the stats surfaces).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_bound
from repro.cache import CacheStats, PartitionKey, PartitionStore, PlanCache
from repro.core.engine import ProgXeEngine
from repro.core.plan import QueryPlan
from repro.data.workloads import SyntheticWorkload
from repro.errors import QueryError, SchemaError
from repro.runtime.clock import VirtualClock
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.storage.grid import GridPartitioner
from repro.storage.quadtree import QuadTreePartitioner
from repro.storage.table import Table


def small_table(name: str = "R", rows: int = 12) -> Table:
    return Table.from_rows(
        name,
        ["id", "a0", "a1", "jkey"],
        [(i, float(i % 5), float(i % 3), i % 4) for i in range(rows)],
    )


def key_for(table: Table, source: str = "R", cells: int = 4) -> PartitionKey:
    return PartitionKey.for_table(
        table, ("a0", "a1"), "jkey",
        GridPartitioner(cells).descriptor(), source=source,
    )


# ----------------------------------------------------------------------
# Table version tokens
# ----------------------------------------------------------------------
class TestTableToken:
    def test_uids_are_unique_and_stable(self):
        a, b = small_table("A"), small_table("B")
        assert a.uid != b.uid
        assert a.uid == a.uid

    def test_append_row_bumps_version(self):
        t = small_table()
        before = t.cache_token
        t.append_row((99, 1.0, 2.0, 3))
        uid, version, count = t.cache_token
        assert uid == before[0]
        assert version == before[1] + 1
        assert count == before[2] + 1

    def test_extend_rows_bumps_version_once(self):
        t = small_table()
        v0 = t.version
        t.extend_rows([(99, 1.0, 2.0, 3), (100, 1.5, 2.5, 0)])
        assert t.version == v0 + 1

    def test_touch_bumps_version_without_rows(self):
        t = small_table()
        n = len(t)
        t.touch()
        assert t.version == 1 and len(t) == n

    def test_mutation_api_validates_schema(self):
        t = small_table()
        with pytest.raises(SchemaError):
            t.append_row((1, 2.0))
        with pytest.raises(SchemaError):
            t.extend_rows([(1, 2.0, 3.0, 4), (5,)])
        # A failed extend stages first: nothing was appended.
        assert len(t) == 12


# ----------------------------------------------------------------------
# PartitionStore
# ----------------------------------------------------------------------
def lookup(store, key, builder=lambda: None):
    """``store.get_or_patch`` with a patcher that never extends in place."""
    return store.get_or_patch(
        key, patcher=lambda old_key, stale: False, builder=builder
    )


class TestPartitionStore:
    def test_lookup_miss_then_hit(self):
        store = PartitionStore()
        table = small_table()
        built = []

        def builder():
            built.append(1)
            return GridPartitioner(4).partition(table, ("a0", "a1"), "jkey")

        grid1, outcome1 = lookup(store, key_for(table), builder)
        grid2, outcome2 = lookup(store, key_for(table), builder)
        assert (outcome1, outcome2) == ("miss", "hit")
        assert grid1 is grid2
        assert built == [1]
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_version_change_is_a_miss(self):
        store = PartitionStore()
        table = small_table()
        store.put(key_for(table), "old")
        table.touch()
        assert lookup(store, key_for(table)) == (None, "miss")

    def test_distinct_configurations_do_not_collide(self):
        table = small_table()
        keys = {
            key_for(table),
            key_for(table, cells=8),
            key_for(table, source="T"),
            PartitionKey.for_table(
                table, ("a1", "a0"), "jkey", GridPartitioner(4).descriptor()
            ),
            PartitionKey.for_table(
                table, ("a0", "a1"), "id", GridPartitioner(4).descriptor()
            ),
            PartitionKey.for_table(
                table, ("a0", "a1"), "jkey",
                QuadTreePartitioner(8).descriptor(),
            ),
        }
        assert len(keys) == 6

    def test_lru_eviction(self):
        store = PartitionStore(max_entries=2)
        t1, t2, t3 = small_table("A"), small_table("B"), small_table("C")
        store.put(key_for(t1), "g1")
        store.put(key_for(t2), "g2")
        assert lookup(store, key_for(t1)) == ("g1", "hit")  # t2 becomes LRU
        store.put(key_for(t3), "g3")
        assert len(store) == 2
        assert store.stats().evictions == 1
        assert key_for(t2) not in store
        assert key_for(t1) in store and key_for(t3) in store

    def test_invalidate_table_drops_all_generations(self):
        store = PartitionStore()
        table = small_table()
        store.put(key_for(table), "v0")
        table.touch()
        store.put(key_for(table), "v1")
        other = small_table("other")
        store.put(key_for(other), "kept")
        assert store.invalidate_table(table) == 2
        assert len(store) == 1
        assert store.stats().invalidations == 2
        assert key_for(other) in store

    def test_clear(self):
        store = PartitionStore()
        store.put(key_for(small_table()), "x")
        store.clear()
        assert len(store) == 0

    def test_max_entries_validated(self):
        with pytest.raises(QueryError, match="max_entries"):
            PartitionStore(max_entries=0)

    def test_stats_as_dict(self):
        stats = CacheStats(hits=3, misses=1, evictions=0, invalidations=0,
                           entries=1)
        d = stats.as_dict()
        assert d["hits"] == 3 and d["hit_rate"] == 0.75
        assert CacheStats().hit_rate == 0.0


# ----------------------------------------------------------------------
# PlanCache + QueryPlan integration
# ----------------------------------------------------------------------
class TestPlanCacheIntegration:
    def test_second_plan_hits_and_shares_grids(self, small_bound):
        cache = PlanCache()
        plan1 = QueryPlan.build(small_bound, VirtualClock(), cache=cache)
        plan2 = QueryPlan.build(small_bound, VirtualClock(), cache=cache)
        assert plan1.cache_events == {"partition_misses": 2}
        assert plan2.cache_events == {"partition_hits": 2}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (2, 2, 2)

    def test_hit_charges_cache_op_not_partition_op(self, small_bound):
        cache = PlanCache()
        QueryPlan.build(small_bound, VirtualClock(), cache=cache)
        hit_clock = VirtualClock()
        QueryPlan.build(small_bound, hit_clock, cache=cache)
        cold_clock = VirtualClock()
        QueryPlan.build(small_bound, cold_clock)
        n = len(small_bound.left_table) + len(small_bound.right_table)
        assert hit_clock.count("cache_op") == 2
        assert cold_clock.count("cache_op") == 0
        # The hit build skips exactly the per-row phase-1 charge; the
        # look-ahead partition_ops are identical on both paths.
        assert cold_clock.count("partition_op") - hit_clock.count(
            "partition_op"
        ) == n

    def test_cached_vs_private_planning_vtime(self, small_bound):
        """A hit must plan strictly cheaper than a private build."""
        cache = PlanCache()
        QueryPlan.build(small_bound, VirtualClock(), cache=cache)
        hit_clock = VirtualClock()
        QueryPlan.build(small_bound, hit_clock, cache=cache)
        cold_clock = VirtualClock()
        QueryPlan.build(small_bound, cold_clock)
        assert hit_clock.now() < cold_clock.now()

    def test_quadtree_partitioning_shares_too(self, small_bound):
        cache = PlanCache()
        QueryPlan.build(small_bound, VirtualClock(), cache=cache,
                        partitioning="quadtree")
        plan = QueryPlan.build(small_bound, VirtualClock(), cache=cache,
                               partitioning="quadtree")
        assert plan.cache_events == {"partition_hits": 2}

    def test_different_engine_config_misses(self, small_bound):
        cache = PlanCache()
        QueryPlan.build(small_bound, VirtualClock(), cache=cache)
        plan = QueryPlan.build(small_bound, VirtualClock(), cache=cache,
                               input_cells=7)
        assert plan.cache_events == {"partition_misses": 2}

    def test_pushthrough_pruned_sides_bypass_cache(self):
        """Pruned tables are per-query objects; they must not pollute the
        store with entries no later plan can ever hit."""
        bound = make_bound("anticorrelated", n=100, d=2, sigma=0.1, seed=3)
        cache = PlanCache()
        plan = QueryPlan.build(bound, VirtualClock(), cache=cache,
                               pushthrough=True)
        # Both sides actually pruned for this workload (fresh tables).
        assert plan.prune_stats["left_pruned"] > 0
        assert plan.prune_stats["right_pruned"] > 0
        assert plan.cache_events == {}
        assert len(cache.store) == 0

    def test_shared_plan_results_identical_to_private(self, small_bound):
        cache = PlanCache()
        QueryPlan.build(small_bound, VirtualClock(), cache=cache)  # warm
        shared = ProgXeEngine(small_bound, VirtualClock(), cache=cache)
        private = ProgXeEngine(small_bound, VirtualClock())
        assert [r.key() for r in shared.run()] == [
            r.key() for r in private.run()
        ]


# ----------------------------------------------------------------------
# Session / scheduler wiring
# ----------------------------------------------------------------------
class TestSessionSharing:
    def make_session(self, workload, **kwargs) -> Session:
        return Session(**kwargs).register_tables(workload.tables())

    def test_session_queries_share_by_default(self):
        workload = SyntheticWorkload(
            distribution="independent", n=120, d=2, sigma=0.05, seed=42
        )
        session = self.make_session(workload)
        bound = workload.bound()
        s1 = session.execute(bound)
        s1.drain()
        s2 = session.execute(bound)
        s2.drain()
        assert s1.stats().partition_cache == {"partition_misses": 2}
        assert s2.stats().partition_cache == {"partition_hits": 2}
        assert session.plan_cache.stats().hits == 2

    def test_repeated_builder_execute_is_deterministic(self):
        """Regression: a cache hit never changes the emitted result order.

        The same builder executed repeatedly (cold plan, then cache hits)
        must emit the same sequence as a session with sharing disabled.
        """
        workload = SyntheticWorkload(
            distribution="anticorrelated", n=150, d=2, sigma=0.05, seed=11
        )
        session = self.make_session(workload)
        builder = (
            session.query()
            .from_tables("R", "T")
            .join_on("R.jkey = T.jkey")
            .map("x0", "R.a0 + T.b0")
            .map("x1", "R.a1 + T.b1")
            .preferring("LOWEST(x0)", "LOWEST(x1)")
        )
        sequences = [
            [r.key() for r in builder.execute().drain()] for _ in range(3)
        ]
        private_session = self.make_session(
            workload, config=EngineConfig(share_partitions=False)
        )
        private_builder = (
            private_session.query()
            .from_tables("R", "T")
            .join_on("R.jkey = T.jkey")
            .map("x0", "R.a0 + T.b0")
            .map("x1", "R.a1 + T.b1")
            .preferring("LOWEST(x0)", "LOWEST(x1)")
        )
        private = [r.key() for r in private_builder.execute().drain()]
        assert sequences[0] == sequences[1] == sequences[2] == private
        assert session.plan_cache.stats().hits == 4  # runs 2 and 3

    def test_share_partitions_config_flag_disables(self):
        workload = SyntheticWorkload(
            distribution="independent", n=120, d=2, sigma=0.05, seed=42
        )
        session = self.make_session(
            workload, config=EngineConfig(share_partitions=False)
        )
        bound = workload.bound()
        session.execute(bound).drain()
        stream = session.execute(bound)
        stream.drain()
        assert stream.stats().partition_cache is None
        assert session.plan_cache.stats().lookups == 0

    def test_append_patches_cached_partitions(self):
        workload = SyntheticWorkload(
            distribution="independent", n=100, d=2, sigma=0.05, seed=9
        )
        session = self.make_session(workload)
        bound = workload.bound()
        session.execute(bound).drain()
        assert session.plan_cache.stats().misses == 2

        # Append through the version-bumping API: the source proves an
        # append-only delta, so the next query *patches* the cached grid
        # with the new row instead of rebuilding it.
        left = bound.left_table
        row = list(left.rows[0])
        row[0] = -1  # fresh id
        left.append_row(tuple(row))
        stream = session.execute(bound)
        stream.drain()
        assert stream.stats().partition_cache == {
            "partition_hits": 1, "partition_patched": 1
        }
        stats = session.plan_cache.stats()
        assert stats.patched == 1 and stats.invalidations == 0

        # The patched partitioning sees the appended row: equal to a fully
        # private run over the mutated table.
        private = Session(config=EngineConfig(share_partitions=False))
        check = private.execute(bound)
        check.drain()
        assert [r.key() for r in stream.results] == [
            r.key() for r in check.results
        ]

    def test_nonappend_mutation_invalidates_cached_partitions(self):
        workload = SyntheticWorkload(
            distribution="independent", n=100, d=2, sigma=0.05, seed=9
        )
        session = self.make_session(workload)
        bound = workload.bound()
        session.execute(bound).drain()

        # An in-place edit (touch) raises the append barrier: no delta is
        # provable, so the next query re-partitions (miss), not patches.
        left = bound.left_table
        left.rows[0] = tuple([-1] + list(left.rows[0])[1:])
        left.touch()
        stream = session.execute(bound)
        stream.drain()
        assert stream.stats().partition_cache == {
            "partition_hits": 1,
            "partition_misses": 1,
            "partition_invalidated": 1,
        }
        stats = session.plan_cache.stats()
        assert stats.patched == 0 and stats.invalidations == 1

        private = Session(config=EngineConfig(share_partitions=False))
        check = private.execute(bound)
        check.drain()
        assert [r.key() for r in stream.results] == [
            r.key() for r in check.results
        ]

    def test_explicit_invalidation(self):
        workload = SyntheticWorkload(
            distribution="independent", n=100, d=2, sigma=0.05, seed=9
        )
        session = self.make_session(workload)
        bound = workload.bound()
        session.execute(bound).drain()
        dropped = session.plan_cache.invalidate(bound.left_table)
        assert dropped == 1
        stream = session.execute(bound)
        stream.drain()
        assert stream.stats().partition_cache == {
            "partition_hits": 1, "partition_misses": 1
        }

    def test_scheduler_shares_across_concurrent_queries(self):
        workload = SyntheticWorkload(
            distribution="anticorrelated", n=150, d=2, sigma=0.05, seed=5
        )
        session = self.make_session(workload)
        bound = workload.bound()
        scheduler = session.scheduler()
        handles = [scheduler.submit(bound, name=f"q{i}") for i in range(3)]
        scheduler.run_all()
        solo = Session(config=EngineConfig(share_partitions=False))
        expected = [r.key() for r in solo.execute(bound).drain()]
        for handle in handles:
            assert [r.key() for r in handle.results] == expected
        stats = scheduler.cache_stats()
        assert stats.misses == 2 and stats.hits == 4
        # Per-query surfaces report the same events a solo stream would.
        assert handles[0].stats().partition_cache == {"partition_misses": 2}
        assert handles[1].stats().partition_cache == {"partition_hits": 2}

    def test_scheduler_share_knob_disables(self):
        """The session's engine flag opts every scheduled query out."""
        workload = SyntheticWorkload(
            distribution="independent", n=100, d=2, sigma=0.05, seed=5
        )
        session = self.make_session(
            workload, config=EngineConfig(share_partitions=False)
        )
        scheduler = session.scheduler()
        bound = workload.bound()
        scheduler.submit(bound)
        scheduler.submit(bound)
        scheduler.run_all()
        assert scheduler.cache_stats().lookups == 0

    def test_cross_session_sharing_via_explicit_cache(self):
        workload = SyntheticWorkload(
            distribution="independent", n=100, d=2, sigma=0.05, seed=5
        )
        cache = PlanCache()
        bound = workload.bound()
        a = Session(plan_cache=cache)
        b = Session(plan_cache=cache)
        a.execute(bound).drain()
        stream = b.execute(bound)
        stream.drain()
        assert stream.stats().partition_cache == {"partition_hits": 2}

    def test_custom_factory_without_cache_parameter_still_works(self):
        """A configurable factory with a narrow signature is not offered
        the ``cache=`` keyword (no TypeError)."""
        workload = SyntheticWorkload(
            distribution="independent", n=80, d=2, sigma=0.05, seed=2
        )
        session = self.make_session(workload)

        def narrow_factory(
            bound, clock, *, ordering=True, pushthrough=False,
            input_cells=None, output_cells=None,
            partitioning="grid", leaf_capacity=None, seed=0, verify=True,
        ):
            return ProgXeEngine(
                bound, clock, ordering=ordering, pushthrough=pushthrough,
                input_cells=input_cells, output_cells=output_cells,
                partitioning=partitioning,
                leaf_capacity=leaf_capacity, seed=seed, verify=verify,
            )

        session.register_algorithm(
            "Narrow", narrow_factory, configurable=True
        )
        stream = session.execute(workload.bound(), algorithm="Narrow")
        stream.drain()
        assert stream.stats().partition_cache is None

    def test_engine_kwargs_exclude_share_flag(self):
        kwargs = EngineConfig().engine_kwargs()
        assert "share_partitions" not in kwargs
        # The full keyword set still constructs an engine.
        bound = make_bound(n=60)
        ProgXeEngine(bound, VirtualClock(), **kwargs)


# ----------------------------------------------------------------------
# property: sharing is invisible to execution
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=40, max_value=110),
    d=st.sampled_from([2, 3]),
    distribution=st.sampled_from(
        ["independent", "correlated", "anticorrelated"]
    ),
    partitioning=st.sampled_from(["grid", "quadtree"]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_shared_and_private_kernels_step_identically(
    n, d, distribution, partitioning, seed
):
    """Shared-vs-private partitioning yields identical step reports.

    Not just the same result sequence: every step's kind, region id,
    per-step virtual-time delta and per-kind charges must match, because a
    cache hit only replaces *planning* work — execution must be oblivious.
    """
    bound = make_bound(distribution, n=n, d=d, sigma=0.08, seed=seed)
    cache = PlanCache()
    QueryPlan.build(
        bound, VirtualClock(), partitioning=partitioning, cache=cache,
    )  # warm the store so the shared engine hits

    shared_engine = ProgXeEngine(
        bound, VirtualClock(), partitioning=partitioning, cache=cache,
    )
    private_engine = ProgXeEngine(bound, VirtualClock(), partitioning=partitioning)
    assert shared_engine.cache_events == {}  # planning is lazy
    shared, private = shared_engine.kernel(), private_engine.kernel()
    assert shared_engine.cache_events == {"partition_hits": 2}

    while True:
        a, b = shared.step(), private.step()
        assert a.kind == b.kind
        assert a.region_id == b.region_id
        assert [r.key() for r in a.results] == [r.key() for r in b.results]
        assert a.vtime_delta == pytest.approx(b.vtime_delta)
        assert a.charges == b.charges
        if a.finished:
            assert b.finished
            break
    assert shared_engine.stats == private_engine.stats
