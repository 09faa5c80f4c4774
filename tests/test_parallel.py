"""Sharded multi-process execution (``repro.parallel``).

The load-bearing property: at ANY worker count, over ANY storage backend,
the sharded kernel's result sequence, step reports, settled-cell sets and
virtual-clock totals are identical to the solo kernel's — parallelism is
an implementation detail the output cannot observe.  Plus the shard
planning units (worker resolution, columnar spill, graceful degrade), the
worker-protocol pickling contract, pool reuse, and the CLI policy.
"""

from __future__ import annotations

import os
import pickle
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_bound
from repro.core.engine import ProgXeEngine
from repro.core.kernel import ExecutionKernel
from repro.data.workloads import SyntheticWorkload
from repro.errors import ExecutionError, QueryError
from repro.parallel import (
    RegionResult,
    RegionTask,
    ShardedKernel,
    pool_count,
    prepare_shard_context,
    resolve_workers,
    run_region_task,
    shared_pool,
    start_method,
)
from repro.runtime.clock import VirtualClock
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.storage.sources.columnar import ColumnarFileSource, write_columnar
from repro.storage.sources.sqlite import SQLiteSource


def backend_bound(backend: str, tmp_path, n=150, seed=11, d=2):
    """One workload bound over the requested storage backend."""
    workload = SyntheticWorkload(n=n, d=d, sigma=0.05, seed=seed)
    tables = workload.tables()
    if backend == "memory":
        return workload.query().bind(tables)
    sources = {}
    if backend == "columnar":
        for alias, t in tables.items():
            path = tmp_path / f"{alias}-{backend}-{seed}-{n}.col"
            if not path.exists():
                write_columnar(path, t)
            sources[alias] = ColumnarFileSource(path, name=alias)
    else:
        db = tmp_path / f"w-{seed}-{n}.sqlite"
        conn = sqlite3.connect(db)
        for alias, t in tables.items():
            sources[alias] = SQLiteSource.write_table(conn, alias, t)
    return workload.query().bind(sources)


def drive(bound, workers=1, **engine_kwargs):
    """(engine, step summaries, result keys) of a full stepped run."""
    engine = ProgXeEngine(bound, VirtualClock(), workers=workers, **engine_kwargs)
    kernel = engine.kernel()
    steps, keys = [], []
    while not kernel.finished:
        report = kernel.step()
        steps.append(
            (report.kind, report.region_id, round(report.vtime_delta, 6),
             tuple(sorted(report.charges.items())))
        )
        keys.extend(r.key() for r in report.results)
    return engine, steps, keys


def cell_states(kernel):
    return {
        coords: (cell.settled, cell.marked, cell.emitted)
        for coords, cell in kernel.plan.grid.cells.items()
    }


# ----------------------------------------------------------------------
# worker resolution & degrade policy
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_one_or_less_is_always_solo(self):
        assert resolve_workers(1) == (1, None)
        assert resolve_workers(0) == (1, None)

    def test_honours_request_with_oversubscription(self):
        effective, reason = resolve_workers(8, cpu_count=1)
        assert (effective, reason) == (8, None)

    def test_cli_policy_refuses_oversubscription(self):
        effective, reason = resolve_workers(8, cpu_count=2, oversubscribe=False)
        assert effective == 1
        assert "only 2 CPUs" in reason

    def test_unavailable_start_method_degrades(self):
        effective, reason = resolve_workers(4, method="no-such-method")
        assert effective == 1
        assert "not available" in reason

    def test_env_var_selects_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "forkserver")
        assert start_method() == "forkserver"
        monkeypatch.delenv("REPRO_MP_START")
        assert start_method() == "spawn"

    def test_engine_degrades_on_bogus_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "bogus")
        engine = ProgXeEngine(make_bound(n=80, seed=2), workers=4)
        assert engine.workers == 1
        assert "not available" in engine.worker_fallback
        assert isinstance(engine.kernel(), ExecutionKernel)
        assert not isinstance(engine.execution_kernel, ShardedKernel)

    def test_engine_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ProgXeEngine(make_bound(n=40, seed=1), workers=0)

    def test_config_validates_workers(self):
        with pytest.raises(QueryError, match="workers must be >= 1"):
            EngineConfig(workers=0)
        assert EngineConfig(workers=3).engine_kwargs()["workers"] == 3


# ----------------------------------------------------------------------
# shard planning (spill / zero-copy)
# ----------------------------------------------------------------------
class TestShardContext:
    def test_memory_backend_spills_once(self, tmp_path):
        bound = backend_bound("memory", tmp_path, n=60, seed=3)
        shard = prepare_shard_context(bound)
        try:
            assert shard.spilled
            assert os.path.isdir(shard.left_path)
            assert os.path.isdir(shard.right_path)
            assert shard.worker_query.filters == ()
            # The re-bound sides serve the same rows (modulo int->float).
            assert len(shard.bound.left_table) == len(bound.left_table)
        finally:
            shard.cleanup()
        assert not os.path.exists(shard.workdir)

    def test_columnar_backend_is_zero_copy(self, tmp_path):
        bound = backend_bound("columnar", tmp_path, n=60, seed=3)
        shard = prepare_shard_context(bound)
        try:
            assert not shard.spilled
            assert shard.bound is bound
            assert shard.left_path == bound.left_table.path
            assert shard.right_path == bound.right_table.path
        finally:
            shard.cleanup()

    def test_cleanup_is_idempotent(self, tmp_path):
        shard = prepare_shard_context(backend_bound("memory", tmp_path, n=40))
        shard.cleanup()
        shard.cleanup()


# ----------------------------------------------------------------------
# worker protocol
# ----------------------------------------------------------------------
class TestWorkerProtocol:
    def test_task_and_result_round_trip(self):
        task = RegionTask(
            rid=7, context_path="/tmp/ctx.pkl",
            left_rows=((1, 2.0),), left_ids=None,
            right_rows=None, right_ids=[3, 4],
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        result = RegionResult(
            rid=7, lrows=[(1, 2.0)], rrows=[(3, 4.0)], group_sizes=[1],
            mapped=[(3.0,)], vectors=[(0.5,)], charges={"join_build": 1},
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.rid == 7 and clone.pair_count == 1
        assert clone.charges == {"join_build": 1}

    def test_run_region_task_in_process(self, tmp_path):
        """The worker entry point is runnable in-process (no pool)."""
        bound = backend_bound("columnar", tmp_path, n=80, seed=5)
        shard = prepare_shard_context(bound)
        context_path = tmp_path / "ctx.pkl"
        with open(context_path, "wb") as f:
            pickle.dump(
                {
                    "query": shard.worker_query,
                    "left_path": shard.left_path,
                    "right_path": shard.right_path,
                },
                f,
            )
        plan = ProgXeEngine(bound, VirtualClock()).plan()
        region = max(plan.regions, key=lambda r: len(r.left_partition))
        task = RegionTask(
            rid=region.rid, context_path=str(context_path),
            left_rows=None, left_ids=region.left_partition.row_ids,
            right_rows=None, right_ids=region.right_partition.row_ids,
        )
        result = run_region_task(task)
        assert result.rid == region.rid
        assert sum(result.group_sizes) == result.pair_count
        assert result.charges["join_build"] + result.charges["join_probe"] == (
            len(region.left_partition) + len(region.right_partition)
        )
        if result.pair_count:
            assert result.charges["join_result"] == result.pair_count
            assert result.charges["map"] == result.pair_count
            assert result.mapped.dtype == float
            assert len(result.mapped) == len(result.vectors) == result.pair_count
        assert 0 not in result.charges.values()
        shard.cleanup()


# ----------------------------------------------------------------------
# determinism: sharded == solo
# ----------------------------------------------------------------------
class TestShardedDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_to_solo_memory(self, workers):
        bound = make_bound(n=200, d=2, seed=9)
        solo_engine, solo_steps, solo_keys = drive(make_bound(n=200, d=2, seed=9))
        engine, steps, keys = drive(bound, workers=workers)
        assert isinstance(engine.execution_kernel, ShardedKernel)
        assert keys == solo_keys
        assert steps == solo_steps
        assert engine.clock.snapshot() == solo_engine.clock.snapshot()
        assert cell_states(engine.execution_kernel) == cell_states(
            solo_engine.execution_kernel
        )

    def test_stats_record_worker_count(self):
        engine, _, _ = drive(make_bound(n=80, d=2, seed=6), workers=2)
        assert engine.stats["workers"] == 2
        assert engine.stats["regions_processed"] > 0

    @settings(max_examples=8, deadline=None)
    @given(
        backend=st.sampled_from(["memory", "columnar", "sqlite"]),
        partitioning=st.sampled_from(["grid", "quadtree"]),
        workers=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 3),
    )
    def test_property_sharded_equals_solo(
        self, backend, partitioning, workers, seed, tmp_path_factory,
    ):
        tmp_path = tmp_path_factory.mktemp("shard-prop")
        solo_engine, solo_steps, solo_keys = drive(
            backend_bound(backend, tmp_path, n=90, seed=seed),
            partitioning=partitioning,
        )
        engine, steps, keys = drive(
            backend_bound(backend, tmp_path, n=90, seed=seed),
            workers=workers, partitioning=partitioning,
        )
        assert keys == solo_keys
        assert steps == solo_steps
        assert engine.clock.snapshot() == solo_engine.clock.snapshot()
        assert cell_states(engine.execution_kernel) == cell_states(
            solo_engine.execution_kernel
        )


# ----------------------------------------------------------------------
# lifecycle: pools, spill cleanup, close(), sessions
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_pools_are_reused_across_kernels(self):
        shared_pool(2)
        before = pool_count()
        for seed in (1, 2):
            drive(make_bound(n=80, d=2, seed=seed), workers=2)
        assert pool_count() == before

    def test_shared_pool_validates(self):
        with pytest.raises(ExecutionError, match=">= 1"):
            shared_pool(0)
        with pytest.raises(ExecutionError, match="not available"):
            shared_pool(2, method="bogus")

    def test_spill_directory_removed_on_finish(self):
        engine = ProgXeEngine(make_bound(n=80, d=2, seed=3), workers=2)
        kernel = engine.kernel()
        workdir = engine._shard.workdir
        assert os.path.isdir(workdir)
        list(kernel.drain())
        assert not os.path.exists(workdir)

    def test_close_mid_run_cleans_up(self):
        engine = ProgXeEngine(make_bound(n=150, d=2, seed=9), workers=2)
        kernel = engine.kernel()
        kernel.step()
        kernel.step()
        workdir = engine._shard.workdir
        kernel.close()
        assert kernel.finished
        assert not os.path.exists(workdir)

    def test_session_config_runs_sharded(self):
        solo = [
            r.key()
            for r in Session().execute(make_bound(n=120, d=2, seed=8))
        ]
        stream = Session(config=EngineConfig(workers=2)).execute(
            make_bound(n=120, d=2, seed=8)
        )
        assert [r.key() for r in stream] == solo

    def test_narrow_factory_without_workers_parameter_runs_solo(self):
        """A configurable factory predating the ``workers`` knob is not
        offered the keyword: the query runs solo instead of crashing."""
        from repro.runtime.clock import VirtualClock

        def narrowest_factory(
            bound, clock, *, ordering=True, pushthrough=False,
            input_cells=None, output_cells=None, signature_kind="exact",
            partitioning="grid", leaf_capacity=None, seed=0, verify=True,
        ):
            return ProgXeEngine(
                bound, clock, ordering=ordering, pushthrough=pushthrough,
                input_cells=input_cells, output_cells=output_cells,
                signature_kind=signature_kind, partitioning=partitioning,
                leaf_capacity=leaf_capacity, seed=seed, verify=verify,
            )

        solo = [
            r.key()
            for r in ProgXeEngine(
                make_bound(n=100, d=2, seed=8), VirtualClock()
            ).run()
        ]
        session = Session(config=EngineConfig(workers=2))
        session.register_algorithm(
            "Narrowest", narrowest_factory, configurable=True
        )
        stream = session.execute(
            make_bound(n=100, d=2, seed=8), algorithm="Narrowest"
        )
        assert [r.key() for r in stream] == solo

    def test_scheduler_interleaves_sharded_queries(self):
        session = Session(config=EngineConfig(workers=2))
        scheduler = session.scheduler(policy="round-robin")
        qa = scheduler.submit(make_bound(n=100, d=2, seed=5), name="a")
        qb = scheduler.submit(make_bound(n=100, d=2, seed=6), name="b")
        for _ in scheduler.run():
            pass
        for query, seed in ((qa, 5), (qb, 6)):
            reference = [
                r.key()
                for r in Session().execute(make_bound(n=100, d=2, seed=seed))
            ]
            assert [r.key() for r in query.results] == reference


# ----------------------------------------------------------------------
# CLI policy
# ----------------------------------------------------------------------
class TestCLI:
    def test_run_degrades_with_warning_not_crash(self, capsys):
        from repro.cli import main

        code = main(["run", "-n", "60", "--workers", "100000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "running the solo kernel" in captured.err
        assert "workers: 1" in captured.out

    def test_run_accepts_explicit_single_worker(self, capsys):
        from repro.cli import main

        assert main(["run", "-n", "60", "--workers", "1"]) == 0
        assert "warning" not in capsys.readouterr().err
