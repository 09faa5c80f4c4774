"""Tests for the plan/kernel split of the execution core.

The contract under test: the resumable :class:`ExecutionKernel` is an
exact re-expression of the historical monolithic ``run()`` generator —
stepping, and pausing the query between steps, must never change the
emitted result *sequence* — plus the introspection (snapshots, per-step
reports) and the engine's double-execution guard.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    FLUSH_IDS,
    FLUSH_SIZES,
    make_bound,
    oracle_skyline_keys,
    set_flush_pairs,
)
from repro.core.engine import ProgXeEngine
from repro.core.kernel import (
    CREATED,
    FINISHED,
    STEP_BOOTSTRAP,
    STEP_FINALIZE,
    STEP_REGION,
    ExecutionKernel,
)
from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.runtime.clock import VirtualClock
from repro.session.config import PRESETS, EngineConfig
from repro.session.service import Session


def solo_sequence(bound, **engine_kwargs) -> list[tuple]:
    """Result-key sequence of an uninterrupted run."""
    engine = ProgXeEngine(bound, VirtualClock(), **engine_kwargs)
    return [r.key() for r in engine.run()]


def stepped_sequence(bound, pause_every: int, **engine_kwargs) -> list[tuple]:
    """Result-key sequence of a scheduled run paused/resumed after every k
    kernel steps."""
    scheduler = Session().scheduler()
    handle = scheduler.submit(bound, config=EngineConfig(**engine_kwargs))
    while not handle.finished:
        scheduler.tick()
        if handle.steps % pause_every == 0 and not handle.finished:
            handle.pause()
            steps = handle.steps
            assert scheduler.tick() == []
            assert handle.steps == steps
            handle.resume()
    return [r.key() for r in handle.results]


class TestPlan:
    def test_build_runs_phases_0_to_2(self, small_bound):
        plan = QueryPlan.build(small_bound, VirtualClock())
        assert plan.regions
        assert plan.grid.active_count > 0
        # No execution yet: nothing inserted, nothing emitted.
        assert all(not c.emitted for c in plan.grid.cells.values())

    def test_plan_is_single_use(self, small_bound):
        """Execution mutates the plan, so a second kernel over it raises.

        Without the guard the second kernel would silently yield an empty
        result set (all regions done, all cells already emitted).
        """
        plan = QueryPlan.build(small_bound, VirtualClock())
        kernel = ExecutionKernel(plan)
        while not kernel.finished:
            kernel.step()
        assert kernel.results_emitted
        with pytest.raises(ExecutionError, match="already been executed"):
            ExecutionKernel(plan)

    def test_pushthrough_records_prune_stats(self):
        bound = make_bound("anticorrelated", n=100, d=2, sigma=0.1, seed=3)
        plan = QueryPlan.build(bound, VirtualClock(), pushthrough=True)
        assert "left_pruned" in plan.prune_stats
        assert "right_pruned" in plan.prune_stats

    def test_engine_plan_matches_engine_config(self, small_bound):
        engine = ProgXeEngine(
            small_bound, VirtualClock(), ordering=False, seed=9, verify=False,
        )
        plan = engine.plan()
        assert plan.ordering is False
        assert plan.seed == 9
        assert plan.verify is False


class TestKernelStepping:
    def test_step_sequence_matches_run(self, small_bound):
        assert stepped_sequence(small_bound, pause_every=10**9) == solo_sequence(
            small_bound
        )

    def test_first_step_is_bootstrap_last_is_finalize(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        assert kernel.status == CREATED
        kinds = []
        while not kernel.finished:
            kinds.append(kernel.step().kind)
        assert kinds[0] == STEP_BOOTSTRAP
        assert kinds[-1] == STEP_FINALIZE
        assert set(kinds[1:-1]) <= {STEP_REGION}
        assert kernel.status == FINISHED

    def test_idle_step_after_finish_is_harmless(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        kernel = engine.kernel()
        while not kernel.finished:
            kernel.step()
        stats_before = dict(engine.stats)
        report = kernel.step()
        assert report.kind == "idle"
        assert report.results == ()
        assert report.finished
        assert engine.stats == stats_before  # no re-execution, no corruption

    def test_step_reports_account_clock_charges(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        total = 0.0
        base = kernel.clock.now()
        while not kernel.finished:
            report = kernel.step()
            assert report.vtime_delta >= 0
            assert report.vtime == kernel.clock.now()
            # Each result carries the clock reading at which it became
            # final, inside this step's window and in emission order.
            assert len(report.result_vtimes) == len(report.results)
            assert list(report.result_vtimes) == sorted(report.result_vtimes)
            assert all(
                report.vtime - report.vtime_delta <= v <= report.vtime
                for v in report.result_vtimes
            )
            total += report.vtime_delta
        assert total == pytest.approx(kernel.clock.now() - base)

    def test_region_steps_carry_region_ids(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        seen: list[int] = []
        while not kernel.finished:
            report = kernel.step()
            if report.kind == STEP_REGION:
                assert report.region_id is not None
                seen.append(report.region_id)
        assert len(seen) == len(set(seen))  # each region processed once

    def test_failed_step_leaves_kernel_finished_not_stuck(self, small_bound):
        """A step that raises must not leave the kernel spinning forever.

        The event-loop generator dies when an error propagates out of a
        step; subsequent steps must report the kernel finished (idle after
        that) instead of status 'running' with finished=False — otherwise
        retrying callers and the scheduler's termination checks loop
        endlessly on a dead kernel.
        """
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        kernel.step()

        class Boom(RuntimeError):
            pass

        def explode():
            raise Boom("tuple-level failure")

        kernel.policy.next_region = explode
        with pytest.raises(Boom):
            kernel.step()
        assert kernel.status == FINISHED  # terminal immediately
        assert kernel.unwound is not None and kernel.unwound.kind == "unwound"
        report = kernel.step()  # dead generator: must not spin
        assert report.finished
        assert kernel.step().kind == "idle"

    def test_close_abandons_cleanly(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        kernel.step()
        kernel.step()
        kernel.close()
        assert kernel.finished
        assert kernel.step().kind == "idle"


class TestRegionStep:
    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_each_region_step_runs_one_region_once(self, small_bound, preset):
        """Under every preset, a region step processes exactly the region it
        names, once, and the steps account for every processed region."""
        engine, _, _ = Session().build_algorithm(small_bound, config=preset)
        kernel = engine.kernel()
        stepped: list[int] = []
        keys = []
        while not kernel.finished:
            report = kernel.step()
            keys.extend(r.key() for r in report.results)
            if report.kind == STEP_REGION:
                assert kernel.state.regions[report.region_id].processed
                stepped.append(report.region_id)
        assert len(stepped) == len(set(stepped))
        processed = [r.rid for r in kernel.state.regions.values() if r.processed]
        assert sorted(stepped) == sorted(processed)
        assert kernel.regions_processed == len(stepped)
        assert set(keys) == oracle_skyline_keys(small_bound)


class TestPauseResume:
    @pytest.mark.parametrize("partitioning", ["grid", "quadtree"])
    @pytest.mark.parametrize("flush_pairs", FLUSH_SIZES, ids=FLUSH_IDS)
    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(min_value=1, max_value=9), seed=st.integers(0, 3))
    def test_pause_resume_determinism(self, partitioning, flush_pairs, k, seed):
        """Stopping after every k steps reproduces the uninterrupted run.

        For both partitioners and both the default and the one-pair flush
        granularity, a query paused and resumed at arbitrary step
        boundaries yields the exact result sequence (order included) of a
        solo run.
        """
        bound = make_bound("independent", n=90, d=2, sigma=0.1, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            set_flush_pairs(patch, flush_pairs)
            assert stepped_sequence(
                bound, pause_every=k, partitioning=partitioning
            ) == solo_sequence(bound, partitioning=partitioning)

    def test_pause_resume_determinism_anticorrelated(self):
        bound = make_bound("anticorrelated", n=80, d=3, sigma=0.1, seed=1)
        assert stepped_sequence(bound, pause_every=2) == solo_sequence(bound)


class TestSnapshot:
    def test_snapshot_progression(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        before = kernel.snapshot()
        assert before.status == CREATED
        assert before.steps == 0
        assert before.results_emitted == 0
        assert before.regions_pending > 0
        while not kernel.finished:
            kernel.step()
        after = kernel.snapshot()
        assert after.status == FINISHED
        assert after.regions_pending == 0
        assert after.regions_done == after.regions_total
        assert after.results_emitted == len(oracle_skyline_keys(small_bound))
        assert after.cells_emitted > 0
        assert after.vtime > before.vtime
        assert after.clock_counts.get("dominance_cmp", 0) >= 0

    def test_snapshot_is_cheap_and_pure(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        kernel.step()
        t = kernel.clock.now()
        snap1 = kernel.snapshot()
        snap2 = kernel.snapshot()
        assert kernel.clock.now() == t  # no charges
        assert snap1 == snap2


class TestEngineFacade:
    def test_double_run_raises(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        list(engine.run())
        with pytest.raises(ExecutionError, match="already been executed"):
            list(engine.run())

    def test_double_kernel_raises(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        engine.kernel()
        with pytest.raises(ExecutionError, match="already been executed"):
            engine.kernel()

    def test_run_then_kernel_raises(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        list(engine.run())
        with pytest.raises(ExecutionError):
            engine.kernel()

    def test_stats_preserved_after_guarded_second_run(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        list(engine.run())
        stats = dict(engine.stats)
        with pytest.raises(ExecutionError):
            list(engine.run())
        assert engine.stats == stats  # the guard protects the stats

    def test_plan_is_cached_no_double_charge(self, small_bound):
        """engine.plan() then engine.kernel() must not re-run phases 0-2."""
        engine = ProgXeEngine(small_bound, VirtualClock())
        plan = engine.plan()
        after_planning = engine.clock.now()
        assert engine.plan() is plan
        kernel = engine.kernel()
        assert kernel.plan is plan
        # kernel construction charges graph/queue wiring but must not have
        # re-partitioned: a second planning pass would roughly double the
        # partition_op count.
        baseline = ProgXeEngine(small_bound, VirtualClock())
        baseline.kernel()
        assert engine.clock.count("partition_op") == baseline.clock.count(
            "partition_op"
        )
        assert after_planning > 0

    def test_engine_exposes_kernel_and_state(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        assert engine.execution_kernel is None
        kernel = engine.kernel()
        assert engine.execution_kernel is kernel
        assert engine.state is kernel.state
        while not kernel.finished:
            kernel.step()
        assert engine.stats["regions_total"] > 0

    def test_stepped_engine_stats_match_run_stats(self, small_bound):
        run_engine = ProgXeEngine(small_bound, VirtualClock())
        list(run_engine.run())
        step_engine = ProgXeEngine(small_bound, VirtualClock())
        kernel = step_engine.kernel()
        while not kernel.finished:
            kernel.step()
        assert step_engine.stats == run_engine.stats

    def test_kernel_results_match_oracle(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        keys = set()
        while not kernel.finished:
            keys.update(r.key() for r in kernel.step().results)
        assert keys == oracle_skyline_keys(small_bound)


class TestEmitSettled:
    def test_emit_settled_is_public_and_idempotent(self, small_bound):
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        while not kernel.finished:
            kernel.step()
        state = kernel.state
        emitted = [c for c in kernel.plan.grid.cells.values() if c.emitted]
        assert emitted
        # Re-emitting an already-emitted (or non-emittable) cell is a no-op.
        for cell in emitted:
            state.emit_settled(cell)
        assert state.drain_emissions() == []


class TestPicklableContract:
    """StepReport / KernelSnapshot are picklable-by-contract plain data."""

    def test_step_report_round_trips(self, small_bound):
        import pickle

        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        reports = []
        while not kernel.finished:
            reports.append(kernel.step())
        assert any(r.results for r in reports)
        for report in reports:
            clone = pickle.loads(pickle.dumps(report))
            assert clone.kind == report.kind
            assert clone.region_id == report.region_id
            assert clone.step_index == report.step_index
            assert clone.vtime == report.vtime
            assert clone.charges == report.charges
            assert isinstance(clone.charges, dict)
            assert [r.key() for r in clone.results] == [
                r.key() for r in report.results
            ]
            assert [r.outputs for r in clone.results] == [
                r.outputs for r in report.results
            ]

    def test_snapshot_round_trips_and_copies_counts(self, small_bound):
        import pickle

        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        kernel.step()
        snap = kernel.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        # The counts are a concrete copy, not a live view of the clock.
        kernel.step()
        assert snap.clock_counts != kernel.clock.snapshot()
