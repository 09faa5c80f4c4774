"""Tests for the cooperative multi-query scheduler.

The central invariant: interleaving never changes a query's result
*sequence* — each admitted query produces exactly what its solo ``run()``
would, under every policy, admission limit and quantum.  On top of that:
budgets at step granularity, cancellation, asyncio integration, fairness
accounting, and the generator adapter for blocking baselines.
"""

from __future__ import annotations

import asyncio

import pytest

from tests.conftest import make_bound
from repro.errors import QueryError
from repro.session.config import (
    SCHEDULER_PRESETS,
    SCHEDULING_POLICIES,
    SchedulerConfig,
)
from repro.session.scheduler import QueryScheduler
from repro.session.service import Session
from repro.session.stream import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    COMPLETED,
    FAILED,
    ResultStream,
    StreamBudget,
)


@pytest.fixture
def session() -> Session:
    return Session()


def bounds(count: int, **kwargs):
    defaults = dict(distribution="independent", n=100, d=2, sigma=0.1)
    defaults.update(kwargs)
    return [make_bound(seed=70 + i, **defaults) for i in range(count)]


def solo_keys(session: Session, bound, algorithm="ProgXe") -> list[tuple]:
    return [r.key() for r in session.execute(bound, algorithm=algorithm).drain()]


class TestInterleavingEquality:
    @pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
    def test_each_query_matches_its_solo_sequence(self, session, policy):
        queries = bounds(3)
        solos = [solo_keys(session, b) for b in queries]
        scheduler = session.scheduler(policy=policy)
        handles = [scheduler.submit(b) for b in queries]
        scheduler.run_all()
        for handle, solo in zip(handles, solos):
            assert handle.state == COMPLETED
            assert [r.key() for r in handle.results] == solo

    def test_mixed_algorithms_interleave(self, session):
        bound = bounds(1)[0]
        solo = set(solo_keys(session, bound))
        scheduler = session.scheduler()
        progxe = scheduler.submit(bound, algorithm="ProgXe")
        plus = scheduler.submit(bound, algorithm="ProgXe+")
        blocking = scheduler.submit(bound, algorithm="JF-SL")
        scheduler.run_all()
        for handle in (progxe, plus, blocking):
            assert handle.result_keys == solo

    def test_quantum_does_not_change_results(self, session):
        queries = bounds(2)
        solos = [solo_keys(session, b) for b in queries]
        scheduler = session.scheduler(quantum=5)
        handles = [scheduler.submit(b) for b in queries]
        scheduler.run_all()
        for handle, solo in zip(handles, solos):
            assert [r.key() for r in handle.results] == solo

    def test_results_stream_interleaved(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(2)]
        owners = [query.qid for query, _ in scheduler.run()]
        assert set(owners) == {handles[0].qid, handles[1].qid}
        # Both queries emit before either finishes everything: the first
        # emission of each query precedes the last emission of the other.
        first = {qid: owners.index(qid) for qid in set(owners)}
        last = {qid: len(owners) - 1 - owners[::-1].index(qid) for qid in set(owners)}
        a, b = handles[0].qid, handles[1].qid
        assert first[a] < last[b] and first[b] < last[a]


class TestAdmission:
    def test_max_active_serialises_excess_queries(self, session):
        queries = bounds(3)
        scheduler = session.scheduler(max_active=1)
        handles = [scheduler.submit(b) for b in queries]
        scheduler.run_all()
        assert all(h.state == COMPLETED for h in handles)
        # With one admission slot the dispatch sequence is strictly
        # sequential: all of q0's steps precede all of q1's, etc.
        sequence = scheduler.interleaving.sequence()
        boundaries = [sequence.index(h.qid) for h in handles]
        assert boundaries == sorted(boundaries)
        assert scheduler.interleaving.switches() == len(handles) - 1

    def test_submit_during_run_joins_rotation(self, session):
        first, second = bounds(2)
        scheduler = session.scheduler()
        scheduler.submit(first)
        late: list[ResultStream] = []
        for _query, _result in scheduler.run():
            if not late:
                late.append(scheduler.submit(second))
        assert late[0].state == COMPLETED
        assert late[0].results

    def test_terminal_queries_leave_the_rotation(self, session):
        """Finished queries must not burden future scheduling decisions.

        The handles stay reachable via ``scheduler.queries``, but the
        working set the scheduler scans per dispatch shrinks to the live
        queries — the property a long-serving loop depends on.
        """
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(3)]
        scheduler.run_all()
        assert scheduler._rotation == []
        assert scheduler.queries == handles  # full record retained

    def test_forget_releases_terminal_handles_only(self, session):
        scheduler = session.scheduler()
        done, other = (scheduler.submit(b) for b in bounds(2))
        with pytest.raises(QueryError, match="still"):
            scheduler.forget(done)
        scheduler.run_all()
        scheduler.forget(done)
        scheduler.forget(done)  # idempotent
        assert scheduler.queries == [other]
        assert done.results  # the caller's handle is untouched
        late = scheduler.submit(bounds(1)[0])
        scheduler.run_all()
        assert late.state == COMPLETED and late.qid == 2

    def test_interleave_recording_can_be_disabled(self, session):
        queries = bounds(2)
        solos = [solo_keys(session, b) for b in queries]
        scheduler = session.scheduler(
            SchedulerConfig(record_interleaving=False)
        )
        handles = [scheduler.submit(b) for b in queries]
        scheduler.run_all()
        assert scheduler.interleaving.events == []
        for handle, solo in zip(handles, solos):
            assert [r.key() for r in handle.results] == solo

    def test_reentrant_run_rejected(self, session):
        scheduler = session.scheduler()
        scheduler.submit(bounds(1)[0])
        for _ in scheduler.run():
            with pytest.raises(QueryError, match="already running"):
                scheduler.run_all()
            break


class TestBudgetsAndCancellation:
    def test_result_budget_stops_query_cleanly(self, session):
        bound = make_bound(distribution="anticorrelated", n=120, d=2,
                           sigma=0.1, seed=5)
        solo = solo_keys(session, bound)
        assert len(solo) > 3
        scheduler = session.scheduler()
        limited = scheduler.submit(bound, budget=StreamBudget(max_results=3))
        free = scheduler.submit(bound)
        scheduler.run_all()
        assert limited.state == BUDGET_EXHAUSTED
        assert "result budget" in limited.stop_reason
        assert len(limited.results) >= 3
        # The emitted prefix is provably final: a subset of the solo set.
        assert limited.result_keys <= set(solo)
        assert free.state == COMPLETED
        assert [r.key() for r in free.results] == solo

    def test_vtime_budget_at_step_granularity(self, session):
        bound = bounds(1)[0]
        scheduler = session.scheduler()
        handle = scheduler.submit(bound, budget=StreamBudget(max_vtime=200.0))
        scheduler.run_all()
        assert handle.state == BUDGET_EXHAUSTED
        assert "virtual time budget" in handle.stop_reason

    def test_cancel_between_steps(self, session):
        queries = bounds(2)
        solo = solo_keys(session, queries[1])
        scheduler = session.scheduler()
        doomed = scheduler.submit(queries[0])
        survivor = scheduler.submit(queries[1])
        for query, _result in scheduler.run():
            if query is doomed:
                doomed.cancel("user went away")
        assert doomed.state == CANCELLED
        assert doomed.stop_reason == "user went away"
        assert survivor.state == COMPLETED
        assert [r.key() for r in survivor.results] == solo

    def test_cancel_mid_quantum_stops_immediately(self, session):
        """cancel() must surrender the rest of the current quantum.

        With a large quantum, a cancellation arriving between two results
        of the same dispatch burst must stop the query at its next step —
        not after the quantum runs dry.
        """
        bound = make_bound(distribution="anticorrelated", n=120, d=2,
                           sigma=0.1, seed=5)
        scheduler = session.scheduler(quantum=64)
        handle = scheduler.submit(bound)
        steps_after_cancel = 0
        cancelled_at_step = None
        for query, _result in scheduler.run():
            if cancelled_at_step is None:
                query.cancel("mid-quantum")
                cancelled_at_step = query.steps
            elif query.steps > cancelled_at_step:
                steps_after_cancel += 1
        assert handle.state == CANCELLED
        assert steps_after_cancel == 0
        assert handle.steps == cancelled_at_step

    def test_cancel_before_start(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        handle.cancel()
        scheduler.run_all()
        assert handle.state == CANCELLED
        assert handle.results == []

    def test_failed_query_is_terminal_not_completed(self, session):
        """A query whose step raises must end FAILED, never COMPLETED.

        The error propagates to the caller; if the caller re-runs the
        scheduler to drive the surviving queries, the crashed query must
        not be re-dispatched — and must not be mistaken for a healthy
        completion when inspecting its state afterwards.
        """
        queries = bounds(2)
        solo = solo_keys(session, queries[1])
        scheduler = session.scheduler()
        doomed = scheduler.submit(queries[0])
        survivor = scheduler.submit(queries[1])

        class Boom(RuntimeError):
            pass

        armed = False
        for query, _result in scheduler.run():
            if query is doomed and not armed:
                armed = True

                def explode():
                    raise Boom("mid-run failure")

                doomed._stepper.policy.next_region = explode
                break
        with pytest.raises(Boom):
            for _ in scheduler.run():
                pass
        assert doomed.state == FAILED
        assert "Boom" in doomed.stop_reason
        assert doomed.finished
        # The handle carries the exception instance, so callers catching
        # the propagated error can attribute it to this query.
        assert isinstance(doomed.error, Boom)
        # Re-running drives the survivor to completion without touching
        # the failed query again.
        steps_at_failure = doomed.steps
        scheduler.run_all()
        assert doomed.state == FAILED
        assert doomed.steps == steps_at_failure
        assert survivor.state == COMPLETED
        assert survivor.error is None
        assert [r.key() for r in survivor.results] == solo

    def test_stats_shape_matches_stream_stats(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        scheduler.run_all()
        stats = handle.stats()
        assert stats.state == COMPLETED
        assert stats.results == len(handle.results)
        assert stats.time_to_first is not None
        assert stats.dominance_comparisons > 0
        assert stats.stop_reason is None


class TestPoliciesAndFairness:
    def test_round_robin_alternates(self, session):
        scheduler = session.scheduler(policy="round-robin")
        handles = [scheduler.submit(b) for b in bounds(2)]
        scheduler.run_all()
        sequence = scheduler.interleaving.sequence()
        # While both queries are live, round-robin must alternate strictly.
        live_until = min(
            max(i for i, q in enumerate(sequence) if q == h.qid)
            for h in handles
        )
        head = sequence[: live_until + 1]
        assert all(a != b for a, b in zip(head, head[1:]))

    def test_fair_share_evens_virtual_time(self, session):
        scheduler = session.scheduler(policy="fair-share")
        [scheduler.submit(b) for b in bounds(3)]
        scheduler.run_all()
        # Identically-shaped workloads should consume similar virtual time.
        assert scheduler.interleaving.fairness_spread() < 2.0

    def test_deadline_prioritises_budgeted_query(self, session):
        queries = bounds(2)
        scheduler = session.scheduler(policy="deadline")
        relaxed = scheduler.submit(queries[0])
        urgent = scheduler.submit(
            queries[1], budget=StreamBudget(max_vtime=100_000.0)
        )
        scheduler.run_all()
        sequence = scheduler.interleaving.sequence()
        # The deadline-bearing query runs to completion before the
        # deadline-free one gets its first dispatch.
        assert sequence.index(urgent.qid) < sequence.index(relaxed.qid)
        assert urgent.state == COMPLETED

    def test_benefit_greedy_tracks_kernel_ranks(self, session):
        scheduler = session.scheduler(policy="benefit-greedy")
        handles = [scheduler.submit(b) for b in bounds(3)]
        scheduler.run_all()
        assert all(h.state == COMPLETED for h in handles)
        per_query = scheduler.interleaving.per_query()
        assert set(per_query) == {h.qid for h in handles}
        assert all(row["steps"] >= 2 for row in per_query.values())

    def test_interleave_recorder_totals(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(2)]
        scheduler.run_all()
        rec = scheduler.interleaving
        per_query = rec.per_query()
        for handle in handles:
            assert per_query[handle.qid]["steps"] == handle.steps
            assert per_query[handle.qid]["results"] == len(handle.results)
        total_vtime = sum(row["vtime"] for row in per_query.values())
        assert total_vtime == pytest.approx(scheduler.global_vtime)
        assert rec.dispatches == sum(h.steps for h in handles)

    def test_first_result_global_vtime_recorded(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(2)]
        scheduler.run_all()
        for handle in handles:
            assert handle.first_result_global_vtime is not None
            assert 0 < handle.first_result_global_vtime <= scheduler.global_vtime
            assert len(handle.emission_global_vtimes) == len(handle.results)


class TestAsync:
    def test_execute_async_matches_sync(self, session):
        bound = bounds(1)[0]
        solo = solo_keys(session, bound)

        async def consume():
            return [r.key() async for r in session.execute_async(bound)]

        assert asyncio.run(consume()) == solo

    def test_gathered_async_queries_both_complete(self, session):
        queries = bounds(2)
        solos = [solo_keys(session, b) for b in queries]

        async def consume(bound):
            return [r.key() async for r in session.execute_async(bound)]

        async def main():
            return await asyncio.gather(*(consume(b) for b in queries))

        assert asyncio.run(main()) == solos

    def test_run_async_interleaves(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(2)]

        async def main():
            return [q.qid async for q, _ in scheduler.run_async()]

        owners = asyncio.run(main())
        assert set(owners) == {h.qid for h in handles}
        assert all(h.state == COMPLETED for h in handles)

    def test_execute_async_honours_budget(self, session):
        bound = make_bound(distribution="anticorrelated", n=120, d=2,
                           sigma=0.1, seed=5)

        async def consume():
            return [
                r.key()
                async for r in session.execute_async(
                    bound, budget=StreamBudget(max_results=2)
                )
            ]

        got = asyncio.run(consume())
        assert len(got) >= 2
        assert set(got) <= set(solo_keys(session, bound))


class TestConfig:
    def test_invalid_policy_rejected(self):
        with pytest.raises(QueryError, match="policy"):
            SchedulerConfig(policy="lottery")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(QueryError):
            SchedulerConfig(max_active=0)
        with pytest.raises(QueryError):
            SchedulerConfig(quantum=0)

    def test_presets_resolve(self, session):
        for name in SCHEDULER_PRESETS:
            scheduler = session.scheduler(name)
            assert isinstance(scheduler, QueryScheduler)
        with pytest.raises(QueryError, match="unknown scheduler preset"):
            session.scheduler("warp-speed")

    def test_keyword_overrides(self, session):
        scheduler = session.scheduler("throughput", quantum=2, policy="fair-share")
        assert scheduler.config.quantum == 2
        assert scheduler.config.policy == "fair-share"
