"""Tests for the cooperative multi-query scheduler.

The central invariant: interleaving never changes a query's result
*sequence* — each admitted query produces exactly what its solo ``run()``
would, under any admission limit and burst length.  On top of that:
budgets at step granularity, cancellation, asyncio integration, fairness
accounting, the generator adapter for blocking baselines, and the retired
configuration surface staying retired.
"""

from __future__ import annotations

import asyncio

import pytest

from tests.conftest import make_bound
from repro.errors import QueryError
from repro.session import scheduler as scheduler_module
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


def dispatched_qids(scheduler: QueryScheduler) -> list[int]:
    """Drive ``scheduler`` to idleness; the qid of every dispatched step."""
    qids = []
    while burst := scheduler.tick():
        qids.extend(query.qid for query, _report in burst)
    return qids


class TestInterleavingEquality:
    def test_each_query_matches_its_solo_sequence(self, session):
        queries = bounds(3)
        solos = [solo_keys(session, b) for b in queries]
        scheduler = session.scheduler()
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

    def test_admission_limit_does_not_change_results(self, session):
        queries = bounds(2)
        solos = [solo_keys(session, b) for b in queries]
        scheduler = session.scheduler(max_active=1)
        handles = [scheduler.submit(b) for b in queries]
        scheduler.run_all()
        for handle, solo in zip(handles, solos):
            assert [r.key() for r in handle.results] == solo

    @pytest.mark.parametrize("quantum", [1, 5, 64])
    def test_quantum_does_not_change_results(self, session, monkeypatch, quantum):
        queries = bounds(2)
        solos = [solo_keys(session, b) for b in queries]
        monkeypatch.setattr(scheduler_module, "QUANTUM", quantum)
        scheduler = session.scheduler()
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
        sequence = dispatched_qids(scheduler)
        assert all(h.state == COMPLETED for h in handles)
        # With one admission slot the dispatch sequence is strictly
        # sequential: all of q0's steps precede all of q1's, etc.
        assert sequence == sorted(sequence)
        assert len(sequence) == sum(h.steps for h in handles)

    def test_unbounded_scheduler_admits_every_query_at_once(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(3)]
        scheduler.tick()
        assert all(h.admitted for h in handles)

    def test_admission_is_first_come_first_served(self, session):
        scheduler = session.scheduler(max_active=2)
        handles = [scheduler.submit(b) for b in bounds(3)]
        scheduler.tick()
        assert [h.admitted for h in handles] == [True, True, False]
        while not handles[0].finished and not handles[1].finished:
            scheduler.tick()
        scheduler.tick()
        assert handles[2].admitted

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

        A cancellation arriving between two results
        of the same dispatch burst must stop the query at its next step —
        not after the quantum runs dry.
        """
        bound = make_bound(distribution="anticorrelated", n=120, d=2,
                           sigma=0.1, seed=5)
        scheduler = session.scheduler()
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


class TestFairness:
    def test_fair_share_evens_virtual_time(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(3)]
        scheduler.run_all()
        # Identically-shaped workloads should consume similar virtual time.
        totals = [h.clock.now() for h in handles]
        assert max(totals) / min(totals) < 2.0

    def test_global_vtime_is_the_sum_of_query_clocks(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(2)]
        scheduler.run_all()
        assert scheduler.global_vtime == pytest.approx(
            sum(h.clock.now() for h in handles)
        )

    def test_equal_clocks_go_to_the_oldest_submission(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(3)]
        first = [scheduler.tick()[0][0] for _ in handles]
        assert first == handles

    def test_each_decision_takes_the_least_virtual_time(
        self, session, monkeypatch
    ):
        # Without the starvation override every decision is fair share.
        monkeypatch.setattr(scheduler_module, "STARVATION_ROUNDS", 10**9)
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(3)]
        decisions = 0
        while True:
            before = {h.qid: h.clock.now() for h in handles}
            live = [h for h in handles if not h.finished]
            burst = scheduler.tick()
            if not burst:
                break
            decisions += 1
            fair = min(live, key=lambda h: (before[h.qid], h.qid))
            assert burst[0][0] is fair
        assert decisions > len(handles)
        assert all(h.state == COMPLETED for h in handles)

    def test_each_dispatch_charges_one_queue_op(self):
        bound = bounds(1)[0]
        solo = Session().execute(bound)
        solo.drain()
        scheduler = Session().scheduler()
        handle = scheduler.submit(bound)
        scheduler.run_all()
        assert handle.steps == solo.steps
        assert handle.clock.count("queue_op") == (
            solo.clock.count("queue_op") + handle.steps
        )

    def test_emission_stamps_follow_the_global_timeline(self, session):
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(2)]
        scheduler.run_all()
        for handle in handles:
            stamps = handle.emission_global_vtimes
            assert stamps == sorted(stamps)
            assert stamps[0] == handle.first_result_global_vtime
            assert stamps[-1] <= scheduler.global_vtime

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


class TestSurface:
    def test_max_active_must_be_positive(self, session):
        with pytest.raises(QueryError, match="max_active"):
            session.scheduler(max_active=0)
        assert session.scheduler(max_active=1).max_active == 1

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {"policy": "fair-share"}),
            (("serving",), {}),
            ((), {"quantum": 4}),
        ],
        ids=["policy", "preset", "quantum"],
    )
    def test_retired_scheduler_arguments_raise(self, session, args, kwargs):
        """The policy, preset and quantum choices are gone: one rule."""
        with pytest.raises(TypeError):
            session.scheduler(*args, **kwargs)

    def test_retired_names_do_not_import(self):
        with pytest.raises(ImportError):
            from repro import SchedulerConfig  # noqa: F401
        with pytest.raises(ImportError):
            from repro.runtime import InterleaveRecorder  # noqa: F401
