"""Cooperative multi-query scheduling over resumable execution kernels.

The paper's contract — results become available the moment they are
provably final — is only useful at serving scale if a second query does not
have to wait for the first one's region queue to drain.  The
:class:`QueryScheduler` closes that gap: it admits N concurrent queries
from one :class:`~repro.session.service.Session` and interleaves their
steps (a region of an :class:`~repro.core.kernel.ExecutionKernel` for
ProgXe variants; one result of a blocking baseline) under one rule:

* **admission** — first come, first served, at most ``max_active`` at once;
* **fair share** — each decision dispatches the runnable query with the
  least virtual time consumed (ties to the oldest submission);
* **bursts** — the chosen query runs up to :data:`QUANTUM` steps, cut once
  the burst's virtual time reaches :data:`QUANTUM_VTIME`;
* **starvation bound** — a runnable query passed over for
  :data:`STARVATION_ROUNDS` decisions is dispatched next regardless.

Every query keeps its own :class:`~repro.runtime.clock.VirtualClock`; the
scheduler charges one ``queue_op`` per dispatch to the chosen query (the
fairness-accounted cost of being scheduled) and maintains a shared
``global_vtime`` timeline — the cumulative virtual work across all queries
— on which per-query time-to-first-result is measured.  Interleaving never
changes a query's result *set*: kernel stepping executes exactly the solo
region schedule, just sliced differently in time.

Each submitted query is a :class:`~repro.session.stream.ResultStream` —
the same handle a direct ``Session.execute`` returns — and a dispatch is
one call of its :meth:`~repro.session.stream.ResultStream.step`.  The
handle owns everything about *how* a query advances (its stepper, results,
budget, callbacks, cancellation, ``close_ingest``); the scheduler owns only
*when*: admission, the choice, the burst, the ``queue_op`` charge and the
global-vtime stamps.  Budgets therefore cut a scheduled query exactly where
they cut a direct pull.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Iterator

from repro.core.kernel import StepReport
from repro.errors import QueryError
from repro.query.smj import ResultTuple
from repro.runtime.clock import VirtualClock
from repro.session.stream import ResultStream, StreamBudget

#: Most consecutive steps one dispatch decision runs.
QUANTUM = 8
#: Virtual-time cap on a burst: it ends with the step whose cumulative
#: virtual time reaches this value, so it overshoots by at most one region.
QUANTUM_VTIME = 2_000.0
#: Decisions a runnable query may be passed over before it is dispatched
#: ahead of the fair-share choice.
STARVATION_ROUNDS = 32


class QueryScheduler:
    """Interleaves N concurrent session queries, one kernel step at a time.

    Built by :meth:`repro.session.service.Session.scheduler`.  Typical use::

        scheduler = session.scheduler(max_active=8)
        q1 = scheduler.submit(SQL_1, algorithm="ProgXe")
        q2 = scheduler.submit(SQL_2, algorithm="ProgXe+")
        for query, result in scheduler.run():
            print(query.name, result.outputs)   # interleaved, provably final

    Each admitted query produces, in order, exactly the result sequence its
    solo ``run()`` would produce; the scheduler only decides *when* each
    query advances.  ``run_async()`` is the asyncio-friendly form, yielding
    control to the event loop between steps.
    """

    def __init__(self, session, *, max_active: int | None = None) -> None:
        if max_active is not None and max_active < 1:
            raise QueryError(f"max_active must be >= 1, got {max_active}")
        self.session = session
        #: Admission ceiling: at most this many queries execute at once
        #: (a paused query keeps its slot); the rest wait in submission
        #: order.  ``None`` admits everything.
        self.max_active = max_active
        self._queries: list[ResultStream] = []
        #: Non-terminal queries only — the working set _admit() scans, so
        #: long-serving schedulers pay per-dispatch cost proportional to
        #: the *live* query count, not to everything ever submitted.
        self._rotation: list[ResultStream] = []
        self._next_qid = 0
        self._running = False
        #: Cumulative virtual time charged across all queries, in dispatch
        #: order — the shared timeline for cross-query latency metrics.
        self.global_vtime = 0.0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        query,
        *,
        algorithm: str | None = None,
        config=None,
        budget: StreamBudget | None = None,
        clock: VirtualClock | None = None,
        name: str | None = None,
    ) -> ResultStream:
        """Admit a query; returns its :class:`ResultStream` handle.

        Accepts everything :meth:`~repro.session.service.Session.execute`
        does, and the handle is the one ``execute`` returns — budgets,
        callbacks, ``cancel()`` and ``close_ingest()`` behave identically;
        only the scheduler advances it.  No work happens until the
        scheduler first dispatches the query (planning cost is charged to
        its clock at that moment).  Submitting while :meth:`run` is
        mid-flight is allowed; the new query joins the rotation at the next
        scheduling decision.
        """
        instance, clock, resolved = self.session.build_algorithm(
            query, algorithm=algorithm, config=config, clock=clock,
        )
        qid = self._next_qid
        self._next_qid += 1
        handle = ResultStream(
            instance,
            clock,
            name=name or f"q{qid}:{resolved}",
            budget=budget,
            qid=qid,
        )
        self._queries.append(handle)
        self._rotation.append(handle)
        return handle

    @property
    def queries(self) -> list[ResultStream]:
        """All submitted query handles, in submission order."""
        return list(self._queries)

    def forget(self, handle: ResultStream) -> None:
        """Release a terminal query's handle (and with it its results).

        The scheduler keeps every submitted handle reachable through
        :attr:`queries` — right for a batch of queries run with
        :meth:`run_all`, a leak for a long-lived server that submits
        forever.  A caller that has taken what it needs from a finished
        query calls this to drop the scheduler's reference; forgetting a
        handle twice is harmless, forgetting a live one is an error.
        """
        if not handle.finished:
            raise QueryError(
                f"cannot forget {handle.name!r}: it is still {handle.state}"
            )
        if handle in self._queries:
            self._queries.remove(handle)
        if handle in self._rotation:
            self._rotation.remove(handle)

    @property
    def live_queries(self) -> list[ResultStream]:
        """Handles of the queries not yet in a terminal state."""
        return [q for q in self._rotation if not q.finished]

    def cache_stats(self):
        """Partition-sharing counters of the session's plan cache.

        A :class:`~repro.cache.store.CacheStats` snapshot; queries run
        with ``EngineConfig(share_partitions=False)`` never move it.
        """
        return self.session.plan_cache.stats()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> Iterator[tuple[ResultStream, ResultTuple]]:
        """Interleave all admitted queries; yield ``(query, result)`` pairs.

        Results stream out in global emission order, each provably final
        for its query the moment it appears; none follows a query's
        ``cancel()``.  Returns when every query is terminal (completed,
        cancelled, or budget-exhausted).
        """
        for query, report in self._ticks():
            for result in report.results:
                if query.cancelled:
                    break
                yield query, result

    def run_all(self) -> list[ResultStream]:
        """Drive every query to a terminal state; return all handles."""
        for _ in self.run():
            pass
        return self.queries

    async def run_async(
        self,
    ) -> AsyncIterator[tuple[ResultStream, ResultTuple]]:
        """Asyncio-friendly :meth:`run`: yields to the event loop per step.

        The engine work itself stays synchronous (one kernel step at a
        time), but control returns to the loop between steps, so other
        coroutines — network handlers, other schedulers — stay responsive
        while queries execute.
        """
        for query, report in self._ticks():
            for result in report.results:
                if query.cancelled:
                    break
                yield query, result
            await asyncio.sleep(0)

    def tick(self) -> list[tuple[ResultStream, StepReport]]:
        """One scheduling decision: admit, choose a query, run one burst.

        The serving-loop entry point — a long-lived server calls ``tick()``
        whenever it wants the engine to advance, interleaving it freely
        with network I/O.  Returns the ``(query, report)`` pairs of the
        dispatched burst, or ``[]`` when nothing is runnable right now:
        every query is terminal, paused, or waiting for an admission slot
        held by a paused query.  An empty tick performs no work, so
        over-ticking an idle scheduler is harmless.

        The burst is at most :data:`QUANTUM` steps and ends with the step
        whose cumulative virtual time reaches :data:`QUANTUM_VTIME`, so it
        overshoots by at most one region's work.  A runnable query passed
        over for :data:`STARVATION_ROUNDS` decisions is dispatched ahead
        of the fair-share choice.
        """
        runnable = self._admit()
        if not runnable:
            return []
        chosen = self._choose(runnable)
        for query in runnable:
            if query is chosen:
                query.rounds_waiting = 0
            else:
                query.rounds_waiting += 1
        burst: list[tuple[ResultStream, StepReport]] = []
        burst_vtime_start = chosen.clock.now()
        for _ in range(QUANTUM):
            report = self._dispatch(chosen)
            burst.append((chosen, report))
            # A consumer may cancel or pause from a callback between steps:
            # surrender the rest of the burst so no further work runs
            # after the request.
            if chosen.finished or chosen.paused:
                break
            if chosen.clock.now() - burst_vtime_start >= QUANTUM_VTIME:
                break
        return burst

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ticks(self) -> Iterator[tuple[ResultStream, StepReport]]:
        """One iteration per dispatched step, across all queries."""
        if self._running:
            raise QueryError("scheduler is already running")
        self._running = True
        try:
            while True:
                burst = self.tick()
                if not burst:
                    # _admit always fills a free slot from the waiting
                    # queries, so an idle tick means every query is
                    # terminal — or paused (run() returns with paused
                    # queries still admitted; resume() and re-run to
                    # continue them).  Anything else is an admission bug.
                    assert not self._rotation or any(
                        q.paused for q in self._rotation
                    ), "admission left unfinished queries unscheduled"
                    return
                yield from burst
        finally:
            self._running = False

    def _choose(self, runnable: list[ResultStream]) -> ResultStream:
        """Fair share, overridden by the starvation bound if due."""
        starving = [
            q for q in runnable if q.rounds_waiting >= STARVATION_ROUNDS
        ]
        if starving:
            # Longest-waiting first; ties to the oldest submission.
            return min(starving, key=lambda q: (-q.rounds_waiting, q.qid))
        return min(runnable, key=lambda q: (q.clock.now(), q.qid))

    def _admit(self) -> list[ResultStream]:
        """Fill admission slots, return the runnable set.

        Also evicts terminal queries from the rotation — their handles (and
        result buffers) stay reachable through :attr:`queries` for as long
        as the caller keeps the scheduler, but they cost nothing per
        dispatch.  Paused queries keep their admission slot (they count
        against ``max_active``) but are not runnable; a cancelled query is
        terminal, so its slot passes to a waiting query in this decision.
        """
        live: list[ResultStream] = []
        runnable: list[ResultStream] = []
        limit = self.max_active
        held = 0
        for query in self._rotation:
            if query.finished:
                continue
            live.append(query)
            if query.admitted:
                held += 1
                if not query.paused:
                    runnable.append(query)
        for query in live:
            if limit is not None and held >= limit:
                break
            if not query.admitted:
                query.admitted = True
                held += 1
                if not query.paused:
                    runnable.append(query)
        self._rotation = live
        return runnable

    def _dispatch(self, query: ResultStream) -> StepReport:
        """Run one step of ``query`` and account for it."""
        t0 = query.clock.now()
        # The fairness-accounted cost of being scheduled: one queue op per
        # dispatch, charged to the query that received the step.
        query.clock.charge("queue_op")
        # A raising step leaves the handle failed (with .error set) before
        # the exception reaches the caller.
        report = query.step()
        delta = query.clock.now() - t0
        self.global_vtime += delta
        if report.results:
            if query.first_result_global_vtime is None:
                query.first_result_global_vtime = self.global_vtime
            query.emission_global_vtimes.extend(
                [self.global_vtime] * len(report.results)
            )
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terminal = sum(1 for q in self._queries if q.finished)
        return (
            f"QueryScheduler(max_active={self.max_active!r}, "
            f"queries={len(self._queries)}, done={terminal})"
        )
