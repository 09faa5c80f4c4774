"""Cooperative multi-query scheduling over resumable execution kernels.

The paper's contract — results become available the moment they are
provably final — is only useful at serving scale if a second query does not
have to wait for the first one's region queue to drain.  The
:class:`QueryScheduler` closes that gap: it admits N concurrent queries
from one :class:`~repro.session.service.Session` and interleaves their
steps (a region of an :class:`~repro.core.kernel.ExecutionKernel` for
ProgXe variants; one result of a blocking baseline) under a pluggable
policy:

* ``round-robin`` — cycle the admitted queries; the fairness baseline.
* ``benefit-greedy`` — extend the paper's intra-query benefit/cost ranking
  *across* queries: always step the kernel whose next region promises the
  highest rank (:meth:`~repro.core.kernel.ExecutionKernel.peek_rank`).
* ``fair-share`` — step the query with the least virtual time consumed
  (virtual-clock fair queueing).
* ``deadline`` — step the query with the least slack to its virtual-time
  budget; queries without a deadline yield to those with one.

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
*when*: admission, the policy, the quantum, the ``queue_op`` charge, the
global-vtime stamps and the :class:`~repro.runtime.recorder.InterleaveRecorder`.
Budgets therefore cut a scheduled query exactly where they cut a direct
pull.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, Iterator, Sequence

from repro.core.kernel import StepReport
from repro.errors import QueryError
from repro.query.smj import ResultTuple
from repro.runtime.clock import VirtualClock
from repro.runtime.recorder import InterleaveRecorder
from repro.runtime.runner import AlgorithmFactory
from repro.session.config import SCHEDULING_POLICIES, SchedulerConfig
from repro.session.stream import ResultStream, StreamBudget


# ----------------------------------------------------------------------
# dispatch policies
# ----------------------------------------------------------------------
class RoundRobinPolicy:
    """Cycle through the admitted queries in submission order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last = -1

    def choose(self, active: Sequence[ResultStream]) -> ResultStream:
        following = [q for q in active if q.qid > self._last]
        chosen = min(following or active, key=lambda q: q.qid)
        self._last = chosen.qid
        return chosen


class BenefitGreedyPolicy:
    """Step the query whose next region promises the highest rank.

    The cross-query generalisation of ProgOrder: each kernel's
    ``peek_rank()`` is the benefit/cost rank of its best pending region, so
    the scheduler always spends the next step where it buys the most
    progressiveness.  Un-started kernels advertise ``inf`` (their bootstrap
    is nearly free); ties break toward the least virtual time consumed, so
    the policy cannot starve a query behind an identical twin.
    """

    name = "benefit-greedy"

    def choose(self, active: Sequence[ResultStream]) -> ResultStream:
        def key(q: ResultStream) -> tuple[float, float, int]:
            stepper = q._stepper
            rank = float("inf") if stepper is None else stepper.peek_rank()
            return (-rank, q.clock.now(), q.qid)

        return min(active, key=key)


class FairSharePolicy:
    """Virtual-clock fair queueing: least virtual time consumed goes first."""

    name = "fair-share"

    def choose(self, active: Sequence[ResultStream]) -> ResultStream:
        return min(active, key=lambda q: (q.clock.now(), q.qid))


class DeadlinePolicy:
    """Least-slack-first over virtual-time budgets.

    A query's deadline is its budget's ``max_vtime``; its slack is the
    virtual time remaining until then.  Queries without a deadline run only
    when every deadline-bearing query has none left to honour (they sort
    with infinite slack).
    """

    name = "deadline"

    def choose(self, active: Sequence[ResultStream]) -> ResultStream:
        def slack(q: ResultStream) -> tuple[float, int]:
            if q.budget is None or q.budget.max_vtime is None:
                return (float("inf"), q.qid)
            return (q.budget.max_vtime - q.clock.now(), q.qid)

        return min(active, key=slack)


class WallDeadlinePolicy:
    """Least-slack-first over *wall-clock* budgets.

    The real-time counterpart of :class:`DeadlinePolicy`: a query's
    deadline is its budget's ``max_wall_seconds`` and its slack is the real
    time remaining until then — measured with ``perf_counter`` against the
    moment the query was submitted, not in virtual time.  A serving edge
    that promises "first results within two seconds" wants this policy:
    vtime slack drifts from wall slack as soon as queries differ in
    per-operation cost.  Queries without a wall deadline sort with infinite
    slack and run only when no deadline is pressing.
    """

    name = "wall-deadline"

    def choose(self, active: Sequence[ResultStream]) -> ResultStream:
        now = time.perf_counter()

        def slack(q: ResultStream) -> tuple[float, int]:
            if q.budget is None or q.budget.max_wall_seconds is None:
                return (float("inf"), q.qid)
            remaining = q.budget.max_wall_seconds - (now - q._wall_start)
            return (remaining, q.qid)

        return min(active, key=slack)


_POLICY_FACTORIES = {
    "round-robin": RoundRobinPolicy,
    "benefit-greedy": BenefitGreedyPolicy,
    "fair-share": FairSharePolicy,
    "deadline": DeadlinePolicy,
    "wall-deadline": WallDeadlinePolicy,
}
assert set(_POLICY_FACTORIES) == set(SCHEDULING_POLICIES)


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
class QueryScheduler:
    """Interleaves N concurrent session queries, one kernel step at a time.

    Built by :meth:`repro.session.service.Session.scheduler`.  Typical use::

        scheduler = session.scheduler(policy="benefit-greedy")
        q1 = scheduler.submit(SQL_1, algorithm="ProgXe")
        q2 = scheduler.submit(SQL_2, algorithm="ProgXe+")
        for query, result in scheduler.run():
            print(query.name, result.outputs)   # interleaved, provably final

    Each admitted query produces, in order, exactly the result sequence its
    solo ``run()`` would produce; the scheduler only decides *when* each
    query advances.  ``run_async()`` is the asyncio-friendly form, yielding
    control to the event loop between steps.
    """

    def __init__(
        self,
        session,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.session = session
        self.config = config or SchedulerConfig()
        self._policy = _POLICY_FACTORIES[self.config.policy]()
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
        #: Dispatch-order record of the interleaving.
        self.interleaving = InterleaveRecorder()
        #: Admission slots filled out of submission order for table
        #: affinity (only moves with ``cache_aware_admission``).
        self.admission_reorders = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        query,
        *,
        algorithm: str | AlgorithmFactory | None = None,
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
            # False forces private planning for every admitted query; None
            # (sharing on) defers to the engine config's own flag.
            share_partitions=(
                None if self.config.share_partitions else False
            ),
        )
        qid = self._next_qid
        self._next_qid += 1
        handle = ResultStream(
            instance,
            clock,
            name=name or f"q{qid}:{resolved or getattr(instance, 'name', '?')}",
            budget=budget,
            qid=qid,
        )
        handle.table_footprint = self._table_footprint(instance)
        self._queries.append(handle)
        self._rotation.append(handle)
        return handle

    def _table_footprint(self, instance) -> dict:
        """Estimated bytes per table uid the query reads (no scan).

        Keys are the (filtered) source uids — the same identities the
        partition cache keys on, so overlap here predicts shared-partition
        hits.  Sizes come from the session planner's
        :meth:`~repro.planner.choose.Planner.table_footprint` metadata
        estimate.  Empty for non-engine algorithms (no ``bound``).
        """
        bound = getattr(instance, "bound", None)
        if bound is None:
            return {}
        footprint: dict = {}
        for source in (
            getattr(bound, "left_table", None),
            getattr(bound, "right_table", None),
        ):
            uid = getattr(source, "uid", None)
            if uid is None:
                continue
            footprint[uid] = self.session.planner.table_footprint(source)
        return footprint

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

        A :class:`~repro.cache.store.CacheStats` snapshot; with
        ``SchedulerConfig(share_partitions=False)`` the counters simply
        never move on this scheduler's behalf.
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
        """One scheduling decision: admit, choose a query, run one quantum.

        The serving-loop entry point — a long-lived server calls ``tick()``
        whenever it wants the engine to advance, interleaving it freely
        with network I/O.  Returns the ``(query, report)`` pairs of the
        dispatched burst, or ``[]`` when nothing is runnable right now:
        every query is terminal, paused, or waiting for an admission slot
        held by a paused query.  An empty tick performs no work, so
        over-ticking an idle scheduler is harmless.

        The burst length is bounded by ``config.quantum`` (steps) and, when
        set, ``config.quantum_vtime`` — the burst ends with the step whose
        cumulative virtual time crosses the cap, so it overshoots by at
        most one region's work.  With ``config.starvation_rounds`` set, a
        runnable query that has waited that many decisions is dispatched
        ahead of the policy's preference.
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
        for _ in range(self.config.quantum):
            report = self._dispatch(chosen)
            burst.append((chosen, report))
            # A consumer may cancel or pause from a callback between steps:
            # surrender the rest of the quantum so no further work runs
            # after the request.
            if chosen.finished or chosen.paused:
                break
            if (
                self.config.quantum_vtime is not None
                and chosen.clock.now() - burst_vtime_start
                >= self.config.quantum_vtime
            ):
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
        """Apply the policy, overridden by the starvation bound if due."""
        bound = self.config.starvation_rounds
        if bound is not None:
            starving = [q for q in runnable if q.rounds_waiting >= bound]
            if starving:
                # Longest-waiting first; ties to the oldest submission.
                return min(starving, key=lambda q: (-q.rounds_waiting, q.qid))
        return self._policy.choose(runnable)

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
        limit = self.config.max_active
        held = 0
        for query in self._rotation:
            if query.finished:
                continue
            live.append(query)
            if query.admitted:
                held += 1
                if not query.paused:
                    runnable.append(query)
        if limit is None or held < limit:
            waiting = [q for q in live if not q.admitted]
            use_affinity = (
                self.config.cache_aware_admission
                and limit is not None
                and len(waiting) > 1
            )
            first_fill = True
            while waiting and (limit is None or held < limit):
                query = waiting[0]
                if use_affinity and not first_fill:
                    # Affinity fill: prefer the waiting query whose table
                    # footprint overlaps the admitted set most — but only
                    # after the oldest waiting query took the first slot
                    # of this decision, so admission stays starvation-free
                    # (a freed slot always goes FIFO before affinity).
                    admitted_uids = {
                        uid
                        for q in live
                        if q.admitted
                        for uid in q.table_footprint
                    }

                    def overlap(q: ResultStream) -> float:
                        return sum(
                            size
                            for uid, size in q.table_footprint.items()
                            if uid in admitted_uids
                        )

                    best = max(waiting, key=lambda q: (overlap(q), -q.qid))
                    if overlap(best) > 0:
                        query = best
                if query is not waiting[0]:
                    self.admission_reorders += 1
                waiting.remove(query)
                first_fill = False
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
        if self.config.record_interleaving:
            self.interleaving.record(
                query.qid, report.kind, delta, len(report.results),
                self.global_vtime,
            )
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terminal = sum(1 for q in self._queries if q.finished)
        return (
            f"QueryScheduler(policy={self.config.policy!r}, "
            f"queries={len(self._queries)}, done={terminal})"
        )
