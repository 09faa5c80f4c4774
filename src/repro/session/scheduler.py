"""Cooperative multi-query scheduling over resumable execution kernels.

The paper's contract — results become available the moment they are
provably final — is only useful at serving scale if a second query does not
have to wait for the first one's region queue to drain.  The
:class:`QueryScheduler` closes that gap: it admits N concurrent queries
from one :class:`~repro.session.service.Session`, obtains a resumable
stepper for each (the :class:`~repro.core.kernel.ExecutionKernel` for
ProgXe variants; a generator adapter for blocking baselines), and
interleaves their steps under a pluggable policy:

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

Budgets (:class:`~repro.session.stream.StreamBudget`) are enforced at step
granularity: the scheduler checks each query's ceilings after every one of
its steps and retires it cleanly once exceeded — the emitted prefix remains
provably final, per the progressive contract.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, Iterator, Mapping, Sequence

from repro.core.kernel import STEP_FINALIZE, StepReport
from repro.errors import QueryError
from repro.query.smj import ResultTuple
from repro.runtime.clock import VirtualClock
from repro.runtime.recorder import InterleaveRecorder, ProgressRecorder
from repro.runtime.runner import AlgorithmFactory
from repro.session.config import SCHEDULING_POLICIES, SchedulerConfig
from repro.session.stream import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    StreamBudget,
    StreamStats,
)

#: Step kind reported by the generator adapter for non-kernel algorithms.
STEP_PULL = "pull"


class _GeneratorStepper:
    """Stepper adapter for algorithms without a resumable kernel.

    One step pulls one result from the algorithm's ``run()`` generator (or
    discovers exhaustion).  A blocking baseline therefore does all its work
    inside its first step — the adapter makes it *schedulable*, not
    progressive; the interleaving benefit comes from kernel-backed engines.
    """

    def __init__(self, algorithm, clock: VirtualClock) -> None:
        self._gen = algorithm.run()
        self._clock = clock
        self._steps = 0
        self.finished = False

    def step(self) -> StepReport:
        t0 = self._clock.now()
        counts0 = self._clock.snapshot()
        results: tuple[ResultTuple, ...] = ()
        kind = STEP_PULL
        try:
            results = (next(self._gen),)
        except StopIteration:
            self.finished = True
            kind = STEP_FINALIZE
        self._steps += 1
        return StepReport(
            kind=kind,
            results=results,
            region_id=None,
            step_index=self._steps,
            vtime=self._clock.now(),
            vtime_delta=self._clock.now() - t0,
            charges=self._clock.since(counts0),
            finished=self.finished,
        )

    def peek_rank(self) -> float:
        return 0.0

    def close(self) -> None:
        self._gen.close()
        self.finished = True


class ScheduledQuery:
    """Handle over one query admitted to a :class:`QueryScheduler`.

    Results accumulate in :attr:`results` as the scheduler interleaves
    steps; :meth:`stats` returns the same
    :class:`~repro.session.stream.StreamStats` shape a solo
    :class:`~repro.session.stream.ResultStream` reports, and
    :attr:`first_result_global_vtime` locates the first emission on the
    scheduler's shared timeline (the serving-latency metric).

    Example::

        handle = scheduler.submit(bound, budget=StreamBudget(max_results=5))
        scheduler.run_all()
        handle.state                        # "completed" / "budget_exhausted"
        handle.results                      # emission-ordered, provably final
        handle.first_result_global_vtime    # latency on the shared timeline
    """

    def __init__(
        self,
        qid: int,
        name: str,
        algorithm,
        clock: VirtualClock,
        budget: StreamBudget | None,
        table_footprint: Mapping | None = None,
    ) -> None:
        self.qid = qid
        self.name = name
        self.algorithm = algorithm
        self.clock = clock
        self.budget = budget
        #: Estimated bytes per table uid this query reads (planner
        #: metadata, no scan) — the cache-aware admission overlap signal.
        self.table_footprint: dict = dict(table_footprint or {})
        self.recorder = ProgressRecorder(clock)
        self.results: list[ResultTuple] = []
        self.state = PENDING
        self.stop_reason: str | None = None
        #: The exception that retired this query FAILED, if any.  Lets the
        #: serving pump attribute a tick() error to the owning stream.
        self.error: BaseException | None = None
        self.steps = 0
        self.admitted = False
        #: Scheduling decisions since this query was last dispatched while
        #: runnable — the counter behind the starvation bound.
        self.rounds_waiting = 0
        #: Global (cross-query) virtual time at this query's first emission.
        self.first_result_global_vtime: float | None = None
        #: Global virtual time at each emission (step-granular stamps).
        self.emission_global_vtimes: list[float] = []
        self._stepper = None
        self._cancel_reason: str | None = None
        self._paused = False
        self._wall_start = time.perf_counter()

    @property
    def finished(self) -> bool:
        """True once the query reached any terminal state."""
        return self.state in (COMPLETED, CANCELLED, BUDGET_EXHAUSTED, FAILED)

    @property
    def paused(self) -> bool:
        """True while the query is suspended (see :meth:`pause`)."""
        return self._paused and not self.finished

    @property
    def result_keys(self) -> set[tuple]:
        """Identity keys of the results emitted so far."""
        return {r.key() for r in self.results}

    def pause(self) -> None:
        """Suspend this query: the scheduler stops dispatching it.

        Pausing mutates no execution state, so a paused-and-resumed query
        reproduces its uninterrupted step and result sequence exactly.  A
        paused query keeps its admission slot (it is mid-flight, not
        requeued); :meth:`cancel` releases the slot immediately.  The
        serving edge's backpressure bridge pauses a query whose client
        stopped reading, so a slow consumer never buffers unboundedly —
        and never stalls anyone else's query.
        """
        if not self.finished:
            self._paused = True

    def resume(self) -> None:
        """Lift a :meth:`pause`; the scheduler may dispatch again."""
        self._paused = False

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cooperative cancellation before the query's next step.

        Works on paused queries too: the next scheduling decision retires
        the query and frees its admission slot for a waiting one — a
        paused query never leaks its slot.
        """
        if not self.finished:
            self._cancel_reason = reason

    def close_ingest(self) -> None:
        """Close a *follow* query's arrival window so it can complete.

        Streaming queries (``EngineConfig(follow=True)``) poll their source
        tables between regions and never finish while the window is open;
        closing it lets the scheduler drive them to natural completion —
        already-absorbed rows are still fully processed.  Unlike
        :meth:`cancel`, the query terminates ``COMPLETED`` with its full,
        verified result set.  Raises :class:`~repro.errors.QueryError` for
        a non-follow query; a no-op once the query is finished.
        """
        if self.finished:
            return
        if self._stepper is None:
            # Not yet dispatched: force the kernel into existence so the
            # close request has something to land on.
            self.state = RUNNING
            self._stepper = QueryScheduler._make_stepper(
                self.algorithm, self.clock
            )
        close = getattr(self._stepper, "close_ingest", None)
        if close is None:
            raise QueryError(
                f"query {self.name!r} is not a follow query; submit with "
                "EngineConfig(follow=True) to stream arrivals"
            )
        close()

    def stats(self) -> StreamStats:
        """Progressiveness snapshot, comparable to a solo stream's."""
        return StreamStats.capture(
            self.state,
            self.recorder,
            self.clock,
            wall_seconds=time.perf_counter() - self._wall_start,
            stop_reason=self.stop_reason,
            algorithm=self.algorithm,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduledQuery(#{self.qid} {self.name!r}, state={self.state}, "
            f"results={len(self.results)})"
        )


# ----------------------------------------------------------------------
# dispatch policies
# ----------------------------------------------------------------------
class RoundRobinPolicy:
    """Cycle through the admitted queries in submission order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last = -1

    def choose(self, active: Sequence[ScheduledQuery]) -> ScheduledQuery:
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

    def choose(self, active: Sequence[ScheduledQuery]) -> ScheduledQuery:
        def key(q: ScheduledQuery) -> tuple[float, float, int]:
            stepper = q._stepper
            rank = float("inf") if stepper is None else stepper.peek_rank()
            return (-rank, q.clock.now(), q.qid)

        return min(active, key=key)


class FairSharePolicy:
    """Virtual-clock fair queueing: least virtual time consumed goes first."""

    name = "fair-share"

    def choose(self, active: Sequence[ScheduledQuery]) -> ScheduledQuery:
        return min(active, key=lambda q: (q.clock.now(), q.qid))


class DeadlinePolicy:
    """Least-slack-first over virtual-time budgets.

    A query's deadline is its budget's ``max_vtime``; its slack is the
    virtual time remaining until then.  Queries without a deadline run only
    when every deadline-bearing query has none left to honour (they sort
    with infinite slack).
    """

    name = "deadline"

    def choose(self, active: Sequence[ScheduledQuery]) -> ScheduledQuery:
        def slack(q: ScheduledQuery) -> tuple[float, int]:
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

    def choose(self, active: Sequence[ScheduledQuery]) -> ScheduledQuery:
        now = time.perf_counter()

        def slack(q: ScheduledQuery) -> tuple[float, int]:
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
        self._queries: list[ScheduledQuery] = []
        #: Non-terminal queries only — the working set _admit() scans, so
        #: long-serving schedulers pay per-dispatch cost proportional to
        #: the *live* query count, not to everything ever submitted.
        self._rotation: list[ScheduledQuery] = []
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
    ) -> ScheduledQuery:
        """Admit a query; returns its :class:`ScheduledQuery` handle.

        Accepts everything :meth:`~repro.session.service.Session.execute`
        does.  No work happens until the scheduler first dispatches the
        query (planning cost is charged to its clock at that moment).
        Submitting while :meth:`run` is mid-flight is allowed; the new
        query joins the rotation at the next scheduling decision.

        Budget semantics differ from a solo stream: ceilings are checked
        *between* kernel steps (no mid-step tripwire), so a query may
        overshoot a ceiling by up to one step's worth of work and results
        before it is retired — and for a blocking baseline behind the
        generator adapter, whose first step performs the whole
        computation, a budget caps only its output.  Every emitted result
        remains provably final either way.  Use
        :meth:`Session.execute <repro.session.service.Session.execute>`
        when exact budget cut-offs matter.
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
        handle = ScheduledQuery(
            qid=qid,
            name=name or f"q{qid}:{resolved or getattr(instance, 'name', '?')}",
            algorithm=instance,
            clock=clock,
            budget=budget,
            table_footprint=self._table_footprint(instance),
        )
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
    def queries(self) -> list[ScheduledQuery]:
        """All submitted query handles, in submission order."""
        return list(self._queries)

    def forget(self, handle: ScheduledQuery) -> None:
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
    def live_queries(self) -> list[ScheduledQuery]:
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
    def run(self) -> Iterator[tuple[ScheduledQuery, ResultTuple]]:
        """Interleave all admitted queries; yield ``(query, result)`` pairs.

        Results stream out in global emission order, each provably final
        for its query the moment it appears.  Returns when every query is
        terminal (completed, cancelled, or budget-exhausted).
        """
        for query, report in self._ticks():
            for result in report.results:
                yield query, result

    def run_all(self) -> list[ScheduledQuery]:
        """Drive every query to a terminal state; return all handles."""
        for _ in self.run():
            pass
        return self.queries

    async def run_async(
        self,
    ) -> AsyncIterator[tuple[ScheduledQuery, ResultTuple]]:
        """Asyncio-friendly :meth:`run`: yields to the event loop per step.

        The engine work itself stays synchronous (one kernel step at a
        time), but control returns to the loop between steps, so other
        coroutines — network handlers, other schedulers — stay responsive
        while queries execute.
        """
        for query, report in self._ticks():
            for result in report.results:
                yield query, result
            await asyncio.sleep(0)

    def tick(self) -> list[tuple[ScheduledQuery, StepReport]]:
        """One scheduling decision: admit, choose a query, run one quantum.

        The serving-loop entry point — a long-lived server calls ``tick()``
        whenever it wants the engine to advance, interleaving it freely
        with network I/O.  Returns the ``(query, report)`` pairs of the
        dispatched burst, or ``[]`` when nothing is runnable right now:
        every query is terminal, paused, or waiting for an admission slot
        held by a paused query.  An empty tick performs no work (beyond
        finalising pending cancellations), so over-ticking an idle
        scheduler is harmless.

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
        burst: list[tuple[ScheduledQuery, StepReport]] = []
        burst_vtime_start = chosen.clock.now()
        for _ in range(self.config.quantum):
            report = self._dispatch(chosen)
            burst.append((chosen, report))
            # A consumer may cancel or pause from a callback between steps:
            # surrender the rest of the quantum so no further work runs
            # after the request (the next _admit() finalises cancellation).
            if (
                chosen.finished
                or chosen._cancel_reason is not None
                or chosen.paused
            ):
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
    def _ticks(self) -> Iterator[tuple[ScheduledQuery, StepReport]]:
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

    def _choose(self, runnable: list[ScheduledQuery]) -> ScheduledQuery:
        """Apply the policy, overridden by the starvation bound if due."""
        bound = self.config.starvation_rounds
        if bound is not None:
            starving = [q for q in runnable if q.rounds_waiting >= bound]
            if starving:
                # Longest-waiting first; ties to the oldest submission.
                return min(starving, key=lambda q: (-q.rounds_waiting, q.qid))
        return self._policy.choose(runnable)

    def _admit(self) -> list[ScheduledQuery]:
        """Finalise cancellations, fill admission slots, return the runnable set.

        Also evicts terminal queries from the rotation — their handles (and
        result buffers) stay reachable through :attr:`queries` for as long
        as the caller keeps the scheduler, but they cost nothing per
        dispatch.  Paused queries keep their admission slot (they count
        against ``max_active``) but are not runnable; a cancelled paused
        query is retired here, before slots are filled, so its slot passes
        to a waiting query in the same decision.
        """
        live: list[ScheduledQuery] = []
        runnable: list[ScheduledQuery] = []
        limit = self.config.max_active
        held = 0
        for query in self._rotation:
            if query._cancel_reason is not None and not query.finished:
                self._retire(query, CANCELLED, query._cancel_reason)
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

                    def overlap(q: ScheduledQuery) -> float:
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

    def _dispatch(self, query: ScheduledQuery) -> StepReport:
        """Run one step of ``query`` and account for it."""
        t0 = query.clock.now()
        if query._stepper is None:
            query.state = RUNNING
            query._stepper = self._make_stepper(query.algorithm, query.clock)
        # The fairness-accounted cost of being scheduled: one queue op per
        # dispatch, charged to the query that received the step.
        query.clock.charge("queue_op")
        try:
            report = query._stepper.step()
        except Exception as exc:
            # The query's stepper is dead; record the failure terminally so
            # a re-run of the scheduler never mistakes the partial result
            # set for a completed one, then let the caller see the error.
            query.error = exc
            self._retire(query, FAILED, f"step raised {exc!r}")
            raise
        delta = query.clock.now() - t0
        self.global_vtime += delta
        query.steps += 1
        for result in report.results:
            query.results.append(result)
            query.recorder.record()
            query.emission_global_vtimes.append(self.global_vtime)
        if report.results and query.first_result_global_vtime is None:
            query.first_result_global_vtime = self.global_vtime
        if self.config.record_interleaving:
            self.interleaving.record(
                query.qid, report.kind, delta, len(report.results),
                self.global_vtime,
            )
        if report.finished:
            query.state = COMPLETED
            query.recorder.finish()
        elif query.budget is not None:
            reason = query.budget.exceeded(
                query.clock,
                len(query.results),
                lambda: time.perf_counter() - query._wall_start,
            )
            if reason is not None:
                self._retire(query, BUDGET_EXHAUSTED, reason)
        return report

    @staticmethod
    def _make_stepper(instance, clock: VirtualClock):
        """A resumable stepper: the engine's kernel, or a generator shim."""
        kernel_factory = getattr(instance, "kernel", None)
        if callable(kernel_factory):
            return kernel_factory()
        return _GeneratorStepper(instance, clock)

    def _retire(
        self, query: ScheduledQuery, state: str, reason: str | None
    ) -> None:
        if query._stepper is not None:
            query._stepper.close()
        query.state = state
        query.stop_reason = reason
        query.recorder.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terminal = sum(1 for q in self._queries if q.finished)
        return (
            f"QueryScheduler(policy={self.config.policy!r}, "
            f"queries={len(self._queries)}, done={terminal})"
        )
