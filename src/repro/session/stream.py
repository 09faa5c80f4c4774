"""The query handle.

A :class:`ResultStream` is the one handle over a progressive execution,
whoever drives it: :meth:`Session.execute
<repro.session.service.Session.execute>` returns one for a direct pull, and
:meth:`QueryScheduler.submit
<repro.session.scheduler.QueryScheduler.submit>` returns one the scheduler
advances.  Either way it steps the algorithm's resumable kernel (or a
one-result-per-step shim over a baseline's ``run()`` generator) and adds
the service-level controls a long-lived session needs:

* **pull** iteration (``for result in stream``) — lazy, one result at a time,
* **push** callbacks — ``on_result`` / ``on_progress`` / ``on_complete``;
  a raising callback is never silently dropped: it propagates to the
  iterating caller unless an ``on_error`` handler is registered,
* **cancellation** — :meth:`ResultStream.cancel` is terminal at once,
* **budgets** — virtual-time, dominance-comparison, result-count and
  wall-clock ceilings (:class:`StreamBudget`) that stop the engine cleanly
  mid-step, identically on every driver.

Because every algorithm in the library only ever yields *provably final*
results, any prefix a cancelled or budget-stopped stream produced is
correct — it is exactly what the paper's progressive contract promises.
Partial progressiveness statistics stay available via
:meth:`ResultStream.stats`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.core.kernel import STEP_FINALIZE, STEP_IDLE, STEP_UNWOUND, StepReport
from repro.errors import QueryError
from repro.query.smj import ResultTuple
from repro.runtime.clock import VirtualClock
from repro.runtime.recorder import EmissionEvent, ProgressRecorder
from repro.runtime.runner import RunResult

#: Terminal / lifecycle states of a stream.
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
CANCELLED = "cancelled"
BUDGET_EXHAUSTED = "budget_exhausted"
#: Terminal state of a query whose engine raised.
FAILED = "failed"


#: Step kind reported by the shim stepping a baseline's ``run()``.
STEP_PULL = "pull"


class _BudgetTripped(Exception):
    """Raised by the clock tripwire to unwind a step that crossed a ceiling."""


@dataclass(frozen=True)
class StreamBudget:
    """Execution ceilings for one stream; ``None`` means unlimited.

    max_vtime:
        Stop once the virtual clock passes this many cost units.
    max_comparisons:
        Stop once this many dominance comparisons were charged.  The
        engine's insertion charges its dominator scan per tuple up to the
        first dominator, not per numpy lane, so a ceiling stretches further
        than a lane count would (on the ``skyline-heavy`` benchmark
        workload about twice as far).
    max_results:
        Stop after emitting this many results.
    max_wall_seconds:
        Stop after this much real time.

    Example::

        budget = StreamBudget(max_results=10, max_vtime=50_000)
        stream = session.execute(bound, budget=budget)
        results = stream.drain()            # <= 10 results, all final
        stream.stats().stop_reason          # which ceiling tripped, if any
    """

    max_vtime: float | None = None
    max_comparisons: int | None = None
    max_results: int | None = None
    max_wall_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "max_vtime", "max_comparisons", "max_results", "max_wall_seconds"
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise QueryError(f"{name} must be positive, got {value}")

    @property
    def unlimited(self) -> bool:
        """True when no ceiling is set."""
        return (
            self.max_vtime is None
            and self.max_comparisons is None
            and self.max_results is None
            and self.max_wall_seconds is None
        )

    def exceeded(
        self,
        clock: VirtualClock,
        emitted: int,
        wall_elapsed: Callable[[], float],
    ) -> str | None:
        """The first exhausted ceiling, as a human-readable reason.

        ``wall_elapsed`` is a thunk: this method runs on every clock charge
        while a budget is active, so the ``perf_counter`` read is paid only
        when a wall-clock ceiling is actually set.
        """
        if self.max_vtime is not None and clock.now() >= self.max_vtime:
            return f"virtual time budget ({self.max_vtime:g}) exhausted"
        if (
            self.max_comparisons is not None
            and clock.count("dominance_cmp") >= self.max_comparisons
        ):
            return (
                f"dominance comparison budget ({self.max_comparisons}) exhausted"
            )
        if self.max_results is not None and emitted >= self.max_results:
            return f"result budget ({self.max_results}) exhausted"
        if (
            self.max_wall_seconds is not None
            and wall_elapsed() >= self.max_wall_seconds
        ):
            return f"wall-clock budget ({self.max_wall_seconds:g}s) exhausted"
        return None


@dataclass(frozen=True)
class StreamStats:
    """Progressiveness snapshot of a (possibly still partial) stream.

    Example::

        stats = stream.stats()
        print(stats.results, stats.time_to_first, stats.auc)
        if stats.partition_cache:          # cross-query work sharing hit?
            print(stats.partition_cache["partition_hits"])
    """

    state: str
    results: int
    vtime: float
    wall_seconds: float
    time_to_first: float | None
    auc: float
    batches: int
    dominance_comparisons: int
    stop_reason: str | None
    #: Partition-cache outcome of this query's planning (``partition_hits``
    #: / ``partition_misses``), or ``None`` when the algorithm planned
    #: privately (no shared cache, or a non-ProgXe algorithm).
    partition_cache: Mapping[str, int] | None = None

    @property
    def completed(self) -> bool:
        """True when the underlying algorithm ran to natural completion."""
        return self.state == COMPLETED


class _GeneratorStepper:
    """Stepper over an algorithm without a resumable kernel.

    One step pulls one result from the algorithm's ``run()`` generator (or
    discovers exhaustion).  A blocking baseline therefore does all its work
    inside its first step — the shim makes it *steppable*, not progressive.
    """

    def __init__(self, algorithm: Any, clock: VirtualClock) -> None:
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
        now = self._clock.now()
        return StepReport(
            kind=kind,
            results=results,
            result_vtimes=(now,) * len(results),
            region_id=None,
            step_index=self._steps,
            vtime=now,
            vtime_delta=now - t0,
            charges=self._clock.since(counts0),
            finished=self.finished,
        )

    def close(self) -> None:
        self._gen.close()
        self.finished = True


class ResultStream:
    """Handle over one progressive algorithm execution.

    Results are produced lazily: iterate (or :meth:`drain`) to advance the
    engine yourself, or submit the query to a
    :class:`~repro.session.scheduler.QueryScheduler`, which calls
    :meth:`step`.  Registered callbacks fire in emission order, interleaved
    with iteration.  The stream is single-use — once terminal, iteration
    yields nothing further.

    One state machine serves every driver; each transition is one method:
    ``_start`` (pending → running: build the stepper), ``_step`` (one
    stepper step, under ``_guarded``'s budget and failure rules), ``_take``
    (hand out one result), ``_settle`` (budget stop or completion, when
    due), :meth:`cancel`, and ``_finish`` (any terminal state — the one
    place the stepper is closed and ``on_complete`` fires).

    Example::

        stream = session.execute(bound, algorithm="ProgXe+")
        stream.on_result(print)             # push, in emission order
        for result in stream:               # pull, provably final
            if enough(result):
                stream.cancel()             # terminal at once
        stream.stats()                      # valid mid-run or after any stop
    """

    def __init__(
        self,
        algorithm: Any,
        clock: VirtualClock,
        *,
        name: str | None = None,
        budget: StreamBudget | None = None,
        qid: int | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.clock = clock
        self.name = name or getattr(algorithm, "name", type(algorithm).__name__)
        self.budget = budget
        self.recorder = ProgressRecorder(clock)
        self.results: list[ResultTuple] = []
        #: Stepper steps taken so far.
        self.steps = 0
        #: The exception that ended this query ``failed``, if any.  Lets a
        #: serving pump attribute a ``tick()`` error to the owning stream.
        self.error: BaseException | None = None
        self._stepper: Any = None
        #: Results a step made final that are not handed out yet, with
        #: their clock stamps: a pull hands them out one at a time.
        self._pending: deque[tuple[ResultTuple, float]] = deque()
        self._state = PENDING
        self._stop_reason: str | None = None
        self._paused = False
        self._wall_start = time.perf_counter()
        self._on_result: list[Callable[[ResultTuple], None]] = []
        self._on_progress: list[Callable[[EmissionEvent], None]] = []
        self._on_complete: list[Callable[[StreamStats], None]] = []
        self._on_error: list[Callable[[BaseException], None]] = []
        # Dispatch bookkeeping of the QueryScheduler that admitted this
        # stream (untouched on a direct pull).
        self.qid = qid
        self.admitted = False
        #: Scheduling decisions since this query was last dispatched while
        #: runnable — the counter behind the starvation bound.
        self.rounds_waiting = 0
        #: Global (cross-query) virtual time at this query's first emission.
        self.first_result_global_vtime: float | None = None
        #: Global virtual time at each emission (step-granular stamps).
        self.emission_global_vtimes: list[float] = []

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """One of pending / running / completed / cancelled /
        budget_exhausted / failed."""
        return self._state

    @property
    def finished(self) -> bool:
        """True once the stream reached any terminal state."""
        return self._state in (COMPLETED, CANCELLED, BUDGET_EXHAUSTED, FAILED)

    @property
    def cancelled(self) -> bool:
        return self._state == CANCELLED

    @property
    def stop_reason(self) -> str | None:
        """Why the stream stopped early (``None`` while running or when it
        completed)."""
        return self._stop_reason

    @property
    def paused(self) -> bool:
        """True while a scheduler must not dispatch this query."""
        return self._paused and not self.finished

    @property
    def result_keys(self) -> set[tuple]:
        """Identity keys of the results emitted so far."""
        return {r.key() for r in self.results}

    def pause(self) -> None:
        """Suspend this query: a scheduler stops dispatching it.

        Pausing mutates no execution state, so a paused-and-resumed query
        reproduces its uninterrupted step and result sequence exactly.  A
        paused query keeps its admission slot (it is mid-flight, not
        requeued); :meth:`cancel` releases the slot at the next scheduling
        decision.  The serving edge's backpressure bridge pauses a query
        whose client stopped reading, so a slow consumer never buffers
        unboundedly — and never stalls anyone else's query.  A direct pull
        is its own scheduler and ignores the flag.
        """
        self._paused = True

    def resume(self) -> None:
        """Lift a :meth:`pause`; a scheduler may dispatch again."""
        self._paused = False

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Stop the query now.

        Terminal at once, from any non-terminal state (paused, or from an
        ``on_result`` callback included): the stream is ``cancelled``, its
        stepper is closed, ``on_complete`` has fired and no further result
        is handed out when this returns.  A no-op once the stream is
        finished.
        """
        if not self.finished:
            self._finish(CANCELLED, reason)

    def close_ingest(self) -> None:
        """Close a *follow* query's arrival window so it can finish.

        Streaming executions (``EngineConfig(follow=True)``) keep polling
        their source tables for appended rows and never complete on their
        own; calling this ends the arrival window — already-absorbed rows
        are still fully processed, then the stream completes with its full,
        verified result set.  A follow query that has not started is
        planned first, so the window closes over the rows present now.
        Raises :class:`~repro.errors.QueryError` when the execution is not
        a follow query — before any work; a no-op once the stream is
        finished.
        """
        if self.finished:
            return
        if not getattr(self.algorithm, "follow", False):
            raise QueryError(
                f"{self.name!r} is not a follow query; execute with "
                "EngineConfig(follow=True) to stream arrivals"
            )
        if self._stepper is None:
            self._guarded(self._start)
        if self._stepper is not None:
            self._stepper.close_ingest()

    # ------------------------------------------------------------------
    # callbacks (chainable)
    # ------------------------------------------------------------------
    def on_result(self, callback: Callable[[ResultTuple], None]) -> "ResultStream":
        """Register ``callback(result)`` for every emission, in order."""
        self._on_result.append(callback)
        return self

    def on_progress(
        self, callback: Callable[[EmissionEvent], None]
    ) -> "ResultStream":
        """Register ``callback(event)`` with the emission's index/timestamps."""
        self._on_progress.append(callback)
        return self

    def on_complete(self, callback: Callable[[StreamStats], None]) -> "ResultStream":
        """Register ``callback(stats)`` for the (single) terminal transition."""
        self._on_complete.append(callback)
        return self

    def on_error(
        self, callback: Callable[[BaseException], None]
    ) -> "ResultStream":
        """Register ``callback(exception)`` for exceptions raised by the
        other callbacks.

        Callback exceptions are never silently swallowed: without an
        ``on_error`` handler they re-raise to the iterating caller; with
        one (or more), every handler receives the exception and iteration
        continues.
        """
        self._on_error.append(callback)
        return self

    def _dispatch(self, callback: Callable, argument) -> None:
        """Invoke one user callback, routing failures through ``on_error``."""
        try:
            callback(argument)
        except Exception as exc:
            if not self._on_error:
                raise
            for handler in self._on_error:
                handler(exc)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self) -> ResultTuple:
        while not self._pending:
            self._settle()
            if self.finished:
                raise StopIteration
            self._step()
        taken = self._take()
        if taken is None:
            raise StopIteration
        return taken[0]

    def drain(self) -> list[ResultTuple]:
        """Consume the stream to its end; return *all* results emitted."""
        for _ in self:
            pass
        return self.results

    def step(self) -> StepReport:
        """Advance one step and hand out every result it made final.

        The scheduler's dispatch unit (and ``execute_async``'s).  The first
        step starts the execution (planning is charged then).  Returns the
        stepper's report with ``results`` narrowed to the results handed
        out — a budget or a cancel from a callback may stop the stream
        partway.  Stepping a finished stream returns an ``"idle"`` report.
        """
        self._settle()
        if self.finished:
            return StepReport.empty(STEP_IDLE, self.clock, self.steps)
        report = self._step()
        taken = []
        while self._pending:
            pair = self._take()
            if pair is not None:
                taken.append(pair)
        self._settle()
        return replace(
            report,
            results=tuple(result for result, _ in taken),
            result_vtimes=tuple(vtime for _, vtime in taken),
        )

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """pending -> running: build the stepper (this plans the query)."""
        self._state = RUNNING
        kernel = getattr(self.algorithm, "kernel", None)
        if callable(kernel):
            self._stepper = kernel()
        else:
            self._stepper = _GeneratorStepper(self.algorithm, self.clock)

    def _step(self) -> StepReport:
        """running: one stepper step; its results wait in the buffer."""
        report = self._guarded(self._stepper_step)
        self.steps += 1
        self._pending.extend(zip(report.results, report.result_vtimes))
        return report

    def _stepper_step(self) -> StepReport:
        if self._stepper is None:
            self._start()
        return self._stepper.step()

    def _guarded(self, work: Callable[[], Any]) -> Any:
        """Run engine work under the stream's budget and failure rules.

        Under a budget the clock tripwire is installed for this work only
        (an unbudgeted query pays nothing per charge): a ceiling unwinds it
        at the charge that crosses it, and the returned ``"unwound"``
        report keeps the results it made final before that.  An engine
        error ends the stream ``failed`` and propagates.
        """
        if self.budget is not None:
            self.clock.set_tripwire(self._tripwire)
        try:
            return work()
        except _BudgetTripped:
            return getattr(self._stepper, "unwound", None) or StepReport.empty(
                STEP_UNWOUND, self.clock, self.steps
            )
        except Exception as exc:
            self.error = exc
            self._finish(FAILED, f"engine raised {exc!r}")
            raise
        finally:
            if self.budget is not None:
                self.clock.set_tripwire(None)

    def _take(self) -> tuple[ResultTuple, float] | None:
        """running: hand out the next buffered result — or, once the result
        budget is spent, stop instead (``None``)."""
        if (
            self.budget is not None
            and self.budget.max_results is not None
            and len(self.results) >= self.budget.max_results
        ):
            self._settle()
            return None
        result, vtime = self._pending.popleft()
        self.results.append(result)
        self.recorder.record(vtime)
        event = self.recorder.events[-1]
        for callback in self._on_result:
            self._dispatch(callback, result)
        for callback in self._on_progress:
            self._dispatch(callback, event)
        return result, vtime

    def _settle(self) -> None:
        """Make the terminal transition that is due, if any: a spent budget
        stops the stream, a finished stepper completes it."""
        if self.finished:
            return
        reason = self._budget_reason()
        if reason is not None:
            self._finish(BUDGET_EXHAUSTED, reason)
        elif self._stepper is not None and self._stepper.finished:
            self._finish(COMPLETED, None)

    def _finish(self, state: str, reason: str | None) -> None:
        """Enter a terminal state: close the stepper, notify once."""
        if self._stepper is not None:
            self._stepper.close()
        self._pending.clear()
        self._state = state
        self._stop_reason = reason
        self.recorder.finish()
        stats = self.stats()
        for callback in self._on_complete:
            self._dispatch(callback, stats)

    def _budget_reason(self) -> str | None:
        if self.budget is None:
            return None
        return self.budget.exceeded(
            self.clock, len(self.results), self._wall_elapsed
        )

    def _tripwire(self) -> None:
        if self._budget_reason() is not None:
            raise _BudgetTripped

    def _wall_elapsed(self) -> float:
        return time.perf_counter() - self._wall_start

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> StreamStats:
        """Progressiveness snapshot — valid mid-stream and after any stop.

        Engines planned through a shared
        :class:`~repro.cache.plan_cache.PlanCache` report their
        partition-sharing outcome in ``partition_cache``.
        """
        cache_events = getattr(self.algorithm, "cache_events", None) or None
        return StreamStats(
            state=self._state,
            results=self.recorder.total_results,
            vtime=self.clock.now(),
            wall_seconds=self._wall_elapsed(),
            time_to_first=self.recorder.time_to_first(),
            auc=self.recorder.progressiveness_auc(),
            batches=self.recorder.batch_count(),
            dominance_comparisons=self.clock.count("dominance_cmp"),
            stop_reason=self._stop_reason,
            partition_cache=dict(cache_events) if cache_events else None,
        )

    def to_run_result(self) -> RunResult:
        """Adapt to the legacy :class:`~repro.runtime.runner.RunResult`."""
        return RunResult(
            name=self.name,
            results=self.results,
            recorder=self.recorder,
            clock=self.clock,
            algorithm=self.algorithm,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultStream({self.name!r}, state={self._state}, "
            f"results={len(self.results)})"
        )
