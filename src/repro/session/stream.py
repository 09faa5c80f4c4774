"""Streaming result handles.

A :class:`ResultStream` wraps a progressive algorithm's ``run()`` generator
with the service-level controls a long-lived session needs:

* **pull** iteration (``for result in stream``) — lazy, one result at a time,
* **push** callbacks — ``on_result`` / ``on_progress`` / ``on_complete``;
  a raising callback is never silently dropped: it propagates to the
  iterating caller unless an ``on_error`` handler is registered,
* **cooperative cancellation** — :meth:`ResultStream.cancel` stops the
  engine at its next unit of charged work; no further results are emitted,
* **budgets** — virtual-time, dominance-comparison, result-count and
  wall-clock ceilings (:class:`StreamBudget`) that stop the engine cleanly
  mid-run.

Because every algorithm in the library only ever yields *provably final*
results, any prefix a cancelled or budget-stopped stream produced is
correct — it is exactly what the paper's progressive contract promises.
Partial progressiveness statistics stay available via
:meth:`ResultStream.stats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

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


class _StreamInterrupt(Exception):
    """Internal signal raised by the clock tripwire to unwind the engine."""

    def __init__(self, state: str, reason: str) -> None:
        super().__init__(reason)
        self.state = state
        self.reason = reason


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

    @classmethod
    def capture(
        cls,
        state: str,
        recorder: ProgressRecorder,
        clock: VirtualClock,
        *,
        wall_seconds: float,
        stop_reason: str | None,
        algorithm=None,
    ) -> "StreamStats":
        """Snapshot the standard progressiveness metrics.

        Shared by :meth:`ResultStream.stats` and the scheduler's
        per-query handles so both surfaces report identical shapes.
        ``algorithm`` (when given) contributes its ``cache_events`` —
        engines planned through a shared
        :class:`~repro.cache.plan_cache.PlanCache` report their
        partition-sharing outcome here.
        """
        cache_events = getattr(algorithm, "cache_events", None) or None
        return cls(
            state=state,
            results=recorder.total_results,
            vtime=clock.now(),
            wall_seconds=wall_seconds,
            time_to_first=recorder.time_to_first(),
            auc=recorder.progressiveness_auc(),
            batches=recorder.batch_count(),
            dominance_comparisons=clock.count("dominance_cmp"),
            stop_reason=stop_reason,
            partition_cache=dict(cache_events) if cache_events else None,
        )


class ResultStream:
    """Handle over one progressive algorithm execution.

    Results are produced lazily: iterate (or :meth:`drain`) to advance the
    engine.  Registered callbacks fire in emission order, interleaved with
    iteration.  The stream is single-use — once terminal, iteration yields
    nothing further.

    Example::

        stream = session.execute(bound, algorithm="ProgXe+")
        stream.on_result(print)             # push, in emission order
        for result in stream:               # pull, provably final
            if enough(result):
                stream.cancel()             # cooperative stop
        stream.stats()                      # valid mid-run or after any stop
    """

    def __init__(
        self,
        algorithm: Any,
        clock: VirtualClock,
        *,
        name: str | None = None,
        budget: StreamBudget | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.clock = clock
        self.name = name or getattr(algorithm, "name", type(algorithm).__name__)
        self.budget = budget
        self.recorder = ProgressRecorder(clock)
        self.results: list[ResultTuple] = []
        self._gen: Iterator[ResultTuple] | None = None
        self._state = PENDING
        self._stop_reason: str | None = None
        self._cancel_reason: str | None = None
        self._wall_start = time.perf_counter()
        self._on_result: list[Callable[[ResultTuple], None]] = []
        self._on_progress: list[Callable[[EmissionEvent], None]] = []
        self._on_complete: list[Callable[[StreamStats], None]] = []
        self._on_error: list[Callable[[BaseException], None]] = []

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

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cooperative cancellation.

        Safe to call at any point, including from an ``on_result`` callback;
        no further results are emitted after the current one.  If the engine
        is mid-computation the clock tripwire unwinds it at its next charged
        operation.
        """
        if self.finished:
            return
        self._cancel_reason = reason
        if self._state == PENDING:
            self._finalize(CANCELLED, reason)

    def close_ingest(self) -> None:
        """Close a *follow* query's arrival window so it can finish.

        Streaming executions (``EngineConfig(follow=True)``) keep polling
        their source tables for appended rows and never complete on their
        own; calling this ends the arrival window — already-absorbed rows
        are still fully processed, then the stream completes.  Raises
        :class:`~repro.errors.QueryError` when the underlying execution is
        not a follow query.  Safe to call repeatedly; a no-op once the
        stream is finished.
        """
        if self.finished:
            return
        kernel = getattr(self.algorithm, "execution_kernel", None)
        if kernel is None:
            # Lazy pull hasn't started the engine yet: force the kernel
            # into existence and adopt its drain generator so iteration
            # continues from it (run() would try to build a second kernel).
            kernel_fn = getattr(self.algorithm, "kernel", None)
            if kernel_fn is None:
                raise QueryError(
                    f"{self.name!r} is not a follow query: the algorithm "
                    "exposes no resumable kernel"
                )
            kernel = kernel_fn()
            self._gen = kernel.drain()
            self._state = RUNNING
        close = getattr(kernel, "close_ingest", None)
        if close is None:
            raise QueryError(
                f"{self.name!r} is not a follow query; execute with "
                "EngineConfig(follow=True) to stream arrivals"
            )
        close()

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
    # iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self) -> ResultTuple:
        if self.finished:
            raise StopIteration
        if self._gen is None:
            self._gen = self.algorithm.run()
            self._state = RUNNING
        stop = self._pre_pull_stop()
        if stop is not None:
            self._stop(*stop)
            raise StopIteration
        self.clock.set_tripwire(self._tripwire)
        try:
            result = next(self._gen)
        except StopIteration:
            self._finalize(COMPLETED, None)
            raise
        except _StreamInterrupt as interrupt:
            self._stop(interrupt.state, interrupt.reason)
            raise StopIteration from None
        except Exception as exc:
            # The engine is dead mid-run: its partial result set must never
            # be finalised as completed by a later pull.
            self._finalize(FAILED, f"engine raised {exc!r}")
            raise
        finally:
            self.clock.set_tripwire(None)
        self.results.append(result)
        self.recorder.record()
        event = self.recorder.events[-1]
        for callback in self._on_result:
            self._dispatch(callback, result)
        for callback in self._on_progress:
            self._dispatch(callback, event)
        return result

    def drain(self) -> list[ResultTuple]:
        """Consume the stream to its end; return *all* results emitted."""
        for _ in self:
            pass
        return self.results

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> StreamStats:
        """Progressiveness snapshot — valid mid-stream and after any stop."""
        return StreamStats.capture(
            self._state,
            self.recorder,
            self.clock,
            wall_seconds=time.perf_counter() - self._wall_start,
            stop_reason=self._stop_reason,
            algorithm=self.algorithm,
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

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pre_pull_stop(self) -> tuple[str, str] | None:
        if self._cancel_reason is not None:
            return (CANCELLED, self._cancel_reason)
        if self.budget is not None:
            reason = self.budget.exceeded(
                self.clock, len(self.results), self._wall_elapsed
            )
            if reason is not None:
                return (BUDGET_EXHAUSTED, reason)
        return None

    def _tripwire(self) -> None:
        if self._cancel_reason is not None:
            raise _StreamInterrupt(CANCELLED, self._cancel_reason)
        if self.budget is not None:
            reason = self.budget.exceeded(
                self.clock, len(self.results), self._wall_elapsed
            )
            if reason is not None:
                raise _StreamInterrupt(BUDGET_EXHAUSTED, reason)

    def _wall_elapsed(self) -> float:
        return time.perf_counter() - self._wall_start

    def _stop(self, state: str, reason: str) -> None:
        if self._gen is not None:
            self._gen.close()
        self._finalize(state, reason)

    def _finalize(self, state: str, reason: str | None) -> None:
        self._state = state
        self._stop_reason = reason
        self.recorder.finish()
        stats = self.stats()
        for callback in self._on_complete:
            self._dispatch(callback, stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultStream({self.name!r}, state={self._state}, "
            f"results={len(self.results)})"
        )
