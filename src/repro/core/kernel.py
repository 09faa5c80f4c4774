"""The resumable step-based execution kernel (phases 3/4 of the framework).

Historically ``ProgXeEngine.run()`` was one monolithic generator that owned
the interpreter until its region queue drained — a second concurrent query
could only wait.  :class:`ExecutionKernel` inverts that control flow: the
ProgOrder / ProgDetermine loop is re-expressed as an explicit step machine
over a finished :class:`~repro.core.plan.QueryPlan`, and the *caller*
decides when each unit of work runs.

* :meth:`ExecutionKernel.step` — the one way to advance a kernel: performs
  exactly one scheduling unit (the bootstrap emission pass, one region's
  tuple-level processing, or the final verification) and returns a
  :class:`StepReport` with the results it made emittable, the clock
  reading at which each became final, and per-step clock accounting.
* :meth:`ExecutionKernel.close` — abandon the execution (cancellation).
* :meth:`ExecutionKernel.snapshot` — progress introspection: regions done,
  cells settled/marked/emitted, results emitted, virtual-clock charges.

Every driver is a loop over ``step()``: ``ProgXeEngine.run()``, a direct
:class:`~repro.session.stream.ResultStream` pull and the multi-query
scheduler.  *When* a query advances is the driver's choice; *how* it
advances is this class's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.elimination_graph import EliminationGraph
from repro.core.plan import QueryPlan
from repro.core.progdetermine import ExecutionState
from repro.core.progorder import ProgOrder, RandomOrder, region_rank
from repro.core.regions import OutputRegion
from repro.core.tuple_level import process_region
from repro.errors import ExecutionError
from repro.query.smj import ResultTuple
from repro.runtime.clock import VirtualClock

#: Kernel lifecycle states.
CREATED = "created"
RUNNING = "running"
FINISHED = "finished"

#: Step kinds reported by :meth:`ExecutionKernel.step`.
STEP_BOOTSTRAP = "bootstrap"
STEP_REGION = "region"
STEP_FINALIZE = "finalize"
STEP_IDLE = "idle"
#: A step an exception (a budget tripwire, an engine error) cut short; it
#: carries the results the step made final before the cut.
STEP_UNWOUND = "unwound"
#: Streaming only (:class:`~repro.core.streaming.StreamingKernel`): one
#: arrival poll — absorb appended rows (or observe none) and integrate the
#: resulting regions.
STEP_INGEST = "ingest"


class _StepBoundary:
    """Internal event marking the end of one scheduling unit."""

    __slots__ = ("kind", "region_id")

    def __init__(self, kind: str, region_id: int | None) -> None:
        self.kind = kind
        self.region_id = region_id


@dataclass(frozen=True)
class StepReport:
    """Outcome of one :meth:`ExecutionKernel.step` call.

    kind:
        ``"bootstrap"`` (look-ahead freebies), ``"region"`` (one region's
        tuple-level processing), ``"finalize"`` (verification + stats),
        ``"idle"`` (step on an already-finished kernel; a no-op), or
        ``"unwound"`` (cut short by an exception).
    results:
        Results that became provably final during this step, in emission
        order.
    result_vtimes:
        The query clock at the moment each result became final, parallel
        to ``results`` — the stamps a progress recorder needs, exact even
        though the step hands its results out together.
    region_id:
        The processed region's id for ``"region"`` steps, else ``None``.
    step_index:
        1-based count of non-idle steps taken so far.
    vtime:
        The query clock *after* the step.
    vtime_delta:
        Virtual time charged by this step alone.
    charges:
        Per-operation-kind charge deltas for this step.
    finished:
        True once the kernel has verified and published its stats.

    Step reports are plain, picklable data: every field is a plain value
    (tuples, dicts, :class:`~repro.query.smj.ResultTuple` dataclasses).
    """

    kind: str
    results: tuple[ResultTuple, ...]
    result_vtimes: tuple[float, ...]
    region_id: int | None
    step_index: int
    vtime: float
    vtime_delta: float
    charges: dict[str, int]
    finished: bool

    @classmethod
    def empty(cls, kind: str, clock: VirtualClock, step_index: int) -> "StepReport":
        """A terminal report of a step that produced and charged nothing."""
        return cls(
            kind=kind, results=(), result_vtimes=(), region_id=None,
            step_index=step_index, vtime=clock.now(), vtime_delta=0.0,
            charges={}, finished=True,
        )


@dataclass(frozen=True)
class KernelSnapshot:
    """Point-in-time progress picture of a kernel (cheap, read-only).

    Like :class:`StepReport`, snapshots are plain-data and picklable by
    contract (``clock_counts`` is a concrete ``dict`` copy, never a live
    view), so monitoring surfaces can ship them across processes.
    """

    status: str
    steps: int
    results_emitted: int
    regions_total: int
    regions_processed: int
    regions_discarded: int
    regions_pending: int
    cells_active: int
    cells_settled: int
    cells_marked: int
    cells_emitted: int
    inserted: int
    live_entries: int
    vtime: float
    clock_counts: dict[str, int]

    @property
    def regions_done(self) -> int:
        """Regions needing no further work (processed or discarded)."""
        return self.regions_processed + self.regions_discarded


class ExecutionKernel:
    """Resumable step machine over one planned ProgXe execution.

    Construction wires the execution structures (state, elimination graph,
    ordering policy) exactly as the monolithic engine prologue did; no
    tuple-level work happens until the first :meth:`step`.

    Example::

        kernel = ProgXeEngine(bound).kernel()
        report = kernel.step()              # bootstrap emissions
        while not kernel.finished:
            report = kernel.step()          # one region per call
            consume(report.results)         # provably final already
        kernel.snapshot()                   # progress introspection
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        stats_sink: dict | None = None,
    ) -> None:
        if plan.consumed:
            raise ExecutionError(
                "QueryPlan has already been executed; execution mutates the "
                "plan's regions and grid, so build a fresh plan for a new run"
            )
        plan.consumed = True
        self.plan = plan
        self.bound = plan.bound
        self.clock = plan.clock
        self.verify = plan.verify
        self.stats: dict = stats_sink if stats_sink is not None else {}
        self.stats.update(plan.prune_stats)

        self.state = ExecutionState(plan.bound, plan.regions, plan.grid, plan.clock)
        self.graph = EliminationGraph(plan.regions, plan.clock)
        dims = plan.bound.skyline_dimension_count
        grid = plan.grid

        def rank_fn(region: OutputRegion) -> float:
            return region_rank(region, grid, dims)[2]

        if plan.ordering:
            self.policy = ProgOrder(self.graph, rank_fn, plan.clock)
        else:
            self.policy = RandomOrder(
                self.graph, rank_fn, plan.clock, seed=plan.seed
            )

        self.steps = 0
        self.results_emitted = 0
        self.regions_processed = 0
        #: The ``"unwound"`` report of the step a propagated exception (an
        #: error, a budget tripwire) cut short — ``None`` unless that ended
        #: the event loop instead of a clean finalize.
        self.unwound: StepReport | None = None
        self._status = CREATED
        self._events = self._event_loop()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """One of created / running / finished."""
        return self._status

    @property
    def finished(self) -> bool:
        return self._status == FINISHED

    def close(self) -> None:
        """Abandon the execution (cooperative cancellation).

        The event loop generator is closed and the kernel reports finished;
        no verification or stats publication happens — every result already
        handed out remains provably final (the progressive contract).
        """
        if self._status == FINISHED:
            return
        self._events.close()
        self._status = FINISHED

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Run exactly one scheduling unit and report what it produced.

        Unit granularity: the first call performs the bootstrap emission
        pass (cells already settled by the look-ahead), each following call
        processes one region (or skips a stale queue entry group — still
        one unit of queue work), and the final call runs verification and
        publishes the engine-compatible ``stats``.  Stepping a finished
        kernel returns an ``"idle"`` report, making over-stepping harmless.

        An exception raised inside the step (an engine error, or a budget
        tripwire the caller installed on the clock) ends the kernel: it is
        finished from then on, and :attr:`unwound` keeps the results the
        step made final before the exception.
        """
        if self._status == FINISHED:
            return StepReport.empty(STEP_IDLE, self.clock, self.steps)
        self._status = RUNNING
        t0 = self.clock.now()
        counts0 = self.clock.snapshot()
        results: list[ResultTuple] = []
        stamps: list[float] = []
        kind = STEP_FINALIZE
        region_id: int | None = None
        try:
            for event in self._events:
                if isinstance(event, _StepBoundary):
                    kind = event.kind
                    region_id = event.region_id
                    break
                results.append(event)
                stamps.append(self.clock.now())
            else:
                # Clean exhaustion: _event_loop ran _finalize() on its way
                # out.
                self._status = FINISHED
        except BaseException:
            # The exception kills the event-loop generator: this kernel can
            # never progress again, so report it terminal rather than leave
            # retrying callers spinning on a dead kernel that claims to be
            # running.
            self._status = FINISHED
            self.unwound = self._report(
                STEP_UNWOUND, None, results, stamps, t0, counts0
            )
            raise
        return self._report(kind, region_id, results, stamps, t0, counts0)

    def _report(
        self,
        kind: str,
        region_id: int | None,
        results: list[ResultTuple],
        stamps: list[float],
        t0: float,
        counts0: dict[str, int],
    ) -> StepReport:
        self.steps += 1
        self.results_emitted += len(results)
        return StepReport(
            kind=kind,
            results=tuple(results),
            result_vtimes=tuple(stamps),
            region_id=region_id,
            step_index=self.steps,
            vtime=self.clock.now(),
            vtime_delta=self.clock.now() - t0,
            charges=self.clock.since(counts0),
            finished=self._status == FINISHED,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> KernelSnapshot:
        """Progress snapshot: region, cell, emission and clock counters."""
        # state.regions also holds the regions streaming's arrival polls add.
        regions = self.state.regions.values()
        discarded = sum(1 for r in regions if r.discarded)
        pending = sum(1 for r in regions if not r.done)
        cells = self.plan.grid.cells.values()
        return KernelSnapshot(
            status=self._status,
            steps=self.steps,
            results_emitted=self.results_emitted,
            regions_total=len(regions),
            regions_processed=self.regions_processed,
            regions_discarded=discarded,
            regions_pending=pending,
            cells_active=self.plan.grid.active_count,
            cells_settled=sum(1 for c in cells if c.settled),
            cells_marked=self.plan.grid.marked_count,
            cells_emitted=sum(1 for c in cells if c.emitted),
            inserted=self.state.inserted,
            live_entries=self.state.live_entries,
            vtime=self.clock.now(),
            clock_counts=self.clock.snapshot(),
        )

    # ------------------------------------------------------------------
    # the event loop (phases 3/4)
    # ------------------------------------------------------------------
    def _event_loop(self) -> Iterator[ResultTuple | _StepBoundary]:
        bound = self.bound
        state = self.state
        policy = self.policy

        # Bootstrap: cells fully released during look-ahead are already
        # final (empty or pre-settled); emit them before any region runs.
        for cell in self.plan.grid.cells.values():
            if cell.settled and not cell.marked:
                state.emit_settled(cell)
        for vector, lrow, rrow, mapped in state.drain_emissions():
            yield bound.make_result(lrow, rrow, mapped)
        yield _StepBoundary(STEP_BOOTSTRAP, None)

        # The ProgOrder / ProgDetermine loop, one region per boundary.
        while True:
            region = policy.next_region()
            if region is None:
                break
            if not region.done:
                yield from self._run_region(region)

        self._finalize()

    def _run_region(
        self, region: OutputRegion
    ) -> Iterator[ResultTuple | _StepBoundary]:
        """One region step: tuple-level processing, then release/emission."""
        bound = self.bound
        state = self.state
        for _vector, lrow, rrow, mapped in process_region(state, region):
            yield bound.make_result(lrow, rrow, mapped)
        region.processed = True
        self.regions_processed += 1
        state.complete_region(region)
        for _vector, lrow, rrow, mapped in state.drain_emissions():
            yield bound.make_result(lrow, rrow, mapped)
        self.policy.on_region_done(region)
        for discarded in state.drain_discarded():
            self.policy.on_region_done(discarded)
        yield _StepBoundary(STEP_REGION, region.rid)

    def _finalize(self) -> None:
        """Verify the completeness invariant and publish engine stats."""
        if self.verify:
            self.state.verify_drained()
        grid = self.plan.grid
        state = self.state
        regions = state.regions.values()
        self.stats.update(
            {
                "regions_total": len(regions),
                "regions_processed": self.regions_processed,
                "regions_discarded": sum(1 for r in regions if r.discarded),
                "regions_skipped": state.regions_skipped,
                "rows_skipped": state.rows_skipped,
                "pairs_skipped": state.pairs_skipped,
                "active_cells": grid.active_count,
                "marked_cells": grid.marked_count,
                "inserted": state.inserted,
                "dominated_on_arrival": state.dominated_on_arrival,
                "discarded_on_arrival": state.discarded_on_arrival,
                "peak_buffered": state.peak_live_entries,
            }
        )
        self._status = FINISHED
