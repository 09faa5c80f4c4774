"""Streaming ingestion: executing a query while its inputs keep growing.

The paper's pipeline assumes the inputs are fixed at planning time.  This
module relaxes that to **append-only arrival**: a follow query plans over
the rows present at submission and then keeps absorbing rows appended to
either source while it runs, producing exactly the result set a one-shot
query over the final table contents would — the differential-replay
contract ``tests/test_streaming.py`` checks property-style.

:class:`StreamingKernel` extends the step machine with one new scheduling
unit, the *arrival poll* (:data:`~repro.core.kernel.STEP_INGEST`): whenever
the region queue runs dry while the arrival window is open, the kernel
compares each side's :attr:`~repro.storage.sources.base.DataSource.cache_token`
against the cursor of its last absorption and, on growth, extends the
side's input partitioning in place (through the shared
:class:`~repro.cache.plan_cache.PlanCache` when the build went through one,
so concurrent queries keep patching a single structure).  The fresh delta
partitions generate join work for exactly the new pairs —
``ΔL x (R ∪ ΔR)`` and ``L x ΔR`` — as new output regions wired into the
existing output grid, elimination graph and ordering policy.

Progressive safety under arrival needs two amendments to ProgDetermine:

* **Emission hold** — a settled cell is no longer provably final: a later
  arrival can create a region covering it again (the kernel *reopens* it,
  restoring RegCount and the cone's pending counts).  All emissions are
  therefore buffered until :meth:`StreamingKernel.close_ingest` ends the
  window and the last region completes, at which point one sweep
  (:meth:`~repro.core.progdetermine.ExecutionState.release_emissions`)
  emits everything at once.
* **Careful marking** — delta rows outside the frozen input-grid domain
  clamp into edge partitions, so a mapped vector may exceed its output
  cell's box; cell-granularity marking switches to full dominance tests
  against the target cell's lower corner
  (:attr:`~repro.core.progdetermine.ExecutionState.careful_marking`).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.kernel import (
    STEP_BOOTSTRAP,
    STEP_INGEST,
    ExecutionKernel,
    _StepBoundary,
)
from repro.core.lookahead import build_block_regions
from repro.core.plan import QueryPlan, StreamSide
from repro.core.regions import OutputRegion
from repro.errors import ExecutionError
from repro.query.smj import ResultTuple
from repro.storage.partition import InputPartition
from repro.storage.sources.base import delta_start_row


class StreamingKernel(ExecutionKernel):
    """Step machine for follow queries over append-only growing sources.

    Construction requires a *follow plan* (``QueryPlan.build(...,
    follow=True)``), which retains the per-side delta handles.  The kernel
    behaves exactly like :class:`~repro.core.kernel.ExecutionKernel` —
    same step protocol, close, snapshots — with two differences:
    results surface only after the arrival window closes (the streaming
    emission hold), and stepping an otherwise-idle kernel performs an
    arrival poll instead of finishing.

    Example::

        plan = QueryPlan.build(bound, follow=True)
        kernel = StreamingKernel(plan)
        kernel.step()                      # bootstrap
        table.append_row({...})            # rows arrive mid-run
        while kernel.step().kind != "ingest":
            pass                           # absorbed on the next poll
        kernel.close_ingest()              # end the arrival window
        results = []                       # the full final result set
        while not kernel.finished:
            results.extend(kernel.step().results)
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        stats_sink: dict | None = None,
    ) -> None:
        if plan.stream_sides is None:
            raise ExecutionError(
                "StreamingKernel requires a follow plan; build it with "
                "QueryPlan.build(..., follow=True)"
            )
        super().__init__(plan, stats_sink=stats_sink)
        self._sides: list[StreamSide] = list(plan.stream_sides)
        #: Per-side count of structure extensions already turned into
        #: regions.  Extensions appended by *other* followers sharing the
        #: cached structure advance the list but not this cursor, so each
        #: kernel integrates every delta partition exactly once.
        self._ext_seen = [len(s.structure.extensions) for s in self._sides]
        self._ingest_open = True
        self._next_rid = max(self.state.regions, default=-1) + 1
        self.polls = 0
        self.rows_ingested = 0
        self.regions_added = 0
        self.regions_pruned = 0
        self.cells_reopened = 0
        self.state.hold_emissions = True
        self.state.careful_marking = True

    # ------------------------------------------------------------------
    # the arrival window
    # ------------------------------------------------------------------
    @property
    def ingest_open(self) -> bool:
        """Whether arrival polls still absorb appended rows."""
        return self._ingest_open

    def close_ingest(self) -> None:
        """End the arrival window.

        Every row appended *before* the close is still absorbed — the
        event loop runs one final arrival poll once its region queue dries
        up — and fully processed; once the last region completes the
        kernel releases the emission hold and finishes.  Idempotent.
        """
        self._ingest_open = False

    # ------------------------------------------------------------------
    # polling
    # ------------------------------------------------------------------
    def poll_deltas(self) -> int:
        """Absorb rows appended to either side; returns the row count.

        A side whose ``cache_token`` still equals the last absorbed cursor
        is skipped outright — no scan, no cache lookup, no store-counter
        movement — and no partition list is read until some side grew: an
        empty poll costs one ``queue_op`` and nothing else.  Grown sides go
        through the shared cache when the plan used one (keeping the
        patched-generation chain intact for queries 2..N), privately
        otherwise, and the fresh partitions become new output regions.
        """
        self.polls += 1
        self.clock.charge("queue_op")
        tokens = [side.table.cache_token for side in self._sides]
        if all(now == side.token for now, side in zip(tokens, self._sides)):
            return 0
        old_sides = [self._known_partitions(i) for i in range(len(tokens))]
        new_sides: list[list[InputPartition]] = []
        for i, (side, token_now) in enumerate(zip(self._sides, tokens)):
            if token_now == side.token:
                new_sides.append([])
                continue
            self._absorb(side, token_now)
            side.token = token_now
            extensions = side.structure.extensions
            new_sides.append(list(extensions[self._ext_seen[i]:]))
            self._ext_seen[i] = len(extensions)
        rows = sum(len(p) for parts in new_sides for p in parts)
        if rows:
            self.rows_ingested += rows
            self._integrate(old_sides, new_sides)
        return rows

    def _known_partitions(self, i: int) -> list[InputPartition]:
        """All partitions of side ``i`` already turned into regions."""
        structure = self._sides[i].structure
        parts = structure.partitions
        base = list(parts.values()) if isinstance(parts, dict) else list(parts)
        return base + list(structure.extensions[: self._ext_seen[i]])

    def _absorb(self, side: StreamSide, token_now: tuple) -> None:
        """Extend ``side``'s partitioning to cover rows up to ``token_now``."""
        table = side.table
        if side.cache is not None:
            structure, outcome, delta_rows = side.cache.get_or_partition_outcome(
                side.partitioner, table, side.attributes, side.join_attribute,
                source=side.alias,
            )
            if structure is side.structure:
                # Either another follower already patched the shared
                # structure to the current generation (a hit) or our
                # request just did; both leave the delta partitions on
                # ``extensions`` for the cursor to pick up.
                self.clock.charge("cache_op")
                if outcome == "patched" and delta_rows:
                    self.clock.charge("partition_op", delta_rows)
                return
            # The store no longer hands out our structure (evicted, or an
            # unprovable delta forced a rebuild); patch our copy privately.
        if delta_start_row(table, side.token) is None:
            raise ExecutionError(
                f"source {table.name!r} mutated non-append-only while a "
                "follow query was running; streaming ingestion requires "
                "append-only arrival"
            )
        created = side.partitioner.partition_delta(
            side.structure, table, side.attributes, side.join_attribute,
            since_token=side.token, end_row=token_now[2],
        )
        self.clock.charge("partition_op", sum(len(p) for p in created))

    # ------------------------------------------------------------------
    # integrating a delta
    # ------------------------------------------------------------------
    def _integrate(
        self,
        old_sides: list[list[InputPartition]],
        new_sides: list[list[InputPartition]],
    ) -> None:
        """Create and wire the output regions the delta pairs generate.

        Exactly the pairs no prior region covers, as two blocks of the
        look-ahead's builder: ``ΔL x (R ∪ ΔR)`` and ``L x ΔR``, signature
        join pruning included; a pair covering only marked cells is dropped
        at birth (:attr:`regions_pruned`).  Region- and cell-level
        domination pruning are skipped — the marked cells discard anyway.
        """
        old_left, old_right = old_sides
        new_left, new_right = new_sides
        regions: list[OutputRegion] = []
        for left_parts, right_parts in (
            (new_left, old_right + new_right),
            (old_left, new_right),
        ):
            built, pruned = build_block_regions(
                self.bound, left_parts, right_parts,
                self._sides[0].structure.attributes,
                self._sides[1].structure.attributes,
                self.clock, first_rid=self._next_rid, grid=self.plan.grid,
                codes=tuple(s.structure.signature_codes for s in self._sides),
            )
            self._next_rid += len(built) + pruned
            self.regions_pruned += pruned
            regions += built
        if regions:
            self._wire_regions(regions)

    def _wire_regions(self, regions: list[OutputRegion]) -> None:
        """Wire new regions into the grid, graph and ordering policy.

        The look-ahead's own coverage and cone builders
        (:meth:`~repro.core.output_grid.OutputGrid.cover`,
        :meth:`~repro.core.output_grid.OutputGrid.wire_cones`) over the
        *existing* output grid: region boxes beyond its domain clamp into
        edge cells, matching where their clamped tuples will land.
        Settled unmarked cells a new region covers are reopened; cells
        activated for the first time get cone wiring, which raises the
        pending count of every existing cell above them.  New regions
        enter the elimination graph edge-free, so the policy treats them
        as roots.
        """
        grid = self.plan.grid
        state = self.state
        fresh, touched = grid.cover(regions, self.clock)
        for cell in touched:
            if cell.settled and not cell.marked:
                state.reopen_cell(cell)
                self.cells_reopened += 1
        grid.wire_cones(fresh)
        for region in regions:
            state.regions[region.rid] = region
            self.graph.regions[region.rid] = region
            self.policy.add_region(region)
        self.regions_added += len(regions)

    # ------------------------------------------------------------------
    # the streaming event loop
    # ------------------------------------------------------------------
    def _event_loop(self) -> Iterator[ResultTuple | _StepBoundary]:
        bound = self.bound
        state = self.state
        policy = self.policy

        # Bootstrap parity with the base kernel: the sweep runs, but the
        # emission hold suppresses output (a cell settled by look-ahead
        # may yet be reopened by an arrival).
        for cell in self.plan.grid.cells.values():
            if cell.settled and not cell.marked:
                state.emit_settled(cell)
        yield _StepBoundary(STEP_BOOTSTRAP, None)

        while True:
            region = policy.next_region()
            if region is None:
                if self._ingest_open:
                    # Queue dry but the window is open: one arrival poll is
                    # the scheduling unit.  The poll always charges the
                    # clock, so a live follow query stays steppable.
                    self.poll_deltas()
                    yield _StepBoundary(STEP_INGEST, None)
                    continue
                # Window closed: a final poll catches rows appended before
                # the close that no open-window poll observed (the common
                # append -> close -> drain pattern).  Absorbed rows create
                # regions, so loop back to process them.
                if self.poll_deltas():
                    yield _StepBoundary(STEP_INGEST, None)
                    continue
                break
            if not region.done:
                yield from self._run_region(region)

        # The window is closed and every region is done: the ordinary
        # emittable condition is proof of finality again — release.
        state.release_emissions()
        for _vector, lrow, rrow, mapped in state.drain_emissions():
            yield bound.make_result(lrow, rrow, mapped)
        self._finalize()

    def _finalize(self) -> None:
        super()._finalize()
        self.stats.update(
            {
                "polls": self.polls,
                "rows_ingested": self.rows_ingested,
                "regions_added": self.regions_added,
                "regions_pruned": self.regions_pruned,
                "cells_reopened": self.cells_reopened,
            }
        )
