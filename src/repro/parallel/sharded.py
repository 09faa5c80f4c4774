"""The sharded execution kernel: parallel phase-2 joins, solo-order merge.

:class:`ShardedKernel` subclasses the solo
:class:`~repro.core.kernel.ExecutionKernel` and overrides exactly one
hook — :meth:`~repro.core.kernel.ExecutionKernel._process` — so the
ProgOrder policy loop, region completion, settle cascades and emission
plumbing are *shared code*, not re-implementations.  The division of
labour per region:

* **workers** run the expensive, embarrassingly-parallel part: hash join
  over the region's partition pair plus mapping-function evaluation, over
  their own mmaps of the columnar shards (see
  :mod:`repro.parallel.worker`);
* the **coordinator** replays each worker's ordered pair stream through
  the ordinary :class:`~repro.core.progdetermine.ExecutionState` insert
  path, at the solo kernel's exact flush and drain cadence — which is the
  whole determinism argument: commit order is the policy's region order
  (unchanged), and within a region the grid sees the same pairs in the
  same batches, so emission order is byte-identical to a solo run and so
  are the clock totals (worker charges are merged per region).

Regions are dispatched **speculatively** a bounded window ahead of the
policy cursor (static rank order), so workers stay busy while the
coordinator commits.  Speculation is safe: a region discarded before its
turn simply has its un-collected result abandoned, and its worker charges
are dropped — mirroring the solo kernel, which never joins a discarded
region at all.
"""

from __future__ import annotations

import os
import pickle
from typing import Iterator

from repro.core.kernel import ExecutionKernel
from repro.core.output_grid import CellEntry
from repro.core.plan import QueryPlan
from repro.core.regions import OutputRegion
from repro.parallel.plan import ShardContext
from repro.parallel.pool import shared_pool
from repro.parallel.worker import RegionResult, RegionTask, run_region_task


class ShardedKernel(ExecutionKernel):
    """Step kernel whose per-region joins run in a worker-process pool.

    Drop-in compatible with :class:`~repro.core.kernel.ExecutionKernel`
    (same ``step()``/``drain()``/``snapshot()`` surface, same emission
    order, same clock totals); built by
    :meth:`~repro.core.engine.ProgXeEngine.kernel` when the engine was
    configured with ``workers > 1``.
    """

    def __init__(
        self,
        plan: QueryPlan,
        shard: ShardContext,
        *,
        workers: int,
        stats_sink: dict | None = None,
        prefetch: int | None = None,
    ) -> None:
        super().__init__(plan, stats_sink=stats_sink)
        self.shard = shard
        self.workers = workers
        #: Speculative dispatch window: how many region tasks may be
        #: in flight at once.  Large enough to hide commit latency, small
        #: enough that wasted work on discarded regions stays bounded.
        self.prefetch = prefetch if prefetch is not None else max(2 * workers, 4)
        self._pool = None
        self._inflight: dict[int, object] = {}
        self._dispatch_order: list[int] = []
        self._dispatch_pos = 0
        self._context_path = os.path.join(shard.workdir, "context.pkl")
        self.stats["workers"] = workers

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _prime(self) -> None:
        """Write the worker context file and start prefetching (lazy)."""
        if self._pool is not None:
            return
        with open(self._context_path, "wb") as f:
            pickle.dump(
                {
                    "query": self.shard.worker_query,
                    "left_path": self.shard.left_path,
                    "right_path": self.shard.right_path,
                },
                f,
            )
        self._pool = shared_pool(self.workers)
        # Static dispatch order: best-first by the ordering policy's rank
        # at plan time, rid as the tie-break.  Ranks drift as regions
        # complete, so this is a prefetch heuristic only — correctness
        # never depends on it (the policy cursor decides commit order).
        rank = getattr(self.policy, "rank_fn", None)
        regions = self.plan.regions
        if rank is not None:
            self._dispatch_order = [
                r.rid
                for r in sorted(regions, key=lambda r: (-rank(r), r.rid))
            ]
        else:
            self._dispatch_order = [r.rid for r in regions]
        self._top_up()

    def _task_for(self, region: OutputRegion) -> RegionTask:
        left = region.left_partition
        right = region.right_partition
        return RegionTask(
            rid=region.rid,
            context_path=self._context_path,
            left_rows=None if left.is_lazy else tuple(left.rows),
            left_ids=left.row_ids,
            right_rows=None if right.is_lazy else tuple(right.rows),
            right_ids=right.row_ids,
        )

    def _dispatch(self, region: OutputRegion) -> None:
        self._inflight[region.rid] = self._pool.apply_async(  # type: ignore[union-attr]
            run_region_task, (self._task_for(region),)
        )

    def _top_up(self) -> None:
        """Refill the speculative window, purging now-dead entries."""
        regions = self.state.regions
        for rid in [r for r in self._inflight if regions[r].done]:
            # The region was settled/discarded after dispatch; the worker
            # result (if any) is abandoned, as are its charges.
            del self._inflight[rid]
        order = self._dispatch_order
        while (
            len(self._inflight) < self.prefetch
            and self._dispatch_pos < len(order)
        ):
            rid = order[self._dispatch_pos]
            self._dispatch_pos += 1
            region = regions[rid]
            if region.done or rid in self._inflight:
                continue
            self._dispatch(region)

    def _collect(self, region: OutputRegion) -> RegionResult:
        self._prime()
        if region.rid not in self._inflight:
            self._dispatch(region)
        handle = self._inflight.pop(region.rid)
        result: RegionResult = handle.get()  # type: ignore[attr-defined]
        self._top_up()
        return result

    # ------------------------------------------------------------------
    # the overridden per-region hook
    # ------------------------------------------------------------------
    def _process(self, region: OutputRegion) -> Iterator[CellEntry]:
        if region.done:
            return
        if region.unmarked_covered == 0:
            # Mirror the solo fast-path exactly: one discard charge, no
            # join.  A speculative result for this region is dropped so
            # merged totals match a solo run (which never joined it).
            self.clock.charge("discard")
            self._inflight.pop(region.rid, None)
            return
        result = self._collect(region)
        self.clock.merge(result.charges)
        state = self.state
        state.active_region = region
        try:
            yield from self._commit(result)
        finally:
            state.active_region = None

    def _commit(self, result: RegionResult) -> Iterator[CellEntry]:
        """Replay the solo path's batch boundaries slice by slice.

        The solo path flushes whenever the pending pair buffer reaches the
        plan's batch size (:data:`~repro.core.tuple_level
        .DEFAULT_BATCH_SIZE` unless a planner chose one) *after* a whole
        probe-row group was appended; re-deriving those boundaries from
        ``group_sizes`` reproduces the identical ``insert_batch`` calls,
        hence identical marking cascades and emission order.
        """
        state = self.state
        start = 0
        pos = 0
        for size in result.group_sizes:
            pos += size
            if pos - start >= self.batch_size:
                state.insert_batch(
                    result.vectors[start:pos],
                    result.lrows[start:pos],
                    result.rrows[start:pos],
                    result.mapped[start:pos],
                )
                start = pos
                emissions = state.drain_emissions()
                if emissions:
                    yield from emissions
        if pos > start:
            state.insert_batch(
                result.vectors[start:pos],
                result.lrows[start:pos],
                result.rrows[start:pos],
                result.mapped[start:pos],
            )
            emissions = state.drain_emissions()
            if emissions:
                yield from emissions

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _release(self) -> None:
        """Abandon in-flight speculation and drop the spill directory.

        The shared pool itself is *not* torn down — it is cached for the
        next sharded kernel (see :mod:`repro.parallel.pool`).  Removing
        the spill directory while straggler tasks still hold mmaps is
        safe on POSIX: the mapped pages stay valid until the worker drops
        its handles.
        """
        self._inflight.clear()
        self._pool = None
        self.shard.cleanup()

    def _finalize(self) -> None:
        self._release()
        super()._finalize()

    def close(self) -> None:
        if not self.finished:
            self._release()
        super().close()
