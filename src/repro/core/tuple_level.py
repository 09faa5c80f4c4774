"""Tuple-level processing of one output region (paper §III-B).

Runs the expensive join + map + dominance work for the region chosen by the
ordering policy, feeding results through the comparison-minimising
insertion path of :class:`~repro.core.progdetermine.ExecutionState`.
Implemented as a generator so results that become safely emittable *during*
the region's processing (via marking cascades) reach the caller
immediately.

Processing is row-free: the region's partitions are joined through their
cached column blocks into ``(left, right)`` position arrays, the mapping
expressions are evaluated over columns gathered by position
(:meth:`~repro.query.smj.BoundQuery.map_rows_batch`) and the results are
inserted through the matrix kernels of :meth:`ExecutionState.insert_batch`,
which charge the clock in bulk.  Row tuples are materialised only for
emitted results.  Budgets still work: the clock tripwire fires inside bulk
charges, and because emissions are only drained (and yielded) between
batches, any prefix produced before an interrupt is provably final.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.output_grid import CellEntry
from repro.core.progdetermine import ExecutionState
from repro.core.regions import OutputRegion
from repro.storage.partition import PairRows

#: Joined pairs pending before a flush into
#: :meth:`~repro.core.progdetermine.ExecutionState.insert_batch`.  A flush
#: has a large fixed cost (grouping, one kernel launch per cell group), so
#: regions up to this size go in as one batch.  Read at flush time.
FLUSH_PAIRS = 16384


def process_region(
    state: ExecutionState, region: OutputRegion
) -> Iterator[CellEntry]:
    """Generate, map and insert the region's join results.

    Yields cell entries that became emittable while the region was being
    processed.  The caller completes the region (RegCount release) after
    the generator is exhausted.
    """
    if region.done:
        return
    if region.unmarked_covered == 0:
        # Every cell this region could populate is already dominated: the
        # look-ahead saved us the entire join (the §III-A payoff).
        state.clock.charge("discard")
        return

    state.active_region = region
    try:
        yield from _join_region(state, region)
    finally:
        state.active_region = None


def _join_region(
    state: ExecutionState, region: OutputRegion
) -> Iterator[CellEntry]:
    """Region join over partition column blocks: index pairs, not tuples.

    A hash join — build on the smaller side, probe rows in partition
    order, matches in build order, flush after a whole probe group once
    :data:`FLUSH_PAIRS` pairs are pending — in which a pair is two positions
    into the partitions' column blocks.  The mapping runs over
    columns gathered by position and the grid receives
    :class:`~repro.storage.partition.PairRows`; no row tuple exists unless
    a pair is emitted.
    """
    bound = state.bound
    clock = state.clock
    left, right = region.left_partition, region.right_partition
    lblock = left.column_block(bound.left_map_indices, bound.left_join_index)
    rblock = right.column_block(bound.right_map_indices, bound.right_join_index)
    build_is_left = len(lblock) <= len(rblock)
    build, probe = (lblock, rblock) if build_is_left else (rblock, lblock)

    clock.charge("join_build", len(build))
    clock.charge("join_probe", len(probe))
    matches = build.probe(probe.keys)  # per probe row: build positions
    counts = np.fromiter(map(len, matches), dtype=np.intp, count=len(matches))
    pending_upto = np.cumsum(counts)  # pairs generated through each probe row
    total = int(pending_upto[-1]) if len(matches) else 0

    start_row = 0
    flushed = 0
    while flushed < total:
        # The first probe row at which >= FLUSH_PAIRS pairs are pending ends
        # the chunk (a probe group is never split); the tail flushes last.
        last_row = int(np.searchsorted(pending_upto, flushed + FLUSH_PAIRS))
        stop_row = min(last_row + 1, len(matches))
        n = int(pending_upto[stop_row - 1]) - flushed
        build_pos = np.concatenate(matches[start_row:stop_row])
        probe_pos = np.repeat(
            np.arange(start_row, stop_row), counts[start_row:stop_row]
        )
        lpos, rpos = (
            (build_pos, probe_pos) if build_is_left else (probe_pos, build_pos)
        )
        lrows = PairRows(left, lblock.matrix, lpos)
        rrows = PairRows(right, rblock.matrix, rpos)
        clock.charge("join_result", n)
        mapped = bound.map_rows_batch(lrows, rrows)
        clock.charge("map", n)
        vectors = bound.vectors_of_batch(mapped)
        state.insert_batch(vectors, lrows, rrows, mapped)
        start_row = stop_row
        flushed += n
        emissions = state.drain_emissions()
        if emissions:
            yield from emissions

