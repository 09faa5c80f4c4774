"""Tuple-level processing of one output region (paper §III-B).

Runs the expensive join + map + dominance work for the region chosen by the
ordering policy, feeding results through the comparison-minimising
insertion path of :class:`~repro.core.progdetermine.ExecutionState`.
Implemented as a generator so results that become safely emittable *during*
the region's processing (via marking cascades) reach the caller
immediately.

Two implementations share the generator contract:

* the **scalar** path — the reference implementation: one hash-join probe,
  one mapping evaluation and one grid insertion per tuple, every dominance
  comparison charged individually;
* the **vectorized** path — row-free: joins the partitions' cached column
  blocks into ``(left, right)`` position arrays, evaluates the mapping
  expressions over columns gathered by position
  (:meth:`~repro.query.smj.BoundQuery.map_rows_batch`) and inserts through
  the matrix kernels of :meth:`ExecutionState.insert_batch`, charging the
  clock in bulk.  Row tuples are materialised only for emitted results.
  Budgets and cancellation still work: the clock tripwire fires inside
  bulk charges, and because emissions are only drained (and yielded)
  between batches, any prefix produced before an interrupt is provably
  final.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

from repro.core.output_grid import CellEntry
from repro.core.progdetermine import ExecutionState
from repro.core.regions import OutputRegion
from repro.storage.partition import PairRows

#: Joined pairs accumulated before a vectorized flush.  Partition-pair
#: outputs smaller than this are processed as a single batch.
DEFAULT_BATCH_SIZE = 1024


def process_region(
    state: ExecutionState,
    region: OutputRegion,
    *,
    use_vectorized: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
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
        if use_vectorized:
            yield from _process_vectorized(state, region, batch_size)
        else:
            yield from _process_scalar(state, region)
    finally:
        state.active_region = None


def _join_sides(state: ExecutionState, region: OutputRegion):
    """Hash-join orientation: build on the smaller partition side."""
    bound = state.bound
    left_rows = region.left_partition.rows
    right_rows = region.right_partition.rows
    if len(left_rows) <= len(right_rows):
        return (
            left_rows, right_rows,
            bound.left_join_index, bound.right_join_index, True,
        )
    return (
        right_rows, left_rows,
        bound.right_join_index, bound.left_join_index, False,
    )


def _process_scalar(
    state: ExecutionState, region: OutputRegion
) -> Iterator[CellEntry]:
    bound = state.bound
    clock = state.clock
    build_rows, probe_rows, build_key, probe_key, build_is_left = _join_sides(
        state, region
    )

    table: dict = defaultdict(list)
    for row in build_rows:
        clock.charge("join_build")
        table[row[build_key]].append(row)

    for prow in probe_rows:
        clock.charge("join_probe")
        matches = table.get(prow[probe_key])
        if not matches:
            continue
        for brow in matches:
            clock.charge("join_result")
            if build_is_left:
                lrow, rrow = brow, prow
            else:
                lrow, rrow = prow, brow
            mapped = bound.map_pair(lrow, rrow)
            clock.charge("map")
            state.insert(bound.vector_of(mapped), lrow, rrow, mapped)
        emissions = state.drain_emissions()
        if emissions:
            yield from emissions


def _process_vectorized(
    state: ExecutionState, region: OutputRegion, batch_size: int
) -> Iterator[CellEntry]:
    """Region join over partition column blocks: index pairs, not tuples.

    Same hash join as the scalar path — build on the smaller side, probe
    rows in partition order, matches in build order, flush after a whole
    probe group once ``batch_size`` pairs are pending — but a pair is two
    positions into the partitions' column blocks.  The mapping runs over
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
        # The first probe row at which >= batch_size pairs are pending ends
        # the chunk (a probe group is never split); the tail flushes last.
        last_row = int(np.searchsorted(pending_upto, flushed + batch_size))
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

