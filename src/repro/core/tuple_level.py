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

from repro.core.output_grid import CellEntry, dominated_points, dominates_point
from repro.core.progdetermine import ExecutionState
from repro.core.regions import OutputRegion
from repro.storage.partition import ColumnBlock, PairRows

#: Joined pairs pending before a flush into
#: :meth:`~repro.core.progdetermine.ExecutionState.insert_batch`.  A flush
#: has a large fixed cost (grouping, one kernel launch per cell group), so
#: regions up to this size go in as one batch.  Read at flush time.
FLUSH_PAIRS = 16384

#: A region tests its rows against the witness pool only when it expects at
#: least this many pairs per input row.  The row test reads every row of
#: both sides and compares it with the whole pool, and charges nothing (it
#: rides on the dispatch); it pays only where each row left out takes
#: several pairs with it.  Below four — ``many-small``'s regions expect 1.5
#: to 3.6 pairs per row, ``ingest-follow``'s arrival regions 1.05 to 3.0 —
#: it saved little, and the uncharged work made region steps look cheaper
#: than they are to the scheduler, whose bursts are cut by vtime: a
#: concurrent ``many-small`` query waited a fifth longer for its first
#: result.  ``join-heavy`` (12 to 14) and ``ingest-follow``'s initial
#: regions (5.5 to 7), where the row test removes the seed-dependence of
#: the region test, stay above it.  Read at dispatch.
ROW_TEST_PAIRS_PER_ROW = 4


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
    witnesses = state.witnesses(region)
    corner = np.asarray(region.lower, dtype=float)
    if witnesses is not None and dominates_point(witnesses, corner):
        # A result already buffered dominates every pair the region can
        # join: skip the join, charged as the discard above.  A test that
        # finds no witness charges nothing (it rides on the dispatch).
        state.clock.charge("discard")
        state.regions_skipped += 1
        return

    state.active_region = region
    try:
        yield from _join_region(state, region, witnesses)
    finally:
        state.active_region = None


def _join_region(
    state: ExecutionState, region: OutputRegion, witnesses: np.ndarray | None
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

    # Rows whose every pair a witness dominates stay out of the join.
    live_left, live_right = _live_rows(state, region, lblock, rblock, witnesses)
    live_build, live_probe = (
        (live_left, live_right) if build_is_left else (live_right, live_left)
    )
    built = int(np.count_nonzero(live_build))
    probe_rows = np.flatnonzero(live_probe) if built else np.arange(0)
    clock.charge("join_build", built)
    clock.charge("join_probe", len(probe_rows))
    keys = probe.keys
    if len(probe_rows) < len(keys):
        keys = [keys[i] for i in probe_rows.tolist()]
    matches = build.probe(keys)  # per live probe row: build positions
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
        build_pos = np.concatenate(matches[start_row:stop_row])
        probe_pos = np.repeat(
            probe_rows[start_row:stop_row], counts[start_row:stop_row]
        )
        flushed = int(pending_upto[stop_row - 1])
        start_row = stop_row
        keep = live_build[build_pos]
        if not keep.all():
            build_pos, probe_pos = build_pos[keep], probe_pos[keep]
        n = len(build_pos)
        if not n:
            continue
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
        emissions = state.drain_emissions()
        if emissions:
            yield from emissions


def _live_rows(
    state: ExecutionState,
    region: OutputRegion,
    lblock: ColumnBlock,
    rblock: ColumnBlock,
    witnesses: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the left and right rows no witness rules out.  A row whose
    corner against the other side's partition box a witness strictly
    dominates can only join into pairs that would die unseen
    (:meth:`~repro.core.progdetermine.ExecutionState.witnesses`)."""
    nl, nr = len(lblock), len(rblock)
    if witnesses is None or region.expected_join < ROW_TEST_PAIRS_PER_ROW * (nl + nr):
        return np.ones(nl, dtype=bool), np.ones(nr, dtype=bool)
    bound = state.bound
    corners = bound.row_corners(
        lblock.matrix,
        rblock.matrix,
        region.left_partition.attribute_intervals(bound.left_map_attrs),
        region.right_partition.attribute_intervals(bound.right_map_attrs),
    )
    live = ~dominated_points(witnesses, corners)
    state.rows_skipped += len(live) - int(np.count_nonzero(live))
    return live[:nl], live[nl:]
