"""Output-space look-ahead (paper §III-A).

Executes join and skyline reasoning at partition granularity, before any
tuple is touched:

1. **Join pruning** — input partition pairs whose exact join-value
   signatures share no value generate no region at all.  Every pair that
   survives shares a value, so every region built holds at least one join
   result.
2. **Region construction** — for the surviving pairs, the mapping functions
   are evaluated over the partition bounding boxes with interval arithmetic
   to obtain the output region each pair populates (Example 1).
3. **Region-level elimination** — a region whose upper corner dominates
   another region's lower corner eliminates that region outright: its
   join never runs (Example 2).
4. **Cell-level marking** — regions mark output cells that any of their
   future tuples must dominate as "non-contributing" (Example 3); results
   mapped there are discarded without comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core.output_grid import OutputGrid
from repro.core.regions import OutputRegion
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.skyline.vectorized import dominated_by_any
from repro.storage.grid import InputGrid
from repro.storage.partition import InputPartition
from repro.storage.signatures import SignatureCodes, pair_overlap

#: Relative box expansion guarding against floating-point rounding between
#: interval arithmetic and per-tuple evaluation order.
_BOX_EPS = 1e-9


def build_regions(
    bound: BoundQuery,
    left_grid: InputGrid,
    right_grid: InputGrid,
    clock: VirtualClock,
) -> list[OutputRegion]:
    """Construct output regions for all joinable partition pairs."""
    return build_block_regions(
        bound, list(left_grid), list(right_grid),
        left_grid.attributes, right_grid.attributes, clock,
        codes=(left_grid.signature_codes, right_grid.signature_codes),
    )[0]


def build_block_regions(
    bound: BoundQuery,
    left_parts: list[InputPartition],
    right_parts: list[InputPartition],
    left_attributes: tuple[str, ...],
    right_attributes: tuple[str, ...],
    clock: VirtualClock,
    *,
    codes: tuple[SignatureCodes, SignatureCodes],
    first_rid: int = 0,
    grid: OutputGrid | None = None,
) -> tuple[list[OutputRegion], int]:
    """Regions of the block ``left_parts x right_parts``, left-major.

    All output boxes come from one array-valued interval evaluation
    (:meth:`~repro.query.smj.BoundQuery.region_boxes`) and all signature
    tests from one :func:`~repro.storage.signatures.pair_overlap` over the
    ``codes`` of the sides' partition structures; ids count up from
    ``first_rid`` over the pairs that pass the test.  Each pair is charged
    one ``partition_op``.  Given the live output ``grid`` (streaming), such
    a pair is dropped when every cell its box covers is already active and
    marked: its region could only end in the ``unmarked_covered == 0``
    discard, so the pair is charged that ``discard`` now, keeps its id and
    is never built.  Returns the regions and the number of pairs dropped.
    """
    if not left_parts or not right_parts:
        return [], 0
    clock.charge("partition_op", len(left_parts) * len(right_parts))
    lowers, uppers = bound.region_boxes(
        [p.attribute_intervals(left_attributes) for p in left_parts],
        [p.attribute_intervals(right_attributes) for p in right_parts],
    )
    share, expected = pair_overlap(
        [p.signature for p in left_parts], [p.signature for p in right_parts],
        *codes,
    )
    rids = first_rid - 1 + np.cumsum(share.ravel()).reshape(share.shape)
    built = share
    if grid is not None:
        # Every pair's cell range, then the born-dead test, all at once.
        built = share & ~grid.all_marked(
            grid.coords_matrix(lowers), grid.coords_matrix(uppers)
        )
    pruned = int(np.count_nonzero(share)) - int(np.count_nonzero(built))
    if pruned:
        clock.charge("discard", pruned)
    at = np.nonzero(built)
    regions = list(map(
        OutputRegion,
        rids[at].tolist(),
        [left_parts[i] for i in at[0].tolist()],
        [right_parts[j] for j in at[1].tolist()],
        map(tuple, lowers[at].tolist()),
        map(tuple, uppers[at].tolist()),
        expected[at].tolist(),
    ))
    return regions, pruned


def eliminate_dominated_regions(
    regions: list[OutputRegion], clock: VirtualClock
) -> list[OutputRegion]:
    """Region-level complete elimination (Example 2).

    Every region ``g`` holds at least one tuple ``v <= g.upper``; if
    ``g.upper <= r.lower`` everywhere with strict inequality somewhere, that
    tuple dominates *every* tuple ``r`` can ever produce, so ``r`` is
    discarded.  Vectorised over all region pairs.
    """
    if not regions:
        return regions
    clock.charge("graph_op", len(regions))
    # A region never eliminates itself: its upper corner cannot strictly
    # dominate its own lower corner (upper >= lower).
    dominated = dominated_by_any(
        [r.lower for r in regions], [r.upper for r in regions]
    )
    survivors = []
    for region, dead in zip(regions, dominated):
        if dead:
            region.discarded = True
        else:
            survivors.append(region)
    return survivors


def build_output_grid(
    bound: BoundQuery,
    regions: list[OutputRegion],
    cells_per_dim: int,
    clock: VirtualClock,
) -> OutputGrid:
    """Materialise the active output grid and wire region coverage."""
    d = bound.skyline_dimension_count
    lo, hi = np.zeros(d), np.ones(d)  # degenerate but legal: empty join
    if regions:
        lo = np.min([r.lower for r in regions], axis=0)
        hi = np.max([r.upper for r in regions], axis=0)
    # Guard the box against exact-boundary values.
    span = np.maximum(hi - lo, 1.0)
    grid = OutputGrid(lo - _BOX_EPS * span, hi + _BOX_EPS * span, cells_per_dim)
    grid.cover(regions, clock)
    return grid


def premark_dominated_cells(
    regions: list[OutputRegion],
    grid: OutputGrid,
    clock: VirtualClock,
) -> int:
    """Cell-level marking by the live regions (Example 3).

    Each live region holds a future tuple ``v <= upper``; every active
    cell whose lower corner is ``>= upper`` everywhere and ``>`` somewhere
    is dominated by that tuple wholesale.  Returns the number of cells
    marked.  Runs before cone construction, so marked cells simply never
    enter the comparison topology.
    """
    live = [r for r in regions if not r.discarded]
    if not live or not grid.cells:
        return 0
    cells = list(grid.cells.values())
    clock.charge("graph_op", len(live))
    dominated = dominated_by_any(
        [c.lower for c in cells], [r.upper for r in live]
    )
    marked = 0
    region_by_id = {r.rid: r for r in regions}
    for cell, dead in zip(cells, dominated):
        if not dead or cell.marked:
            continue
        cell.marked = True
        cell.settled = True
        marked += 1
        for rid in cell.region_ids:
            region = region_by_id[rid]
            region.unmarked_covered -= 1
            if region.unmarked_covered == 0 and not region.done:
                # Every cell the region could populate is dominated: the
                # region's tuples are all dominated, skip it entirely.
                region.discarded = True
    if marked:
        # Discarded regions release their coverage so cells can settle.
        for region in regions:
            if region.discarded and region.covered:
                for cell in region.covered:
                    cell.reg_count -= 1
                    if cell.reg_count == 0 and not cell.settled:
                        cell.settled = True
                region.covered = []
    return marked


def run_lookahead(
    bound: BoundQuery,
    left_grid: InputGrid,
    right_grid: InputGrid,
    output_cells_per_dim: int,
    clock: VirtualClock,
) -> tuple[list[OutputRegion], OutputGrid]:
    """The full look-ahead pipeline; returns surviving regions and the grid.

    The returned region list excludes regions discarded at region level;
    regions discarded by cell-level marking remain in the list with their
    ``discarded`` flag set (the ordering policy skips them).
    """
    regions = build_regions(bound, left_grid, right_grid, clock)
    regions = eliminate_dominated_regions(regions, clock)
    grid = build_output_grid(bound, regions, output_cells_per_dim, clock)
    premark_dominated_cells(regions, grid, clock)
    grid.build_cones()
    return regions, grid
