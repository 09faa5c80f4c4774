"""The ProgOrder benefit model (paper §IV-B, Definition 2, Eqs. 1–2).

``Benefit(R_{a,b}) = ProgCount / PartitionCount * Cardinality`` where:

* ``Cardinality`` estimates the skyline results the region can produce —
  the Bentley/Buchta expected-maxima formula applied to the expected join
  cardinality of the region's input partitions (Eq. 1),
* ``ProgCount`` counts the region's covered cells that depend on *no other
  live region* to be releasable: every cell that could feed dominators into
  them is settled, or populated exclusively by this region (Definition 2 —
  cells "that can neither be eliminated nor have output dependencies to
  partitions belonging to other output regions").

ProgCount is all-or-nothing: a cell counts only once this region alone
stands between it and settling, so at plan time nearly every region
counts 0 and Eq. 8 ranks it 0.  The walk that counts it also sums a
*partial-settling credit*, ``1 / (reg_count + pending)`` over the same
cells: each counts more as fewer live feeders and unsettled cone cells
remain.  ProgOrder breaks Eq. 8's ties by it (this repository's addition;
the paper leaves ties open).
"""

from __future__ import annotations

from operator import le

from repro.core.regions import OutputRegion
from repro.skyline.estimate import expected_skyline_size


def region_cardinality(region: OutputRegion, dimensions: int) -> float:
    """Eq. 1: estimated skyline results the region can produce."""
    return expected_skyline_size(region.expected_join, dimensions)


def progressive_count(region: OutputRegion) -> tuple[int, float]:
    """Definition 2's count of externally independent, still-releasable
    covered cells, and the partial-settling credit of the same cells.

    A cell is blocked by an unsettled lower-cone cell that another live
    region still feeds.  RegCount (``reg_count``) counts a cell's live
    feeders and ``pending`` its unsettled cone cells, so a cell is
    independent iff ``pending`` equals the number of cone cells this region
    feeds alone: its unsettled covered cells with ``reg_count == 1`` that
    are ``<=`` the cell in every coordinate, the cell itself excluded.
    Every covered cell neither marked nor emitted adds
    ``1 / (reg_count + pending)`` to the credit; a live region feeds each
    of its cells (``reg_count >= 1``), so no term divides by zero.
    """
    own = [c.coords for c in region.covered if c.reg_count == 1 and not c.settled]
    count = 0
    credit = 0.0
    for cell in region.covered:
        if cell.marked or cell.emitted:
            continue
        credit += 1.0 / (cell.reg_count + cell.pending)
        if cell.pending:
            if cell.pending > len(own):
                continue
            at = cell.coords
            # ``own`` holds the cell itself when it qualifies.
            alone = sum(all(map(le, o, at)) for o in own)
            alone -= cell.reg_count == 1 and not cell.settled
            if alone != cell.pending:
                continue
        count += 1
    return count, credit


def region_benefit(region: OutputRegion, dimensions: int) -> tuple[float, float]:
    """Eq. 2's progressiveness-weighted cardinality, and the region's
    partial-settling credit (:func:`progressive_count`)."""
    total = region.partition_count
    if total == 0:
        return 0.0, 0.0
    if region.cardinality == 0.0:
        region.cardinality = region_cardinality(region, dimensions)
    count, credit = progressive_count(region)
    return count / total * region.cardinality, credit
