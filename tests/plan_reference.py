"""The look-ahead and graph build as per-pair, per-cell Python loops.

These are the loop forms the array builders of ``core/lookahead.py``,
``core/output_grid.py``, ``core/elimination_graph.py`` and
``storage/signatures.py`` replaced, kept as the reference they must equal
exactly: same regions under the same ids, same cells in the same
activation order, same cone lists in the same order, same edges, same
per-kind clock charges.  ``tests/test_plan_identity.py`` holds the two
side by side.

It also keeps ProgOrder's Definition 2 count as the feeder walk
``core/benefit.progressive_count`` replaced: every feeder of every
unsettled lower-cone cell, looked up in a region table.
``tests/test_progcount.py`` checks the two agree at every rank call.
"""

from __future__ import annotations

import numpy as np

from repro.core.lookahead import (
    _BOX_EPS,
    eliminate_dominated_regions,
    premark_dominated_cells,
)
from repro.core.output_grid import OutputGrid
from repro.core.regions import OutputRegion
from repro.core.streaming import StreamingKernel


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------
def coords_of(grid, vector):
    """Grid coordinates of a point, clamped into the grid: truncation, one
    coordinate at a time."""
    k = grid.cells_per_dim
    out = []
    for v, lo, w in zip(vector, grid.lower, grid.widths):
        c = int((v - lo) / w)
        if c < 0:
            c = 0
        elif c >= k:
            c = k - 1
        out.append(c)
    return tuple(out)


def box_cell_range(grid, lower, upper):
    """Inclusive coordinate range of the cells overlapping a box."""
    return coords_of(grid, lower), coords_of(grid, upper)


def iter_coords_in_range(cmin, cmax):
    """All integer coordinate tuples in the inclusive range, row-major
    (last coordinate fastest)."""
    coords = list(cmin)
    while True:
        yield tuple(coords)
        for i in range(len(coords) - 1, -1, -1):
            if coords[i] < cmax[i]:
                coords[i] += 1
                break
            coords[i] = cmin[i]
        else:
            return


# ----------------------------------------------------------------------
# phase 2
# ----------------------------------------------------------------------
def block_regions(bound, left_parts, right_parts, left_attrs, right_attrs,
                  clock, *, first_rid=0, grid=None):
    """``build_block_regions`` one pair at a time: the signature methods,
    one ``region_box`` per pair, the born-dead walk cell by cell."""
    regions, pruned = [], 0
    for lpart in left_parts:
        for rpart in right_parts:
            clock.charge("partition_op")
            lsig, rsig = lpart.signature, rpart.signature
            if not lsig.may_share(rsig):
                continue
            lower, upper = bound.region_box(
                lpart.attribute_intervals(left_attrs),
                rpart.attribute_intervals(right_attrs),
            )
            if grid is not None and all(
                coords in grid.cells and grid.cells[coords].marked
                for coords in iter_coords_in_range(
                    *box_cell_range(grid, lower, upper)
                )
            ):
                clock.charge("discard")
                pruned += 1
                continue
            regions.append(OutputRegion(
                first_rid + len(regions) + pruned, lpart, rpart, lower, upper,
                lsig.expected_join_size(rsig),
            ))
    return regions, pruned


def cover(grid, regions, clock):
    """Region coverage cell by cell, in region order."""
    for region in regions:
        cmin, cmax = box_cell_range(grid, region.lower, region.upper)
        region.cell_min, region.cell_max = cmin, cmax
        for coords in iter_coords_in_range(cmin, cmax):
            clock.charge("partition_op")
            cell = grid.activate(coords)
            cell.reg_count += 1
            cell.region_ids.append(region.rid)
            region.covered.append(cell)
        region.unmarked_covered = len(region.covered)


def output_grid(bound, regions, cells_per_dim, clock):
    """``build_output_grid`` with the loop coverage."""
    d = bound.skyline_dimension_count
    if regions:
        lo = [min(r.lower[i] for r in regions) for i in range(d)]
        hi = [max(r.upper[i] for r in regions) for i in range(d)]
    else:
        lo, hi = [0.0] * d, [1.0] * d
    span = [max(h - low, 1.0) for low, h in zip(lo, hi)]
    lo = [low - _BOX_EPS * s for low, s in zip(lo, span)]
    hi = [h + _BOX_EPS * s for h, s in zip(hi, span)]
    grid = OutputGrid(lo, hi, cells_per_dim)
    cover(grid, regions, clock)
    return grid


def build_cones(grid):
    """``OutputGrid.build_cones``: blocked pairwise comparison, then per row
    and per pair list appends."""
    grid.cone_totals = None
    live = [c for c in grid.cells.values() if not c.marked]
    n = len(live)
    if n == 0:
        return
    coords = np.array([c.coords for c in live], dtype=np.int32)
    block = max(1, min(n, 4_000_000 // max(1, n)))
    for start in range(0, n, block):
        stop = min(n, start + block)
        chunk = coords[start:stop]
        le = (chunk[:, None, :] <= coords[None, :, :]).all(axis=2)
        eq = (chunk[:, None, :] == coords[None, :, :]).all(axis=2)
        strict = (chunk[:, None, :] + 1 <= coords[None, :, :]).all(axis=2)
        upper_mask = le & ~eq
        for bi in range(stop - start):
            cell = live[start + bi]
            ups = np.nonzero(upper_mask[bi])[0]
            cell.cone_upper = [live[j] for j in ups]
            cell.strict_upper = [live[j] for j in np.nonzero(strict[bi])[0]]
            for j in ups:
                live[j].cone_lower.append(cell)
    for cell in live:
        cell.pending = sum(1 for lc in cell.cone_lower if not lc.settled)


def wire_cones(grid, new_cells):
    """Incremental cone wiring of freshly activated cells against the
    existing unmarked population and among themselves; existing cells
    gaining a new cone_lower member get ``pending += 1``."""
    grid.cone_totals = None
    new_coords = {c.coords for c in new_cells}
    old = [
        c for c in grid.cells.values()
        if not c.marked and c.coords not in new_coords
    ]
    nc = np.array([c.coords for c in new_cells], dtype=np.int32)
    if old:
        oc = np.array([c.coords for c in old], dtype=np.int32)
        le_no = (nc[:, None, :] <= oc[None, :, :]).all(axis=2)
        st_no = (nc[:, None, :] + 1 <= oc[None, :, :]).all(axis=2)
        le_on = (oc[:, None, :] <= nc[None, :, :]).all(axis=2)
        st_on = (oc[:, None, :] + 1 <= nc[None, :, :]).all(axis=2)
        for i, cell in enumerate(new_cells):
            for j in np.nonzero(le_no[i])[0]:
                other = old[j]
                cell.cone_upper.append(other)
                other.cone_lower.append(cell)
                other.pending += 1
            cell.strict_upper.extend(old[j] for j in np.nonzero(st_no[i])[0])
        for j, other in enumerate(old):
            for i in np.nonzero(le_on[j])[0]:
                cell = new_cells[i]
                other.cone_upper.append(cell)
                cell.cone_lower.append(other)
            strict = np.nonzero(st_on[j])[0]
            if strict.size:
                other.strict_upper.extend(new_cells[i] for i in strict)
    if len(new_cells) > 1:
        le = (nc[:, None, :] <= nc[None, :, :]).all(axis=2)
        eq = (nc[:, None, :] == nc[None, :, :]).all(axis=2)
        st = (nc[:, None, :] + 1 <= nc[None, :, :]).all(axis=2)
        upper = le & ~eq
        for i, cell in enumerate(new_cells):
            for j in np.nonzero(upper[i])[0]:
                cell.cone_upper.append(new_cells[j])
                new_cells[j].cone_lower.append(cell)
            cell.strict_upper.extend(new_cells[j] for j in np.nonzero(st[i])[0])
    for cell in new_cells:
        cell.pending = sum(1 for lc in cell.cone_lower if not lc.settled)


def lookahead(bound, left, right, cells_per_dim, clock):
    """``run_lookahead`` with every array builder swapped for its loop."""
    regions, _ = block_regions(
        bound, list(left), list(right), left.attributes, right.attributes, clock
    )
    regions = eliminate_dominated_regions(regions, clock)
    grid = output_grid(bound, regions, cells_per_dim, clock)
    premark_dominated_cells(regions, grid, clock)
    build_cones(grid)
    return regions, grid


def graph_edges(regions, clock):
    """``EliminationGraph._build_edges`` one region pair at a time."""
    live = [r for r in regions if not r.discarded and r.covered]
    if not live:
        return
    clock.charge("graph_op", len(live))
    for region in live:
        region.out_edges = []
        for target in live:
            if target is not region and all(
                a + 1 <= b for a, b in zip(region.cell_min, target.cell_max)
            ):
                region.out_edges.append(target.rid)
                target.in_degree += 1


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
class ReferenceStreamingKernel(StreamingKernel):
    """A follow kernel that integrates deltas with the loop builders."""

    def _integrate(self, old_sides, new_sides):
        old_left, old_right = old_sides
        new_left, new_right = new_sides
        regions = []
        for left_parts, right_parts in (
            (new_left, old_right + new_right),
            (old_left, new_right),
        ):
            built, pruned = block_regions(
                self.bound, left_parts, right_parts,
                self._sides[0].structure.attributes,
                self._sides[1].structure.attributes,
                self.clock, first_rid=self._next_rid, grid=self.plan.grid,
            )
            self._next_rid += len(built) + pruned
            self.regions_pruned += pruned
            regions += built
        if regions:
            self._wire_regions(regions)

    def _wire_regions(self, regions):
        grid = self.plan.grid
        new_cells = []
        for region in regions:
            cmin, cmax = box_cell_range(grid, region.lower, region.upper)
            region.cell_min, region.cell_max = cmin, cmax
            for coords in iter_coords_in_range(cmin, cmax):
                self.clock.charge("partition_op")
                fresh = coords not in grid.cells
                cell = grid.activate(coords)
                if fresh:
                    new_cells.append(cell)
                elif cell.settled and not cell.marked:
                    self.state.reopen_cell(cell)
                    self.cells_reopened += 1
                cell.reg_count += 1
                cell.region_ids.append(region.rid)
                region.covered.append(cell)
            region.unmarked_covered = sum(
                1 for c in region.covered if not c.marked
            )
        if new_cells:
            wire_cones(grid, new_cells)
        for region in regions:
            self.state.regions[region.rid] = region
            self.graph.regions[region.rid] = region
        for region in regions:
            self.policy.add_region(region)
        self.regions_added += len(regions)


def plan_state(regions, grid):
    """Everything a plan fixes, as plain values (cells by coordinates)."""
    def coords(cells):
        return [c.coords for c in cells]

    return {
        "regions": [
            (r.rid, r.left_partition.coords, r.right_partition.coords,
             r.lower, r.upper, r.expected_join, r.discarded,
             r.cell_min, r.cell_max, coords(r.covered), r.unmarked_covered,
             r.in_degree, r.out_edges)
            for r in sorted(regions, key=lambda r: r.rid)
        ],
        "cells": [
            (c.coords, c.lower, c.reg_count, c.region_ids, c.marked, c.settled,
             c.pending, coords(c.cone_lower), coords(c.cone_upper),
             coords(c.strict_upper))
            for c in grid.cells.values()
        ],
    }


# ----------------------------------------------------------------------
# ProgOrder
# ----------------------------------------------------------------------
def progressive_count_reference(region, regions_by_id):
    """Definition 2 by walking feeders: the unmarked, unemitted covered
    cells none of whose unsettled lower-cone cells is fed by a live region
    other than ``region``."""
    rid = region.rid
    count = 0
    for cell in region.covered:
        if cell.marked or cell.emitted:
            continue
        independent = True
        for lc in cell.cone_lower:
            if lc.settled:
                continue
            for other in lc.region_ids:
                if other != rid and not regions_by_id[other].done:
                    independent = False
                    break
            if not independent:
                break
        if independent:
            count += 1
    return count
