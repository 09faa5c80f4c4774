"""The output-space grid: cells, dominance cones and marking (paper §III).

The output space is partitioned into a uniform grid; every output region
covers the set of grid cells overlapping its box.  The grid is *lazy*: only
cells covered by at least one surviving region are materialised ("active"),
everything else is vacuously empty.

Dominance geometry (all in normalised minimisation space, half-open cells):

* ``cone_lower(Oh)`` — active cells with coordinates ``<=`` Oh's in every
  dimension (excluding Oh itself).  Only tuples mapped there can ever
  dominate a tuple in Oh.  This is the paper's §III-B observation that a
  new tuple needs comparisons against at most ``k^d - (k-1)^d`` cells (the
  slice-sharing portion of the cone — strictly-lower populated cells mark
  Oh outright).
* ``cone_upper(Oh)`` — the inverse: cells whose tuples a new Oh tuple can
  dominate, and the cells to notify when Oh settles.
* ``strict upper cells`` — coordinates ``>= Oh + 1`` everywhere: one tuple
  in Oh dominates *everything* that can ever fall there, so the cell is
  marked "non-contributing" wholesale (Example 3).

Marking uses value-level checks (witness ``v`` against the cell's lower
corner with at least one strict inequality) so boundary ties can never be
wrongly discarded.
"""

from __future__ import annotations

from itertools import compress, product
from typing import Sequence

import numpy as np

#: An entry as a cell hands it out: (vector, left_row, right_row, raw mapped).
#: While buffered, the two rows may be
#: :class:`~repro.storage.partition.RowRef` references instead of tuples;
#: ``ExecutionState.drain_emissions`` hands out tuples.
CellEntry = tuple[tuple[float, ...], tuple, tuple, tuple]

#: What a cell's blocks are before anything was written to them.
_NO_ROWS = np.empty((0, 0))


class OutputCell:
    """One output partition ``O_h`` with its ProgDetermine bookkeeping.

    Count-based realisation of the paper's §V lists: ``reg_count`` is the
    paper's RegCount; ``pending`` folds the Dom/Dependent conditions into
    one number — the count of unsettled cone_lower cells (a cell emits only
    when tuples that could dominate its contents can no longer appear).

    Buffered entries are a structure of arrays in arrival order: rows
    ``[:size]`` of a growable ``(capacity, d)`` float64 vector block and of
    a mapped-value block, beside two row(-reference) lists.  Only
    :meth:`append`, :meth:`evict` and :meth:`clear` write them; the engine
    asks for per-entry tuples (:attr:`entries`) once per cell, at emission.
    """

    __slots__ = (
        "coords",
        "lower",
        "reg_count",
        "pending",
        "marked",
        "settled",
        "emitted",
        "size",
        "_vectors",
        "_mapped",
        "_lrows",
        "_rrows",
        "cone_lower",
        "cone_upper",
        "strict_upper",
        "_strict_lowers",
        "region_ids",
    )

    def __init__(self, coords: tuple[int, ...], lower: tuple[float, ...]) -> None:
        self.coords = coords
        self.lower = lower
        self.reg_count = 0
        self.pending = 0
        self.marked = False
        self.settled = False
        self.emitted = False
        self.size = 0  # buffered entries
        self._vectors = _NO_ROWS
        self._mapped = _NO_ROWS
        self._lrows: list = []
        self._rrows: list = []
        self.cone_lower: list["OutputCell"] = []
        self.cone_upper: list["OutputCell"] = []
        self.strict_upper: list["OutputCell"] = []
        self._strict_lowers = _NO_ROWS
        self.region_ids: list[int] = []

    def vector_matrix(self) -> np.ndarray | None:
        """Entry vectors as a ``(size, d)`` float matrix, ``None`` when empty.

        A view of the vector block: read-only to callers, and stale once
        the cell is next written.
        """
        size = self.size
        return self._vectors[:size] if size else None

    def append(
        self, vectors: np.ndarray, lrows: Sequence, rrows: Sequence, mapped: np.ndarray
    ) -> None:
        """Buffer ``(n, d)`` vectors, their rows and ``(n, k)`` mapped values.

        Both are float64 blocks, doubled when they run out.
        """
        size = self.size
        end = size + len(vectors)
        old_vectors, old_mapped = self._vectors, self._mapped
        if end > len(old_mapped):
            capacity = max(8, 2 * end)
            self._vectors = np.empty((capacity, vectors.shape[1]))
            self._mapped = np.empty((capacity, mapped.shape[1]))
            if size:
                self._vectors[:size] = old_vectors[:size]
                self._mapped[:size] = old_mapped[:size]
        self._vectors[size:end] = vectors
        self._mapped[size:end] = mapped
        self._lrows.extend(lrows)
        self._rrows.extend(rrows)
        self.size = end

    def evict(self, dead: np.ndarray) -> int:
        """Drop the entries flagged in the ``(size,)`` boolean ``dead``;
        survivors keep their arrival order.  Returns how many were dropped."""
        keep = ~dead
        kept = int(np.count_nonzero(keep))
        size = self.size
        if kept != size:
            self._vectors[:kept] = self._vectors[:size][keep]
            self._mapped[:kept] = self._mapped[:size][keep]
            flags = keep.tolist()
            self._lrows = list(compress(self._lrows, flags))
            self._rrows = list(compress(self._rrows, flags))
            self.size = kept
        return size - kept

    def clear(self) -> None:
        """Drop every entry and the blocks that held them."""
        self.size = 0
        self._vectors = self._mapped = _NO_ROWS
        self._lrows = []
        self._rrows = []

    @property
    def entries(self) -> list[CellEntry]:
        """The buffered entries as tuples, in arrival order — built per
        access; this is where an entry first becomes Python objects (plain
        ``float`` tuples via ``tolist``)."""
        size = self.size
        vectors = map(tuple, self._vectors[:size].tolist())
        mapped = map(tuple, self._mapped[:size].tolist())
        return list(zip(vectors, self._lrows, self._rrows, mapped))

    def strict_lowers(self) -> np.ndarray:
        """Lower corners of :attr:`strict_upper` as a ``(len, d)`` matrix,
        rebuilt when cone wiring has grown the list (it only ever grows)."""
        cache = self._strict_lowers
        if len(cache) != len(self.strict_upper):
            cache = np.asarray([sc.lower for sc in self.strict_upper])
            self._strict_lowers = cache
        return cache

    @property
    def emittable(self) -> bool:
        """Principle 1 realised: settled, unmarked, no live dominators."""
        return (
            self.settled
            and not self.marked
            and not self.emitted
            and self.pending == 0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = []
        if self.marked:
            flags.append("marked")
        if self.settled:
            flags.append("settled")
        if self.emitted:
            flags.append("emitted")
        return (
            f"OutputCell({list(self.coords)}, reg={self.reg_count}, "
            f"pend={self.pending}, {self.size} entries"
            + (", " + "|".join(flags) if flags else "")
            + ")"
        )


def pooled_entries(cells: Sequence[OutputCell]) -> np.ndarray | None:
    """The vectors buffered in ``cells``, pooled into one ``(m, d)``
    matrix; ``None`` when every cell is empty."""
    blocks = [c._vectors[: c.size] for c in cells if c.size]
    if not blocks:
        return None
    return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


def dominates_point(pool: np.ndarray, point: np.ndarray) -> bool:
    """Whether a row of the ``(m, d)`` ``pool`` strictly dominates the
    ``(d,)`` ``point``: ``<=`` it everywhere and ``<`` somewhere."""
    below = (pool <= point).all(axis=1)
    # An entry <= the point everywhere dominates it unless it equals it.
    return bool(below.any()) and bool((pool[below] != point).any())


#: Entry-point tests per block of :func:`dominated_points` (one boolean
#: ``(entries, points)`` temporary per dimension and block).
_POINT_LANES = 2**18


def dominated_points(pool: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``(n,)`` mask: whether a row of the ``(m, d)`` ``pool`` strictly
    dominates each row of the ``(n, d)`` ``points`` — ``<=`` it everywhere
    and ``<`` somewhere (a NaN coordinate never dominates)."""
    out = np.zeros(len(points), dtype=bool)
    if not len(points):
        return out
    # Only an entry <= the points' componentwise maximum can dominate one,
    # and only a point >= the entries' componentwise minimum can fall.
    pool = pool[(pool <= points.max(axis=0)).all(axis=1)]
    if not len(pool):
        return out
    reach = np.flatnonzero((points >= pool.min(axis=0)).all(axis=1))
    step = max(1, _POINT_LANES // len(pool))
    for lo in range(0, len(reach), step):
        at = reach[lo : lo + step]
        block = points[at]
        below = np.ones((len(pool), len(block)), dtype=bool)
        strict = np.zeros_like(below)
        for j in range(pool.shape[1]):
            entry, point = pool[:, j, None], block[None, :, j]
            below &= entry <= point
            strict |= entry < point
        below &= strict
        out[at] = below.any(axis=0)
    return out


class OutputGrid:
    """Uniform grid over the normalised output space with lazy active cells."""

    def __init__(
        self,
        lower: Sequence[float],
        upper: Sequence[float],
        cells_per_dim: int,
    ) -> None:
        if cells_per_dim < 1:
            raise ValueError(f"cells_per_dim must be >= 1, got {cells_per_dim}")
        self.dimensions = len(lower)
        self.lower = tuple(float(v) for v in lower)
        self.upper = tuple(float(v) for v in upper)
        self.cells_per_dim = cells_per_dim
        self.widths = tuple(
            (hi - lo) / cells_per_dim if hi > lo else 1.0
            for lo, hi in zip(self.lower, self.upper)
        )
        self._lower_row = np.asarray(self.lower)
        self._width_row = np.asarray(self.widths)
        self.cells: dict[tuple[int, ...], OutputCell] = {}
        #: ``[sum, count]`` behind :meth:`mean_cone_size`, ``None`` to have
        #: it recounted: whoever marks a cell or rewires cones updates it.
        self.cone_totals: list[int] | None = None

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def coords_of(self, vector: Sequence[float]) -> tuple[int, ...]:
        """Grid coordinates of a point (clamped into the grid)."""
        return tuple(self.coords_matrix([vector])[0].tolist())

    def coords_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, d)`` points → ``(n, d)`` int grid coordinates.

        Flooring, then clamping into ``[0, k-1]`` — which agrees with the
        truncation of ``int((v - lower) / width)`` once clamped.  Clamped in
        float before the cast, which would wrap coordinates beyond 2^63 to
        ``INT64_MIN``; ``fmax`` sends a NaN coordinate to 0.
        """
        pts = np.asarray(vectors, dtype=float)
        c = np.floor((pts - self._lower_row) / self._width_row)
        np.fmax(c, 0, out=c)
        np.fmin(c, self.cells_per_dim - 1, out=c)
        return c.astype(np.int64)

    def cell_lower(self, coords: Sequence[int]) -> tuple[float, ...]:
        """Attribute-space lower corner of a cell."""
        return tuple(
            lo + c * w for c, lo, w in zip(coords, self.lower, self.widths)
        )

    def all_marked(self, cmins: np.ndarray, cmaxs: np.ndarray) -> np.ndarray:
        """Per inclusive ``(..., d)`` coordinate range, whether every cell in
        it is active and marked (a cell never activated is not marked): the
        range's marked count — inclusion-exclusion over its ``2^d`` corners
        in a summed-area table of the marked mask — equals its volume."""
        d = self.dimensions
        table = np.zeros((self.cells_per_dim + 1,) * d, dtype=np.int64)
        marked = [c.coords for c in self.cells.values() if c.marked]
        table[tuple(np.array(marked, dtype=np.intp).reshape(-1, d).T + 1)] = 1
        for axis in range(d):
            np.cumsum(table, axis=axis, out=table)
        count = np.zeros(cmins.shape[:-1], dtype=np.int64)
        for corner in product((0, 1), repeat=d):
            at = np.where(corner, cmaxs + 1, cmins)
            term = table[tuple(np.moveaxis(at, -1, 0))]
            count += term if (d - sum(corner)) % 2 == 0 else -term
        return count == (cmaxs - cmins + 1).prod(axis=-1)

    # ------------------------------------------------------------------
    # activation and cones
    # ------------------------------------------------------------------
    def activate(self, coords: tuple[int, ...]) -> OutputCell:
        """Materialise (or fetch) the cell at ``coords``."""
        cell = self.cells.get(coords)
        if cell is None:
            cell = OutputCell(coords, self.cell_lower(coords))
            self.cells[coords] = cell
            self.cone_totals = None
        return cell

    def cover(
        self, regions: Sequence, clock
    ) -> tuple[list[OutputCell], list[OutputCell]]:
        """Wire the coverage of ``regions``: each covers the cells of its
        box's coordinate range, clamped into the grid.

        One vectorised enumeration of all the ranges — region order,
        row-major within a range — charged one ``partition_op`` per
        (region, cell) pair.  Cells activate in first-touch order and gain
        ``reg_count`` and ``region_ids``; regions gain ``cell_min``,
        ``cell_max``, ``covered`` and ``unmarked_covered``.  Returns the
        cells activated here and the already active cells covered.
        """
        if not regions:
            return [], []
        cmin = self.coords_matrix([r.lower for r in regions])
        cmax = self.coords_matrix([r.upper for r in regions])
        sizes = cmax - cmin + 1
        counts = sizes.prod(axis=1)
        starts = np.cumsum(counts) - counts
        clock.charge("partition_op", int(counts.sum()))
        owner = np.repeat(np.arange(len(regions)), counts)
        rest = np.arange(len(owner)) - starts[owner]
        coords = np.empty((len(owner), self.dimensions), dtype=np.int64)
        for j in range(self.dimensions - 1, -1, -1):
            coords[:, j] = cmin[owner, j] + rest % sizes[owner, j]
            rest //= sizes[owner, j]
        # Distinct cells, numbered in first-touch order: a stable
        # lexicographic sort puts equal coordinates together, earliest first.
        order = np.lexsort(coords.T[::-1])
        step = np.ones(len(order), dtype=bool)
        step[1:] = (coords[order[1:]] != coords[order[:-1]]).any(axis=1)
        first = order[step]
        touch = np.argsort(first)
        group = np.empty_like(order)
        group[order] = np.argsort(touch)[np.cumsum(step) - 1]
        keys = coords[first[touch]]
        corners = (self._lower_row + keys * self._width_row).tolist()
        cells, fresh, touched = [], [], []
        for key, corner in zip(map(tuple, keys.tolist()), corners):
            cell = self.cells.get(key)
            if cell is None:
                cell = self.cells[key] = OutputCell(key, tuple(corner))
                fresh.append(cell)
            else:
                touched.append(cell)
            cells.append(cell)
        if fresh:
            self.cone_totals = None
        # The regions' own rid objects, as the lists hold them (no copies).
        rids = np.array([r.rid for r in regions], dtype=object)[owner]
        by_cell = split_lists(
            rids[np.argsort(group, kind="stable")],
            np.bincount(group, minlength=len(cells)),
        )
        for cell, ids in zip(cells, by_cell):
            cell.reg_count += len(ids)
            cell.region_ids += ids
        marked = np.array([c.marked for c in cells], dtype=np.int64)[group]
        for region, lo, hi, covered, unmarked in zip(
            regions, cmin.tolist(), cmax.tolist(),
            split_lists(np.array(cells, dtype=object)[group], counts),
            (counts - np.add.reduceat(marked, starts)).tolist(),
        ):
            region.cell_min, region.cell_max = tuple(lo), tuple(hi)
            region.covered = covered
            region.unmarked_covered = unmarked
        return fresh, touched

    def build_cones(self) -> None:
        """Compute dominance-cone adjacency among unmarked active cells.

        Pre-marked cells are settled and excluded — they can never hold
        entries, so they participate in no comparisons and no pending
        counts.
        """
        self.wire_cones([c for c in self.cells.values() if not c.marked])

    def wire_cones(self, new_cells: Sequence[OutputCell]) -> None:
        """Wire ``new_cells`` — unmarked, not wired yet, in activation
        order — into the cones of the unmarked cells.

        Each pair ``x != y``, one of them new, with ``x <= y`` in every
        coordinate appends ``y`` to ``x.cone_upper`` (and to
        ``x.strict_upper`` when ``x < y`` everywhere) and ``x`` to
        ``y.cone_lower``; ``y.pending`` counts the unsettled cells it
        gains.  Lists come out in cell order, as a from-scratch build
        would make them; the work is the new cells times the unmarked ones.
        """
        if not new_cells:
            return
        self.cone_totals = None
        new = {c.coords for c in new_cells}
        old = [
            c for c in self.cells.values()
            if not c.marked and c.coords not in new
        ]
        live = old + list(new_cells)
        coords = np.array([c.coords for c in live], dtype=np.int64)
        k = len(old)
        # Old cells gain the new ones above them; then each new cell meets
        # every cell but itself.
        _link(old, coords[:k], live[k:], coords[k:], None)
        _link(live[k:], coords[k:], live, coords, k)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Number of materialised cells."""
        return len(self.cells)

    @property
    def marked_count(self) -> int:
        """Number of cells marked non-contributing."""
        return sum(1 for c in self.cells.values() if c.marked)

    def live_entry_count(self) -> int:
        """Total buffered entries across unmarked cells."""
        return sum(c.size for c in self.cells.values() if not c.marked)

    def mean_cone_size(self) -> float:
        """Average ``|cone_lower| + |cone_upper|`` over unmarked cells
        (the ``CP_avg`` of the paper's cost model, Eq. 6)."""
        if self.cone_totals is None:
            live = [c for c in self.cells.values() if not c.marked]
            total = sum(len(c.cone_lower) + len(c.cone_upper) + 1 for c in live)
            self.cone_totals = [total, len(live)]
        total, count = self.cone_totals
        return total / count if count else 1.0


def split_lists(values: np.ndarray, counts: np.ndarray) -> list[list]:
    """``values`` cut into consecutive lists of ``counts`` items each."""
    flat = values.tolist()
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def row_lists(mask: np.ndarray, values: np.ndarray) -> list[list]:
    """Per row of the 2-D boolean ``mask``, the ``values`` at its true
    columns, in column order."""
    return split_lists(
        values[np.flatnonzero(mask) % mask.shape[1]],
        np.count_nonzero(mask, axis=1),
    )


def _link(
    xs: list[OutputCell], xc: np.ndarray, ys: list[OutputCell], yc: np.ndarray,
    self_at: int | None,
) -> None:
    """Append the cone relation of rows ``xs`` against columns ``ys``
    (coordinates ``xc``, ``yc``) to both sides' lists — one 2-D pass per
    dimension over blocks of rows; row ``i`` is column ``self_at + i``
    when ``self_at`` is given, and is not related to itself."""
    if not xs or not ys:
        return
    rows_of, cols_of = np.array(xs, dtype=object), np.array(ys, dtype=object)
    unsettled = np.array([not c.settled for c in xs])
    step = max(1, 4_000_000 // len(ys))
    for lo in range(0, len(xs), step):
        rows = xc[lo : lo + step]
        le = np.ones((len(rows), len(ys)), dtype=bool)
        lt = np.ones_like(le)
        for j in range(xc.shape[1]):
            x, y = rows[:, j, None], yc[None, :, j]
            le &= x <= y
            lt &= x < y
        if self_at is not None:
            at = np.arange(len(rows))
            le[at, self_at + lo + at] = False
        for x, ups, strict in zip(
            xs[lo : lo + step], row_lists(le, cols_of), row_lists(lt, cols_of)
        ):
            x.cone_upper += ups
            x.strict_upper += strict
        gained = np.count_nonzero(le[unsettled[lo : lo + step]], axis=0)
        for y, downs, add in zip(
            ys, row_lists(le.T, rows_of[lo : lo + step]), gained.tolist()
        ):
            y.cone_lower += downs
            y.pending += add
