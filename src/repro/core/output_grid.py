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

from typing import Iterator, Sequence

import numpy as np

from repro.errors import ExecutionError

#: An entry buffered in a cell: (vector, left_row, right_row, raw mapped).
#: While buffered, the two rows may be
#: :class:`~repro.storage.partition.RowRef` references instead of tuples;
#: ``ExecutionState.drain_emissions`` hands out tuples.
CellEntry = tuple[tuple[float, ...], tuple, tuple, tuple]


class OutputCell:
    """One output partition ``O_h`` with its ProgDetermine bookkeeping.

    Count-based realisation of the paper's §V lists: ``reg_count`` is the
    paper's RegCount; ``pending`` folds the Dom/Dependent conditions into
    one number — the count of unsettled cone_lower cells (a cell emits only
    when tuples that could dominate its contents can no longer appear).
    """

    __slots__ = (
        "coords",
        "lower",
        "reg_count",
        "pending",
        "marked",
        "settled",
        "emitted",
        "entries",
        "cone_lower",
        "cone_upper",
        "strict_upper",
        "region_ids",
        "_vcache",
    )

    def __init__(self, coords: tuple[int, ...], lower: tuple[float, ...]) -> None:
        self.coords = coords
        self.lower = lower
        self.reg_count = 0
        self.pending = 0
        self.marked = False
        self.settled = False
        self.emitted = False
        self.entries: list[CellEntry] = []
        self.cone_lower: list["OutputCell"] = []
        self.cone_upper: list["OutputCell"] = []
        self.strict_upper: list["OutputCell"] = []
        self.region_ids: list[int] = []
        self._vcache: np.ndarray | None = None

    def invalidate_vectors(self) -> None:
        """Drop the cached vector matrix; call after mutating ``entries``."""
        self._vcache = None

    def vector_matrix(self) -> np.ndarray | None:
        """Entry vectors as a cached ``(len(entries), d)`` float matrix.

        ``None`` when the cell is empty.  Every site that mutates
        ``entries`` must call :meth:`invalidate_vectors`; callers must
        treat the returned array as read-only.
        """
        entries = self.entries
        if not entries:
            self._vcache = None
            return None
        cache = self._vcache
        if cache is None:
            cache = np.asarray([e[0] for e in entries], dtype=float)
            self._vcache = cache
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
            f"pend={self.pending}, {len(self.entries)} entries"
            + (", " + "|".join(flags) if flags else "")
            + ")"
        )


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
        self.cells: dict[tuple[int, ...], OutputCell] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def coords_of(self, vector: Sequence[float]) -> tuple[int, ...]:
        """Grid coordinates of a point (clamped into the grid)."""
        k = self.cells_per_dim
        out = []
        for v, lo, w in zip(vector, self.lower, self.widths):
            c = int((v - lo) / w)
            if c < 0:
                c = 0
            elif c >= k:
                c = k - 1
            out.append(c)
        return tuple(out)

    def coords_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`coords_of`: ``(n, d)`` points → ``(n, d)`` int coords.

        Identical arithmetic to the scalar path (truncation then clamping
        agrees with flooring once clamped to ``[0, k-1]``), so batch and
        per-tuple insertion route every vector to the same cell.
        """
        pts = np.asarray(vectors, dtype=float)
        lo = np.asarray(self.lower)
        w = np.asarray(self.widths)
        c = np.floor((pts - lo) / w).astype(np.int64)
        return np.clip(c, 0, self.cells_per_dim - 1)

    def cell_lower(self, coords: Sequence[int]) -> tuple[float, ...]:
        """Attribute-space lower corner of a cell."""
        return tuple(
            lo + c * w for c, lo, w in zip(coords, self.lower, self.widths)
        )

    def box_cell_range(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Inclusive coordinate range of cells overlapping a box."""
        return self.coords_of(lower), self.coords_of(upper)

    def iter_coords_in_range(
        self, cmin: Sequence[int], cmax: Sequence[int]
    ) -> Iterator[tuple[int, ...]]:
        """All integer coordinate tuples in the inclusive range."""
        d = self.dimensions
        coords = list(cmin)
        while True:
            yield tuple(coords)
            for i in range(d - 1, -1, -1):
                if coords[i] < cmax[i]:
                    coords[i] += 1
                    break
                coords[i] = cmin[i]
            else:
                return

    # ------------------------------------------------------------------
    # activation and cones
    # ------------------------------------------------------------------
    def activate(self, coords: tuple[int, ...]) -> OutputCell:
        """Materialise (or fetch) the cell at ``coords``."""
        cell = self.cells.get(coords)
        if cell is None:
            cell = OutputCell(coords, self.cell_lower(coords))
            self.cells[coords] = cell
        return cell

    def cell_for_vector(self, vector: Sequence[float]) -> OutputCell:
        """Active cell containing a point; error if the point maps outside
        every region (an engine invariant violation)."""
        coords = self.coords_of(vector)
        cell = self.cells.get(coords)
        if cell is None:
            raise ExecutionError(
                f"mapped result {vector} fell into inactive cell {coords}; "
                "region covering is broken"
            )
        return cell

    def build_cones(self) -> None:
        """Compute dominance-cone adjacency among unmarked active cells.

        Pairwise comparison over the active coordinate matrix with numpy,
        blocked to bound peak memory.  Pre-marked cells are settled and
        excluded — they can never hold entries, so they participate in no
        comparisons and no pending counts.
        """
        live = [c for c in self.cells.values() if not c.marked]
        n = len(live)
        if n == 0:
            return
        coords = np.array([c.coords for c in live], dtype=np.int32)
        block = max(1, min(n, 4_000_000 // max(1, n)))
        for start in range(0, n, block):
            stop = min(n, start + block)
            chunk = coords[start:stop]  # (b, d)
            # le[i, j] true when chunk[i] <= coords[j] on every dimension.
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
        return sum(len(c.entries) for c in self.cells.values() if not c.marked)

    def mean_cone_size(self) -> float:
        """Average ``|cone_lower| + |cone_upper|`` over unmarked cells
        (the ``CP_avg`` of the paper's cost model, Eq. 6)."""
        live = [c for c in self.cells.values() if not c.marked]
        if not live:
            return 1.0
        total = sum(len(c.cone_lower) + len(c.cone_upper) + 1 for c in live)
        return total / len(live)
