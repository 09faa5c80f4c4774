"""Multi-dimensional grid partitioning of input relations (paper §III).

The paper "assume[s] the input data sets are partitioned into a
multi-dimensional grid structure".  :class:`GridPartitioner` builds that
structure — and it is **batch-first**: the input is consumed exclusively
through the :class:`~repro.storage.sources.base.DataSource` batch-scan
protocol (two streaming passes: domain bounds, then vectorized cell
assignment), so the same code path grids an in-memory
:class:`~repro.storage.table.Table` or an mmap-backed columnar file.
Sources that advertise ``prefers_lazy_rows`` get
partitions that store global row ids instead of tuples, keeping planning
memory bounded for inputs larger than RAM.

The produced structure is identical regardless of backend or batch size:
partitions are created in first-occurrence order, rows keep their scan
order within each cell, and the tight bounding boxes and join-value
signatures depend only on the cell contents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BindingError
from repro.storage.partition import InputPartition, attach_blocks, reject_non_finite
from repro.storage.signatures import SignatureCodes
from repro.storage.sources.base import DEFAULT_SCAN_BATCH, DataSource, Row


class InputGrid:
    """The grid over one input relation: cells, bounds and lookup.

    ``partitions`` holds the cells of the base build (keyed by grid
    coordinates); ``extensions`` holds the partitions created by
    append-only delta passes (:meth:`GridPartitioner.partition_delta`) in
    arrival order.  Extensions are **never merged** into base cells — each
    delta forms fresh partitions, so consumers that already joined the
    base cells can pick up exactly the new work by remembering how many
    extensions they have seen.  Iteration chains both, so a full rebuild
    consumer (a new query planning over a patched cached grid) sees every
    row exactly once.
    """

    __slots__ = (
        "source",
        "attributes",
        "cells_per_dim",
        "mins",
        "maxs",
        "widths",
        "partitions",
        "extensions",
        "signature_codes",
    )

    def __init__(
        self,
        source: str,
        attributes: tuple[str, ...],
        cells_per_dim: int,
        mins: tuple[float, ...],
        maxs: tuple[float, ...],
    ) -> None:
        self.source = source
        self.attributes = attributes
        self.cells_per_dim = cells_per_dim
        self.mins = mins
        self.maxs = maxs
        self.widths = tuple(
            (hi - lo) / cells_per_dim if hi > lo else 1.0
            for lo, hi in zip(mins, maxs)
        )
        self.partitions: dict[tuple[int, ...], InputPartition] = {}
        self.extensions: list[InputPartition] = []
        #: Value ids of the partitions' exact signatures, for the look-ahead.
        self.signature_codes = SignatureCodes()

    def cell_of(self, values: Sequence[float]) -> tuple[int, ...]:
        """Grid coordinates of an attribute-value vector.

        Values at the domain maximum are clamped into the last cell so every
        in-domain value has a home.
        """
        coords = []
        k = self.cells_per_dim
        for v, lo, w in zip(values, self.mins, self.widths):
            c = int((v - lo) / w)
            if c < 0:
                c = 0
            elif c >= k:
                c = k - 1
            coords.append(c)
        return tuple(coords)

    def cell_bounds(
        self, coords: Sequence[int]
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The ``(lower, upper)`` box of a cell."""
        lower = tuple(lo + c * w for c, lo, w in zip(coords, self.mins, self.widths))
        upper = tuple(lo + (c + 1) * w for c, lo, w in zip(coords, self.mins, self.widths))
        return lower, upper

    @property
    def partition_count(self) -> int:
        """Number of non-empty cells (base cells + delta extensions)."""
        return len(self.partitions) + len(self.extensions)

    def total_rows(self) -> int:
        """Total rows across all cells (base cells + delta extensions)."""
        return sum(len(p) for p in self.partitions.values()) + sum(
            len(p) for p in self.extensions
        )

    def __iter__(self):
        return _chain_partitions(self.partitions.values(), self.extensions)


def _chain_partitions(*groups):
    for group in groups:
        yield from group


class GridPartitioner:
    """Builds :class:`InputGrid` structures for the engine and baselines.

    Parameters
    ----------
    cells_per_dim:
        Grid resolution ``k`` per partitioning attribute.  The paper picks a
        partition size δ per dimension; a fixed per-dimension cell count over
        the observed value range is the equivalent knob.
    """

    def __init__(self, cells_per_dim: int = 4) -> None:
        if cells_per_dim < 1:
            raise ValueError(f"cells_per_dim must be >= 1, got {cells_per_dim}")
        self.cells_per_dim = cells_per_dim

    def descriptor(self) -> tuple:
        """Hashable identity of this partitioner's configuration.

        Two partitioners with equal descriptors produce identical grids over
        identical inputs — the contract the cross-query partition cache
        (:mod:`repro.cache`) keys work sharing on.
        """
        return ("grid", self.cells_per_dim)

    def partition(
        self,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        *,
        source: str | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH,
    ) -> InputGrid:
        """Grid any :class:`DataSource` over ``attributes`` + join signatures.

        ``attributes`` are the columns feeding the mapping functions (the
        dimensions of the grid); ``join_attribute`` feeds the signatures.
        The source is streamed twice (bounds pass, assignment pass); with a
        ``prefers_lazy_rows`` source the partitions store row ids only.
        """
        n = len(table)
        if n == 0:
            raise BindingError(f"cannot partition empty table {table.name!r}")
        if not attributes:
            raise BindingError(
                f"table {table.name!r} contributes no mapping attributes; "
                "grid partitioning needs at least one dimension"
            )
        attr_idx = table.schema.indices(attributes)
        table.schema.index(join_attribute)  # validate early
        lazy = bool(getattr(table, "prefers_lazy_rows", False))
        d = len(attr_idx)
        k = self.cells_per_dim

        # Pass 1: per-dimension domain bounds.
        mins = np.full(d, np.inf)
        maxs = np.full(d, -np.inf)
        for batch in table.scan_batches(
            batch_size, columns=attributes, with_rows=False
        ):
            m = batch.matrix(attr_idx)
            reject_non_finite(table, attributes, batch, m)
            np.minimum(mins, m.min(axis=0), out=mins)
            np.maximum(maxs, m.max(axis=0), out=maxs)

        grid = InputGrid(
            source or table.name,
            tuple(attributes),
            k,
            tuple(float(m) for m in mins),
            tuple(float(m) for m in maxs),
        )

        # Pass 2: vectorized cell assignment, grouped per batch.
        scatter = _Scatter(grid, table if lazy else None, grid.partitions)
        for batch in table.scan_batches(
            batch_size, columns=attributes, key_column=join_attribute,
            with_rows=not lazy,
        ):
            scatter.add(batch, batch.matrix(attr_idx))
        scatter.finish()
        return grid

    def partition_delta(
        self,
        grid: InputGrid,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        *,
        since_token: tuple,
        end_row: int | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH,
    ) -> list[InputPartition]:
        """Extend ``grid`` in place with the rows appended since ``since_token``.

        The streaming patch pass: geometry is **frozen** (the base build's
        mins/widths; out-of-domain arrivals clamp into edge cells while
        tight boxes still observe the true values, so derived output
        regions stay sound), and the delta rows form *fresh* partitions
        appended to ``grid.extensions`` — never merged into existing cells,
        which is what lets a running kernel add join work for exactly the
        new rows.  ``since_token`` must be a token for which the source
        proves an append-only delta (callers gate on
        :func:`~repro.storage.sources.base.delta_start_row`); ``end_row``
        bounds the pass against rows committed *after* the poll captured
        its target token (a source can grow between the poll and the
        scan).  Returns the created partitions, in creation order.
        """
        attr_idx = table.schema.indices(attributes)
        table.schema.index(join_attribute)  # validate early
        lazy = bool(getattr(table, "prefers_lazy_rows", False))
        created: list[InputPartition] = []

        def register(part: InputPartition) -> None:
            grid.extensions.append(part)
            created.append(part)

        # The whole delta is scanned and checked before the grid is touched:
        # a refused NaN leaves no partial extension behind.
        scanned = []
        for batch in table.scan_batches(
            batch_size, columns=attributes, key_column=join_attribute,
            with_rows=not lazy, since_version=since_token,
        ):
            take = len(batch)
            if end_row is not None:
                if batch.offset >= end_row:
                    break
                take = min(take, end_row - batch.offset)
            m = batch.matrix(attr_idx)[:take]
            reject_non_finite(table, attributes, batch, m)
            scanned.append((batch, m))
        scatter = _Scatter(grid, table if lazy else None, {}, register)
        for batch, m in scanned:
            scatter.add(batch, m)
        scatter.finish()
        return created


class _Scatter:
    """Cell assignment of scanned batches, shared by build and delta passes.

    ``cells`` maps grid coordinates to the partitions this pass may extend
    (the grid's own dict for a base build, a fresh one for a delta — deltas
    never merge into existing cells); ``on_create`` sees every partition
    the pass creates.  :meth:`finish` hands the collected row ids (lazy
    sources) or column blocks (eager ones) to the partitions.
    """

    def __init__(self, grid, lazy_source, cells, on_create=None):
        self.grid = grid
        self.lazy_source = lazy_source
        self.cells = cells
        self.on_create = on_create
        self.lows = np.asarray(grid.mins)
        self.widths = np.asarray(grid.widths)
        self.lazy_chunks: dict[InputPartition, list[np.ndarray]] = {}
        self.pieces: dict[InputPartition, tuple[list[np.ndarray], list]] = {}

    def add(self, batch, m: np.ndarray) -> None:
        """Assign the first ``len(m)`` rows of ``batch`` (attribute matrix
        ``m``) to their cells, creating partitions in first-occurrence
        order so the structure matches a row-at-a-time build exactly."""
        grid = self.grid
        k = grid.cells_per_dim
        # Clamp in float, then cast: see OutputGrid.coords_matrix.
        scaled = (m - self.lows) / self.widths
        np.fmax(scaled, 0, out=scaled)
        np.fmin(scaled, k - 1, out=scaled)
        coords_mat = scaled.astype(np.int64)
        flat = coords_mat[:, 0].copy()
        for j in range(1, coords_mat.shape[1]):
            flat *= k
            flat += coords_mat[:, j]
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        uniq, first_pos = np.unique(flat, return_index=True)
        keys = batch.join_keys
        rows = batch.rows
        for u in uniq[np.argsort(first_pos, kind="stable")]:
            lo_i = np.searchsorted(sorted_flat, u, side="left")
            hi_i = np.searchsorted(sorted_flat, u, side="right")
            members = order[lo_i:hi_i]  # ascending: scan order kept
            coords = tuple(int(c) for c in coords_mat[members[0]])
            part = self.cells.get(coords)
            if part is None:
                lower, upper = grid.cell_bounds(coords)
                part = InputPartition(grid.source, coords, lower, upper)
                self.cells[coords] = part
                if self.on_create is not None:
                    self.on_create(part)
            sub = m[members]
            part.observe_bounds(
                sub.min(axis=0).tolist(), sub.max(axis=0).tolist()
            )
            member_keys = [keys[i] for i in members]
            part.signature.counts.update(member_keys)
            if self.lazy_source is not None:
                self.lazy_chunks.setdefault(part, []).append(
                    batch.global_ids(members)
                )
            else:
                part.add_rows(rows[i] for i in members)
                mats, part_keys = self.pieces.setdefault(part, ([], []))
                mats.append(sub)
                part_keys.extend(member_keys)

    def finish(self) -> None:
        for part, chunks in self.lazy_chunks.items():
            part.set_lazy_rows(self.lazy_source, np.concatenate(chunks))
        attach_blocks(self.pieces)


def project_rows(rows: Sequence[Row], indices: Sequence[int]) -> list[tuple[float, ...]]:
    """Project rows onto the listed column positions (helper for callers)."""
    return [tuple(row[i] for i in indices) for row in rows]
