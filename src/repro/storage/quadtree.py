"""Adaptive quad-tree partitioning of input relations.

The paper (§III) assumes grid-partitioned inputs but notes that "other
space-partitioning methodologies such as quad-tree and R-tree structures
can also be utilized ... with some modifications".  This module provides
the quad-tree realisation: leaves split recursively at the box midpoint
(2^d children) until they hold at most ``leaf_capacity`` rows or reach
``max_depth``.  Dense areas get fine partitions (small output regions,
early emission), sparse areas stay coarse (less bookkeeping) — which is
precisely what skewed data wants.

Like the grid partitioner, consumption is **batch-first** over the
:class:`~repro.storage.sources.base.DataSource` protocol: one streaming
pass collects the partitioning attributes as a compact ``float64`` matrix
(8 bytes per value instead of boxed Python floats) plus the join keys,
then the recursion splits numpy index sets.  Sources advertising
``prefers_lazy_rows`` produce leaves that store global row ids only.

The produced :class:`QuadTreeIndex` is interface-compatible with
:class:`~repro.storage.grid.InputGrid` where the ProgXe look-ahead is
concerned: it exposes ``attributes``, iteration over non-empty
:class:`~repro.storage.partition.InputPartition` leaves, and per-leaf
join-value signatures.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import BindingError
from repro.storage.partition import InputPartition, attach_blocks, reject_non_finite
from repro.storage.signatures import SignatureCodes
from repro.storage.sources.base import DEFAULT_SCAN_BATCH, DataSource, Row


class QuadTreeIndex:
    """The quad-tree over one input relation; iterates non-empty leaves.

    ``partitions`` holds the base build's leaves; ``extensions`` holds
    leaves created by append-only delta passes
    (:meth:`QuadTreePartitioner.partition_delta`) in arrival order — a
    small side-tree per delta, never merged into existing leaves, so a
    running consumer picks up exactly the new work while iteration (base
    then extensions) still covers every row exactly once.
    """

    def __init__(self, source: str, attributes: tuple[str, ...]) -> None:
        self.source = source
        self.attributes = attributes
        self.partitions: list[InputPartition] = []
        self.extensions: list[InputPartition] = []
        self.depth_used = 0
        #: Value ids of the leaves' exact signatures, for the look-ahead.
        self.signature_codes = SignatureCodes()

    @property
    def partition_count(self) -> int:
        """Number of non-empty leaves (base leaves + delta extensions)."""
        return len(self.partitions) + len(self.extensions)

    def total_rows(self) -> int:
        """Total rows across leaves (base leaves + delta extensions)."""
        return sum(len(p) for p in self.partitions) + sum(
            len(p) for p in self.extensions
        )

    def __iter__(self) -> Iterator[InputPartition]:
        yield from self.partitions
        yield from self.extensions


class QuadTreePartitioner:
    """Builds :class:`QuadTreeIndex` structures.

    Parameters
    ----------
    leaf_capacity:
        Split a node once it holds more rows than this.
    max_depth:
        Hard recursion bound (duplicated points can never split apart, so
        unbounded recursion would loop).
    """

    def __init__(self, leaf_capacity: int = 32, max_depth: int = 8) -> None:
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth

    def descriptor(self) -> tuple:
        """Hashable identity of this partitioner's configuration.

        Equal descriptors over identical inputs build identical trees; the
        cross-query partition cache (:mod:`repro.cache`) relies on this to
        share built indexes between plans.
        """
        return ("quadtree", self.leaf_capacity, self.max_depth)

    def partition(
        self,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        *,
        source: str | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH,
    ) -> QuadTreeIndex:
        """Build the quad-tree over ``attributes`` with join signatures."""
        n = len(table)
        if n == 0:
            raise BindingError(f"cannot partition empty table {table.name!r}")
        if not attributes:
            raise BindingError(
                f"table {table.name!r} contributes no mapping attributes"
            )
        attr_idx = table.schema.indices(attributes)
        table.schema.index(join_attribute)  # validate early
        lazy = bool(getattr(table, "prefers_lazy_rows", False))

        # Single streaming pass: values matrix + join keys (+ rows or ids).
        value_chunks: list[np.ndarray] = []
        keys: list[Any] = []
        rows: list[Row] | None = None if lazy else []
        id_chunks: list[np.ndarray] = []
        for batch in table.scan_batches(
            batch_size, columns=attributes, key_column=join_attribute,
            with_rows=not lazy,
        ):
            m = batch.matrix(attr_idx)
            reject_non_finite(table, attributes, batch, m)
            value_chunks.append(m)
            keys.extend(batch.join_keys)
            if lazy:
                id_chunks.append(batch.global_ids())
            else:
                assert rows is not None
                rows.extend(batch.rows)
        values = np.vstack(value_chunks)
        row_ids = np.concatenate(id_chunks) if lazy else None

        mins = values.min(axis=0)
        maxs = values.max(axis=0)
        # Give zero-width dimensions some room so midpoints separate.
        lower = tuple(float(m) for m in mins)
        upper = tuple(
            float(hi) if hi > lo else float(lo) + 1.0
            for lo, hi in zip(mins, maxs)
        )

        index = QuadTreeIndex(source or table.name, tuple(attributes))
        builder = _TreeBuilder(
            self, index, values, keys, rows, row_ids, table if lazy else None
        )
        builder.split(np.arange(len(values), dtype=np.intp), lower, upper,
                      depth=0, path=())
        attach_blocks(builder.pieces)
        return index

    def partition_delta(
        self,
        index: QuadTreeIndex,
        table: DataSource,
        attributes: Sequence[str],
        join_attribute: str,
        *,
        since_token: tuple,
        end_row: int | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH,
    ) -> list[InputPartition]:
        """Extend ``index`` in place with the rows appended since ``since_token``.

        The streaming patch pass: the delta rows get their own small
        side-tree (bounded by the *delta's* bounding box) whose leaves are
        appended to ``index.extensions`` — existing leaves are never
        touched.  Leaf paths are prefixed with a unique negative
        generation marker so they can never collide with base-tree paths.
        ``end_row`` bounds the pass against rows committed after the poll
        captured its token.  Returns the created leaves.
        """
        attr_idx = table.schema.indices(attributes)
        table.schema.index(join_attribute)  # validate early
        lazy = bool(getattr(table, "prefers_lazy_rows", False))

        value_chunks: list[np.ndarray] = []
        keys: list[Any] = []
        rows: list[Row] | None = None if lazy else []
        id_chunks: list[np.ndarray] = []
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
            value_chunks.append(m)
            keys.extend(batch.join_keys[:take])
            if lazy:
                id_chunks.append(batch.global_ids()[:take])
            else:
                assert rows is not None
                rows.extend(batch.rows[:take])
        if not value_chunks:
            return []
        values = np.vstack(value_chunks)
        if not len(values):
            return []
        row_ids = np.concatenate(id_chunks) if lazy else None

        mins = values.min(axis=0)
        maxs = values.max(axis=0)
        lower = tuple(float(m) for m in mins)
        upper = tuple(
            float(hi) if hi > lo else float(lo) + 1.0
            for lo, hi in zip(mins, maxs)
        )
        side = QuadTreeIndex(index.source, tuple(attributes))
        builder = _TreeBuilder(
            self, side, values, keys, rows, row_ids, table if lazy else None
        )
        generation = -(len(index.extensions) + 1)
        builder.split(np.arange(len(values), dtype=np.intp), lower, upper,
                      depth=0, path=(generation,))
        attach_blocks(builder.pieces)
        index.extensions.extend(side.partitions)
        index.depth_used = max(index.depth_used, side.depth_used)
        return side.partitions


class _TreeBuilder:
    """Recursion state for one quad-tree build (arrays shared, index sets split)."""

    __slots__ = (
        "partitioner", "index", "values", "keys", "rows", "row_ids",
        "row_source", "pieces",
    )

    def __init__(self, partitioner, index, values, keys, rows, row_ids,
                 row_source) -> None:
        self.partitioner = partitioner
        self.index = index
        self.values = values
        self.keys = keys
        self.rows = rows
        self.row_ids = row_ids
        self.row_source = row_source
        #: Eager leaves' attribute rows and join keys, for their column blocks.
        self.pieces: dict[InputPartition, tuple[list[np.ndarray], list]] = {}

    def split(
        self,
        sel: np.ndarray,
        lower: tuple[float, ...],
        upper: tuple[float, ...],
        depth: int,
        path: tuple[int, ...],
    ) -> None:
        p = self.partitioner
        if len(sel) <= p.leaf_capacity or depth >= p.max_depth:
            self._emit_leaf(sel, lower, upper, depth, path)
            return
        mid = tuple((lo + hi) / 2.0 for lo, hi in zip(lower, upper))
        vals = self.values[sel]
        d = len(mid)
        child_of = np.zeros(len(sel), dtype=np.int64)
        for i in range(d):
            child_of |= (vals[:, i] >= mid[i]).astype(np.int64) << i
        # A single populated child is fine: its box is half the parent's, so
        # recursion still makes progress toward the data (clustered inputs
        # produce exactly these chains); max_depth bounds duplicates.
        for child_id in np.unique(child_of):
            members = sel[child_of == child_id]  # ascending: order kept
            cid = int(child_id)
            child_lower = tuple(
                mid[i] if cid >> i & 1 else lower[i] for i in range(d)
            )
            child_upper = tuple(
                upper[i] if cid >> i & 1 else mid[i] for i in range(d)
            )
            self.split(members, child_lower, child_upper, depth + 1,
                       path + (cid,))

    def _emit_leaf(
        self,
        sel: np.ndarray,
        lower: tuple[float, ...],
        upper: tuple[float, ...],
        depth: int,
        path: tuple[int, ...],
    ) -> None:
        part = InputPartition(self.index.source, path, lower, upper)
        if len(sel):
            sub = self.values[sel]
            part.observe_bounds(sub.min(axis=0).tolist(),
                                sub.max(axis=0).tolist())
            keys = self.keys
            leaf_keys = [keys[i] for i in sel]
            part.signature.counts.update(leaf_keys)
            if self.row_source is not None:
                part.set_lazy_rows(self.row_source, self.row_ids[sel])
            else:
                assert self.rows is not None
                rows = self.rows
                part.add_rows(rows[i] for i in sel)
                self.pieces[part] = ([sub], leaf_keys)
        self.index.partitions.append(part)
        self.index.depth_used = max(self.index.depth_used, depth)
