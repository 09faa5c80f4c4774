"""Input partitions: one cell of the input grid (paper notation ``I^R_i``)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.storage.signatures import ExactSignature

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.storage.column_batch import ColumnBatch
    from repro.storage.sources.base import DataSource

_NO_MATCH = np.empty(0, dtype=np.intp)


class ColumnBlock:
    """A partition's join inputs as arrays — what phase 2 reads instead of rows.

    ``matrix`` is the ``(n, d)`` float64 matrix of the partition's rows over
    the partitioning attributes (which are the mapping's source attributes,
    in the same order), ``keys`` the raw join-key values aligned with it.
    Position ``i`` in either is position ``i`` in the partition's row order.
    """

    __slots__ = ("matrix", "keys", "_positions")

    def __init__(self, matrix: np.ndarray, keys: list[Any]) -> None:
        self.matrix = matrix
        self.keys = keys
        self._positions: dict[Any, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def key_positions(self) -> dict[Any, np.ndarray]:
        """``key -> ascending positions`` — the hash-join build table.

        A plain ``dict`` over the raw key values, so matching has exactly
        Python's equality semantics (``1 == 1.0``, ``"01" != "1"``).  Built
        on first use and kept: every region that builds on this partition,
        in this and any later query sharing the structure, reuses it.
        """
        positions = self._positions
        if positions is None:
            lists: dict[Any, list[int]] = {}
            for i, key in enumerate(self.keys):
                lists.setdefault(key, []).append(i)
            positions = {
                key: np.asarray(where, dtype=np.intp)
                for key, where in lists.items()
            }
            self._positions = positions
        return positions

    def probe(self, keys: Sequence[Any]) -> list[np.ndarray]:
        """Per probe key, the matching build positions (empty when none)."""
        get = self.key_positions().get
        return [get(key, _NO_MATCH) for key in keys]


class RowRef:
    """A row named by ``(partition, position)`` instead of held as a tuple.

    What buffered output-cell entries carry; the tuple is
    materialised (:func:`materialize_rows`) only if the entry is
    eventually emitted.
    """

    __slots__ = ("partition", "position")

    def __init__(self, partition: "InputPartition", position: int) -> None:
        self.partition = partition
        self.position = position


class PairRows:
    """One side of a batch of joined pairs: positions into one partition.

    Stands in for a list of row tuples without building any: ``len`` is the
    pair count, indexing yields a :class:`RowRef`, and :meth:`columns`
    gathers the attribute columns the mapping needs straight from the
    partition's column block.
    """

    __slots__ = ("partition", "matrix", "positions")

    def __init__(
        self, partition: "InputPartition", matrix: np.ndarray, positions: np.ndarray
    ) -> None:
        self.partition = partition
        self.matrix = matrix
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i: int) -> RowRef:
        return RowRef(self.partition, int(self.positions[i]))

    def columns(self, attr_indices: Sequence[int]) -> dict[int, np.ndarray]:
        """The pairs' attribute columns, keyed by schema position.

        ``attr_indices`` are the schema positions the column block was
        built over, in its column order.
        """
        take = self.positions
        return {
            index: self.matrix[:, j].take(take)
            for j, index in enumerate(attr_indices)
        }


def materialize_rows(rows: Sequence[Any]) -> list[tuple]:
    """Row tuples for a mix of :class:`RowRef` and plain tuples.

    References are resolved with one gather per distinct partition, so a
    lazily-backed source decodes each emitted row once and nothing else.
    """
    out = list(rows)
    wanted: dict[InputPartition, list[int]] = {}
    for n, row in enumerate(out):
        if type(row) is RowRef:
            wanted.setdefault(row.partition, []).append(n)
    for partition, slots in wanted.items():
        fetched = partition.rows_at([out[n].position for n in slots])
        for n, row in zip(slots, fetched):
            out[n] = row
    return out


def reject_non_finite(
    table: "DataSource", attributes: Sequence[str], batch: "ColumnBatch", m: np.ndarray
) -> None:
    """Refuse a NaN or ±inf in ``m``, the ``(rows, d)`` matrix of ``batch``
    over the mapped ``attributes`` of ``table``: the error names the value,
    the table, the column and the row position of the first one.

    A NaN is neither better nor worse than anything, which breaks the
    transitivity of dominance and the region corners every pruning rule
    rests on; an infinity has no grid cell and turns the region arithmetic
    (``inf - inf``) into NaN.  So a partitioner stops at the first one it
    scans.
    """
    bad = ~np.isfinite(m)
    if not bad.any():
        return
    i, j = np.argwhere(bad)[0].tolist()
    value = "NaN" if np.isnan(m[i, j]) else repr(float(m[i, j]))
    row = int(batch.global_ids()[i])
    raise ExecutionError(
        f"{value} in column {attributes[j]!r} of table {table.name!r} at row "
        f"{row}: a mapped attribute must be a finite number"
    )


def attach_blocks(
    pieces: "dict[InputPartition, tuple[list[np.ndarray], list[Any]]]",
) -> None:
    """Give each partition its column block as a slice of one shared matrix.

    ``pieces`` maps a partition to the attribute sub-matrices it received
    during a build (in arrival order) and its join keys.  One contiguous
    matrix per build with per-partition views is one data allocation
    instead of one per partition, which is what structures over many tiny
    partitions (d = 4 grids) would otherwise mostly consist of.
    """
    if not pieces:
        return
    whole = np.concatenate([m for mats, _ in pieces.values() for m in mats])
    start = 0
    for partition, (_, keys) in pieces.items():
        stop = start + len(keys)
        partition.set_block(whole[start:stop], keys)
        start = stop


class InputPartition:
    """A set of co-located tuples from one input relation.

    Attributes
    ----------
    source:
        Alias of the owning relation (``"R"`` or ``"T"`` in the paper).
    coords:
        Integer grid-cell coordinates over the partitioning attributes.
    lower, upper:
        Attribute-space bounding box of the cell, in partitioning-attribute
        order.  Cells are half-open ``[lower, upper)`` except the last cell
        of each dimension, which is closed above so the domain maximum has a
        home.
    rows:
        The tuples (full rows of the source relation) assigned to the cell.
        For partitions built **eagerly** (in-memory sources) this is the
        live backing list; for partitions built **lazily** over a
        random-access :class:`~repro.storage.sources.base.DataSource`
        (``prefers_lazy_rows``) only the global row ids are stored and each
        ``rows`` access gathers the tuples from the source — planning never
        materialises them.  Phase 2 does not read ``rows`` at all: it joins
        over :meth:`column_block` and fetches tuples for emitted results
        only (:meth:`rows_at`).
    signature:
        Join-value signature over the rows (see
        :mod:`repro.storage.signatures`).
    tight_lower, tight_upper:
        The *actual* bounding box of the rows in the cell, maintained on
        insertion.  Always contained in the cell box; the look-ahead maps
        these through the mapping functions to obtain output regions that
        are as small as the data allows — smaller regions mean less
        coverage overlap and earlier safe emission.
    """

    __slots__ = (
        "source", "coords", "lower", "upper", "signature",
        "tight_lower", "tight_upper", "_rows", "_row_source", "_row_ids",
        "_block",
    )

    def __init__(
        self,
        source: str,
        coords: tuple[int, ...],
        lower: tuple[float, ...],
        upper: tuple[float, ...],
    ) -> None:
        self.source = source
        self.coords = coords
        self.lower = lower
        self.upper = upper
        self._rows: list[tuple] = []
        self._row_source = None
        self._row_ids = None
        self._block: ColumnBlock | None = None
        self.signature = ExactSignature()
        self.tight_lower: list[float] = list(upper)
        self.tight_upper: list[float] = list(lower)

    # ------------------------------------------------------------------
    # row storage
    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[tuple]:
        """The partition's tuples.

        Eager partitions return the live backing list (mutations stick);
        lazy partitions gather a fresh list from the backing source on
        every access.  Tuple-level processing does not call this (it
        works on :meth:`column_block`); it serves the baselines and
        inspection.
        """
        if self._row_source is None:
            return self._rows
        return self._row_source.fetch_rows(self._row_ids)

    def rows_at(self, positions: Sequence[int]) -> list[tuple]:
        """The tuples at the given positions of the partition's row order."""
        if self._row_source is None:
            rows = self._rows
            return [rows[p] for p in positions]
        return self._row_source.fetch_rows(
            self._row_ids[np.asarray(positions, dtype=np.intp)]
        )

    def add_rows(self, rows) -> None:
        """Append tuples (eager storage)."""
        if self._row_source is not None:
            raise ValueError("cannot add eager rows to a lazily-backed partition")
        self._rows.extend(rows)

    def set_block(self, matrix: np.ndarray, keys: list[Any]) -> None:
        """Adopt arrays the caller already holds as the column block.

        Partitioners call this once per build with what the partitioning
        scan computed anyway, so eager partitions never re-derive columns
        from their tuples.  ``matrix`` / ``keys`` must cover exactly the
        partition's rows, in row order.
        """
        self._block = ColumnBlock(matrix, keys)

    def column_block(
        self, attr_indices: Sequence[int], key_index: int
    ) -> ColumnBlock:
        """The partition's attribute matrix, join keys and build table.

        ``attr_indices`` / ``key_index`` are the schema positions of the
        partitioning attributes and the join attribute — the ones the
        structure was partitioned on, so every caller asks for the same
        block and it is cached on the partition (and thereby shared through
        the cross-query partition cache).  Eager partitions normally got it
        for free from the partitioning scan; lazy partitions build it here
        on first use by gathering just those columns by row id, never whole
        row tuples.
        """
        block = self._block
        # A block no longer matching the row count was captured before rows
        # were added (or the live ``rows`` list edited): rebuild it.
        if block is None or len(block) != len(self):
            block = self._block = self._build_block(attr_indices, key_index)
        return block

    def _build_block(
        self, attr_indices: Sequence[int], key_index: int
    ) -> ColumnBlock:
        source = self._row_source
        gather = getattr(source, "fetch_columns", None)
        if gather is not None:
            matrix, keys = gather(self._row_ids, attr_indices, key_index)
            return ColumnBlock(matrix, keys)
        rows = self.rows
        matrix = np.asarray(
            [[row[i] for i in attr_indices] for row in rows], dtype=float
        ).reshape(len(rows), len(attr_indices))
        return ColumnBlock(matrix, [row[key_index] for row in rows])

    def set_lazy_rows(self, row_source, row_ids) -> None:
        """Back the partition by global ``row_ids`` into ``row_source``.

        ``row_source`` must implement ``fetch_rows(row_ids)`` (the
        random-access capability of the storage protocol).
        """
        if self._rows:
            raise ValueError("partition already holds eager rows")
        self._row_source = row_source
        self._row_ids = row_ids

    @property
    def is_lazy(self) -> bool:
        """Whether rows are gathered from a backing source on access."""
        return self._row_source is not None

    def observe(self, values: Sequence[float]) -> None:
        """Widen the tight box to include one row's attribute vector."""
        tl, tu = self.tight_lower, self.tight_upper
        for i, v in enumerate(values):
            if v < tl[i]:
                tl[i] = v
            if v > tu[i]:
                tu[i] = v

    def observe_bounds(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> None:
        """Widen the tight box by per-dimension ``(low, high)`` bounds.

        The bulk form of :meth:`observe` — partitioners feed it one
        min/max pair per scanned batch group instead of one call per row.
        """
        tl, tu = self.tight_lower, self.tight_upper
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            if lo < tl[i]:
                tl[i] = lo
            if hi > tu[i]:
                tu[i] = hi

    @property
    def size(self) -> int:
        """Number of tuples in the partition (``n^R_a`` in the paper)."""
        return len(self)

    def bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The ``(lower, upper)`` box of the cell."""
        return self.lower, self.upper

    def attribute_intervals(
        self, attributes: Sequence[str]
    ) -> dict[str, tuple[float, float]]:
        """Per-attribute ``(lo, hi)`` bounds keyed by attribute name.

        Uses the tight (observed) box when rows are present, the cell box
        otherwise.  Never materialises lazy rows.
        """
        if len(self):
            return {
                a: (self.tight_lower[i], self.tight_upper[i])
                for i, a in enumerate(attributes)
            }
        return {
            a: (self.lower[i], self.upper[i]) for i, a in enumerate(attributes)
        }

    def __len__(self) -> int:
        if self._row_source is None:
            return len(self._rows)
        return len(self._row_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InputPartition({self.source}{list(self.coords)}, "
            f"{len(self)} rows, box={self.lower}->{self.upper})"
        )
