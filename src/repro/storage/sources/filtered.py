"""A streaming filter view over any :class:`DataSource`.

:class:`FilteredSource` applies local filter conditions
(:class:`~repro.query.smj.FilterCondition`-shaped objects) batch by batch
during the scan, so binding a filtered query against a larger-than-RAM
backend never materialises the full relation.  Batches keep their *base*
row ids (:attr:`~repro.storage.column_batch.ColumnBatch.row_ids`), and
``fetch_rows`` delegates to the base source — lazy partitioning therefore
composes: partitions built over a filtered columnar source store base row
ids and gather straight from the mmap.

The in-memory path does not use this class (filtering a list is cheaper
eagerly — see :meth:`repro.storage.sources.memory.InMemorySource.filter`);
it serves every other source.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.storage.column_batch import ColumnBatch
from repro.storage.sources.base import DEFAULT_SCAN_BATCH, Row


def conditions_fingerprint(conditions: Sequence) -> tuple:
    """Hashable identity of a condition list (for cache keying)."""
    return tuple(
        (
            getattr(c, "alias", None),
            getattr(c, "attribute", None),
            getattr(c, "op", None),
            repr(getattr(c, "literal", None)),
        )
        for c in conditions
    )


class FilteredSource:
    """Lazily filtered view of a base source.

    Example::

        base = ColumnarFileSource("/data/r.col")
        kept = FilteredSource(base, [FilterCondition("R", "price", "<=", 40.0)])
        len(kept)                     # counting scan (cached per base version)
        next(kept.scan_batches()).row_ids   # global ids into the *base* source
    """

    def __init__(self, base, conditions: Sequence, *, name: str | None = None) -> None:
        self.base = base
        self.conditions = tuple(conditions)
        self.name = name or base.name
        self.schema = base.schema
        self._idx_conds = [
            (self.schema.index(c.attribute), c) for c in self.conditions
        ]
        self._count: int | None = None
        self._count_token = None

    # ------------------------------------------------------------------
    # cache identity
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return f"{self.base.kind}+filter"

    @property
    def prefers_lazy_rows(self) -> bool:
        """Lazy row storage composes when the base supports random access."""
        return bool(getattr(self.base, "prefers_lazy_rows", False))

    @property
    def uid(self):
        return ("filtered", self.base.uid, conditions_fingerprint(self.conditions))

    @property
    def version(self):
        return self.base.version

    @property
    def cache_token(self) -> tuple:
        return (self.uid, self.version, len(self))

    def describe(self) -> str:
        from repro.storage.sources.base import describe_source

        return f"{describe_source(self.base)}+{len(self.conditions)}filters"

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def _keep(self, row: Row) -> bool:
        return all(c.matches(row[i]) for i, c in self._idx_conds)

    # ------------------------------------------------------------------
    # DataSource protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        token = self.base.cache_token
        if self._count is None or self._count_token != token:
            count = 0
            for batch in self.base.scan_batches():
                count += sum(1 for row in batch.rows if self._keep(row))
            self._count = count
            self._count_token = token
        return self._count

    def scan_batches(
        self,
        batch_size: int = DEFAULT_SCAN_BATCH,
        *,
        columns: Sequence[str] = (),
        key_column: str | None = None,
        with_rows: bool = True,
    ) -> Iterator[ColumnBatch]:
        """Scan the base and keep matching rows; empty batches are skipped.

        Rows are always requested from the base (the predicate needs
        them); the yielded sub-batches carry base-relative ``row_ids``.
        """
        for batch in self.base.scan_batches(
            batch_size, columns=columns, key_column=key_column, with_rows=True
        ):
            mask = [i for i, row in enumerate(batch.rows) if self._keep(row)]
            if not mask:
                continue
            if len(mask) == len(batch):
                yield batch
            else:
                yield batch.take(np.asarray(mask, dtype=np.intp))

    def fetch_rows(self, row_ids) -> list[Row]:
        """Gather rows by *base* row id (requires base random access)."""
        return self.base.fetch_rows(row_ids)

    @property
    def fetch_columns(self):
        """The base's column-gather capability, or ``None`` without one
        (row ids are base row ids and the schema is the base's)."""
        return getattr(self.base, "fetch_columns", None)

    def iter_rows(self) -> Iterator[Row]:
        """Stream the matching rows."""
        for batch in self.base.scan_batches():
            for row in batch.rows:
                if self._keep(row):
                    yield row

    @property
    def rows(self) -> list[Row]:
        """All matching rows, **materialised**."""
        return list(self.iter_rows())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FilteredSource({self.base!r}, {len(self.conditions)} conditions)"
        )
