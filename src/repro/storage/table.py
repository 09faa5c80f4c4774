"""In-memory relations.

Rows are plain tuples (fast, hashable); the :class:`Schema` provides
name-to-position lookup.  :class:`Table` is the historical name for the
in-memory storage backend — since the :class:`DataSource` redesign it is a
thin subclass of :class:`~repro.storage.sources.memory.InMemorySource`
adding the CSV/dict construction conveniences, so every ``Table``
satisfies the storage protocol and flows through the same batch-scan
consumption path as the columnar-file backend.

The content-version token (:attr:`Table.cache_token`) and the
version-bumping mutation API (:meth:`Table.append_row`,
:meth:`Table.extend_rows`, :meth:`Table.touch`) are inherited; see the
base class for the cache-invalidation contract.
"""

from __future__ import annotations

import os  # noqa: F401  (referenced in type annotations only)
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SchemaError
from repro.storage.schema import Schema
from repro.storage.sources.base import Row
from repro.storage.sources.memory import InMemorySource

__all__ = ["Row", "Table"]


def _coerce(value: str) -> Any:
    """Best-effort numeric coercion for CSV cells."""
    try:
        return float(value)
    except ValueError:
        return value


class Table(InMemorySource):
    """A named in-memory relation with an immutable schema.

    Example::

        table = Table.from_rows("R", ["id", "price"], [(1, 9.5), (2, 7.0)])
        table.column("price")        # [9.5, 7.0]
        table.append_row((3, 8.25))  # validated; bumps the version token
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from column names and row sequences."""
        return cls(name, Schema(columns), (tuple(r) for r in rows))

    @classmethod
    def from_csv(cls, name: str, path: str | "os.PathLike[str]",
                 *, delimiter: str = ",") -> "Table":
        """Load a table from a CSV file with a header row.

        Values that parse as numbers become floats; everything else stays a
        string.  Empty files raise :class:`SchemaError`.
        """
        import csv

        with open(path, newline="") as f:
            reader = csv.reader(f, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"CSV file {path!r} is empty") from None
            rows = []
            for raw in reader:
                rows.append(tuple(_coerce(v) for v in raw))
        return cls(name, Schema(header), rows)

    def to_csv(self, path: str | "os.PathLike[str]", *, delimiter: str = ",") -> None:
        """Write the table (with header) to a CSV file."""
        import csv

        with open(path, "w", newline="") as f:
            writer = csv.writer(f, delimiter=delimiter)
            writer.writerow(self.schema.columns)
            writer.writerows(self.rows)

    @classmethod
    def from_dicts(cls, name: str, records: Sequence[Mapping[str, Any]],
                   columns: Sequence[str] | None = None) -> "Table":
        """Build a table from dict records.

        Column order comes from ``columns`` when given, otherwise from the
        first record's key order.  Missing keys raise :class:`SchemaError`.
        """
        if not records and columns is None:
            raise SchemaError("cannot infer columns from an empty record list")
        cols = tuple(columns) if columns is not None else tuple(records[0].keys())
        rows = []
        for rec in records:
            try:
                rows.append(tuple(rec[c] for c in cols))
            except KeyError as exc:
                raise SchemaError(f"record {rec!r} is missing column {exc}") from None
        return cls(name, Schema(cols), rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows, {list(self.schema.columns)})"
