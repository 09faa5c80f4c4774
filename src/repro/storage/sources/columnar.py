"""The mmap-backed columnar-file :class:`DataSource` backend.

A columnar dataset is a **directory**: one small ``meta.json`` plus one
file per column —

``<i>_<name>.f8``
    Raw little-endian ``float64`` values for numeric columns, memory-mapped
    on read (``numpy.memmap``), so scanning never copies more than one
    batch into RAM and the OS can evict pages behind the scan.
``<i>_<name>.idx`` + ``<i>_<name>.utf8``
    For string columns: ``n`` ``int64`` *end offsets* into a UTF-8 blob —
    entry ``i`` is the blob position one past value ``i``; a value's start
    is the previous entry (0 for the first).  Both files are memory-mapped
    on read.

:class:`ColumnarWriter` streams rows out in bounded memory (fixed-size
buffers flushed per column), so datasets larger than RAM can be produced
by a generator; :func:`write_columnar` is the one-call convenience over
any row iterable or :class:`~repro.storage.sources.base.DataSource`.

:class:`ColumnarFileSource` reads such a directory back.  It implements
the optional ``fetch_rows`` / ``fetch_columns`` capabilities (random access
by global row id via memmap fancy indexing) and advertises
``prefers_lazy_rows``, which makes the partitioners store *row ids* instead
of tuples inside input partitions: planning a dataset several times larger
than RAM-resident tables then runs in bounded memory, joining gathers only
the numeric columns and the join key of each partition, and row tuples are
decoded for emitted results only.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.column_batch import ColumnBatch
from repro.storage.schema import Schema
from repro.storage.sources.base import DEFAULT_SCAN_BATCH, Row

#: meta.json ``format`` marker.
FORMAT = "repro-columnar"
FORMAT_VERSION = 1

#: Rows buffered per column before a flush to disk.
_WRITE_BUFFER_ROWS = 8192

#: A string gather copies the blob range covering its rows in one slice
#: unless that range exceeds four times the bytes wanted plus this slack.
_DENSE_SLACK_BYTES = 1 << 16


def _column_kind(value: Any) -> str:
    """``"f8"`` for numeric values, ``"utf8"`` for everything else."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "f8"
    return "utf8"


def _column_filenames(index: int, name: str, kind: str) -> list[str]:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
    base = f"{index}_{safe}"
    if kind == "f8":
        return [f"{base}.f8"]
    return [f"{base}.idx", f"{base}.utf8"]


class ColumnarWriter:
    """Streaming writer for the columnar directory format.

    Example::

        with ColumnarWriter("/data/r.col", ["id", "jkey", "a0"], name="R") as w:
            for row in rows:           # any iterable, any length
                w.write_row(row)

    Column kinds (``"f8"`` / ``"utf8"``) are inferred from the first row
    unless passed explicitly.  Values in an ``f8`` column must be numeric;
    a ``utf8`` column stores ``str(value)``.  ``close()`` (or leaving the
    ``with`` block) finalises ``meta.json``; a dataset is unreadable
    before that.
    """

    def __init__(
        self,
        path: str | "os.PathLike[str]",
        columns: Sequence[str],
        *,
        name: str | None = None,
        kinds: Sequence[str] | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.schema = Schema(columns)
        self.name = name or os.path.basename(self.path.rstrip("/")) or "columnar"
        if kinds is not None and len(kinds) != len(self.schema):
            raise SchemaError(
                f"{len(kinds)} kinds for {len(self.schema)} columns"
            )
        self._kinds: list[str] | None = list(kinds) if kinds is not None else None
        self._count = 0
        self._files: list[tuple] | None = None  # per-column open handles
        self._buffers: list[list] = [[] for _ in self.schema.columns]
        self._offsets: list[int] = [0] * len(self.schema)
        self._closed = False
        os.makedirs(self.path, exist_ok=True)

    def _open_files(self, first_row: Sequence[Any]) -> None:
        if self._kinds is None:
            self._kinds = [_column_kind(v) for v in first_row]
        files = []
        for i, (col, kind) in enumerate(zip(self.schema.columns, self._kinds)):
            names = _column_filenames(i, col, kind)
            handles = tuple(
                open(os.path.join(self.path, n), "wb") for n in names
            )
            files.append(handles)
        self._files = files

    def write_row(self, row: Sequence[Any]) -> None:
        """Append one row (validated against the schema width)."""
        if self._closed:
            raise SchemaError(f"writer for {self.path!r} is closed")
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row {tuple(row)!r} has {len(row)} values but schema "
                f"{list(self.schema.columns)} has {len(self.schema)} columns"
            )
        if self._files is None:
            self._open_files(row)
        for buf, value in zip(self._buffers, row):
            buf.append(value)
        self._count += 1
        if self._count % _WRITE_BUFFER_ROWS == 0:
            self._flush()

    def write_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows (streaming; bounded buffer)."""
        for row in rows:
            self.write_row(row)

    def _flush(self) -> None:
        if self._files is None:
            return
        assert self._kinds is not None
        for i, (buf, kind, handles) in enumerate(
            zip(self._buffers, self._kinds, self._files)
        ):
            if not buf:
                continue
            if kind == "f8":
                np.asarray(buf, dtype="<f8").tofile(handles[0])
            else:
                idx_f, blob_f = handles
                offsets = np.empty(len(buf), dtype="<i8")
                pos = self._offsets[i]
                chunks = []
                for j, value in enumerate(buf):
                    data = str(value).encode("utf-8")
                    chunks.append(data)
                    pos += len(data)
                    offsets[j] = pos
                self._offsets[i] = pos
                offsets.tofile(idx_f)
                blob_f.write(b"".join(chunks))
            buf.clear()

    def close(self) -> None:
        """Flush buffers, write ``meta.json`` and close every file."""
        if self._closed:
            return
        if self._files is None and self._count == 0:
            # Empty dataset: kinds default to f8 so the files still exist.
            if self._kinds is None:
                self._kinds = ["f8"] * len(self.schema)
            self._open_files([0.0] * len(self.schema))
        self._flush()
        assert self._files is not None and self._kinds is not None
        for handles in self._files:
            for f in handles:
                f.close()
        meta = {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "name": self.name,
            "columns": list(self.schema.columns),
            "kinds": list(self._kinds),
            "count": self._count,
        }
        with open(os.path.join(self.path, "meta.json"), "w") as f:
            json.dump(meta, f, indent=1)
        self._closed = True

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_columnar(
    path: str | "os.PathLike[str]",
    source,
    *,
    name: str | None = None,
    columns: Sequence[str] | None = None,
    kinds: Sequence[str] | None = None,
) -> str:
    """Write a source (or row iterable) to a columnar directory; returns path.

    ``source`` is any :class:`~repro.storage.sources.base.DataSource`
    (columns and name taken from its schema) or a plain row iterable (then
    ``columns`` is required).
    """
    schema = getattr(source, "schema", None)
    if schema is not None:
        columns = columns or list(schema.columns)
        name = name or source.name
        rows: Iterable[Row] = source.iter_rows()
    else:
        if columns is None:
            raise SchemaError("write_columnar needs columns= for plain row iterables")
        rows = source
    with ColumnarWriter(path, columns, name=name, kinds=kinds) as writer:
        writer.write_rows(rows)
    return os.fspath(path)


class _StringColumn:
    """Lazy reader for one utf8 column (offsets + blob, both memory-mapped)."""

    __slots__ = ("offsets", "blob")

    def __init__(self, idx_path: str, blob_path: str, count: int) -> None:
        if count:
            self.offsets = np.memmap(idx_path, dtype="<i8", mode="r", shape=(count,))
            blob_size = os.path.getsize(blob_path)
            self.blob = (
                np.memmap(blob_path, dtype=np.uint8, mode="r", shape=(blob_size,))
                if blob_size
                else np.empty(0, dtype=np.uint8)
            )
        else:
            self.offsets = np.empty(0, dtype="<i8")
            self.blob = np.empty(0, dtype=np.uint8)

    def values(self, indices: np.ndarray) -> list[str]:
        """Decode the strings at the given global row positions.

        Two fancy-index gathers on the offsets and one ``bytes`` slice of
        the blob range covering the request, cut up in Python — not three
        memmap accesses per value.  A request so scattered that the
        covering range dwarfs the bytes wanted is sliced value by value
        instead, so two distant rows of a huge dataset never pull the whole
        blob into memory.
        """
        ids = np.asarray(indices, dtype=np.int64)
        if ids.size == 0:
            return []
        offsets = np.asarray(self.offsets)
        ends = offsets[ids]
        starts = offsets[np.maximum(ids - 1, 0)]
        starts[ids == 0] = 0
        lo, hi = int(starts.min()), int(ends.max())
        spans = zip(starts.tolist(), ends.tolist())
        if hi - lo > 4 * int((ends - starts).sum()) + _DENSE_SLACK_BYTES:
            blob = self.blob
            return [bytes(blob[a:b]).decode("utf-8") for a, b in spans]
        data = bytes(self.blob[lo:hi])
        return [data[a - lo:b - lo].decode("utf-8") for a, b in spans]

    def slice(self, start: int, stop: int) -> list[str]:
        """Decode the contiguous string range ``[start, stop)``."""
        return self.values(np.arange(start, stop))


class ColumnarFileSource:
    """Columnar dataset on disk, scanned batch-by-batch through mmap.

    Example::

        write_columnar("/data/r.col", table)
        source = ColumnarFileSource("/data/r.col")
        for batch in source.scan_batches(columns=["a0", "a1"], key_column="jkey"):
            ...                      # float64 views + uncoerced join keys

    Numeric columns come back as ``float64`` (ints are preserved exactly up
    to 2**53); string columns decode lazily per batch.  ``version`` is
    derived from the on-disk file stats, so rewriting the dataset
    invalidates cached partitionings automatically; :meth:`touch` bumps it
    explicitly.
    """

    kind = "columnar"
    #: Partitioners should store row ids, not tuples (bounded-memory planning).
    prefers_lazy_rows = True

    def __init__(self, path: str | "os.PathLike[str]", *, name: str | None = None) -> None:
        self.path = os.path.abspath(os.fspath(path))
        meta_path = os.path.join(self.path, "meta.json")
        try:
            with open(meta_path) as f:
                meta = json.load(f)
        except FileNotFoundError:
            raise SchemaError(
                f"{self.path!r} is not a columnar dataset (no meta.json)"
            ) from None
        if meta.get("format") != FORMAT:
            raise SchemaError(
                f"{meta_path!r} has format {meta.get('format')!r}, "
                f"expected {FORMAT!r}"
            )
        self.schema = Schema(meta["columns"])
        self.kinds: tuple[str, ...] = tuple(meta["kinds"])
        self.name = name or meta["name"]
        self._count = int(meta["count"])
        self._columns: dict[int, object] = {}  # memmaps / _StringColumn, lazy
        self._bump = 0

    # ------------------------------------------------------------------
    # cache identity
    # ------------------------------------------------------------------
    @property
    def uid(self) -> tuple:
        """``("columnar", absolute path)`` — shared by handles over one dataset."""
        return ("columnar", self.path)

    @property
    def version(self) -> tuple:
        """On-disk fingerprint (mtime/size of every column file) + manual bumps.

        Rewriting the dataset in place therefore misses the partition
        cache without any explicit invalidation call.
        """
        stats = []
        for entry in sorted(os.listdir(self.path)):
            st = os.stat(os.path.join(self.path, entry))
            stats.append((entry, st.st_mtime_ns, st.st_size))
        return (tuple(stats), self._bump)

    @property
    def cache_token(self) -> tuple:
        """``(uid, version, row_count)`` for partition-cache keying."""
        return (self.uid, self.version, self._count)

    def touch(self) -> "ColumnarFileSource":
        """Explicitly bump the version token (out-of-band mutation)."""
        self._bump += 1
        return self

    def refresh(self) -> "ColumnarFileSource":
        """Re-read ``meta.json`` and drop cached memmaps.

        Call after the on-disk dataset grew (:meth:`append_rows` from this
        or another handle); memory-mapped column views are re-opened
        lazily at the new length on next access.
        """
        with open(os.path.join(self.path, "meta.json")) as f:
            meta = json.load(f)
        self._count = int(meta["count"])
        self._columns = {}
        return self

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> "ColumnarFileSource":
        """Append rows to the on-disk dataset in place; returns ``self``.

        Column files are opened in append mode and utf8 offsets continue
        from the current blob size, so every pre-existing byte stays where
        it was — which is exactly what lets :meth:`delta_start_row` prove
        an append-only delta from the file-stat version token (old files
        still present, sizes only grew).  ``meta.json``'s count is
        rewritten last and the handle :meth:`refresh`-es itself.

        Validation stages first: a width mismatch anywhere leaves the
        dataset untouched, and an empty iterable is a no-op (no version
        change).
        """
        staged = []
        for row in rows:
            t = tuple(row)
            if len(t) != len(self.schema):
                raise SchemaError(
                    f"row {t!r} has {len(t)} values but schema "
                    f"{list(self.schema.columns)} has {len(self.schema)} columns"
                )
            staged.append(t)
        if not staged:
            return self
        for i, kind in enumerate(self.kinds):
            names = _column_filenames(i, self.schema.columns[i], kind)
            paths = [os.path.join(self.path, n) for n in names]
            values = [t[i] for t in staged]
            if kind == "f8":
                with open(paths[0], "ab") as f:
                    np.asarray(values, dtype="<f8").tofile(f)
            else:
                pos = os.path.getsize(paths[1])
                offsets = np.empty(len(values), dtype="<i8")
                chunks = []
                for j, value in enumerate(values):
                    data = str(value).encode("utf-8")
                    chunks.append(data)
                    pos += len(data)
                    offsets[j] = pos
                with open(paths[0], "ab") as f:
                    offsets.tofile(f)
                with open(paths[1], "ab") as f:
                    f.write(b"".join(chunks))
        meta_path = os.path.join(self.path, "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["count"] = int(meta["count"]) + len(staged)
        with open(meta_path, "w") as f:
            json.dump(meta, f, indent=1)
        return self.refresh()

    def delta_start_row(self, token: tuple) -> "int | None":
        """Append-only delta start for ``token``, or ``None`` if unprovable.

        Provable iff the token names this dataset, its manual-bump counter
        matches, and every column file the token observed still exists
        with a size **no smaller** than it had then — the append path only
        ever grows files in place, so shrinkage or disappearance means a
        rewrite and the prefix cannot be trusted.  ``meta.json`` is
        exempt (appends rewrite it).  Prefer the module-level
        :func:`~repro.storage.sources.base.delta_start_row` dispatcher.
        """
        if not isinstance(token, tuple) or len(token) != 3:
            return None
        uid, version, count = token
        if uid != self.uid or not isinstance(count, int):
            return None
        if not 0 <= count <= self._count:
            return None
        if not isinstance(version, tuple) or len(version) != 2:
            return None
        old_stats, old_bump = version
        if old_bump != self._bump:
            return None
        current_sizes = {
            entry: st_size for entry, _, st_size in self.version[0]
        }
        for entry, _, size in old_stats:
            if entry == "meta.json":
                continue
            current = current_sizes.get(entry)
            if current is None or current < size:
                return None
        return count

    def describe(self) -> str:
        """One-line backend description (CLI ``serve`` prints this)."""
        return f"columnar(mmap:{self.path})"

    # ------------------------------------------------------------------
    # column access
    # ------------------------------------------------------------------
    def _column(self, index: int):
        col = self._columns.get(index)
        if col is None:
            kind = self.kinds[index]
            names = _column_filenames(index, self.schema.columns[index], kind)
            paths = [os.path.join(self.path, n) for n in names]
            if kind == "f8":
                col = (
                    np.memmap(paths[0], dtype="<f8", mode="r", shape=(self._count,))
                    if self._count
                    else np.empty(0, dtype="<f8")
                )
            else:
                col = _StringColumn(paths[0], paths[1], self._count)
            self._columns[index] = col
        return col

    def _values_slice(self, index: int, start: int, stop: int) -> list:
        col = self._column(index)
        if isinstance(col, _StringColumn):
            return col.slice(start, stop)
        return col[start:stop].tolist()

    def _values_at(self, index: int, ids: np.ndarray) -> list:
        col = self._column(index)
        if isinstance(col, _StringColumn):
            return col.values(ids)
        return np.asarray(col)[ids].tolist()

    # ------------------------------------------------------------------
    # DataSource protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def scan_batches(
        self,
        batch_size: int = DEFAULT_SCAN_BATCH,
        *,
        columns: Sequence[str] = (),
        key_column: str | None = None,
        with_rows: bool = True,
        since_version: tuple | None = None,
    ) -> Iterator[ColumnBatch]:
        """Stream the dataset; only touched columns are read from disk.

        ``since_version`` (a prior :attr:`cache_token`) restricts the scan
        to the appended suffix; batch offsets stay global row positions.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        first = 0
        if since_version is not None:
            start_row = self.delta_start_row(since_version)
            if start_row is None:
                raise ValueError(
                    f"source {self.name!r} cannot prove an append-only delta "
                    f"since {since_version!r}"
                )
            first = start_row
        indices = self.schema.indices(columns)
        key_index = self.schema.index(key_column) if key_column else None
        width = len(self.schema)
        for i in indices:
            if self.kinds[i] != "f8":
                raise SchemaError(
                    f"column {self.schema.columns[i]!r} is utf8; only numeric "
                    "columns can be materialised as float arrays"
                )
        for start in range(first, self._count, batch_size):
            stop = min(start + batch_size, self._count)
            arrays = {
                i: np.asarray(self._column(i)[start:stop], dtype=float)
                for i in indices
            }
            keys = (
                self._values_slice(key_index, start, stop)
                if key_index is not None
                else None
            )
            rows = self._rows_slice(start, stop) if with_rows else None
            yield ColumnBatch.from_columns(
                width=width,
                length=stop - start,
                columns=arrays,
                rows=rows,
                keys=keys,
                key_index=key_index,
                offset=start,
            )

    def _rows_slice(self, start: int, stop: int) -> list[Row]:
        cols = [self._values_slice(i, start, stop) for i in range(len(self.schema))]
        return list(zip(*cols)) if cols else []

    def fetch_rows(self, row_ids: Sequence[int] | np.ndarray) -> list[Row]:
        """Materialise the rows at the given global positions (mmap gather)."""
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.size == 0:
            return []
        cols = [self._values_at(i, ids) for i in range(len(self.schema))]
        return list(zip(*cols))

    def fetch_columns(
        self,
        row_ids: Sequence[int] | np.ndarray,
        indices: Sequence[int],
        key_index: int,
    ) -> tuple[np.ndarray, list]:
        """Gather a few columns by global row position, without row tuples.

        Returns the numeric columns at schema positions ``indices`` as an
        ``(n, len(indices))`` float64 matrix and the column at
        ``key_index`` as a list of raw values.  The optional column-gather
        capability of the storage protocol: lazy input partitions build
        their column blocks with it, so joining never decodes the columns
        a query does not compute on.
        """
        ids = np.asarray(row_ids, dtype=np.int64)
        matrix = np.empty((ids.size, len(indices)), dtype=float)
        for j, i in enumerate(indices):
            if self.kinds[i] != "f8":
                raise SchemaError(
                    f"column {self.schema.columns[i]!r} is utf8; only numeric "
                    "columns can be gathered as float arrays"
                )
            matrix[:, j] = np.asarray(self._column(i))[ids]
        return matrix, self._values_at(key_index, ids)

    def iter_rows(self) -> Iterator[Row]:
        """Stream the rows as tuples (one batch materialised at a time)."""
        for batch in self.scan_batches():
            yield from batch.rows

    @property
    def rows(self) -> list[Row]:
        """All rows, **materialised** — prefer :meth:`iter_rows` at scale."""
        return list(self.iter_rows())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarFileSource({self.name!r}, {self._count} rows, "
            f"{list(self.schema.columns)}, path={self.path!r})"
        )
