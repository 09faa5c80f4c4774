"""The :class:`DataSource` storage protocol.

Nothing in the ProgXe pipeline requires input rows to live in a Python
list: phase-1 partitioning only ever *streams* over the data (computing
grid coordinates, join signatures and tight bounding boxes), and the
per-region probes touch one partition pair at a time.  ``DataSource``
captures exactly that contract, so relations can come from RAM
(:class:`~repro.storage.sources.memory.InMemorySource` and its thin
:class:`~repro.storage.table.Table` subclass) or from mmap-backed
columnar files (:class:`~repro.storage.sources.columnar.ColumnarFileSource`)
— both behind one batch-scan API.

The protocol's required surface:

``name`` / ``schema``
    Relation identity and ordered column names
    (:class:`~repro.storage.schema.Schema`).
``__len__``
    Row count.
``scan_batches(batch_size, *, columns=(), key_column=None, with_rows=True)``
    The one consumption path: yields
    :class:`~repro.storage.column_batch.ColumnBatch` chunks in a stable
    row order, with the named ``columns`` materialised as ``float64``
    arrays and ``key_column`` carried uncoerced.  ``with_rows=False`` is a
    hint that the caller needs only the arrays, letting backends skip
    tuple materialisation.
``uid`` / ``version`` / ``cache_token`` / ``kind``
    Cache identity: ``uid`` is stable for the source's lifetime and never
    collides across sources or backends, ``version`` changes with every
    observable content mutation, and ``cache_token`` combines both with
    the cardinality.  The cross-query partition cache
    (:mod:`repro.cache`) keys shared phase-1 work on these, so two
    backends holding the *same logical data* still produce distinct
    :class:`~repro.cache.store.PartitionKey` values.
``iter_rows()`` / ``rows``
    Row access for consumers that genuinely need tuples — blocking
    baselines, verification oracles.  ``iter_rows`` streams;
    ``rows`` materialises (and is a live list only for in-memory
    sources).

Optional capabilities, discovered by ``getattr``:

``prefers_lazy_rows`` + ``fetch_rows(row_ids)``
    Random access by global row position.  Partitioners use it to store
    *row ids* instead of tuples inside
    :class:`~repro.storage.partition.InputPartition`, which is what lets
    planning over an mmap-backed source run in bounded memory.
``fetch_columns(row_ids, indices, key_index)``
    Column gather by global row position: the numeric columns at schema
    positions ``indices`` as an ``(n, len(indices))`` ``float64`` matrix
    plus the raw values of the column at ``key_index``, without building
    row tuples.  Lazy partitions build their join-time column blocks with
    it; sources lacking it are read through ``fetch_rows`` instead.
``delta_start_row(token)`` + ``scan_batches(..., since_version=token)``
    Append-only delta scans for streaming ingestion.  ``delta_start_row``
    takes a prior ``cache_token`` and returns the global row position
    where the appended suffix starts **iff the source can prove** every
    row before it is unchanged since the token was taken (same uid, no
    non-append mutation in between); ``None`` means the delta cannot be
    proven and callers must fall back to invalidation.  Passing the token
    as ``since_version=`` to ``scan_batches`` then streams only that
    suffix, with batch offsets still in *global* row positions.  Use the
    module-level :func:`delta_start_row` helper rather than calling the
    method directly — it handles sources without the capability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.storage.column_batch import ColumnBatch
    from repro.storage.schema import Schema

#: A relation row: a plain tuple (fast, hashable).
Row = tuple[Any, ...]

#: Default number of rows per scanned batch.  Structures built through
#: ``scan_batches`` are independent of the batch size (partition contents,
#: signatures and bounds depend only on row order), so this is purely a
#: throughput/working-set knob.
DEFAULT_SCAN_BATCH = 8192


@runtime_checkable
class DataSource(Protocol):
    """Structural protocol every storage backend satisfies.

    Example::

        def total(source: DataSource) -> int:
            return sum(len(batch) for batch in source.scan_batches())

        total(Table.from_rows("R", ["a", "jkey"], [(1.0, "x")]))
        total(ColumnarFileSource("/data/r.col"))
    """

    name: str
    schema: "Schema"

    def __len__(self) -> int:
        """Number of rows in the relation."""
        ...

    def scan_batches(
        self,
        batch_size: int = DEFAULT_SCAN_BATCH,
        *,
        columns: Sequence[str] = (),
        key_column: str | None = None,
        with_rows: bool = True,
    ) -> Iterator["ColumnBatch"]:
        """Stream the relation as columnar batches in stable row order."""
        ...

    def iter_rows(self) -> Iterator[Row]:
        """Stream the relation's rows as plain tuples."""
        ...

    @property
    def rows(self) -> list[Row]:
        """All rows, materialised (a live list only for in-memory sources)."""
        ...

    @property
    def uid(self) -> Any:
        """Stable, never-reused source identity (hashable)."""
        ...

    @property
    def version(self) -> Any:
        """Content version; changes with every observable mutation."""
        ...

    @property
    def cache_token(self) -> tuple[Any, ...]:
        """``(uid, version, row_count)`` for partition-cache keying."""
        ...

    @property
    def kind(self) -> str:
        """Backend discriminator: ``"memory"`` or ``"columnar"``."""
        ...


def is_data_source(obj: object) -> bool:
    """Whether ``obj`` satisfies the :class:`DataSource` protocol.

    Structural check on the load-bearing members (``schema``,
    ``scan_batches``, ``cache_token``) rather than ``isinstance`` against
    the runtime protocol, which cannot see properties on slotted classes.
    """
    return (
        hasattr(obj, "schema")
        and hasattr(obj, "scan_batches")
        and hasattr(obj, "cache_token")
    )


def delta_start_row(source: "DataSource", token: tuple | None) -> "int | None":
    """Global row position where the append-only delta since ``token`` starts.

    ``token`` is a ``cache_token`` captured earlier from (a source sharing
    identity with) ``source``.  Returns the first row index of the suffix
    appended since then **iff the source proves** all rows before it are
    unchanged — same uid and no non-append mutation in between — so a
    consumer holding state built over ``rows[:start]`` may extend it with
    ``rows[start:]`` instead of rebuilding.  ``None`` (also for sources
    without the capability, or a ``None`` token) means the delta cannot be
    proven and the caller must fall back to full invalidation.

    Example::

        token = table.cache_token
        table.extend_rows(new_rows)
        delta_start_row(table, token)   # == row count at token time
        table.touch()                   # non-append mutation
        delta_start_row(table, table.cache_token)  # still fine (empty delta)
    """
    probe = getattr(source, "delta_start_row", None)
    if probe is None or token is None:
        return None
    start = probe(token)
    if start is None:
        return None
    start = int(start)
    if not 0 <= start <= len(source):
        return None
    return start


def rows_of(source: "DataSource") -> list[Row]:
    """All rows of ``source`` as one list.

    For in-memory sources this is the backing list itself (zero copy, and
    object identity is preserved — push-through's row-order bookkeeping
    relies on that); other backends materialise.  Callers that can stream
    should prefer ``source.iter_rows()``.
    """
    rows = getattr(source, "rows", None)
    if isinstance(rows, list):
        return rows
    return list(source.iter_rows())


def describe_source(source: "DataSource") -> str:
    """One-line human description of a source's backend (for CLI output)."""
    describe = getattr(source, "describe", None)
    if describe is not None:
        return str(describe())
    return str(getattr(source, "kind", type(source).__name__))
