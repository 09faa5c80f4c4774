"""Pluggable storage backends behind the :class:`DataSource` batch-scan protocol.

The ProgXe engine consumes inputs exclusively through
``scan_batches()`` + (optionally) ``fetch_rows()``, so relations can live
in RAM (:class:`InMemorySource` / :class:`~repro.storage.table.Table`)
or in mmap-backed columnar files (:class:`ColumnarFileSource`).  See
:mod:`repro.storage.sources.base` for the protocol contract and
:func:`open_source` for the ``mem:`` / ``columnar:`` URI scheme.
"""

from repro.storage.sources.base import (
    DEFAULT_SCAN_BATCH,
    DataSource,
    Row,
    delta_start_row,
    describe_source,
    is_data_source,
    rows_of,
)
from repro.storage.sources.columnar import (
    ColumnarFileSource,
    ColumnarWriter,
    write_columnar,
)
from repro.storage.sources.filtered import FilteredSource
from repro.storage.sources.memory import InMemorySource
from repro.storage.sources.uri import SCHEMES, is_source_uri, open_source

__all__ = [
    "DEFAULT_SCAN_BATCH",
    "ColumnarFileSource",
    "ColumnarWriter",
    "DataSource",
    "FilteredSource",
    "InMemorySource",
    "Row",
    "SCHEMES",
    "delta_start_row",
    "describe_source",
    "is_data_source",
    "is_source_uri",
    "open_source",
    "rows_of",
    "write_columnar",
]
