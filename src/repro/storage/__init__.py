"""Storage substrate: data sources, schemas, grid partitioning and signatures.

Relations enter the system as :class:`~repro.storage.sources.base.DataSource`
implementations — in-memory (:class:`Table` / :class:`InMemorySource`) or
mmap-backed columnar files (:class:`ColumnarFileSource`) — both consumed
through one batch-scan protocol.
"""

from repro.storage.column_batch import ColumnBatch
from repro.storage.grid import GridPartitioner, InputGrid, project_rows
from repro.storage.partition import InputPartition
from repro.storage.quadtree import QuadTreeIndex, QuadTreePartitioner
from repro.storage.schema import Schema
from repro.storage.signatures import ExactSignature
from repro.storage.sources import (
    ColumnarFileSource,
    ColumnarWriter,
    DataSource,
    FilteredSource,
    InMemorySource,
    delta_start_row,
    describe_source,
    is_data_source,
    is_source_uri,
    open_source,
    rows_of,
    write_columnar,
)
from repro.storage.table import Row, Table

__all__ = [
    "ColumnBatch",
    "ColumnarFileSource",
    "ColumnarWriter",
    "DataSource",
    "ExactSignature",
    "FilteredSource",
    "GridPartitioner",
    "InMemorySource",
    "InputGrid",
    "InputPartition",
    "QuadTreeIndex",
    "QuadTreePartitioner",
    "Row",
    "Schema",
    "Table",
    "delta_start_row",
    "describe_source",
    "is_data_source",
    "is_source_uri",
    "open_source",
    "project_rows",
    "rows_of",
    "write_columnar",
]
