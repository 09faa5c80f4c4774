"""The DataSource storage protocol: conformance + engine equivalence.

Three layers of guarantees:

* **Conformance** — every backend (in-memory, columnar-mmap, a columnar
  dataset another handle appended to, and the filtered view) satisfies
  the protocol surface: schema, ``len``,
  batch scans that reassemble to the same rows at any batch size,
  uncoerced join keys, stable/row-count-aware cache tokens, and
  mutation-visible version tokens.
* **Cache-key hygiene** — the same logical data in two different backends
  produces distinct :class:`PartitionKey` values; rewriting a columnar
  dataset (through another handle) misses the cache.
* **Engine equivalence** — ProgXe produces the *same step reports and
  result sequences* whichever backend holds the data, default and
  one-pair flushes, grid and quadtree (hypothesis property test).
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.plan_cache import PlanCache
from repro.cache.store import PartitionKey
from repro.core.engine import ProgXeEngine
from repro.data.workloads import SyntheticWorkload
from repro.errors import BindingError, SchemaError
from repro.query.parser import parse_query
from repro.query.smj import FilterCondition
from repro.runtime.clock import VirtualClock
from repro.session.service import Session
from repro.storage.grid import GridPartitioner
from repro.storage.quadtree import QuadTreePartitioner
from repro.storage.sources import (
    ColumnarFileSource,
    ColumnarWriter,
    FilteredSource,
    InMemorySource,
    delta_start_row,
    is_data_source,
    is_source_uri,
    open_source,
    rows_of,
    write_columnar,
)
from repro.storage.table import Table

from tests.conftest import FLUSH_IDS, FLUSH_SIZES, set_flush_pairs

ROWS = [
    ("r0", "J1", 4.0, 30.0),
    ("r1", "J2", 1.5, 12.0),
    ("r2", "J1", 9.25, 5.0),
    ("r3", "J3", 2.0, 44.5),
    ("r4", "J2", 7.75, 21.0),
]
COLUMNS = ["id", "jkey", "a0", "a1"]

BACKENDS = ["memory", "table", "columnar", "filtered-columnar", "columnar-appended"]


def make_source(backend: str, tmp_path, rows=ROWS, columns=COLUMNS, name="R"):
    """One logical relation in the requested backend."""
    if backend == "memory":
        return InMemorySource(name, columns, rows)
    if backend == "table":
        return Table.from_rows(name, columns, rows)
    if backend == "columnar":
        path = tmp_path / f"{name}-{backend}.col"
        write_columnar(path, rows, columns=columns, name=name)
        return ColumnarFileSource(path, name=name)
    if backend == "filtered-columnar":
        # A filter that keeps everything: same logical contents.
        base = make_source("columnar", tmp_path, rows, columns, name)
        return FilteredSource(base, [FilterCondition("R", "a0", ">=", -1e9)])
    if backend == "columnar-appended":
        # Written short; after this handle has read the short dataset,
        # another handle appends the rest and this one refreshes.
        path = tmp_path / f"{name}-{backend}.col"
        write_columnar(path, rows[:2], columns=columns, name=name)
        src = ColumnarFileSource(path, name=name)
        assert src.fetch_rows([0, 1]) == [tuple(r) for r in rows[:2]]
        ColumnarFileSource(path).append_rows(rows[2:])
        return src.refresh()
    raise AssertionError(backend)


@pytest.fixture(params=BACKENDS)
def source(request, tmp_path):
    return make_source(request.param, tmp_path)


class TestConformance:
    def test_is_data_source(self, source):
        assert is_data_source(source)
        assert not is_data_source(object())
        assert not is_data_source([1, 2, 3])

    def test_identity_surface(self, source):
        assert source.name == "R"
        assert list(source.schema.columns) == COLUMNS
        assert len(source) == len(ROWS)
        assert isinstance(source.kind, str) and source.kind

    def test_rows_roundtrip(self, source):
        assert [tuple(r) for r in source.iter_rows()] == ROWS
        assert rows_of(source) == ROWS

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 100])
    def test_scan_batches_reassemble(self, source, batch_size):
        rows = []
        for batch in source.scan_batches(batch_size):
            assert len(batch.rows) == len(batch)
            rows.extend(batch.rows)
        assert rows == ROWS

    def test_scan_materialises_requested_columns(self, source):
        batches = list(
            source.scan_batches(2, columns=["a0", "a1"], key_column="jkey")
        )
        a0 = np.concatenate([b.column(2) for b in batches])
        a1 = np.concatenate([b.column(3) for b in batches])
        keys = [k for b in batches for k in b.join_keys]
        assert a0.tolist() == [r[2] for r in ROWS]
        assert a1.tolist() == [r[3] for r in ROWS]
        assert keys == [r[1] for r in ROWS]  # uncoerced strings

    def test_global_ids_cover_the_relation(self, source):
        ids = np.concatenate(
            [b.global_ids() for b in source.scan_batches(2)]
        )
        assert sorted(ids.tolist()) == list(range(len(ROWS)))

    def test_cache_token_is_stable(self, source):
        assert source.cache_token == source.cache_token
        uid, version, count = source.cache_token
        assert count == len(ROWS)
        assert source.uid == uid and source.version == version

    def test_touch_changes_version(self, source):
        if not hasattr(source, "touch"):
            pytest.skip("filtered view: version follows the base source")
        before = source.cache_token
        source.touch()
        assert source.cache_token != before

    def test_distinct_instances_distinct_uids(self, source, tmp_path):
        other = InMemorySource("R", COLUMNS, ROWS)
        assert other.uid != source.uid or other is source


class TestMutationVisibility:
    def test_memory_append_bumps_version(self):
        src = InMemorySource("R", COLUMNS, ROWS)
        before = src.cache_token
        src.append_row(("r5", "J4", 1.0, 1.0))
        assert src.cache_token != before

    def test_columnar_other_handle_append_bumps_version(self, tmp_path):
        src = make_source("columnar", tmp_path)
        before = src.cache_token
        ColumnarFileSource(src.path).append_rows([("r9", "J9", 3.0, 3.0)])
        assert src.cache_token != before

    def test_columnar_rewrite_bumps_version(self, tmp_path):
        path = tmp_path / "rw.col"
        write_columnar(path, ROWS, columns=COLUMNS, name="R")
        src = ColumnarFileSource(path)
        before = src.cache_token
        extended = ROWS + [("r5", "J4", 0.5, 0.5)]
        write_columnar(path, extended, columns=COLUMNS, name="R")
        after = ColumnarFileSource(path)
        assert after.cache_token != before

    def test_filtered_version_follows_base(self):
        base = InMemorySource("R", COLUMNS, ROWS)
        view = FilteredSource(base, [FilterCondition("R", "a0", ">=", 2.0)])
        before = view.cache_token
        base.touch()
        assert view.cache_token != before


class TestExtendRowsRegression:
    """Empty mutations must not invalidate cached partitionings."""

    def test_extend_rows_empty_keeps_version(self):
        t = Table.from_rows("R", COLUMNS, ROWS)
        version = t.version
        t.extend_rows([])
        t.extend_rows(iter(()))
        assert t.version == version
        t.extend_rows([("r5", "J4", 2.0, 2.0)])
        assert t.version == version + 1

    def test_empty_extend_does_not_miss_partition_cache(self):
        t = Table.from_rows("R", COLUMNS, ROWS)
        cache = PlanCache()
        partitioner = GridPartitioner(2)
        _, outcome, _ = cache.get_or_partition_outcome(
            partitioner, t, ("a0", "a1"), "jkey", source="R"
        )
        assert outcome == "miss"
        t.extend_rows([])  # no-op: version must not change
        _, outcome, _ = cache.get_or_partition_outcome(
            partitioner, t, ("a0", "a1"), "jkey", source="R"
        )
        assert outcome == "hit"

    def test_failed_extend_keeps_version(self):
        t = Table.from_rows("R", COLUMNS, ROWS)
        version = t.version
        with pytest.raises(SchemaError):
            t.extend_rows([("r5", "J4", 2.0, 2.0), ("bad",)])
        assert t.version == version and len(t) == len(ROWS)


class TestCacheKeyHygiene:
    def test_same_data_different_backends_distinct_keys(self, tmp_path):
        descriptor = GridPartitioner(4).descriptor()
        keys = {}
        for backend in ["memory", "columnar", "filtered-columnar"]:
            src = make_source(backend, tmp_path)
            keys[backend] = PartitionKey.for_source(
                src, ("a0", "a1"), "jkey", descriptor, source="R"
            )
        assert len(set(keys.values())) == 3
        assert {k.backend for k in keys.values()} == {
            "memory", "columnar", "columnar+filter",
        }

    def test_for_table_alias_still_works(self):
        t = Table.from_rows("R", COLUMNS, ROWS)
        d = GridPartitioner(4).descriptor()
        assert PartitionKey.for_table(t, ("a0",), "jkey", d) == \
            PartitionKey.for_source(t, ("a0",), "jkey", d)

    def test_backend_cache_entries_do_not_cross(self, tmp_path):
        cache = PlanCache()
        partitioner = GridPartitioner(4)
        for backend in ["memory", "columnar", "filtered-columnar"]:
            src = make_source(backend, tmp_path)
            _, outcome, _ = cache.get_or_partition_outcome(
                partitioner, src, ("a0", "a1"), "jkey", source="R"
            )
            assert outcome == "miss", backend
        assert cache.stats().misses == 3 and cache.stats().hits == 0

    def test_two_handles_share_entries_until_mutation(self, tmp_path):
        a = make_source("columnar", tmp_path)
        b = ColumnarFileSource(a.path)
        cache = PlanCache()
        partitioner = GridPartitioner(4)
        _, outcome, _ = cache.get_or_partition_outcome(
            partitioner, a, ("a0",), "jkey", source="R"
        )
        assert outcome == "miss"
        _, outcome, _ = cache.get_or_partition_outcome(
            partitioner, b, ("a0",), "jkey", source="R"
        )
        assert outcome == "hit"  # same uid + same version: sharing across handles
        write_columnar(a.path, ROWS[:3], columns=COLUMNS, name="R")  # rewrite
        _, outcome, _ = cache.get_or_partition_outcome(
            partitioner, b.refresh(), ("a0",), "jkey", source="R"
        )
        assert outcome == "miss"  # b's file-stat version saw the shrunken files


class TestLazyPartitions:
    def test_columnar_partitions_store_ids_not_rows(self, tmp_path):
        src = make_source("columnar", tmp_path)
        grid = GridPartitioner(2).partition(src, ("a0", "a1"), "jkey", source="R")
        for part in grid:
            assert part.is_lazy
            assert part.rows == src.fetch_rows(part._row_ids)
        assert grid.total_rows() == len(ROWS)

    def test_quadtree_lazy_leaves(self, tmp_path):
        src = make_source("columnar", tmp_path)
        index = QuadTreePartitioner(leaf_capacity=2).partition(
            src, ("a0", "a1"), "jkey", source="R"
        )
        assert index.total_rows() == len(ROWS)
        assert all(p.is_lazy for p in index if len(p))

    def test_column_blocks_agree_across_backends(self, tmp_path, monkeypatch):
        """Eager blocks (captured by the scan) == lazy blocks (gathered by
        id on first use) == blocks rebuilt from row tuples."""
        mem = make_source("memory", tmp_path)
        col = make_source("columnar", tmp_path)
        for partitioner in (GridPartitioner(2), QuadTreePartitioner(2)):
            g_mem = partitioner.partition(mem, ("a0", "a1"), "jkey", source="R")
            g_col = partitioner.partition(col, ("a0", "a1"), "jkey", source="R")
            assert all(p._block is None for p in g_col)  # nothing at plan time
            with monkeypatch.context() as m:
                m.setattr(
                    ColumnarFileSource, "fetch_rows",
                    lambda *a: pytest.fail("lazy block pulled row tuples"),
                )
                for pm, pc in zip(g_mem, g_col):
                    bm, bc = pm.column_block((2, 3), 1), pc.column_block((2, 3), 1)
                    assert bm.matrix.tolist() == bc.matrix.tolist()
                    assert bm.keys == bc.keys
                    assert bm.matrix.tolist() == [list(r[2:]) for r in pm.rows]
                    assert bm.keys == [r[1] for r in pm.rows]
                    assert pc.column_block((2, 3), 1) is bc  # cached
                    positions = bm.key_positions()
                    assert {k: v.tolist() for k, v in positions.items()} == {
                        k: [i for i, r in enumerate(pm.rows) if r[1] == k]
                        for k in set(bm.keys)
                    }
            part = next(iter(g_mem))
            captured = part.column_block((2, 3), 1)
            part.rows.append(("r9", "J9", 1.0, 2.0))  # live list mutation
            rebuilt = part.column_block((2, 3), 1)
            assert rebuilt is not captured and rebuilt.keys[-1] == "J9"
            part.rows.pop()

    def test_delta_partitions_carry_blocks(self):
        for partitioner in (GridPartitioner(2), QuadTreePartitioner(2)):
            table = Table.from_rows("R", COLUMNS, ROWS[:3])
            structure = partitioner.partition(table, ("a0", "a1"), "jkey")
            token = table.cache_token
            table.extend_rows(ROWS[3:])
            created = partitioner.partition_delta(
                structure, table, ("a0", "a1"), "jkey", since_token=token
            )
            assert sum(len(p) for p in created) == 2
            for part in created:
                assert part._block is not None
                assert part._block.matrix.tolist() == [list(r[2:]) for r in part.rows]

    def test_structures_match_memory_build(self, tmp_path):
        mem = make_source("memory", tmp_path)
        col = make_source("columnar", tmp_path)
        for partitioner in (GridPartitioner(3), QuadTreePartitioner(2)):
            g_mem = partitioner.partition(mem, ("a0", "a1"), "jkey", source="R")
            g_col = partitioner.partition(col, ("a0", "a1"), "jkey", source="R")
            mem_parts = list(g_mem)
            col_parts = list(g_col)
            assert [p.coords for p in mem_parts] == [p.coords for p in col_parts]
            for pm, pc in zip(mem_parts, col_parts):
                assert pm.rows == pc.rows
                assert pm.tight_lower == pc.tight_lower
                assert pm.tight_upper == pc.tight_upper


FILTER_SQL = (
    "SELECT R.id, T.id, (R.a0 + T.a0) AS x0, (R.a1 + T.a1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey PREFERRING LOWEST(x0) AND LOWEST(x1)"
)

#: One condition per filter operator; each keeps a non-empty part of ROWS.
OPERATOR_CASES = {
    "eq": ("a0", "=", 2.0),
    "ne": ("a0", "!=", 2.0),
    "lt": ("a0", "<", 4.0),
    "le": ("a0", "<=", 4.0),
    "gt": ("a0", ">", 4.0),
    "ge": ("a0", ">=", 4.0),
    "in": ("jkey", "in", ("J1", "J3")),
    "contains": ("id", "contains", "1"),
}


def filtered_query(attribute, op, literal):
    return dataclasses.replace(
        parse_query(FILTER_SQL),
        filters=(FilterCondition("R", attribute, op, literal),),
    )


class TestBoundFilters:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_only_in_memory_sources_filter_eagerly(self, backend, tmp_path):
        """One filter path: in-memory sources filter at bind time, every
        other source is wrapped in the streamed ``FilteredSource``."""
        source = make_source(backend, tmp_path)
        bound = filtered_query("a0", ">=", 3.0).bind(
            {"R": source, "T": make_source("memory", tmp_path, name="T")}
        )
        eager = isinstance(source, InMemorySource)
        assert isinstance(bound.left_table, FilteredSource) is not eager
        if not eager:
            assert bound.left_table.base is source
        assert rows_of(bound.left_table) == [r for r in ROWS if r[2] >= 3.0]

    @pytest.mark.parametrize(
        "condition", OPERATOR_CASES.values(), ids=OPERATOR_CASES.keys()
    )
    def test_each_operator_streams_as_it_filters_eagerly(self, condition, tmp_path):
        """The streamed filter keeps the rows, in the order, and yields the
        results the eager in-memory filter does."""
        attribute, op, literal = condition
        query = filtered_query(attribute, op, literal)
        runs = []
        for backend in ("memory", "columnar"):
            bound = query.bind({
                "R": make_source(backend, tmp_path),
                "T": make_source(backend, tmp_path, name="T"),
            })
            results = ProgXeEngine(bound, VirtualClock()).run()
            runs.append((rows_of(bound.left_table), [r.key() for r in results]))
        (eager_rows, eager_keys), (streamed_rows, streamed_keys) = runs
        index = COLUMNS.index(attribute)
        kept = FilterCondition("R", attribute, op, literal)
        assert eager_rows == [r for r in ROWS if kept.matches(r[index])]
        assert streamed_rows == eager_rows
        assert streamed_keys == eager_keys and eager_keys

    def test_bound_query_streams_filters_over_columnar(self, tmp_path):
        workload = SyntheticWorkload(n=60, d=2, seed=5)
        tables = workload.tables()
        srcs = {}
        for alias, table in tables.items():
            write_columnar(tmp_path / f"{alias}.col", table)
            srcs[alias] = ColumnarFileSource(tmp_path / f"{alias}.col", name=alias)
        query = dataclasses.replace(
            workload.query(), filters=(FilterCondition("R", "a0", "<=", 50.0),)
        )
        bound = query.bind(srcs)
        assert isinstance(bound.left_table, FilteredSource)
        assert bound.left_table.base is srcs["R"]
        assert bound.right_table is srcs["T"]
        assert len(bound.left_table) == sum(
            1 for r in tables["R"].rows if r[2] <= 50.0
        )


class TestFilteredSource:
    def test_streaming_filter_semantics(self, tmp_path):
        base = make_source("columnar", tmp_path)
        view = FilteredSource(base, [FilterCondition("R", "a0", ">=", 3.0)])
        assert len(view) == 3
        assert [r[0] for r in view.iter_rows()] == ["r0", "r2", "r4"]
        batch_rows = [r for b in view.scan_batches(2) for r in b.rows]
        assert [r[0] for r in batch_rows] == ["r0", "r2", "r4"]

    def test_row_ids_refer_to_base(self, tmp_path):
        base = make_source("columnar", tmp_path)
        view = FilteredSource(base, [FilterCondition("R", "a0", ">=", 3.0)])
        ids = np.concatenate([b.global_ids() for b in view.scan_batches(2)])
        assert ids.tolist() == [0, 2, 4]
        assert view.fetch_rows(ids) == [ROWS[0], ROWS[2], ROWS[4]]

    def test_grid_over_filtered_columnar_is_lazy(self, tmp_path):
        base = make_source("columnar", tmp_path)
        view = FilteredSource(base, [FilterCondition("R", "a0", ">=", 2.0)])
        grid = GridPartitioner(2).partition(view, ("a0",), "jkey", source="R")
        assert grid.total_rows() == 4
        assert all(p.is_lazy for p in grid)


class TestBindEmptinessCheck:
    """Binding asks each side "any row at all?" — it must not pay for a
    default-size batch of row tuples to find out."""

    @staticmethod
    def spied(monkeypatch):
        calls = []
        original = ColumnarFileSource.scan_batches

        def spy(source, batch_size=8192, **kwargs):
            call = {"batch_size": batch_size, "rows": 0, **kwargs}
            calls.append(call)
            for batch in original(source, batch_size, **kwargs):
                call["rows"] += len(batch)
                yield batch

        monkeypatch.setattr(ColumnarFileSource, "scan_batches", spy)
        return calls

    def workload_sources(self, tmp_path):
        workload = SyntheticWorkload(n=60, d=2, sigma=0.1, seed=4)
        sources = {}
        for alias, table in workload.tables().items():
            write_columnar(tmp_path / f"{alias}.col", table)
            sources[alias] = ColumnarFileSource(tmp_path / f"{alias}.col", name=alias)
        return workload, sources

    def test_columnar_bind_scans_one_row_without_tuples(self, tmp_path, monkeypatch):
        workload, sources = self.workload_sources(tmp_path)
        calls = self.spied(monkeypatch)
        workload.query().bind(sources)
        assert len(calls) == 2  # one peek per side, nothing else
        for call in calls:
            assert call["rows"] <= 1
            assert call["with_rows"] is False

    def test_filtered_bind_stops_at_the_first_match(self, tmp_path, monkeypatch):
        workload, sources = self.workload_sources(tmp_path)
        query = dataclasses.replace(
            workload.query(), filters=(FilterCondition("R", "a0", ">=", 0.0),)
        )
        asked = []
        original = FilteredSource.scan_batches

        def spy_view(view, batch_size=8192, **kwargs):
            asked.append(kwargs.get("with_rows"))
            return original(view, batch_size, **kwargs)

        monkeypatch.setattr(FilteredSource, "scan_batches", spy_view)
        calls = self.spied(monkeypatch)
        bound = query.bind(sources)
        assert isinstance(bound.left_table, FilteredSource)
        assert asked == [False]
        # The view needs the row to test its predicate, but only one.
        assert [call["rows"] for call in calls] == [1, 1]

    def test_empty_after_filter_still_raises(self, tmp_path):
        workload, sources = self.workload_sources(tmp_path)
        query = dataclasses.replace(
            workload.query(), filters=(FilterCondition("T", "b0", ">", 1e9),)
        )
        with pytest.raises(BindingError, match="no rows after filters"):
            query.bind(sources)
        with pytest.raises(BindingError, match="no rows after filters"):
            query.bind({a: Table(a, s.schema, s.iter_rows()) for a, s in sources.items()})


class TestColumnarFormat:
    def test_writer_roundtrip_types(self, tmp_path):
        path = tmp_path / "types.col"
        rows = [("x", 1, 2.5), ("y", 2, -3.25)]
        write_columnar(path, rows, columns=["s", "i", "f"], name="X")
        src = ColumnarFileSource(path)
        assert src.kinds == ("utf8", "f8", "f8")
        assert rows_of(src) == [("x", 1.0, 2.5), ("y", 2.0, -3.25)]

    def test_writer_streams_many_buffers(self, tmp_path):
        path = tmp_path / "big.col"
        n = 20_000  # spans multiple flush buffers
        with ColumnarWriter(path, ["i", "v"], name="B") as w:
            for i in range(n):
                w.write_row((float(i), i * 0.5))
        src = ColumnarFileSource(path)
        assert len(src) == n
        total = sum(batch.column(1).sum() for batch in
                    src.scan_batches(4096, columns=["v"], with_rows=False))
        assert total == pytest.approx(sum(i * 0.5 for i in range(n)))

    def test_fetch_rows_random_access(self, tmp_path):
        src = make_source("columnar", tmp_path)
        assert src.fetch_rows([3, 0]) == [ROWS[3], ROWS[0]]
        assert src.fetch_rows(np.asarray([], dtype=int)) == []

    STRINGS = ["", "ascii", "naïve", "日本語", "", "🙂 emoji", "tail"]

    def string_source(self, tmp_path):
        path = tmp_path / "strings.col"
        rows = [(s, float(i)) for i, s in enumerate(self.STRINGS)]
        write_columnar(path, rows, columns=["s", "v"], name="S")
        return ColumnarFileSource(path)

    @pytest.mark.parametrize(
        "ids",
        [[0], [6, 0, 3], [2, 2, 2], [4, 0], [5, 1, 5, 0, 6], list(range(7)), []],
        ids=["id0", "unsorted", "repeated", "empty-strings", "mixed", "all", "none"],
    )
    def test_string_gather_roundtrip(self, tmp_path, ids):
        src = self.string_source(tmp_path)
        got = src.fetch_rows(np.asarray(ids, dtype=np.int64))
        assert got == [(self.STRINGS[i], float(i)) for i in ids]

    def test_string_gather_after_append_and_refresh(self, tmp_path):
        src = self.string_source(tmp_path)
        other = ColumnarFileSource(src.path)
        src.append_rows([("später", 7.0), ("", 8.0)])
        assert src.fetch_rows([7, 0, 8, 2]) == [
            ("später", 7.0), ("", 0.0), ("", 8.0), ("naïve", 2.0),
        ]
        assert other.refresh().fetch_rows([8, 7]) == [("", 8.0), ("später", 7.0)]

    def test_sparse_string_gather_skips_the_covering_slice(self, tmp_path, monkeypatch):
        """Two distant rows must not copy the whole blob between them."""
        from repro.storage.sources import columnar

        monkeypatch.setattr(columnar, "_DENSE_SLACK_BYTES", 0)
        path = tmp_path / "wide.col"
        rows = [(f"value-{i:04d}", float(i)) for i in range(400)]
        write_columnar(path, rows, columns=["s", "v"], name="W")
        src = ColumnarFileSource(path)
        assert src.fetch_rows([399, 0]) == [rows[399], rows[0]]
        assert src.fetch_rows([10, 11, 12]) == rows[10:13]

    def test_fetch_columns_gathers_without_rows(self, tmp_path, monkeypatch):
        src = make_source("columnar", tmp_path)
        monkeypatch.setattr(
            ColumnarFileSource, "fetch_rows",
            lambda *a: pytest.fail("column gather must not build row tuples"),
        )
        matrix, keys = src.fetch_columns(np.asarray([3, 0, 3]), (3, 2), 1)
        assert matrix.tolist() == [[44.5, 2.0], [30.0, 4.0], [44.5, 2.0]]
        assert keys == ["J3", "J1", "J3"]
        view = FilteredSource(src, [FilterCondition("R", "a0", ">=", 3.0)])
        assert view.fetch_columns([4], (2,), 0)[1] == ["r4"]
        with pytest.raises(SchemaError):
            src.fetch_columns([0], (0,), 1)

    def test_row_width_validation(self, tmp_path):
        with ColumnarWriter(tmp_path / "w.col", ["a", "b"]) as w:
            with pytest.raises(SchemaError):
                w.write_row((1.0,))

    def test_missing_dataset_raises(self, tmp_path):
        with pytest.raises(SchemaError):
            ColumnarFileSource(tmp_path / "nope.col")

    def test_utf8_column_rejects_float_scan(self, tmp_path):
        src = make_source("columnar", tmp_path)
        with pytest.raises(SchemaError):
            list(src.scan_batches(columns=["id"]))


class TestSourceURIs:
    def test_is_source_uri(self):
        assert is_source_uri("columnar:/x")
        assert is_source_uri("mem:rows.csv")
        assert not is_source_uri("sqlite:db?table=t")
        assert not is_source_uri("/plain/path.csv")
        assert not is_source_uri("http://example.com")

    def test_open_columnar(self, tmp_path):
        path = tmp_path / "u.col"
        write_columnar(path, ROWS, columns=COLUMNS, name="R")
        src = open_source(f"columnar:{path}", name="L")
        assert isinstance(src, ColumnarFileSource) and src.name == "L"

    def test_open_mem_csv(self, tmp_path):
        t = Table.from_rows("R", COLUMNS, ROWS)
        csv_path = tmp_path / "r.csv"
        t.to_csv(csv_path)
        src = open_source(f"mem:{csv_path}", name="R")
        assert isinstance(src, Table) and len(src) == len(ROWS)

    def test_bad_uris(self, tmp_path):
        for uri in ["nope:x", "mem:", "columnar:"]:
            with pytest.raises(BindingError):
                open_source(uri)
        with pytest.raises(BindingError, match=r"mem:\.\.\., columnar:\.\.\."):
            open_source("sqlite:db?table=R")

    def test_session_open_source_registers(self, tmp_path):
        path = tmp_path / "s.col"
        write_columnar(path, ROWS, columns=COLUMNS, name="R")
        session = Session()
        src = session.open_source(f"columnar:{path}", name="R")
        assert session.table("R") is src


# ----------------------------------------------------------------------
# engine / scheduler equivalence across backends
# ----------------------------------------------------------------------

def _workload_sources(backend: str, tmp_path, n: int, seed: int, d: int = 2):
    workload = SyntheticWorkload(n=n, d=d, sigma=0.05, seed=seed)
    tables = workload.tables()
    if backend == "memory":
        return workload, tables
    sources = {}
    for alias, t in tables.items():
        path = tmp_path / f"{alias}-{backend}-{seed}-{n}.col"
        if backend == "columnar":
            write_columnar(path, t)
            sources[alias] = ColumnarFileSource(path, name=alias)
            continue
        assert backend == "columnar-appended", backend
        # Half written, the rest appended through a second handle.
        rows = list(t.rows)
        half = len(rows) // 2
        write_columnar(path, rows[:half], columns=list(t.schema.columns), name=alias)
        sources[alias] = ColumnarFileSource(path, name=alias)
        ColumnarFileSource(path).append_rows(rows[half:])
        sources[alias].refresh()
    return workload, sources


def _step_trace(bound, **engine_kwargs):
    """(step summaries, result-key sequence) of a full kernel drive."""
    kernel = ProgXeEngine(bound, VirtualClock(), **engine_kwargs).kernel()
    steps = []
    keys = []
    while not kernel.finished:
        report = kernel.step()
        steps.append(
            (report.kind, report.region_id, round(report.vtime_delta, 6),
             tuple(sorted(report.charges.items())))
        )
        keys.extend(r.key() for r in report.results)
    return steps, keys


@pytest.mark.parametrize("backend", ["columnar", "columnar-appended"])
@pytest.mark.parametrize("flush_pairs", FLUSH_SIZES, ids=FLUSH_IDS)
def test_engine_step_reports_match_memory(
    backend, flush_pairs, tmp_path, monkeypatch
):
    set_flush_pairs(monkeypatch, flush_pairs)
    workload, mem_tables = _workload_sources("memory", tmp_path, 150, 11)
    _, other = _workload_sources(backend, tmp_path, 150, 11)
    mem_steps, mem_keys = _step_trace(workload.query().bind(mem_tables))
    other_steps, other_keys = _step_trace(workload.query().bind(other))
    assert other_keys == mem_keys
    assert other_steps == mem_steps


@settings(max_examples=8, deadline=None)
@given(
    partitioning=st.sampled_from(["grid", "quadtree"]),
    seed=st.integers(0, 3),
)
def test_property_backend_equivalence(partitioning, seed, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("prop")
    workload, mem_tables = _workload_sources("memory", tmp_path, 80, seed)
    _, other = _workload_sources("columnar", tmp_path, 80, seed)
    mem_steps, mem_keys = _step_trace(
        workload.query().bind(mem_tables), partitioning=partitioning
    )
    other_steps, other_keys = _step_trace(
        workload.query().bind(other), partitioning=partitioning
    )
    assert other_keys == mem_keys
    assert other_steps == mem_steps


@pytest.mark.parametrize("backend", ["columnar", "columnar-appended"])
def test_scheduler_equivalence_across_backends(backend, tmp_path):
    workload, mem_tables = _workload_sources("memory", tmp_path, 120, 23)
    _, other = _workload_sources(backend, tmp_path, 120, 23)

    def interleaved_keys(tables):
        session = Session()
        scheduler = session.scheduler()
        bound_a = workload.query().bind(tables)
        bound_b = workload.query().bind(tables)
        qa = scheduler.submit(bound_a, name="a")
        qb = scheduler.submit(bound_b, name="b")
        for _ in scheduler.run():
            pass
        return ([r.key() for r in qa.results], [r.key() for r in qb.results])

    assert interleaved_keys(other) == interleaved_keys(mem_tables)


def test_pushthrough_variant_works_on_any_backend(tmp_path):
    workload, mem_tables = _workload_sources("memory", tmp_path, 120, 31)
    _, other = _workload_sources("columnar", tmp_path, 120, 31)
    mem = Session().run(workload.query().bind(mem_tables), algorithm="ProgXe+")
    got = Session().run(workload.query().bind(other), algorithm="ProgXe+")
    assert [r.key() for r in got.results] == [r.key() for r in mem.results]


def test_baselines_accept_any_backend(tmp_path):
    workload, mem_tables = _workload_sources("memory", tmp_path, 90, 37)
    _, columnar = _workload_sources("columnar", tmp_path, 90, 37)
    mem_report = Session().compare(
        workload.query().bind(mem_tables), ["JF-SL", "SSMJ", "SAJ"]
    )
    col_report = Session().compare(
        workload.query().bind(columnar), ["JF-SL", "SSMJ", "SAJ"]
    )
    for name in ["JF-SL", "SSMJ", "SAJ"]:
        # Full sequences, not sets: a backend must change neither the
        # result membership nor emission order/multiplicity (SSMJ's
        # LS(N)∖LS(S) split keys on row identity and once emitted
        # duplicates when each pass re-materialised a non-resident source).
        assert (
            [r.key() for r in col_report.runs[name].results]
            == [r.key() for r in mem_report.runs[name].results]
        )


def test_compare_plans_each_contender_privately(tmp_path):
    """compare() must not let later algorithms inherit phase-1 work."""
    workload, tables = _workload_sources("memory", tmp_path, 100, 41)
    session = Session().register_tables(tables)
    bound = workload.query().bind(tables)
    report = session.compare(bound, ["ProgXe", "ProgXe+"])
    stats = session.plan_cache.stats()
    assert stats.lookups == 0, "compare() touched the shared partition cache"
    # Same query through execute() still shares (the default is unchanged).
    session.execute(bound).drain()
    rebound = workload.query().bind(tables)
    session.execute(rebound).drain()
    assert session.plan_cache.stats().hits >= 2
    assert len(report.runs) == 2


def test_filtered_in_memory_bind_reuses_cache_entries(tmp_path):
    """Re-binding the same filtered query hits the partition cache.

    Bind-time filtered tables adopt a structural (base uid + conditions)
    identity; a fresh uid per bind could never hit again and would only
    crowd the bounded store.
    """
    workload, tables = _workload_sources("memory", tmp_path, 100, 43)
    session = Session().register_tables(tables)
    filtered = dataclasses.replace(
        workload.query(), filters=(FilterCondition("R", "a0", "<=", 80.0),)
    )
    session.execute(filtered.bind(tables)).drain()   # cold: misses
    stream = session.execute(filtered.bind(tables))  # fresh bind, same filter
    stream.drain()
    assert stream.stats().partition_cache.get("partition_hits") == 2
    # Mutating the base table invalidates the derived identity too.
    tables["R"].touch()
    stream = session.execute(filtered.bind(tables))
    stream.drain()
    assert stream.stats().partition_cache.get("partition_hits", 0) < 2


def test_ssmj_emits_no_duplicates_on_columnar(tmp_path):
    from repro.core.verify import verify_results

    workload, columnar = _workload_sources("columnar", tmp_path, 120, 7)
    bound = workload.query().bind(columnar)
    results = Session().execute(bound, algorithm="SSMJ").drain()
    report = verify_results(bound, results)
    assert report.ok, report.render()


def test_cli_source_flags(tmp_path, capsys):
    from repro.cli import main

    prefix = os.path.join(tmp_path, "w")
    assert main(["generate", "-n", "80", "--format", "columnar",
                 "--prefix", prefix]) == 0
    assert main(["generate", "-n", "80", "--prefix", prefix]) == 0
    with pytest.raises(SystemExit) as refused:
        main(["generate", "-n", "80", "--format", "sqlite", "--prefix", prefix])
    assert refused.value.code == 2
    capsys.readouterr()
    assert main(["run", "-n", "80",
                 "--source", f"R=columnar:{prefix}_R.col",
                 "--source", f"T=mem:{prefix}_T.csv"]) == 0
    out = capsys.readouterr().out
    assert "columnar(mmap:" in out and "memory(" in out
    assert main(["compare", "-n", "80", "-a", "ProgXe,SSMJ",
                 "--source", f"R=columnar:{prefix}_R.col",
                 "--source", f"T=columnar:{prefix}_T.col"]) == 0
    out = capsys.readouterr().out
    assert out.count("columnar(mmap:") == 2  # one line for both aliases
    with pytest.raises(SystemExit):
        main(["run", "-n", "80", "--source", "X=columnar:nope"])


# ----------------------------------------------------------------------
# delta-scan conformance: the streaming-ingestion contract
# ----------------------------------------------------------------------
NEW_ROWS_A = [("r5", "J3", 3.5, 18.0), ("r6", "J1", 6.0, 9.5)]
NEW_ROWS_B = [("r7", "J2", 0.75, 27.0)]

#: Backends with the append-only delta capability (``delta_start_row`` +
#: ``scan_batches(since_version=...)``).  ``columnar-appended`` appends
#: through a second handle and refreshes the one under test.
DELTA_BACKENDS = ["memory", "table", "columnar", "columnar-appended"]


def make_delta_source(backend: str, tmp_path):
    """``(source, append, mutate)`` for the delta conformance suite.

    ``append`` adds rows through the backend's own append path; ``mutate``
    performs a non-append (in-place) mutation.
    """
    if backend in ("memory", "table"):
        src = make_source(backend, tmp_path)
        return src, src.extend_rows, src.touch
    if backend == "columnar":
        src = make_source(backend, tmp_path)
        return src, src.append_rows, src.touch
    if backend == "columnar-appended":
        src = make_source("columnar", tmp_path)
        writer = ColumnarFileSource(src.path)

        def append(rows):
            writer.append_rows(rows)
            src.refresh()

        return src, append, src.touch
    raise AssertionError(backend)


def delta_rows_and_spans(src, token, batch_size=2):
    """Rows + ``(offset, length)`` spans of a ``since_version`` scan."""
    rows, spans = [], []
    for batch in src.scan_batches(batch_size, since_version=token):
        rows.extend(tuple(r) for r in batch.rows)
        spans.append((batch.offset, len(batch.rows)))
    return rows, spans


@pytest.mark.parametrize("backend", DELTA_BACKENDS)
class TestDeltaScanConformance:
    """Every delta-capable backend satisfies the same since_version contract."""

    def test_empty_delta_is_a_noop(self, backend, tmp_path):
        src, _, _ = make_delta_source(backend, tmp_path)
        token = src.cache_token
        assert delta_start_row(src, token) == len(src)
        assert list(src.scan_batches(since_version=token)) == []

    def test_deltas_compose(self, backend, tmp_path):
        """since token0 == A+B; since token1 == B; offsets stay global."""
        src, append, _ = make_delta_source(backend, tmp_path)
        base = len(src)
        token0 = src.cache_token
        append(NEW_ROWS_A)
        token1 = src.cache_token
        append(NEW_ROWS_B)

        assert delta_start_row(src, token0) == base
        assert delta_start_row(src, token1) == base + len(NEW_ROWS_A)

        rows0, spans0 = delta_rows_and_spans(src, token0)
        assert rows0 == NEW_ROWS_A + NEW_ROWS_B
        rows1, spans1 = delta_rows_and_spans(src, token1)
        assert rows1 == NEW_ROWS_B

        # Batch offsets are global row positions, contiguous from the
        # delta start — a consumer can extend prefix state in place.
        for spans, start in ((spans0, base), (spans1, base + len(NEW_ROWS_A))):
            position = start
            for offset, length in spans:
                assert offset == position
                position += length
            assert position == len(src)

    def test_version_tokens_are_monotone(self, backend, tmp_path):
        """Each append yields a fresh token, row counts strictly grow, and
        every earlier token still proves its delta from the latest state."""
        src, append, _ = make_delta_source(backend, tmp_path)
        tokens = [src.cache_token]
        append(NEW_ROWS_A)
        tokens.append(src.cache_token)
        append(NEW_ROWS_B)
        tokens.append(src.cache_token)

        counts = [t[2] for t in tokens]
        assert counts == [len(ROWS), len(ROWS) + 2, len(ROWS) + 3]
        assert len(set(tokens)) == len(tokens)
        assert all(t[0] == tokens[0][0] for t in tokens)  # stable uid
        for token, count in zip(tokens, counts):
            assert delta_start_row(src, token) == count

    def test_empty_append_changes_nothing(self, backend, tmp_path):
        src, append, _ = make_delta_source(backend, tmp_path)
        token = src.cache_token
        append([])
        assert src.cache_token == token
        assert delta_start_row(src, token) == len(src)

    def test_foreign_token_is_rejected(self, backend, tmp_path):
        """A token from a different source identity can never prove a delta."""
        src, _, _ = make_delta_source(backend, tmp_path)
        other = Table.from_rows("R", COLUMNS, ROWS)
        assert delta_start_row(src, other.cache_token) is None
        assert delta_start_row(src, None) is None


class TestDeltaFallback:
    """Non-append mutations must fall back to full invalidation."""

    @pytest.mark.parametrize("backend", DELTA_BACKENDS)
    def test_non_append_mutation_breaks_the_proof(self, backend, tmp_path):
        src, append, mutate = make_delta_source(backend, tmp_path)
        token = src.cache_token
        append(NEW_ROWS_A)
        assert delta_start_row(src, token) == len(ROWS)
        mutate()  # in-place mutation: the prefix is no longer trusted
        assert delta_start_row(src, token) is None
        with pytest.raises(ValueError, match="append-only"):
            list(src.scan_batches(since_version=token))
        # A token captured *after* the mutation proves deltas again.
        fresh = src.cache_token
        append(NEW_ROWS_B)
        assert delta_start_row(src, fresh) == len(ROWS) + len(NEW_ROWS_A)

    def test_source_without_capability_returns_none(self, tmp_path):
        filtered = make_source("filtered-columnar", tmp_path)
        assert delta_start_row(filtered, filtered.cache_token) is None
