"""Tests for schemas, tables, grid partitioning and join signatures."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError, SchemaError
from repro.storage.grid import GridPartitioner
from repro.storage.quadtree import QuadTreePartitioner
from repro.storage.schema import Schema
from repro.storage.signatures import ExactSignature, SignatureCodes, pair_overlap
from repro.storage.sources import ColumnarFileSource
from repro.storage.table import Table

from tests.test_sources import BACKENDS, COLUMNS, make_source


class TestSchema:
    def test_basic(self):
        s = Schema(["a", "b", "c"])
        assert s.index("b") == 1
        assert s.indices(["c", "a"]) == (2, 0)
        assert len(s) == 3
        assert "a" in s and "z" not in s

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema(["a", "a"])

    def test_rejects_non_string(self):
        with pytest.raises(SchemaError):
            Schema(["a", 3])

    def test_unknown_column_message_lists_available(self):
        s = Schema(["a", "b"])
        with pytest.raises(SchemaError, match="available"):
            s.index("c")

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))


class TestTable:
    def test_from_rows(self):
        t = Table.from_rows("t", ["x", "y"], [(1, 2), (3, 4)])
        assert len(t) == 2
        assert t.column("y") == [2, 4]

    def test_row_width_validated(self):
        with pytest.raises(SchemaError, match="columns"):
            Table.from_rows("t", ["x", "y"], [(1, 2, 3)])

    def test_from_dicts(self):
        t = Table.from_dicts("t", [{"x": 1, "y": 2}, {"x": 3, "y": 4}])
        assert t.schema.columns == ("x", "y")
        assert t.rows == [(1, 2), (3, 4)]

    def test_from_dicts_missing_key(self):
        with pytest.raises(SchemaError, match="missing"):
            Table.from_dicts("t", [{"x": 1}], columns=["x", "y"])

    def test_from_dicts_empty_without_columns(self):
        with pytest.raises(SchemaError):
            Table.from_dicts("t", [])

    def test_value_and_row_dict(self):
        t = Table.from_rows("t", ["x", "y"], [(1, 2)])
        row = t.rows[0]
        assert t.value(row, "y") == 2
        assert t.row_dict(row) == {"x": 1, "y": 2}

    def test_filter(self):
        t = Table.from_rows("t", ["x"], [(1,), (2,), (3,)])
        f = t.filter(lambda r: r[0] > 1)
        assert len(f) == 2
        assert len(t) == 3  # original untouched

    def test_head(self):
        t = Table.from_rows("t", ["x"], [(i,) for i in range(10)])
        assert t.head(3) == [(0,), (1,), (2,)]

    def test_iteration(self):
        t = Table.from_rows("t", ["x"], [(1,), (2,)])
        assert list(t) == [(1,), (2,)]


class TestGridPartitioner:
    def _table(self):
        rows = [
            ("r1", "j1", 0.0, 0.0),
            ("r2", "j1", 9.9, 9.9),
            ("r3", "j2", 5.0, 5.0),
            ("r4", "j3", 10.0, 10.0),  # domain max: must land in last cell
        ]
        return Table.from_rows("t", ["id", "jkey", "a", "b"], rows)

    def test_partitions_cover_all_rows(self):
        grid = GridPartitioner(cells_per_dim=2).partition(
            self._table(), ["a", "b"], "jkey"
        )
        assert grid.total_rows() == 4

    def test_cell_assignment(self):
        grid = GridPartitioner(cells_per_dim=2).partition(
            self._table(), ["a", "b"], "jkey"
        )
        assert grid.cell_of((0.0, 0.0)) == (0, 0)
        assert grid.cell_of((10.0, 10.0)) == (1, 1)  # clamped into last cell
        assert grid.cell_of((5.0, 5.0)) == (1, 1)

    def test_cell_bounds(self):
        grid = GridPartitioner(cells_per_dim=2).partition(
            self._table(), ["a", "b"], "jkey"
        )
        lower, upper = grid.cell_bounds((0, 0))
        assert lower == (0.0, 0.0)
        assert upper == (5.0, 5.0)

    def test_signatures_collect_join_values(self):
        grid = GridPartitioner(cells_per_dim=1).partition(
            self._table(), ["a", "b"], "jkey"
        )
        (part,) = list(grid)
        assert part.signature.distinct_values == 3
        assert part.signature.tuple_count == 4

    def test_partition_bounds_contain_rows(self):
        grid = GridPartitioner(cells_per_dim=3).partition(
            self._table(), ["a", "b"], "jkey"
        )
        for part in grid:
            for row in part.rows:
                for i, attr_idx in enumerate((2, 3)):
                    v = row[attr_idx]
                    assert part.lower[i] <= v
                    # upper bound is exclusive except for the last cell
                    assert v <= part.upper[i] + 1e-9

    def test_delta_beyond_the_grid_clamps_like_cell_of(self):
        """Coordinates beyond 2^63 cells clamp to the edge cell, as
        ``cell_of`` does, instead of wrapping to cell 0."""
        table = self._table()
        partitioner = GridPartitioner(cells_per_dim=2)
        grid = partitioner.partition(table, ["a", "b"], "jkey")
        token = table.cache_token
        far = [("r5", "j1", 1e30, -1e30), ("r6", "j1", -1e30, 1e30)]
        table.extend_rows(far)
        created = partitioner.partition_delta(
            grid, table, ["a", "b"], "jkey", since_token=token
        )
        assert [p.coords for p in created] == [grid.cell_of(r[2:]) for r in far]

    def test_empty_table_rejected(self):
        empty = Table.from_rows("t", ["id", "jkey", "a"], [])
        with pytest.raises(BindingError, match="empty"):
            GridPartitioner().partition(empty, ["a"], "jkey")

    def test_no_attributes_rejected(self):
        with pytest.raises(BindingError, match="dimension"):
            GridPartitioner().partition(self._table(), [], "jkey")

    def test_invalid_cells_per_dim(self):
        with pytest.raises(ValueError):
            GridPartitioner(cells_per_dim=0)

    def test_degenerate_constant_attribute(self):
        rows = [("a", "j", 5.0), ("b", "j", 5.0)]
        t = Table.from_rows("t", ["id", "jkey", "a"], rows)
        grid = GridPartitioner(cells_per_dim=4).partition(t, ["a"], "jkey")
        assert grid.total_rows() == 2  # constant column collapses to one cell

    def test_attribute_intervals(self):
        grid = GridPartitioner(cells_per_dim=2).partition(
            self._table(), ["a", "b"], "jkey"
        )
        for part in grid:
            ivals = part.attribute_intervals(grid.attributes)
            assert set(ivals) == {"a", "b"}
            for i, attr in enumerate(grid.attributes):
                lo, hi = ivals[attr]
                # Tight box: ordered, within the cell, containing the rows.
                assert lo <= hi
                assert part.lower[i] <= lo and hi <= part.upper[i] + 1e-9

    def test_tight_bounds_shrink_to_data(self):
        rows = [("r1", "j", 2.0, 3.0), ("r2", "j", 2.5, 3.5)]
        t = Table.from_rows("t", ["id", "jkey", "a", "b"], rows)
        grid = GridPartitioner(cells_per_dim=1).partition(t, ["a", "b"], "jkey")
        (part,) = list(grid)
        ivals = part.attribute_intervals(grid.attributes)
        assert ivals["a"] == (2.0, 2.5)
        assert ivals["b"] == (3.0, 3.5)


class TestExactSignature:
    def test_overlap_detection(self):
        a = ExactSignature(["x", "y"])
        b = ExactSignature(["y", "z"])
        assert a.may_share(b) and b.may_share(a)

    def test_disjoint(self):
        a = ExactSignature(["x"])
        b = ExactSignature(["z"])
        assert not a.may_share(b)
        assert a.expected_join_size(b) == 0.0

    def test_expected_join_size(self):
        a = ExactSignature(["x", "x", "y"])
        b = ExactSignature(["x", "y", "y"])
        # x: 2*1 + y: 1*2 = 4
        assert a.expected_join_size(b) == 4.0

    def test_expected_join_size_symmetric(self):
        a = ExactSignature(["x", "x"])
        b = ExactSignature(["x", "y", "y"])
        assert a.expected_join_size(b) == b.expected_join_size(a)

    def test_counts(self):
        a = ExactSignature(["x", "x", "y"])
        assert a.distinct_values == 2
        assert a.tuple_count == 3

    def test_empty_signature_shares_nothing(self):
        empty = ExactSignature()
        assert empty.tuple_count == 0
        assert not empty.may_share(ExactSignature(["x"]))

    def test_equal_numbers_share(self):
        """Keys compare as the join compares them: ``1 == 1.0``."""
        assert ExactSignature([1]).may_share(ExactSignature([1.0]))


def keyed_rows(n=60, seed=4):
    rng = np.random.default_rng(seed)
    return [
        (f"r{i}", f"J{int(rng.integers(0, 7))}",
         float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        for i in range(n)
    ]


PARTITIONERS = {
    "grid": lambda: GridPartitioner(3),
    "quadtree": lambda: QuadTreePartitioner(6),
}


def assert_histograms_of_rows(parts):
    """Each partition's signature counts exactly its rows' join keys, in
    first-seen (scan) order — the order ``SignatureCodes`` ids follow."""
    for part in parts:
        want = Counter(row[1] for row in part.rows)
        assert list(part.signature.counts.items()) == list(want.items())


@pytest.mark.parametrize("kind", PARTITIONERS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_partition_signature_is_the_histogram_of_its_rows(kind, backend, tmp_path):
    source = make_source(backend, tmp_path, rows=keyed_rows(), columns=COLUMNS)
    structure = PARTITIONERS[kind]().partition(source, ["a0", "a1"], "jkey")
    assert sum(p.signature.tuple_count for p in structure) == len(source)
    assert_histograms_of_rows(structure)


@pytest.mark.parametrize("kind", PARTITIONERS)
@pytest.mark.parametrize("backend", ["memory", "columnar"])
def test_delta_partition_signature_is_the_histogram_of_its_rows(
    kind, backend, tmp_path
):
    rows = keyed_rows()
    source = make_source(backend, tmp_path, rows=rows[:25], columns=COLUMNS)
    partitioner = PARTITIONERS[kind]()
    structure = partitioner.partition(source, ["a0", "a1"], "jkey")
    token = source.cache_token
    if backend == "memory":
        source.extend_rows(rows[25:])
    else:
        ColumnarFileSource(tmp_path / "R-columnar.col").append_rows(rows[25:])
        source = source.refresh()
    created = partitioner.partition_delta(
        structure, source, ["a0", "a1"], "jkey", since_token=token
    )
    assert sum(p.signature.tuple_count for p in created) == len(rows) - 25
    assert_histograms_of_rows(created)


@pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0)])
def test_pair_overlap_of_an_empty_side_is_empty(n, m):
    sigs = [ExactSignature(["x"]), ExactSignature(["y"]), ExactSignature(["x"])]
    share, expected = pair_overlap(sigs[:n], sigs[:m], SignatureCodes(), SignatureCodes())
    assert share.shape == expected.shape == (n, m)
    assert share.dtype == bool


keys = st.lists(st.one_of(st.integers(0, 5), st.sampled_from(["a", "b"])), max_size=12)


@given(left=st.lists(keys, max_size=4), right=st.lists(keys, max_size=4))
@settings(max_examples=60, deadline=None)
def test_pair_overlap_counts_the_joined_pairs(left, right):
    """``expected`` is the number of joined row pairs, and a pair shares
    exactly when that number is positive."""
    share, expected = pair_overlap(
        [ExactSignature(k) for k in left], [ExactSignature(k) for k in right],
        SignatureCodes(), SignatureCodes(),
    )
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            pairs = sum(x == y for x in a for y in b)
            assert expected[i, j] == pairs
            assert share[i, j] == (pairs > 0)
