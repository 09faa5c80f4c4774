"""Tests for schemas, tables and grid partitioning."""

import pytest

from repro.errors import BindingError, SchemaError
from repro.storage.grid import GridPartitioner
from repro.storage.schema import Schema
from repro.storage.table import Table


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
