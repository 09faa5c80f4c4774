"""The output cell's entry store: blocks in, tuples out only at emission.

``OutputCell`` keeps its buffered entries as a structure of arrays (a
vector block, a mapped-value block, two row(-reference) lists).  These
tests pin the store's contract — arrival order through growth and
eviction, clearing, mixed row kinds — and that what finally reaches a
client is built from plain Python values.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import ProgXeEngine
from repro.core.output_grid import OutputCell
from repro.data.workloads import SyntheticWorkload
from repro.runtime.clock import VirtualClock
from repro.serve.protocol import FrameFactory, encode_frame
from repro.storage.partition import RowRef, materialize_rows

from tests.conftest import FLUSH_IDS, FLUSH_SIZES, set_flush_pairs


def new_cell() -> OutputCell:
    return OutputCell((0, 0), (0.0, 0.0))


def batch(start: int, stop: int):
    """Entries ``start..stop-1``: vector ``(i, -i)``, mapped ``(i, i/2, 7)``."""
    ids = np.arange(start, stop, dtype=float)
    vectors = np.column_stack([ids, -ids])
    mapped = np.column_stack([ids, ids / 2, np.full(len(ids), 7.0)])
    lrows = [("l", i) for i in range(start, stop)]
    rrows = [("r", i) for i in range(start, stop)]
    return vectors, lrows, rrows, mapped


def entry(i: int):
    return ((float(i), float(-i)), ("l", i), ("r", i), (float(i), i / 2, 7.0))


class TestAppend:
    def test_empty_cell(self):
        cell = new_cell()
        assert cell.size == 0
        assert cell.vector_matrix() is None
        assert cell.entries == []

    def test_growth_across_capacity_keeps_every_entry_in_order(self):
        cell = new_cell()
        stop = 0
        for step in (1, 2, 5, 9, 40, 3, 200):  # crosses several doublings
            cell.append(*batch(stop, stop + step))
            stop += step
            assert cell.size == stop
            assert cell.entries == [entry(i) for i in range(stop)]
        matrix = cell.vector_matrix()
        assert matrix.shape == (stop, 2)
        assert matrix[:, 0].tolist() == [float(i) for i in range(stop)]

    def test_vector_matrix_is_a_view_of_the_block(self):
        cell = new_cell()
        cell.append(*batch(0, 3))
        first = cell.vector_matrix()
        assert not first.flags.owndata
        cell.append(*batch(3, 5))  # fits the capacity: same block
        assert np.shares_memory(first, cell.vector_matrix())

    def test_mapped_values_are_stored_as_float64(self):
        cell = new_cell()
        cell.append(np.zeros((1, 2)), [()], [()], np.array([[1, 2]]))
        cell.append(np.zeros((1, 2)), [()], [()], np.array([[0.5, 2.5]]))
        assert [e[3] for e in cell.entries] == [(1.0, 2.0), (0.5, 2.5)]
        assert all(type(v) is float for e in cell.entries for v in e[3])


class TestEvict:
    def test_survivors_keep_arrival_order_in_every_column(self):
        cell = new_cell()
        cell.append(*batch(0, 30))
        dead = np.zeros(30, dtype=bool)
        dead[[0, 3, 4, 17, 29]] = True
        assert cell.evict(dead) == 5
        keep = [i for i in range(30) if not dead[i]]
        assert cell.size == 25
        assert cell.entries == [entry(i) for i in keep]
        assert cell.vector_matrix()[:, 0].tolist() == [float(i) for i in keep]
        # ...and the store keeps working after a compaction.
        cell.append(*batch(30, 33))
        assert cell.entries == [entry(i) for i in keep + [30, 31, 32]]

    def test_nothing_dead_is_a_no_op(self):
        cell = new_cell()
        cell.append(*batch(0, 4))
        assert cell.evict(np.zeros(4, dtype=bool)) == 0
        assert cell.entries == [entry(i) for i in range(4)]

    def test_everything_dead_empties_the_cell(self):
        cell = new_cell()
        cell.append(*batch(0, 4))
        assert cell.evict(np.ones(4, dtype=bool)) == 4
        assert cell.size == 0 and cell.vector_matrix() is None
        assert cell.entries == []


class TestClear:
    def test_clear_then_reuse(self):
        cell = new_cell()
        cell.append(*batch(0, 12))
        cell.clear()
        assert cell.size == 0
        assert cell.vector_matrix() is None
        assert cell.entries == []
        cell.append(*batch(5, 7))
        assert cell.entries == [entry(5), entry(6)]


class _OnePartition:
    """Stands in for an ``InputPartition``: resolves positions to tuples."""

    def __init__(self, rows):
        self.rows = rows
        self.fetched: list[int] = []

    def rows_at(self, positions):
        self.fetched.extend(positions)
        return [self.rows[p] for p in positions]


class TestRowKinds:
    def test_row_refs_and_tuples_round_trip_side_by_side(self):
        # The engine buffers RowRefs, direct insert_batch callers may pass
        # row tuples; one cell may see both and must hand both back untouched.
        partition = _OnePartition([("p", n) for n in range(10)])
        cell = new_cell()
        vectors, _, _, mapped = batch(0, 4)
        lrows = [RowRef(partition, 7), ("plain", 1), RowRef(partition, 2), ("plain", 3)]
        rrows = [("plain", 0), RowRef(partition, 9), ("plain", 2), RowRef(partition, 0)]
        cell.append(vectors, lrows, rrows, mapped)
        cell.evict(np.array([False, False, True, False]))
        entries = cell.entries
        assert [e[1] for e in entries] == [lrows[0], lrows[1], lrows[3]]
        assert [e[2] for e in entries] == [rrows[0], rrows[1], rrows[3]]
        assert materialize_rows([e[1] for e in entries]) == [
            ("p", 7), ("plain", 1), ("plain", 3),
        ]
        assert materialize_rows([e[2] for e in entries]) == [
            ("plain", 0), ("p", 9), ("p", 0),
        ]
        assert sorted(partition.fetched) == [0, 7, 9]  # the evicted ref: never


class TestEmittedValues:
    @pytest.mark.parametrize("flush_pairs", FLUSH_SIZES, ids=FLUSH_IDS)
    def test_results_are_plain_python_and_encode(self, flush_pairs, monkeypatch):
        set_flush_pairs(monkeypatch, flush_pairs)
        bound = SyntheticWorkload(
            distribution="anticorrelated", n=80, d=3, sigma=0.1, seed=5
        ).bound()
        engine = ProgXeEngine(bound, VirtualClock())
        results = list(engine.run())
        assert results
        frames = FrameFactory()
        for index, result in enumerate(results, 1):
            assert type(result.mapped) is tuple
            assert all(type(v) is float for v in result.mapped)
            assert all(type(v) is float for v in result.vector)
            assert type(result.left_row) is tuple
            assert type(result.right_row) is tuple
            assert result.mapped == bound.map_pair(
                result.left_row, result.right_row
            )
            # json.dumps(default=str) would quietly stringify a numpy
            # scalar, so compare the decoded values, not just "it encodes".
            frame = json.loads(encode_frame(frames.result(index, result)))
            assert frame["values"] == json.loads(json.dumps(result.outputs))
            for name, value in zip(bound.query.mappings.names, result.mapped):
                assert frame["values"][name] == value
