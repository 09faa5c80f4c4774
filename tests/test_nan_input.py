"""A NaN or ±inf in a mapped attribute fails the query with a named error.

NaN is neither better nor worse than anything: it breaks the transitivity
of dominance and the region corners the engine's pruning rests on.  An
infinity has no grid cell and turns region arithmetic (``inf - inf``) into
NaN.  The partitioners refuse both where rows are partitioned —
``partition`` and ``partition_delta``, grid and quadtree — with an
:class:`~repro.errors.ExecutionError` naming the value, the table, the
column and the row position.  Every backend, static and follow queries,
and a served query (an ``error`` frame, terminal state ``failed``) are
covered here; the driver matrix of ``tests/test_engine_failure.py`` runs
the follow case through every driver.

Finite inputs can still map to a non-finite value: with ``R.a0`` and
``T.b0`` both ``1e308``, ``2*R.a0 - 2*T.b0`` is ``inf - inf``.  The map
refuses it where the vector is computed — ``BoundQuery.map_rows_batch``
for ProgXe, ``map_pair`` for the baselines, and
``BoundMultiwayQuery.evaluate_blocking`` for a chain of three or more
sources — naming the output column and the joined rows.
"""

from __future__ import annotations

import asyncio
import itertools
import re

import numpy as np
import pytest

from repro.core.engine import ProgXeEngine
from repro.errors import ExecutionError
from repro.query.expressions import Attr, Const
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.multiway import ChainJoin, MultiwayQuery
from repro.query.parser import parse_query
from repro.query.smj import JoinCondition, SkyMapJoinQuery
from repro.runtime.clock import VirtualClock
from repro.serve import QueryServer
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.session.stream import FAILED
from repro.skyline.preferences import ParetoPreference, lowest
from repro.storage.grid import GridPartitioner
from repro.storage.table import Table

from tests.test_engine_failure import post_query
from tests.test_sources import BACKENDS, make_source
from tests.test_streaming import BACKENDS as STREAMING_BACKENDS
from tests.test_streaming import make_streaming_pair

NAN = float("nan")
INF = float("inf")
#: Each refused value and how the error names it.
BAD = {"NaN": NAN, "inf": INF, "-inf": -INF}
SQL = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey PREFERRING LOWEST(x0) AND LOWEST(x1)"
)
COLUMNS = ["id", "jkey", "a0", "a1"]
CLEAN = [
    ("r0", "J1", 4.0, 30.0),
    ("r1", "J2", 1.5, 12.0),
    ("r3", "J3", 2.0, 44.5),
]
PARTITIONINGS = ("grid", "quadtree")


def rows_with(value: float) -> list[tuple]:
    """Four rows of ``R``; row 2's ``a1`` is ``value``."""
    return CLEAN[:2] + [("r2", "J1", 9.25, value)] + CLEAN[2:]


def named(label: str, column: str, row: int) -> str:
    """A regex matching exactly the error for ``label`` (``inf`` does not
    match ``-inf``)."""
    return rf"(?<!-){re.escape(label)} in column '{column}' of table 'R' at row {row}"


def right_table() -> Table:
    return Table.from_rows(
        "T", ["id", "jkey", "b0", "b1"],
        [("t0", "J1", 1.0, 2.0), ("t1", "J2", 2.0, 1.0), ("t2", "J3", 0.5, 9.0)],
    )


@pytest.mark.parametrize("label", BAD)
@pytest.mark.parametrize(
    "backend, partitioning", list(itertools.product(BACKENDS, PARTITIONINGS))
)
def test_static_query_names_the_nan(backend, partitioning, label, tmp_path):
    source = make_source(backend, tmp_path, rows=rows_with(BAD[label]), columns=COLUMNS)
    session = Session().register_tables({"R": source, "T": right_table()})
    stream = session.execute(SQL, config=EngineConfig(partitioning=partitioning))
    message = named(label, "a1", 2)
    with pytest.raises(ExecutionError, match=message):
        stream.drain()
    assert stream.state == FAILED
    assert re.search(message, stream.stop_reason)


@pytest.mark.parametrize("label", BAD)
@pytest.mark.parametrize("preset", ["default", "auto"])
def test_planning_presets_reach_the_named_error(preset, label):
    """The planner's statistics pass sees the value first; it may not fail
    on it with an unnamed error."""
    tables = {"R": Table.from_rows("R", COLUMNS, rows_with(BAD[label])),
              "T": right_table()}
    stream = Session().register_tables(tables).execute(
        SQL, config=EngineConfig.preset(preset)
    )
    with pytest.raises(ExecutionError, match=named(label, "a1", 2)):
        stream.drain()
    assert stream.state == FAILED


@pytest.mark.parametrize("label", BAD)
@pytest.mark.parametrize("algorithm", ["ProgXe+", "JF-SL+", "SSMJ"])
def test_local_pruning_refuses_the_value(algorithm, label):
    """Push-through (ProgXe+, JF-SL+) and SSMJ's local lists prune each
    source before the join: the value is refused before it can be pruned
    away, with the partitioners' error."""
    tables = {"R": Table.from_rows("R", COLUMNS, rows_with(BAD[label])),
              "T": right_table()}
    stream = Session().register_tables(tables).execute(SQL, algorithm=algorithm)
    with pytest.raises(ExecutionError, match=named(label, "a1", 2)):
        stream.drain()
    assert stream.state == FAILED
    assert stream.results == []


@pytest.mark.parametrize("label", BAD)
@pytest.mark.parametrize(
    "backend, partitioning",
    list(itertools.product(STREAMING_BACKENDS, PARTITIONINGS)),
)
def test_arrival_poll_names_the_nan(backend, partitioning, label, tmp_path):
    prefix = Table.from_rows("R", COLUMNS, CLEAN)
    source, append = make_streaming_pair(backend, "R", prefix, tmp_path)
    bound = parse_query(SQL).bind({"R": source, "T": right_table()})
    kernel = ProgXeEngine(
        bound, VirtualClock(), partitioning=partitioning, follow=True
    ).kernel()
    kernel.step()
    # Rows 3 and 4 arrive; row 4's a0 is the refused value.
    append([("r4", "J2", 3.0, 3.0), ("r5", "J3", BAD[label], 1.0)])
    kernel.close_ingest()
    with pytest.raises(ExecutionError, match=named(label, "a0", 4)):
        while not kernel.finished:
            kernel.step()
    assert kernel.finished


@pytest.mark.parametrize("label", BAD)
@pytest.mark.parametrize("partitioning", PARTITIONINGS)
def test_scheduled_follow_query_ends_failed(partitioning, label):
    tables = {"R": Table.from_rows("R", COLUMNS, CLEAN), "T": right_table()}
    scheduler = Session().register_tables(tables).scheduler()
    handle = scheduler.submit(
        SQL, config=EngineConfig(follow=True, partitioning=partitioning)
    )
    scheduler.tick()
    tables["R"].extend_rows([("r5", "J3", 1.0, BAD[label])])
    with pytest.raises(ExecutionError, match=named(label, "a1", 3)):
        for _ in range(100):
            scheduler.tick()
    assert handle.state == FAILED


def test_a_refused_delta_leaves_the_grid_untouched():
    """The whole delta is checked before any partition is registered, so a
    NaN in a later scan batch leaves no partial extension behind."""
    table = Table.from_rows("R", COLUMNS, CLEAN)
    partitioner = GridPartitioner(cells_per_dim=2)
    grid = partitioner.partition(table, ["a0", "a1"], "jkey")
    token = table.cache_token
    table.extend_rows([("r4", "J1", 3.0, 3.0), ("r5", "J2", 5.0, 5.0), ("r6", "J3", NAN, 1.0)])
    with pytest.raises(ExecutionError, match=named("NaN", "a0", 5)):
        partitioner.partition_delta(
            grid, table, ["a0", "a1"], "jkey", since_token=token, batch_size=1
        )
    assert grid.extensions == []


@pytest.mark.parametrize("label", BAD)
def test_served_query_sends_an_error_frame(label):
    tables = {"R": Table.from_rows("R", COLUMNS, rows_with(BAD[label])),
              "T": right_table()}
    session = Session().register_tables(tables)

    async def main():
        server = QueryServer(session, port=0)
        await server.start()
        try:
            frames = await asyncio.wait_for(
                post_query(server, {"sql": SQL}), timeout=30
            )
            return frames, server.admission.active
        finally:
            await server.stop(timeout=10.0)

    frames, active = asyncio.run(main())
    assert [frame["event"] for frame in frames][-2:] == ["error", "complete"]
    assert re.search(named(label, "a1", 2), frames[-2]["error"])
    assert frames[-1]["state"] == FAILED
    assert active == 0


# ----------------------------------------------------------------------
# a finite input that overflows inside the mapping
# ----------------------------------------------------------------------
OVERFLOW_SQL = (
    "SELECT R.id, T.id, (2 * R.a0 - 2 * T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey PREFERRING LOWEST(x0) AND LOWEST(x1)"
)
#: ``r9`` and ``t9`` join only each other; their pair maps to NaN.
HUGE_LEFT = ("r9", "J9", 1e308, 5.0)
HUGE_RIGHT = ("t9", "J9", 1e308, 3.0)
OVERFLOW = re.escape(
    f"NaN in output column 'x0' for R row {HUGE_LEFT!r} joined with "
    f"T row {HUGE_RIGHT!r}: a mapped value must be a finite number"
)


def overflow_tables() -> dict:
    left = Table.from_rows("R", COLUMNS, CLEAN + [HUGE_LEFT])
    right = right_table()
    return {"R": left, "T": Table.from_rows("T", right.schema.columns, right.rows + [HUGE_RIGHT])}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestMappedOverflow:
    @pytest.mark.parametrize("partitioning", PARTITIONINGS)
    def test_direct_query_ends_failed(self, partitioning):
        stream = Session().register_tables(overflow_tables()).execute(
            OVERFLOW_SQL, config=EngineConfig(partitioning=partitioning)
        )
        with pytest.raises(ExecutionError, match=OVERFLOW):
            stream.drain()
        assert stream.state == FAILED
        assert re.search(OVERFLOW, stream.stop_reason)

    @pytest.mark.parametrize("algorithm", ["ProgXe+", "JF-SL", "JF-SL+", "SSMJ", "SAJ"])
    def test_every_algorithm_refuses_the_pair(self, algorithm):
        """ProgXe+ maps through ``map_rows_batch``; the baselines map one
        pair at a time (``map_pair``)."""
        stream = Session().register_tables(overflow_tables()).execute(
            OVERFLOW_SQL, algorithm=algorithm
        )
        with pytest.raises(ExecutionError, match=OVERFLOW):
            stream.drain()
        assert stream.state == FAILED

    def test_scheduled_query_ends_failed(self):
        scheduler = Session().register_tables(overflow_tables()).scheduler()
        handle = scheduler.submit(OVERFLOW_SQL)
        with pytest.raises(ExecutionError, match=OVERFLOW):
            for _ in range(100):
                scheduler.tick()
        assert handle.state == FAILED
        assert re.search(OVERFLOW, handle.stop_reason)

    def test_served_query_sends_an_error_frame(self):
        session = Session().register_tables(overflow_tables())

        async def main():
            server = QueryServer(session, port=0)
            await server.start()
            try:
                frames = await asyncio.wait_for(
                    post_query(server, {"sql": OVERFLOW_SQL}), timeout=30
                )
                return frames, server.admission.active
            finally:
                await server.stop(timeout=10.0)

        frames, active = asyncio.run(main())
        assert [frame["event"] for frame in frames][-2:] == ["error", "complete"]
        assert re.search(OVERFLOW, frames[-2]["error"])
        assert frames[-1]["state"] == FAILED
        assert active == 0

    def test_a_batch_names_its_first_non_finite_pair(self):
        """A clean batch passes; a batch holding the pair names it,
        wherever it sits in the batch."""
        bound = parse_query(OVERFLOW_SQL).bind(overflow_tables())
        clean = bound.map_rows_batch([CLEAN[0]], [right_table().rows[0]])
        assert np.isfinite(clean).all()
        with pytest.raises(ExecutionError, match=OVERFLOW):
            bound.map_rows_batch([CLEAN[0], HUGE_LEFT], [right_table().rows[0], HUGE_RIGHT])


def three_way(mapping_x0, *extra: MappingFunction) -> MultiwayQuery:
    return MultiwayQuery(
        aliases=("A", "B", "C"),
        joins=(ChainJoin("A", "jkey", "B", "jkey"), ChainJoin("B", "jkey", "C", "jkey")),
        mappings=MappingSet([
            MappingFunction("x0", mapping_x0),
            MappingFunction("x1", Attr("A", "a1") + Attr("B", "b1") + Attr("C", "c1")),
            *extra,
        ]),
        preference=ParetoPreference([lowest("x0"), lowest("x1")]),
    )


def three_tables(huge: float) -> dict:
    """Three sources; the ``J9`` chain carries ``huge`` in ``A.a0`` and
    ``B.b0``."""
    def table(alias, prefix, first):
        return Table.from_rows(alias, ["id", "jkey", f"{prefix}0", f"{prefix}1"], [
            (f"{alias.lower()}0", "J1", 1.0, 2.0),
            (f"{alias.lower()}9", "J9", first, 3.0),
        ])

    return {"A": table("A", "a", huge), "B": table("B", "b", huge), "C": table("C", "c", 1.0)}


class TestMultiwayOverflow:
    MAPPING = Const(2.0) * Attr("A", "a0") - Const(2.0) * Attr("B", "b0") + Attr("C", "c0")

    def test_blocking_evaluation_names_the_chained_rows(self):
        bound = three_way(self.MAPPING).bind(three_tables(1e308))
        message = re.escape(
            "NaN in output column 'x0' for A row ('a9', 'J9', 1e+308, 3.0) "
            "joined with B row ('b9', 'J9', 1e+308, 3.0) joined with "
            "C row ('c9', 'J9', 1.0, 3.0): a mapped value must be a finite number"
        )
        with pytest.raises(ExecutionError, match=message):
            bound.evaluate_blocking()

    @pytest.mark.parametrize("label, mapping", [
        ("inf", Const(2.0) * Attr("A", "a0") + Attr("C", "c0")),
        ("-inf", Const(-2.0) * Attr("A", "a0") - Attr("B", "b0")),
    ])
    def test_an_overflow_to_infinity_is_named(self, label, mapping):
        with pytest.raises(
            ExecutionError, match=rf"^{re.escape(label)} in output column 'x0' for A row"
        ):
            three_way(mapping).bind(three_tables(1e308)).evaluate_blocking()

    def test_finite_chains_pass(self):
        results = three_way(self.MAPPING).bind(three_tables(4.0)).evaluate_blocking()
        assert results and all(np.isfinite(r.vector).all() for r in results)

    def test_an_unpreferred_column_is_not_checked(self):
        """Only skyline columns must be finite, as for the binary map."""
        query = three_way(
            Attr("A", "a1") + Attr("C", "c0"), MappingFunction("spare", self.MAPPING)
        )
        assert query.bind(three_tables(1e308)).evaluate_blocking()


# ----------------------------------------------------------------------
# a region box that overflows to NaN
# ----------------------------------------------------------------------
#: ``r9`` and ``t9`` join only each other, in partitions of their own
#: under the grid: their region box is ``inf - inf`` in ``x0``.
BOX_LEFT = [("r0", "J1", 1.0, 2.0), HUGE_LEFT]
BOX_RIGHT = [("t0", "J1", 1.0, 2.0), HUGE_RIGHT]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNanRegionBox:
    """A NaN end of a region box (``inf - inf`` or ``0 * inf`` over the
    partitions' value ranges) bounds nothing: the look-ahead widens it to
    ``-inf`` / ``+inf``, so the region is never eliminated and covers every
    cell its pairs can reach.  A NaN corner once let region elimination
    drop the pair's join silently: the query completed with one result."""

    @pytest.mark.parametrize("follow", [False, True], ids=["static", "follow"])
    @pytest.mark.parametrize("partitioning", PARTITIONINGS)
    def test_the_query_ends_in_the_named_error(self, partitioning, follow):
        cut = 1 if follow else 2  # a follow query sees r9 and t9 arrive
        tables = {
            "R": Table.from_rows("R", COLUMNS, BOX_LEFT[:cut]),
            "T": Table.from_rows("T", ["id", "jkey", "b0", "b1"], BOX_RIGHT[:cut]),
        }
        engine = ProgXeEngine(
            parse_query(OVERFLOW_SQL).bind(tables), VirtualClock(),
            partitioning=partitioning, follow=follow,
        )
        with pytest.raises(ExecutionError, match=OVERFLOW):
            kernel = engine.kernel()
            kernel.step()
            if follow:
                tables["R"].extend_rows(BOX_LEFT[cut:])
                tables["T"].extend_rows(BOX_RIGHT[cut:])
                kernel.close_ingest()
            for _ in range(100):
                kernel.step()

    @pytest.mark.parametrize("follow", [False, True], ids=["static", "follow"])
    @pytest.mark.parametrize("partitioning", PARTITIONINGS)
    def test_a_box_over_finite_pairs_keeps_its_answer(self, partitioning, follow):
        """``R.a0 * T.b0 * R.a1`` spans ``[0, inf] * [0, 0]`` over the
        partition of ``rh`` and ``rz`` though every joined pair maps to a
        finite value.  Under follow the quadtree once placed that region
        on the wrong cells and failed with a broken-accounting error."""
        cut = 2 if follow else 5  # a follow query sees rh, rz and r2 arrive
        left = [("r0", "J1", 1.0, 4.0), ("r1", "J2", 4.0, 1.0),
                ("rh", "JH", 1e308, 0.0), ("rz", "JZ", 0.0, 0.0), ("r2", "J1", 4.0, 4.0)]
        right = [("t0", "J1", 1.0, 4.0), ("t1", "J2", 4.0, 1.0),
                 ("th", "JH", 0.0, 3.0), ("tz", "JZ", 10.0, 4.0)]
        tables = {
            "R": Table.from_rows("R", COLUMNS, left[:cut]),
            "T": Table.from_rows("T", ["id", "jkey", "b0", "b1"], right[:cut]),
        }
        bound = parse_query(
            "SELECT R.id, T.id, (R.a0 * T.b0 * R.a1) AS x0, (R.a1 + T.b1) AS x1 "
            "FROM R R, T T WHERE R.jkey = T.jkey PREFERRING LOWEST(x0) AND LOWEST(x1)"
        ).bind(tables)
        kernel = ProgXeEngine(
            bound, VirtualClock(), input_cells=None if follow else 1,
            partitioning=partitioning, follow=follow,
        ).kernel()
        results = list(kernel.step().results)
        if follow:
            tables["R"].extend_rows(left[cut:])
            tables["T"].extend_rows(right[cut:])
            kernel.close_ingest()
        while not kernel.finished:
            results += kernel.step().results
        assert sorted(tuple(r.vector) for r in results) == [
            (0.0, 3.0), (16.0, 2.0)
        ]

    @pytest.mark.parametrize("partitioning", PARTITIONINGS)
    def test_a_three_way_chain_reduced_to_binary(self, partitioning):
        bound, _ = three_way(TestMultiwayOverflow.MAPPING).bind(
            three_tables(1e308)
        ).reduce_to_binary()
        engine = ProgXeEngine(bound, VirtualClock(), partitioning=partitioning)
        with pytest.raises(ExecutionError, match=r"^NaN in output column 'x0' for "):
            list(engine.run())
