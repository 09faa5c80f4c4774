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
"""

from __future__ import annotations

import asyncio
import itertools
import re

import pytest

from repro.core.engine import ProgXeEngine
from repro.errors import ExecutionError
from repro.query.parser import parse_query
from repro.runtime.clock import VirtualClock
from repro.serve import QueryServer
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.session.stream import FAILED
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
