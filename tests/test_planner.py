"""Tests for the planner (:mod:`repro.planner`): one rule over statistics.

The planner's contract has three layers, each tested here:

1. **Statistics** — one sampled scan per source, cached by ``cache_token``;
   streaming appends only *patch* the summary, any other change rebuilds it.
2. **The rule** — the quadtree exactly when the worst histogram
   concentration over the mapped attributes reaches ``SKEW_THRESHOLD``;
   caller-pinned knobs win.
3. **Decisions are advisory, never semantic** — a planner-driven engine
   produces byte-identical results to a hand-configured engine with the
   same knobs, across storage backends and partitioners; unpinned grid
   granularity is the engine default, so on unskewed inputs ``"auto"``
   runs exactly the default plan.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import ExpSkewWorkload, make_bound, oracle_skyline_keys
from repro.core.engine import ProgXeEngine
from repro.core.plan import default_input_cells
from repro.data.workloads import SyntheticWorkload
from repro.planner import (
    PlanDecision,
    Planner,
    StatisticsCounters,
    StatisticsStore,
    collect_statistics,
)
from repro.planner.choose import SKEW_THRESHOLD
from repro.query.smj import FilterCondition
from repro.runtime.clock import VirtualClock
from repro.session.config import EngineConfig
from repro.session.service import Session
from repro.storage.sources import ColumnarFileSource, FilteredSource, write_columnar
from repro.storage.table import Table


def small_table(n: int = 64, name: str = "R") -> Table:
    rows = [
        (f"{name}{i}", i % 8, float(i), float(n - i)) for i in range(n)
    ]
    return Table(name, ["id", "jkey", "a0", "a1"], rows)


# ----------------------------------------------------------------------
# statistics collection
# ----------------------------------------------------------------------
class TestStatistics:
    def test_one_pass_summary_covers_all_columns(self):
        table = small_table(64)
        stats = collect_statistics(table)
        assert stats.row_count == 64
        assert set(stats.columns) == {"id", "jkey", "a0", "a1"}
        a0 = stats.column("a0")
        assert (a0.lo, a0.hi) == (0.0, 63.0)
        assert a0.histogram == [4] * 16
        assert a0.concentration() == pytest.approx(1 / 16)

    def test_non_numeric_columns_have_no_histogram(self):
        stats = collect_statistics(small_table(16))
        ids = stats.column("id")
        assert ids.histogram == []
        assert ids.concentration() == 0.0

    def test_non_finite_values_stay_out_of_the_histogram(self):
        rows = [("R0", 0, math.nan, 1.0), ("R1", 0, math.inf, 2.0),
                ("R2", 1, 5.0, 3.0), ("R3", 1, 7.0, 4.0)]
        stats = collect_statistics(Table("R", ["id", "jkey", "a0", "a1"], rows))
        a0 = stats.column("a0")
        assert (a0.lo, a0.hi) == (5.0, 7.0)
        assert sum(a0.histogram) == 2
        assert stats.skew(("a0",)) == 0.5


# ----------------------------------------------------------------------
# the statistics store: cache, patch, rebuild
# ----------------------------------------------------------------------
class TestStatisticsStore:
    def test_unchanged_source_is_a_cache_hit(self):
        store = StatisticsStore()
        table = small_table()
        first = store.for_source(table)
        second = store.for_source(table)
        assert second is first
        counters = store.counters()
        assert (counters.hits, counters.rebuilds) == (1, 1)

    def test_append_patches_instead_of_rebuilding(self):
        store = StatisticsStore()
        table = small_table(32)
        store.for_source(table)
        table.extend_rows([("R99", 3, 99.0, -1.0)])
        patched = store.for_source(table)
        counters = store.counters()
        assert counters.patches == 1
        assert counters.rebuilds == 1  # only the initial collection
        assert patched.row_count == 33
        # 99.0 lies past the sampled bound 31.0: it clamps into the top
        # bucket of the fixed edges instead of widening them.
        a0 = patched.column("a0")
        assert (a0.lo, a0.hi) == (0.0, 31.0)
        assert a0.histogram == [2] * 15 + [3]

    def test_non_append_change_rebuilds(self):
        store = StatisticsStore()
        table = small_table(32)
        store.for_source(table)
        table.touch()  # version bump with no provable append suffix
        store.for_source(table)
        counters = store.counters()
        assert counters.rebuilds == 2
        assert counters.patches == 0

    def test_invalidate_forces_recollection(self):
        store = StatisticsStore()
        table = small_table(32)
        store.for_source(table)
        store.invalidate(table)
        assert store.cached(table) is None
        store.for_source(table)
        assert store.counters().rebuilds == 2


# ----------------------------------------------------------------------
# decisions
# ----------------------------------------------------------------------
class TestPlannerDecisions:
    def test_unpinned_knobs_are_the_engine_defaults(self):
        bound = make_bound(n=120, d=2, seed=3)
        decision = Planner().decide(bound)
        assert decision.partitioning in ("grid", "quadtree")
        assert decision.input_cells == (
            default_input_cells(len(bound.left_map_attrs)),
            default_input_cells(len(bound.right_map_attrs)),
        )
        assert decision.pinned == ()

    def test_pinned_knobs_are_honoured_not_chosen(self):
        bound = make_bound(n=80, d=2, seed=3)
        decision = Planner().decide(
            bound, partitioning="quadtree", input_cells=5
        )
        assert decision.partitioning == "quadtree"
        assert decision.input_cells is None  # the quadtree has no grid
        assert set(decision.pinned) == {"partitioning", "input_cells"}
        pinned_grid = Planner().decide(bound, input_cells=5)
        assert pinned_grid.input_cells == (5, 5)

    def test_skewed_join_keys_leave_the_grid(self):
        """The rule reads the mapped attributes only: join values piled
        onto a few keys do not select the quadtree."""
        bound = make_bound(n=300, d=2, seed=3, skew=6.0)
        decision = Planner().decide(bound)
        assert decision.skew < SKEW_THRESHOLD
        assert decision.partitioning == "grid"

    def test_a_run_leaves_the_next_decision_unchanged(self):
        """The decision comes from the source statistics alone: a
        finished run over the same tables does not move it."""
        bound = SyntheticWorkload(n=150, d=2, seed=9).bound()
        planner = Planner()
        engine = ProgXeEngine(bound, planner=planner)
        for _ in engine.run():
            pass
        assert planner.decide(bound) == engine.plan_decision

    def test_a_decision_is_the_knobs_and_the_skew(self):
        assert [f.name for f in dataclasses.fields(PlanDecision)] == [
            "partitioning", "input_cells", "pinned", "skew",
        ]

    def test_statistics_counters_hold_only_summary_outcomes(self):
        assert [f.name for f in dataclasses.fields(StatisticsCounters)] == [
            "hits", "patches", "rebuilds", "entries",
        ]


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
def worst_concentration(tables, columns, sample_rows: int) -> float:
    """Largest 16-bucket equi-width share over the sampled ``columns``,
    recomputed from the rows (the first ``sample_rows`` of each table)."""
    worst = 0.0
    for alias, names in columns.items():
        table = tables[alias]
        for name in names:
            index = table.schema.columns.index(name)
            values = [
                row[index] for row in table.rows[:sample_rows]
                if math.isfinite(row[index])
            ]
            if not values:
                continue
            lo, hi = min(values), max(values)
            counts = [0] * 16
            for value in values:
                bucket = 0 if hi == lo else int((value - lo) / (hi - lo) * 16)
                counts[min(bucket, 15)] += 1
            worst = max(worst, max(counts) / len(values))
    return worst


column_values = st.lists(
    st.one_of(
        st.floats(0.0, 100.0),
        st.just(3.0),
        st.floats(1e3, 1e6),
        st.sampled_from([math.nan, math.inf]),
    ),
    min_size=1,
    max_size=30,
)


@given(
    columns=st.lists(column_values, min_size=4, max_size=4),
    sample_rows=st.integers(1, 40),
    partitioning=st.sampled_from(["grid", "quadtree"]),
    input_cells=st.one_of(st.none(), st.integers(1, 6)),
)
@settings(max_examples=60, deadline=None)
@example(  # exactly at the threshold: 11 of 20 values in the lowest bucket
    columns=[[0.0] * 11 + [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 100.0]]
    + [[float(i) for i in range(20)]] * 3,
    sample_rows=40, partitioning="grid", input_cells=None,
)
def test_decide_is_the_skew_rule(columns, sample_rows, partitioning, input_cells):
    """The quadtree exactly when the worst sampled concentration over the
    mapped columns reaches SKEW_THRESHOLD; pinned knobs win."""
    workload = SyntheticWorkload(n=1, d=2)
    tables = {}
    for alias, prefix, pair in (("R", "a", columns[:2]), ("T", "b", columns[2:])):
        n = max(len(pair[0]), len(pair[1]))
        rows = [
            (f"{alias}{i}", i % 3,
             pair[0][i % len(pair[0])], pair[1][i % len(pair[1])])
            for i in range(n)
        ]
        tables[alias] = Table(alias, ["id", "jkey", f"{prefix}0", f"{prefix}1"], rows)
    bound = workload.query().bind(tables)
    planner = Planner(statistics=StatisticsStore(sample_rows=sample_rows))
    decision = planner.decide(
        bound, partitioning=partitioning, input_cells=input_cells
    )

    skew = worst_concentration(
        tables, {"R": ("a0", "a1"), "T": ("b0", "b1")}, sample_rows
    )
    assert decision.skew == pytest.approx(skew)
    pinned = partitioning != "grid"
    if pinned:
        assert decision.partitioning == partitioning
    else:
        assert decision.partitioning == (
            "quadtree" if skew >= SKEW_THRESHOLD else "grid"
        )
    if decision.partitioning == "grid":
        cells = input_cells or default_input_cells(2)
        assert decision.input_cells == (cells, cells)
    else:
        assert decision.input_cells is None
    assert decision.pinned == (
        ("partitioning",) * pinned + ("input_cells",) * (input_cells is not None)
    )


class TestExpSkew:
    """``SyntheticWorkload(n=20_000, d=2, seed=7)`` with every attribute
    mapped ``v -> exp(v/8)``: the input the rule exists for."""

    @pytest.fixture(scope="class")
    def runs(self):
        bound = ExpSkewWorkload(n=20_000, d=2, seed=7).bound()
        out = {"bound": bound}
        for partitioning in ("grid", "quadtree"):
            engine = ProgXeEngine(bound, VirtualClock(), partitioning=partitioning)
            keys = {r.key() for r in engine.run()}
            out[partitioning] = keys, engine.clock.count("join_result")
        return out

    def test_auto_picks_the_quadtree(self, runs):
        decision = Planner().decide(runs["bound"])
        assert decision.partitioning == "quadtree"
        assert decision.skew == pytest.approx(0.784, abs=0.001)

    def test_the_quadtree_joins_at_most_half_the_grid_pairs(self, runs):
        assert runs["quadtree"][1] <= 0.5 * runs["grid"][1]

    def test_both_partitioners_return_the_same_results(self, runs):
        assert runs["quadtree"][0] and runs["quadtree"][0] == runs["grid"][0]


# ----------------------------------------------------------------------
# engine / session / config wiring
# ----------------------------------------------------------------------
class TestWiring:
    def test_engine_from_auto_preset_records_a_decision(self):
        bound = make_bound(n=100, d=2, seed=21)
        engine, _, _ = Session().build_algorithm(
            bound, config=EngineConfig.preset("auto")
        )
        assert engine.plan_decision is None  # not planned yet
        results = list(engine.run())
        decision = engine.plan_decision
        assert results
        assert decision == Planner().decide(bound)

    def test_session_auto_config_shares_one_planner(self):
        workload = SyntheticWorkload(n=100, d=2, seed=21)
        session = Session().register_tables(workload.tables())
        bound = workload.query().bind(
            {a: session.table(a) for a in ("R", "T")}
        )
        session.execute(bound, config="auto").drain()
        # The session planner summarised each table once.
        counters = session.planner.statistics.counters()
        assert (counters.rebuilds, counters.entries) == (2, 2)
        session.execute(bound, config="auto").drain()
        assert session.planner.statistics.counters().hits >= 2

    def test_finished_auto_stream_releases_its_decision(self):
        """A long-lived session planner keeps source statistics, not one
        decision per query it ever planned."""
        workload = SyntheticWorkload(n=100, d=2, seed=21)
        session = Session().register_tables(workload.tables())
        bound = workload.query().bind(
            {a: session.table(a) for a in ("R", "T")}
        )
        stream = session.execute(bound, config="auto")
        stream.drain()
        decision = weakref.ref(stream.algorithm.plan_decision)
        assert decision() is not None
        del stream
        gc.collect()
        assert decision() is None

    def test_builder_auto_matches_default_result_set(self):
        workload = SyntheticWorkload(n=120, d=2, seed=4)
        session = Session().register_tables(workload.tables())

        def query():
            q = (
                session.query()
                .from_tables("R", "T")
                .join_on("R.jkey = T.jkey")
            )
            for i in range(2):
                q = q.map(f"x{i}", f"R.a{i} + T.b{i}")
            return q.preferring("LOWEST(x0)", "LOWEST(x1)")

        auto = {r.key() for r in query().auto().execute().drain()}
        plain = {r.key() for r in query().execute().drain()}
        assert auto == plain

    @pytest.mark.parametrize(
        "select, where",
        [
            ("(R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1", ""),
            ("(2*R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1", ""),
            ("(R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1", " AND R.a2 <= 50"),
            (
                "(R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1, "
                "(R.a2 + T.b2) AS x2",
                "",
            ),
        ],
        ids=["sum2", "weighted", "filter", "sum3"],
    )
    def test_auto_runs_the_default_plan(self, select, where):
        """On unskewed inputs ``"auto"`` and the default config run the
        same plan: same results in the same order, same steps, same
        clock."""
        tables = SyntheticWorkload(n=800, d=3, sigma=0.05, seed=8).tables()
        prefs = " AND ".join(
            f"LOWEST(x{i})" for i in range(select.count(" AS "))
        )
        sql = (
            f"SELECT R.id AS rid, T.id AS tid, {select} FROM R R, T T "
            f"WHERE R.jkey = T.jkey{where} PREFERRING {prefs}"
        )

        def run(config):
            # A session each: a shared one would serve the second run's
            # partitions from its cache.
            session = Session().register_tables(tables)
            stream = session.execute(session.sql(sql), config=config)
            keys = [r.key() for r in stream.drain()]
            return keys, stream.steps, stream.clock.snapshot()

        auto = run("auto")
        assert auto[0]
        assert auto == run("default")

    def test_filtered_columnar_query_matches_memory(self, tmp_path):
        """Memory filters at bind time, columnar streams the filter: the
        planner-driven result sequence is the same."""
        import dataclasses

        workload = SyntheticWorkload(n=90, d=2, seed=17)
        tables = workload.tables()
        query = dataclasses.replace(
            workload.query(),
            filters=(FilterCondition("R", "a0", "<=", 80.0),),
        )
        streamed = query.bind(_columnar_sources(tables, tmp_path))
        assert isinstance(streamed.left_table, FilteredSource)
        keys_eager = [
            r.key() for r in ProgXeEngine(query.bind(tables), planner=Planner()).run()
        ]
        keys_streamed = [
            r.key() for r in ProgXeEngine(streamed, planner=Planner()).run()
        ]
        assert keys_eager and keys_streamed == keys_eager


# ----------------------------------------------------------------------
# planner transparency: byte-identical to the same knobs by hand
# ----------------------------------------------------------------------
def _columnar_sources(tables, directory) -> dict:
    sources = {}
    for alias, table in tables.items():
        path = directory / f"{alias}.col"
        if not path.exists():
            write_columnar(path, table, name=alias)
        sources[alias] = ColumnarFileSource(path, name=alias)
    return sources


def _bound_for_backend(backend: str, workload: SyntheticWorkload, directory):
    tables = workload.tables()
    if backend == "memory":
        return workload.query().bind(tables)
    return workload.query().bind(_columnar_sources(tables, directory))


def _drain_reports(engine: ProgXeEngine):
    """Step to completion, normalising reports into comparable tuples.

    ``ResultTuple`` keeps identity equality by design, so each result is
    projected onto its (row-identity, vector) value form.
    """
    kernel = engine.kernel()
    reports = []
    while not kernel.finished:
        report = kernel.step()
        reports.append(
            (
                report.kind,
                report.region_id,
                report.step_index,
                report.vtime,
                report.vtime_delta,
                report.charges,
                report.finished,
                tuple((r.key(), r.vector) for r in report.results),
            )
        )
    return reports


@given(
    backend=st.sampled_from(["memory", "columnar"]),
    partitioning=st.sampled_from(["grid", "quadtree"]),
    seed=st.integers(0, 1_000),
)
@settings(max_examples=8, deadline=None)
def test_planner_is_transparent_over_backends(
    backend, partitioning, seed, tmp_path_factory
):
    """A planner-driven run == a hand-configured run with the same knobs."""
    directory = tmp_path_factory.mktemp("planner")
    workload = SyntheticWorkload(n=60, d=2, sigma=0.1, seed=seed)
    planned_engine = ProgXeEngine(
        _bound_for_backend(backend, workload, directory),
        planner=Planner(),
        partitioning=partitioning,
    )
    planned_reports = _drain_reports(planned_engine)
    decision = planned_engine.plan_decision
    assert decision is not None

    manual_engine = ProgXeEngine(
        _bound_for_backend(backend, workload, directory),
        partitioning=decision.partitioning,
    )
    manual_reports = _drain_reports(manual_engine)
    assert planned_reports == manual_reports  # byte-identical step stream

    keys = [key for report in planned_reports for key, _vec in report[-1]]
    assert set(keys) == oracle_skyline_keys(workload.bound())


def test_planner_is_transparent_over_columnar(tmp_path):
    workload = SyntheticWorkload(n=60, d=2, sigma=0.1, seed=77)
    tables = workload.tables()

    def bound():
        return workload.query().bind(_columnar_sources(tables, tmp_path))

    planned = ProgXeEngine(bound(), planner=Planner())
    planned_reports = _drain_reports(planned)
    decision = planned.plan_decision
    manual = ProgXeEngine(
        bound(),
        partitioning=decision.partitioning,
    )
    assert _drain_reports(manual) == planned_reports
