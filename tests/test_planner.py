"""Tests for the statistics-driven cost-based planner (:mod:`repro.planner`).

The planner's contract has three layers, each tested here:

1. **Statistics** — one sampled scan per source, cached by ``cache_token``;
   streaming appends only *patch* the summary, any other change rebuilds it.
2. **Estimates** — fanout, join cardinality and skyline size are sane and
   monotone in the obvious directions.
3. **Decisions are advisory, never semantic** — a planner-driven engine
   produces byte-identical results to a hand-configured engine with the
   same knobs, across storage backends and partitioners; unpinned grid
   granularity is the engine default, so on unskewed inputs ``"auto"``
   runs exactly the default plan.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_bound, oracle_skyline_keys
from repro.core.engine import ProgXeEngine
from repro.core.explain import explain_estimates
from repro.core.plan import default_input_cells
from repro.data.workloads import SyntheticWorkload
from repro.planner import (
    Planner,
    StatisticsCounters,
    StatisticsStore,
    collect_statistics,
)
from repro.planner.choose import SKEW_THRESHOLD
from repro.planner.cost import join_cardinality, partition_fanout
from repro.query.smj import FilterCondition
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
        assert a0.minimum == 0.0 and a0.maximum == 63.0
        assert sum(a0.histogram) == 64

    def test_ndv_counts_join_key_cardinality(self):
        stats = collect_statistics(small_table(64))
        assert stats.key_ndv("jkey") == pytest.approx(8.0)

    def test_non_numeric_columns_get_distinct_only_summary(self):
        stats = collect_statistics(small_table(16))
        ids = stats.column("id")
        assert not ids.numeric
        assert ids.ndv(16) == pytest.approx(16.0)

    def test_equality_selectivity_uses_ndv(self):
        stats = collect_statistics(small_table(64))
        cond = FilterCondition("R", "jkey", "=", 3)
        sel = stats.selectivity([cond])
        assert sel == pytest.approx(1 / 8, rel=0.01)

    def test_range_selectivity_uses_histogram(self):
        stats = collect_statistics(small_table(64))
        half = stats.selectivity([FilterCondition("R", "a0", "<=", 31.0)])
        assert 0.4 <= half <= 0.6
        everything = stats.selectivity([FilterCondition("R", "a0", "<=", 63.0)])
        assert everything == pytest.approx(1.0)

    def test_selectivity_is_clamped_to_a_floor(self):
        stats = collect_statistics(small_table(64))
        none = stats.selectivity([FilterCondition("R", "a0", "<", -5.0)])
        assert none >= 1e-4


# ----------------------------------------------------------------------
# the statistics store: cache, patch, rebuild
# ----------------------------------------------------------------------
class TestCorrelation:
    def table_with(self, pair, n: int = 256) -> Table:
        rows = [(f"R{i}", i % 8, *pair(i, n)) for i in range(n)]
        return Table("R", ["id", "jkey", "a0", "a1"], rows)

    def test_signed_correlation_tracks_linear_dependence(self):
        up = collect_statistics(
            self.table_with(lambda i, n: (float(i), float(2 * i)))
        )
        down = collect_statistics(
            self.table_with(lambda i, n: (float(i), float(n - i)))
        )
        flat = collect_statistics(
            self.table_with(lambda i, n: (float(i), float(i * 31 % n)))
        )
        assert up.correlation("a0", "a1") == pytest.approx(1.0)
        assert down.correlation("a0", "a1") == pytest.approx(-1.0)
        assert abs(flat.correlation("a0", "a1")) < 0.3

    def test_correlation_is_zero_when_undefined(self):
        stats = collect_statistics(
            self.table_with(lambda i, n: (float(i), 5.0))
        )
        assert stats.correlation("a0", "a1") == 0.0  # constant column
        assert stats.correlation("a0", "missing") == 0.0
        assert stats.correlation("a0", "a0") == 1.0

    def test_streaming_patch_folds_moments(self):
        store = StatisticsStore()
        table = self.table_with(lambda i, n: (float(i), float(i)), n=32)
        store.for_source(table)
        table.extend_rows([("R99", 3, 99.0, 99.0)])
        patched = store.for_source(table)
        assert store.counters().patches == 1
        assert patched.moment_count == 33
        assert patched.correlation("a0", "a1") == pytest.approx(1.0)

    def test_correlated_fanout_shrinks_toward_diagonal(self):
        stats = collect_statistics(
            self.table_with(lambda i, n: (float(i), float(i)))
        )
        independent = partition_fanout(stats, ("a0", "a1"), 8)
        diagonal = partition_fanout(
            stats, ("a0", "a1"), 8, correlation=1.0
        )
        assert diagonal < independent
        assert diagonal == pytest.approx(independent**0.5)


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
        assert patched.column("a0").maximum == 99.0

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
# estimates
# ----------------------------------------------------------------------
class TestCostModel:
    def test_fanout_grows_with_granularity_but_never_exceeds_rows(self):
        stats = collect_statistics(small_table(64))
        fanouts = [
            partition_fanout(stats, ("a0", "a1"), cells)
            for cells in (1, 2, 3, 4, 6, 8)
        ]
        assert fanouts == sorted(fanouts)
        assert all(f <= 64 for f in fanouts)

    def test_join_cardinality_matches_uniform_equijoin(self):
        left = collect_statistics(small_table(64, "R"))
        right = collect_statistics(small_table(64, "T"))
        estimate = join_cardinality(
            left, right, "jkey", "jkey", rows_left=64, rows_right=64
        )
        # 64 * 64 / ndv(8): the classical System-R estimate.
        assert estimate == pytest.approx(512.0, rel=0.05)


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

    def test_fanout_is_estimated_at_the_granularity_in_effect(self):
        bound = make_bound(n=200, d=2, seed=3)
        planner = Planner()
        default = planner.decide(bound).estimates
        coarse = planner.decide(bound, input_cells=1).estimates
        assert coarse.fanout_left == coarse.fanout_right == 1.0
        assert default.fanout_left > coarse.fanout_left
        assert default.regions == default.fanout_left * default.fanout_right

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

    def test_skewed_join_keys_select_quadtree(self):
        bound = make_bound(n=300, d=2, seed=3, skew=6.0)
        planner = Planner()
        decision = planner.decide(bound)
        skew = decision.estimates.skew
        assert decision.partitioning == (
            "quadtree" if skew >= SKEW_THRESHOLD else "grid"
        )

    def test_a_run_leaves_the_next_decision_unchanged(self):
        """Estimates come from the source statistics alone: a finished
        run over the same tables does not move them."""
        bound = SyntheticWorkload(n=150, d=2, seed=9).bound()
        planner = Planner()
        engine = ProgXeEngine(bound, planner=planner)
        for _ in engine.run():
            pass
        first = engine.plan_decision
        assert first.actuals["join_rows"] != first.estimates.join_rows
        second = planner.decide(bound)
        assert second.estimates == first.estimates
        assert second.partitioning == first.partitioning
        assert second.actuals == {}

    def test_run_actuals_are_the_clock_and_result_counts(self):
        bound = SyntheticWorkload(n=120, d=2, seed=5).bound()
        engine = ProgXeEngine(bound, planner=Planner())
        results = list(engine.run())
        actuals = engine.plan_decision.actuals
        assert actuals["join_rows"] == engine.clock.count("join_result")
        assert actuals["skyline_size"] == len(results)
        assert actuals["rows_scanned"] == len(bound.left_table) + len(bound.right_table)

    def test_statistics_counters_hold_only_summary_outcomes(self):
        assert [f.name for f in dataclasses.fields(StatisticsCounters)] == [
            "hits", "patches", "rebuilds", "entries",
        ]

    def test_every_estimate_gets_an_actual_after_a_run(self):
        report = explain_estimates(SyntheticWorkload(n=100, d=2).bound())
        assert len(report.rows) == 5
        for row in report.rows:
            assert row.actual is not None
            assert row.relative_error is not None
        exact = {r.metric: r for r in report.rows}
        assert exact["rows scanned"].relative_error == 0.0

    def test_report_names_only_applied_knobs(self):
        """The report's knobs are exactly what the decision applies, in
        both the text table and the ``--format json`` payload."""
        report = explain_estimates(SyntheticWorkload(n=100, d=2).bound())
        payload = report.to_dict()
        assert set(payload) == {"partitioning", "input_cells", "pinned", "rows"}
        knob_lines = report.render().splitlines()[1:3]
        assert [line.split(":")[0].strip() for line in knob_lines] == [
            "partitioning", "input cells",
        ]
        assert report.render().splitlines()[3] == ""

    def test_quadtree_report_has_no_grid_granularity(self):
        report = explain_estimates(
            SyntheticWorkload(n=100, d=2).bound(),
            config=EngineConfig(partitioning="quadtree"),
        )
        assert report.partitioning == "quadtree"
        assert report.input_cells is None
        assert report.to_dict()["input_cells"] is None
        assert "input cells" not in report.render()


# ----------------------------------------------------------------------
# engine / session / config wiring
# ----------------------------------------------------------------------
class TestWiring:
    def test_engine_from_auto_preset_records_a_decision(self):
        bound = make_bound(n=100, d=2, seed=21)
        engine = ProgXeEngine.from_config(
            bound, config=EngineConfig.preset("auto")
        )
        assert engine.plan_decision is None  # not planned yet
        results = list(engine.run())
        decision = engine.plan_decision
        assert decision is not None
        assert results and decision.actuals["skyline_size"] == len(results)

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
