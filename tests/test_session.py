"""Tests for the repro.session service layer.

Covers the ISSUE's acceptance semantics: a cancelled stream emits no
further results, budget exhaustion yields a partial-but-correct prefix with
partial stats populated, and callbacks fire in emission order — plus the
algorithm table, config, builder and session surfaces around them.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.cli import main as cli_main
from repro.core.variants import ALGORITHM_TABLE, ALGORITHMS, lookup_algorithm
from repro.errors import BindingError, QueryError, RegistryError
from repro.session import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    COMPLETED,
    PRESETS,
    EngineConfig,
    QueryBuilder,
    ResultStream,
    Session,
    StreamBudget,
)
from tests.conftest import oracle_skyline_keys


def make_session(bound_workload):
    session = Session()
    session.register_tables(bound_workload.tables())
    return session


@pytest.fixture
def workload():
    return repro.SyntheticWorkload(
        distribution="independent", n=120, d=2, sigma=0.05, seed=42
    )


@pytest.fixture
def session(workload):
    return make_session(workload)


@pytest.fixture
def bound(workload):
    return workload.bound()


# ---------------------------------------------------------------------------
# The algorithm table
# ---------------------------------------------------------------------------
#: Each spelling a name resolved to in the registry-backed lookup, and the
#: factory it resolved to there.
SPELLINGS = [
    ("ProgXe", repro.progxe), ("progxe", repro.progxe),
    ("ProgXe+", repro.progxe_plus), ("progxe+", repro.progxe_plus),
    ("progxe_plus", repro.progxe_plus),
    ("ProgXe (No-Order)", repro.progxe_no_order),
    ("progxe-no-order", repro.progxe_no_order),
    ("ProgXe+ (No-Order)", repro.progxe_plus_no_order),
    ("progxe+-no-order", repro.progxe_plus_no_order),
    ("JF-SL", repro.JoinFirstSkylineLater), ("jfsl", repro.JoinFirstSkylineLater),
    ("JF-SL+", repro.JoinFirstSkylineLaterPlus),
    ("jfsl+", repro.JoinFirstSkylineLaterPlus),
    ("jfsl_plus", repro.JoinFirstSkylineLaterPlus),
    ("SSMJ", repro.SkylineSortMergeJoin), ("ssmj", repro.SkylineSortMergeJoin),
    ("SAJ", repro.SortedAccessJoin), ("saj", repro.SortedAccessJoin),
]


class TestRegistry:
    def test_default_registry_has_all_builtins(self):
        assert tuple(ALGORITHM_TABLE) == (
            "ProgXe", "ProgXe+", "ProgXe (No-Order)", "ProgXe+ (No-Order)",
            "JF-SL", "JF-SL+", "SSMJ", "SAJ",
        )
        assert [e.name for e in ALGORITHM_TABLE.values() if e.configurable] == [
            "ProgXe", "ProgXe+", "ProgXe (No-Order)", "ProgXe+ (No-Order)",
        ]

    def test_algorithms_view_tracks_registry(self):
        # The historical dict surface still works, read-only.
        assert "ProgXe" in ALGORITHMS
        assert list(ALGORITHMS) == list(ALGORITHM_TABLE)
        assert dict(ALGORITHMS)["SSMJ"] is ALGORITHMS["SSMJ"]
        assert len(ALGORITHMS) == len(ALGORITHM_TABLE)
        assert ALGORITHMS is repro.ALGORITHMS
        with pytest.raises(TypeError):
            ALGORITHMS["Mine"] = repro.progxe

    def test_alias_and_case_insensitive_resolution(self):
        assert lookup_algorithm("progxe+") is lookup_algorithm("ProgXe+")
        assert lookup_algorithm("ssmj").factory is ALGORITHMS["SSMJ"]
        assert lookup_algorithm("jfsl").name == "JF-SL"

    @pytest.mark.parametrize(
        "spelling, factory", SPELLINGS, ids=[s for s, _ in SPELLINGS]
    )
    @pytest.mark.parametrize("case", [str, str.upper], ids=["as-is", "upper"])
    def test_every_spelling_resolves_to_its_factory(self, spelling, factory, case):
        assert lookup_algorithm(case(spelling)).factory is factory

    def test_unknown_name_raises_registry_error(self):
        with pytest.raises(RegistryError, match="unknown algorithm"):
            lookup_algorithm("Nonsense")
        with pytest.raises(KeyError):  # RegistryError is a KeyError
            ALGORITHMS["Nonsense"]


# ---------------------------------------------------------------------------
# EngineConfig
# ---------------------------------------------------------------------------
#: The config fields that are ProgXeEngine keywords (the session resolves
#: ``planner`` and ``share_partitions`` into objects).
ENGINE_KEYWORDS = {
    "input_cells", "output_cells", "partitioning",
    "leaf_capacity", "seed", "verify", "follow",
}


class TestEngineConfig:
    def test_defaults_match_engine_defaults(self, bound):
        engine, _, _ = Session().build_algorithm(bound, config=EngineConfig())
        assert engine.ordering and not engine.pushthrough
        assert engine.partitioning == "grid"

    @pytest.mark.parametrize("name, value", [
        ("signature_kind", "bloom"), ("bloom_bits", 512), ("bloom_hashes", 2),
    ])
    @pytest.mark.parametrize("surface", ["config", "with_options", "engine"])
    def test_retired_bloom_knob_is_an_unknown_name(self, bound, surface, name, value):
        """Bloom signatures are gone: a stale knob fails by name on every
        surface instead of being ignored."""
        build = {
            "config": lambda: EngineConfig(**{name: value}),
            "with_options": lambda: EngineConfig().with_options(**{name: value}),
            "engine": lambda: repro.ProgXeEngine(bound, **{name: value}),
        }[surface]
        with pytest.raises(TypeError, match=name):
            build()

    def test_invalid_partitioning(self):
        with pytest.raises(QueryError, match="partitioning"):
            EngineConfig(partitioning="octree")

    def test_invalid_cells(self):
        with pytest.raises(QueryError, match="output_cells"):
            EngineConfig(output_cells=0)

    def test_presets(self):
        assert EngineConfig.preset("default") == EngineConfig()
        assert EngineConfig.preset("production") == EngineConfig(verify=False)
        assert EngineConfig.preset("auto") == EngineConfig(planner=True)
        assert list(PRESETS) == ["default", "production", "auto"]
        with pytest.raises(QueryError, match="unknown preset"):
            EngineConfig.preset("warp-speed")

    def test_with_options_revalidates(self):
        config = EngineConfig().with_options(partitioning="quadtree")
        assert config.partitioning == "quadtree"
        with pytest.raises(QueryError):
            config.with_options(partitioning="nope")

    def test_engine_kwargs_leave_the_variant_to_the_name(self):
        kwargs = EngineConfig().engine_kwargs()
        assert "ordering" not in kwargs and "pushthrough" not in kwargs
        assert set(kwargs) == ENGINE_KEYWORDS

    def test_config_flows_into_engine(self, session, bound):
        stream = session.execute(
            bound, config=EngineConfig(partitioning="quadtree")
        )
        stream.drain()
        assert stream.algorithm.partitioning == "quadtree"

    def test_config_by_preset_name(self, session, bound):
        stream = session.execute(bound, config="production")
        stream.drain()
        assert stream.algorithm.verify is False

    def test_config_rejected_for_baselines(self, session, bound):
        with pytest.raises(QueryError, match="does not accept"):
            session.execute(bound, algorithm="SSMJ", config=EngineConfig())

    def test_field_set(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "input_cells", "output_cells", "partitioning",
            "leaf_capacity", "seed", "verify", "follow", "planner",
            "share_partitions",
        ]

    @pytest.mark.parametrize("name, value", [
        ("input_cells", 3), ("output_cells", 5),
        ("partitioning", "quadtree"), ("leaf_capacity", 16), ("seed", 7),
        ("verify", False), ("follow", True),
    ])
    def test_every_engine_keyword_reaches_the_engine(self, bound, name, value):
        config = EngineConfig(**{name: value})
        assert set(config.engine_kwargs()) == ENGINE_KEYWORDS
        engine, _, _ = Session().build_algorithm(bound, config=config)
        assert getattr(engine, name) == value

    @pytest.mark.parametrize("key, value", [
        ("workers", 2), ("use_vectorized", False), ("batch_size", 8),
    ])
    @pytest.mark.parametrize("surface", ["config", "with_options", "engine"])
    def test_retired_option_is_a_type_error(self, bound, surface, key, value):
        build = {
            "config": lambda: EngineConfig(**{key: value}),
            "with_options": lambda: EngineConfig().with_options(**{key: value}),
            "engine": lambda: repro.ProgXeEngine(bound, **{key: value}),
        }[surface]
        with pytest.raises(TypeError, match=key):
            build()


# ---------------------------------------------------------------------------
# One switch: the algorithm name selects push-through and ordering
# ---------------------------------------------------------------------------
#: Each registered ProgXe variant and the ``(pushthrough, ordering)`` its
#: name says.
VARIANTS = {
    "ProgXe": (False, True),
    "ProgXe+": (True, True),
    "ProgXe (No-Order)": (False, False),
    "ProgXe+ (No-Order)": (True, False),
}


def switches(engine) -> tuple[bool, bool]:
    return engine.pushthrough, engine.ordering


class TestOneSwitch:
    @pytest.mark.parametrize("preset", list(PRESETS))
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_execute_runs_the_named_variant(self, session, bound, name, preset):
        stream = session.execute(bound, algorithm=name, config=preset)
        stream.drain()
        assert stream.state == COMPLETED
        assert switches(stream.algorithm) == VARIANTS[name]

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_scheduler_runs_the_named_variant(self, session, bound, name):
        scheduler = session.scheduler()
        handle = scheduler.submit(bound, algorithm=name, config="production")
        scheduler.run_all()
        assert handle.state == COMPLETED
        assert switches(handle.algorithm) == VARIANTS[name]

    @pytest.mark.parametrize("name", ["pushthrough", "ordering"])
    @pytest.mark.parametrize("surface", ["config", "with_options"])
    def test_a_config_naming_a_switch_fails_by_name(self, surface, name):
        build = {
            "config": lambda: EngineConfig(**{name: True}),
            "with_options": lambda: EngineConfig().with_options(**{name: True}),
        }[surface]
        with pytest.raises(QueryError, match=rf"'{name}' is not an EngineConfig field.*ProgXe"):
            build()

    def test_a_config_alone_builds_plain_progxe(self, bound):
        engine, _, _ = Session().build_algorithm(bound, config="production")
        assert switches(engine) == (False, True) and not engine.verify
        assert engine.name == "ProgXe"

    def test_the_cli_refuses_the_retired_preset(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "-n", "40", "--preset", "progressive-plus"])
        assert exit_info.value.code == 2
        assert "progressive-plus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ResultStream semantics
# ---------------------------------------------------------------------------
class TestResultStream:
    def test_pull_iteration_matches_oracle(self, session, bound):
        stream = session.execute(bound)
        results = list(stream)
        assert stream.state == COMPLETED
        assert {r.key() for r in results} == oracle_skyline_keys(bound)
        assert stream.stats().completed

    def test_cancel_mid_stream_emits_no_further_results(self, session, bound):
        stream = session.execute(bound)
        first = next(iter(stream))
        assert first is not None
        stream.cancel()
        remaining = list(stream)
        assert remaining == []
        assert stream.state == CANCELLED
        assert len(stream.results) == 1
        # Terminal: iterating again yields nothing.
        assert list(stream) == []

    def test_cancel_from_on_result_callback(self, session, bound):
        stream = session.execute(bound)
        stream.on_result(lambda r: stream.cancel("enough"))
        results = stream.drain()
        assert len(results) == 1
        assert stream.state == CANCELLED
        assert stream.stats().stop_reason == "enough"

    def test_cancel_before_start(self, session, bound):
        stream = session.execute(bound)
        stream.cancel()
        assert list(stream) == []
        assert stream.state == CANCELLED
        assert stream.results == []

    def test_result_budget_yields_exact_prefix(self, session, bound):
        full = session.execute(bound).drain()
        assert len(full) > 3
        stream = session.execute(bound, budget=StreamBudget(max_results=3))
        partial = stream.drain()
        assert stream.state == BUDGET_EXHAUSTED
        assert len(partial) == 3
        # The budgeted prefix is exactly the first results of the full run.
        assert [r.key() for r in partial] == [r.key() for r in full[:3]]

    def test_budget_prefix_is_provably_final(self, session, bound):
        # Every result a budgeted stream emitted belongs to the true skyline.
        oracle = oracle_skyline_keys(bound)
        stream = session.execute(
            bound, budget=StreamBudget(max_comparisons=200)
        )
        partial = stream.drain()
        assert {r.key() for r in partial} <= oracle

    def test_vtime_budget_stops_engine_mid_run(self, session, bound):
        unlimited = session.run(bound)
        horizon = unlimited.recorder.total_vtime
        stream = session.execute(
            bound, budget=StreamBudget(max_vtime=horizon / 4)
        )
        stream.drain()
        assert stream.state == BUDGET_EXHAUSTED
        stats = stream.stats()
        assert "virtual time budget" in stats.stop_reason
        assert len(stream.results) < unlimited.recorder.total_results
        # The tripwire stops within one charge of the ceiling, not at the
        # end of the run.
        assert stats.vtime < horizon

    def test_partial_stats_populated_after_budget_stop(self, session, bound):
        stream = session.execute(bound, budget=StreamBudget(max_results=2))
        stream.drain()
        stats = stream.stats()
        assert stats.results == 2
        assert stats.state == BUDGET_EXHAUSTED
        assert stats.time_to_first is not None
        assert stats.time_to_first <= stats.vtime
        assert 0.0 <= stats.auc <= 1.0
        assert stats.batches >= 1
        assert stats.dominance_comparisons > 0
        assert "result budget" in stats.stop_reason

    def test_callbacks_fire_in_emission_order(self, session, bound):
        events: list[tuple[str, int]] = []
        stream = session.execute(bound)
        stream.on_result(
            lambda r: events.append(("result", len(stream.results)))
        ).on_progress(
            lambda e: events.append(("progress", e.index))
        ).on_complete(
            lambda s: events.append(("complete", s.results))
        )
        results = stream.drain()
        n = len(results)
        expected: list[tuple[str, int]] = []
        for i in range(1, n + 1):
            expected.append(("result", i))
            expected.append(("progress", i))
        expected.append(("complete", n))
        assert events == expected

    def test_on_complete_fires_once_on_cancel(self, session, bound):
        seen = []
        stream = session.execute(bound).on_complete(lambda s: seen.append(s))
        next(iter(stream))
        stream.cancel()
        list(stream)
        list(stream)
        assert len(seen) == 1
        assert seen[0].state == CANCELLED

    def test_progress_events_carry_monotonic_vtime(self, session, bound):
        vtimes = []
        stream = session.execute(bound).on_progress(
            lambda e: vtimes.append(e.vtime)
        )
        stream.drain()
        assert vtimes == sorted(vtimes)

    def test_recorded_vtimes_are_the_kernel_stamps(self, session, bound):
        """A step's results reach the stream together, yet each is recorded
        at the clock reading at which the kernel made it final."""
        stream = session.execute(
            bound, config=EngineConfig(share_partitions=False)
        )
        stream.drain()
        kernel = repro.ProgXeEngine(bound).kernel()
        stamps: list[float] = []
        while not kernel.finished:
            stamps.extend(kernel.step().result_vtimes)
        assert [e.vtime for e in stream.recorder.events] == stamps
        assert len(set(stamps)) > 1

    def test_to_run_result_round_trip(self, session, bound):
        stream = session.execute(bound)
        stream.drain()
        run = stream.to_run_result()
        assert run.name == "ProgXe"
        assert run.result_keys == oracle_skyline_keys(bound)
        assert run.summary()["results"] == len(stream.results)

    def test_budget_validation(self):
        with pytest.raises(QueryError, match="positive"):
            StreamBudget(max_results=0)
        assert StreamBudget().unlimited
        assert not StreamBudget(max_vtime=10.0).unlimited

    def test_wall_clock_budget(self, session, bound):
        # An (absurdly small) wall budget still yields a clean stop.
        stream = session.execute(
            bound, budget=StreamBudget(max_wall_seconds=1e-9)
        )
        stream.drain()
        assert stream.state == BUDGET_EXHAUSTED
        assert "wall-clock" in stream.stats().stop_reason

    def test_stream_works_for_baselines(self, session, bound):
        stream = session.execute(bound, algorithm="SSMJ")
        results = stream.drain()
        assert stream.state == COMPLETED
        assert {r.key() for r in results} == oracle_skyline_keys(bound)


# ---------------------------------------------------------------------------
# QueryBuilder
# ---------------------------------------------------------------------------
class TestQueryBuilder:
    def build(self, session):
        return (
            session.query()
            .from_tables("R", "T")
            .join_on("R.jkey = T.jkey")
            .map("x0", "R.a0 + T.b0")
            .map("x1", "R.a1 + T.b1")
            .select(("R.id", "left_id"), ("T.id", "right_id"))
            .preferring(repro.lowest("x0"), "LOWEST(x1)")
        )

    def test_builder_matches_workload_query(self, session, bound):
        built = self.build(session).bind()
        run = session.run(built)
        assert run.result_keys == oracle_skyline_keys(bound)

    def test_execute_through_session(self, session, bound):
        stream = self.build(session).execute(algorithm="ProgXe+")
        results = stream.drain()
        assert {r.key() for r in results} == oracle_skyline_keys(bound)

    def test_string_expressions_and_table_objects(self, workload):
        tables = workload.tables()
        builder = (
            QueryBuilder()
            .from_tables(tables["R"], tables["T"])
            .join_on("jkey", "jkey")
            .map("sum0", repro.Attr("R", "a0") + repro.Attr("T", "b0"))
            .preferring("lowest(sum0)")
        )
        bound = builder.bind()
        assert bound.skyline_dimension_count == 1

    def test_where_forms(self, session):
        builder = (
            self.build(session)
            .where("R.a0 <= 90")
            .where("T.b1", "<=", 95.0)
        )
        bound = builder.bind()
        assert all(row[2] <= 90 for row in bound.left_table.rows)

    def test_join_on_reversed_alias_order(self, session):
        builder = (
            session.query()
            .from_tables("R", "T")
            .join_on("T.jkey = R.jkey")
            .map("x0", "R.a0 + T.b0")
            .preferring("LOWEST(x0)")
        )
        query = builder.build()
        assert query.join.left_attr == "jkey"

    def test_builder_validation_errors(self, session):
        with pytest.raises(QueryError, match="from_tables"):
            session.query().join_on("R.jkey = T.jkey")
        with pytest.raises(QueryError, match="join condition"):
            session.query().from_tables("R", "T").build()
        with pytest.raises(QueryError, match="mapping"):
            (session.query().from_tables("R", "T")
             .join_on("R.jkey = T.jkey").build())
        with pytest.raises(QueryError, match="preference"):
            (session.query().from_tables("R", "T")
             .join_on("R.jkey = T.jkey").map("x", "R.a0 + T.b0").build())

    def test_unattached_builder_cannot_resolve_names(self):
        with pytest.raises(QueryError, match="not\\s"):
            QueryBuilder().from_tables("R", "T")

    def test_where_rejects_join_condition(self, session):
        with pytest.raises(QueryError, match="join_on"):
            self.build(session).where("R.jkey = T.jkey")


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
class TestSession:
    def test_sql_execution(self, session, bound):
        stream = session.execute(
            "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
            "FROM R R, T T WHERE R.jkey = T.jkey "
            "PREFERRING LOWEST(x0) AND LOWEST(x1)"
        )
        results = stream.drain()
        assert {r.key() for r in results} == oracle_skyline_keys(bound)

    def test_execute_accepts_logical_query(self, session, workload, bound):
        run = session.run(workload.query())
        assert run.result_keys == oracle_skyline_keys(bound)

    def test_execute_rejects_unknown_shape(self, session):
        with pytest.raises(QueryError, match="cannot execute"):
            session.execute(42)

    def test_unknown_table(self, session):
        with pytest.raises(BindingError, match="no table registered"):
            session.table("Missing")

    def test_compare_by_names(self, session, bound):
        report = session.compare(bound, ["ProgXe", "SSMJ", "JF-SL"])
        assert set(report.runs) == {"ProgXe", "SSMJ", "JF-SL"}
        # verify_agreement ran without raising: all result sets agree.

    def test_compare_with_budget_skips_verification(self, session, bound):
        report = session.compare(
            bound, ["ProgXe", "JF-SL"], budget=StreamBudget(max_results=1)
        )
        assert all(
            len(run.results) <= 1 for run in report.runs.values()
        )

    def test_compare_with_config_ignores_baselines(self, session, bound):
        report = session.compare(
            bound, ["ProgXe", "SSMJ"],
            config=EngineConfig(partitioning="quadtree"),
        )
        assert report.runs["ProgXe"].algorithm.partitioning == "quadtree"

    def test_clock_weights_propagate(self, bound, workload):
        session = Session(clock_weights={"dominance_cmp": 10.0})
        session.register_tables(workload.tables())
        stream = session.execute(bound)
        stream.drain()
        assert stream.clock.weights["dominance_cmp"] == 10.0

    def test_run_algorithm_budget_shim(self, bound):
        run = repro.run_algorithm(
            repro.progxe, bound, budget=StreamBudget(max_results=2)
        )
        assert len(run.results) == 2

    def test_compare_algorithms_accepts_names(self, bound):
        report = repro.compare_algorithms(["ProgXe", "SSMJ"], bound)
        assert set(report.runs) == {"ProgXe", "SSMJ"}


# ---------------------------------------------------------------------------
# parser fragments used by the builder
# ---------------------------------------------------------------------------
class TestParserFragments:
    def test_parse_expression(self):
        expr = repro.query.parse_expression("2 * R.manTime + T.shipTime")
        assert ("R", "manTime") in expr.attributes()

    def test_parse_expression_rejects_trailing(self):
        with pytest.raises(repro.ParseError, match="trailing"):
            repro.query.parse_expression("R.a + T.b extra")

    def test_parse_preference(self):
        pref = repro.query.parse_preference("highest(profit)")
        assert pref.attribute == "profit"
        assert pref.direction is repro.HIGHEST

    def test_parse_condition_filter(self):
        cond = repro.query.parse_condition("R.manCap >= 100K")
        assert cond.op == ">=" and cond.literal == 100_000.0

    def test_parse_condition_membership(self):
        cond = repro.query.parse_condition("'P1' IN R.suppliedParts")
        assert cond.op == "contains"

    def test_parse_condition_join(self):
        cond = repro.query.parse_condition("R.country = T.country")
        assert cond == repro.query.JoinCondition("country", "country")


# ---------------------------------------------------------------------------
# batched execution: budgets and callback error surfacing
# ---------------------------------------------------------------------------
class TestVectorizedBatchBudgets:
    """Budget enforcement on the batched (columnar) execution path.

    The engine charges dominance comparisons in bulk, so a comparison
    budget can trip in the middle of a batch; the stream must still stop
    cleanly and everything already emitted must be provably final (a
    subset of the true skyline).
    """

    def test_comparison_budget_trips_mid_batch(self, session, bound):
        oracle = oracle_skyline_keys(bound)
        full = session.execute(bound).drain()
        assert {r.key() for r in full} == oracle
        # Walk the budget down so at least one run stops mid-execution.
        stopped = 0
        for max_cmp in (5000, 1000, 200, 50, 10):
            stream = session.execute(
                bound, budget=StreamBudget(max_comparisons=max_cmp)
            )
            partial = stream.drain()
            if stream.state == BUDGET_EXHAUSTED:
                stopped += 1
                assert "comparison budget" in stream.stats().stop_reason
                assert len(partial) < len(full)
            # The emitted prefix is provably final regardless of where the
            # bulk charge tripped the wire.
            assert {r.key() for r in partial} <= oracle
        assert stopped > 0

    def test_vtime_budget_trips_mid_batch(self, session, bound):
        oracle = oracle_skyline_keys(bound)
        horizon = session.run(bound).recorder.total_vtime
        stream = session.execute(bound, budget=StreamBudget(max_vtime=horizon / 3))
        partial = stream.drain()
        assert stream.state == BUDGET_EXHAUSTED
        assert {r.key() for r in partial} <= oracle

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_stream_passes_the_oracle(self, session, bound, preset):
        results = session.execute(bound, config=preset).drain()
        report = repro.verify_results(bound, results)
        assert report.ok, report.render()

    def test_scalar_reference_preset_is_gone(self):
        with pytest.raises(
            QueryError,
            match="unknown preset 'scalar-reference'; available: default, "
            "production, auto$",
        ):
            EngineConfig.preset("scalar-reference")


class TestCallbackErrorSurfacing:
    """A raising on_result callback must never be silently lost."""

    def test_raising_on_result_propagates_by_default(self, session, bound):
        def boom(result):
            raise RuntimeError("callback exploded")

        stream = session.execute(bound).on_result(boom)
        with pytest.raises(RuntimeError, match="callback exploded"):
            stream.drain()

    def test_raising_on_progress_propagates_by_default(self, session, bound):
        stream = session.execute(bound).on_progress(
            lambda e: (_ for _ in ()).throw(ValueError("progress boom"))
        )
        with pytest.raises(ValueError, match="progress boom"):
            stream.drain()

    def test_raising_on_complete_propagates_by_default(self, session, bound):
        def boom(stats):
            raise RuntimeError("complete boom")

        stream = session.execute(bound).on_complete(boom)
        with pytest.raises(RuntimeError, match="complete boom"):
            stream.drain()

    def test_on_error_routes_exception_and_stream_continues(
        self, session, bound
    ):
        captured: list[BaseException] = []

        def boom(result):
            raise RuntimeError("routed")

        stream = (
            session.execute(bound)
            .on_result(boom)
            .on_error(lambda exc: captured.append(exc))
        )
        results = stream.drain()
        assert stream.state == COMPLETED
        assert len(results) > 0
        # One routed exception per emission, none swallowed.
        assert len(captured) == len(results)
        assert all(isinstance(e, RuntimeError) for e in captured)

    def test_on_error_is_chainable(self, session, bound):
        stream = session.execute(bound)
        assert stream.on_error(lambda exc: None) is stream
