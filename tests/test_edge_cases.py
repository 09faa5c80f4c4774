"""Edge-case battery: degenerate inputs, boundary values, tie handling.

Each test targets a specific hazard the main suites do not reach: empty
joins, all-duplicate data, single rows, extreme selectivities, boundary
clamping, custom clock weights.
"""

import numpy as np

import repro
from tests.conftest import oracle_skyline_keys
from repro.core.engine import ProgXeEngine
from repro.core.variants import ALGORITHMS
from repro.query.expressions import Attr
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.smj import JoinCondition, PassThrough, SkyMapJoinQuery
from repro.runtime.clock import VirtualClock
from repro.runtime.runner import run_algorithm
from repro.skyline.preferences import ParetoPreference, highest, lowest
from repro.storage.table import Table


def bind_tables(left_rows, right_rows, *, prefs=None, mappings=None):
    left = Table("L", ["id", "jkey", "a0", "a1"], left_rows)
    right = Table("R2", ["id", "jkey", "b0", "b1"], right_rows)
    mappings = mappings or MappingSet(
        [
            MappingFunction("x0", Attr("L", "a0") + Attr("R2", "b0")),
            MappingFunction("x1", Attr("L", "a1") + Attr("R2", "b1")),
        ]
    )
    query = SkyMapJoinQuery(
        left_alias="L",
        right_alias="R2",
        join=JoinCondition("jkey", "jkey"),
        mappings=mappings,
        preference=prefs or ParetoPreference([lowest("x0"), lowest("x1")]),
        passthrough=(PassThrough("L", "id", "lid"),),
    )
    return query.bind({"L": left, "R2": right})


class TestEmptyJoin:
    def test_no_matching_keys_yields_empty_skyline(self):
        bound = bind_tables(
            [("l1", "k1", 1.0, 1.0)], [("r1", "k2", 1.0, 1.0)]
        )
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.results == [], f"{name} fabricated results"

    def test_single_matching_pair(self):
        bound = bind_tables(
            [("l1", "k", 1.0, 1.0), ("l2", "x", 0.0, 0.0)],
            [("r1", "k", 2.0, 2.0)],
        )
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert len(run.results) == 1, name
            assert run.results[0].mapped == (3.0, 3.0)


class TestDuplicates:
    def test_all_identical_rows(self):
        """Every joined pair maps to the same point: all are in the skyline."""
        left = [("l%d" % i, "k", 5.0, 5.0) for i in range(4)]
        right = [("r%d" % i, "k", 3.0, 3.0) for i in range(3)]
        bound = bind_tables(left, right)
        oracle = oracle_skyline_keys(bound)
        assert len(oracle) == 12
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.result_keys == oracle, name

    def test_tied_values_on_cell_boundaries(self):
        """Integer-valued attributes land exactly on grid lines."""
        rng = np.random.default_rng(3)
        left = [
            (f"l{i}", f"k{i % 3}", float(rng.integers(0, 5)),
             float(rng.integers(0, 5)))
            for i in range(40)
        ]
        right = [
            (f"r{i}", f"k{i % 3}", float(rng.integers(0, 5)),
             float(rng.integers(0, 5)))
            for i in range(40)
        ]
        bound = bind_tables(left, right)
        oracle = oracle_skyline_keys(bound)
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.result_keys == oracle, name

    def test_progxe_emissions_with_ties_are_safe(self):
        rng = np.random.default_rng(5)
        left = [
            (f"l{i}", "k", float(rng.integers(0, 3)), float(rng.integers(0, 3)))
            for i in range(25)
        ]
        right = [
            (f"r{i}", "k", float(rng.integers(0, 3)), float(rng.integers(0, 3)))
            for i in range(25)
        ]
        bound = bind_tables(left, right)
        oracle = oracle_skyline_keys(bound)
        engine = ProgXeEngine(bound, VirtualClock())
        seen = set()
        for result in engine.run():
            assert result.key() in oracle
            seen.add(result.key())
        assert seen == oracle


class TestSingleRows:
    def test_one_row_each(self):
        bound = bind_tables([("l", "k", 1.0, 2.0)], [("r", "k", 3.0, 4.0)])
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert len(run.results) == 1, name


class TestMixedDirections:
    def test_highest_lowest_mix(self):
        rng = np.random.default_rng(7)
        left = [
            (f"l{i}", f"k{i % 4}", float(rng.uniform(0, 10)),
             float(rng.uniform(0, 10)))
            for i in range(50)
        ]
        right = [
            (f"r{i}", f"k{i % 4}", float(rng.uniform(0, 10)),
             float(rng.uniform(0, 10)))
            for i in range(50)
        ]
        prefs = ParetoPreference([highest("x0"), lowest("x1")])
        bound = bind_tables(left, right, prefs=prefs)
        oracle = oracle_skyline_keys(bound)
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.result_keys == oracle, name

    def test_subtraction_mapping(self):
        """Mappings with negative monotonicity on one source."""
        rng = np.random.default_rng(8)
        left = [
            (f"l{i}", f"k{i % 3}", float(rng.uniform(1, 10)),
             float(rng.uniform(1, 10)))
            for i in range(40)
        ]
        right = [
            (f"r{i}", f"k{i % 3}", float(rng.uniform(1, 10)),
             float(rng.uniform(1, 10)))
            for i in range(40)
        ]
        mappings = MappingSet(
            [
                MappingFunction("x0", Attr("L", "a0") - Attr("R2", "b0")),
                MappingFunction("x1", Attr("L", "a1") + 2 * Attr("R2", "b1")),
            ]
        )
        bound = bind_tables(left, right, mappings=mappings)
        oracle = oracle_skyline_keys(bound)
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.result_keys == oracle, name

    def test_non_monotone_mapping_disables_pushthrough_but_stays_correct(self):
        """attr*attr mappings: push-through must bail, results stay right."""
        rng = np.random.default_rng(9)
        left = [
            (f"l{i}", f"k{i % 3}", float(rng.uniform(1, 5)),
             float(rng.uniform(1, 5)))
            for i in range(30)
        ]
        right = [
            (f"r{i}", f"k{i % 3}", float(rng.uniform(1, 5)),
             float(rng.uniform(1, 5)))
            for i in range(30)
        ]
        mappings = MappingSet(
            [
                MappingFunction("x0", Attr("L", "a0") * Attr("R2", "b0")),
                MappingFunction("x1", Attr("L", "a1") + Attr("R2", "b1")),
            ]
        )
        bound = bind_tables(left, right, mappings=mappings)
        oracle = oracle_skyline_keys(bound)
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.result_keys == oracle, name


class TestClockWeights:
    def test_custom_weights_change_time_not_results(self, small_bound):
        default = run_algorithm(
            lambda b, c: ProgXeEngine(b, c), small_bound,
            clock=VirtualClock(),
        )
        heavy_cmp = run_algorithm(
            lambda b, c: ProgXeEngine(b, c), small_bound,
            clock=VirtualClock(weights={"dominance_cmp": 10.0}),
        )
        assert default.result_keys == heavy_cmp.result_keys
        assert heavy_cmp.recorder.total_vtime > default.recorder.total_vtime

    def test_counts_identical_across_weightings(self, small_bound):
        a = run_algorithm(
            lambda b, c: ProgXeEngine(b, c), small_bound,
            clock=VirtualClock(),
        )
        b = run_algorithm(
            lambda b, c: ProgXeEngine(b, c), small_bound,
            clock=VirtualClock(weights={"map": 3.0}),
        )
        assert a.clock.snapshot() == b.clock.snapshot()


class TestExtremeSelectivity:
    def test_full_cross_product(self):
        """sigma = 1: every pair joins."""
        rng = np.random.default_rng(11)
        left = [
            (f"l{i}", "k", float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            for i in range(25)
        ]
        right = [
            (f"r{i}", "k", float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            for i in range(25)
        ]
        bound = bind_tables(left, right)
        oracle = oracle_skyline_keys(bound)
        for name, factory in ALGORITHMS.items():
            run = run_algorithm(factory, bound)
            assert run.result_keys == oracle, name


class TestNumberContract:
    def test_integers_beyond_2_53_compare_as_float64(self):
        """``docs/api.md``: mapped values are IEEE float64.  2**53 and
        2**53 + 1 round to the same double, so the engine returns both
        rows as a tie where exact integer arithmetic keeps only the first.
        Changing this contract must be a deliberate edit of this test."""
        left = Table.from_rows(
            "R", ["id", "jkey", "a0"], [("r0", 1, 2**53), ("r1", 1, 2**53 + 1)]
        )
        right = Table.from_rows("T", ["id", "jkey", "b0"], [("t0", 1, 0)])
        session = repro.Session().register_tables({"R": left, "T": right})
        results = session.execute(session.sql(
            "SELECT R.id, T.id, (R.a0 + T.b0) AS x0 FROM R R, T T "
            "WHERE R.jkey = T.jkey PREFERRING LOWEST(x0)"
        )).drain()
        assert sorted(r.outputs["id"] for r in results) == ["r0", "r1"]
        assert [r.outputs["x0"] for r in results] == [9007199254740992.0] * 2
        # The exact-integer oracle: only r0 attains the minimum.
        exact = {lrow[0]: lrow[2] + rrow[2] for lrow in left.rows for rrow in right.rows}
        assert [k for k, v in exact.items() if v == min(exact.values())] == ["r0"]
