"""Tests for the ProgXe engine: the paper's correctness obligations.

* completeness — the union of emissions equals the oracle skyline,
* progressive safety — anything emitted is in the final skyline (no false
  positives, Principle 1),
* variant behaviour — ordering and push-through knobs.
"""

import pytest

from tests.conftest import make_bound, oracle_skyline_keys
from repro.core.engine import ProgXeEngine
from repro.core.variants import (
    ALGORITHMS,
    PROGXE_VARIANTS,
    progxe,
    progxe_no_order,
    progxe_plus,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.compare import compare_algorithms
from repro.runtime.runner import run_algorithm


class TestCompleteness:
    @pytest.mark.parametrize("dist", ["correlated", "independent", "anticorrelated"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_oracle(self, dist, d):
        bound = make_bound(dist, n=100, d=d, sigma=0.1, seed=d)
        run = run_algorithm(progxe, bound)
        assert run.result_keys == oracle_skyline_keys(bound)

    def test_matches_oracle_d4(self):
        bound = make_bound("independent", n=80, d=4, sigma=0.1, seed=11)
        run = run_algorithm(progxe, bound)
        assert run.result_keys == oracle_skyline_keys(bound)

    def test_no_duplicate_emissions(self, small_bound):
        run = run_algorithm(progxe, small_bound)
        keys = [r.key() for r in run.results]
        assert len(keys) == len(set(keys))

    def test_high_selectivity(self):
        bound = make_bound("independent", n=60, d=2, sigma=0.5, seed=12)
        run = run_algorithm(progxe, bound)
        assert run.result_keys == oracle_skyline_keys(bound)

    def test_skewed_join_keys(self):
        bound = make_bound("independent", n=80, d=2, sigma=0.05, seed=13, skew=1.2)
        run = run_algorithm(progxe, bound)
        assert run.result_keys == oracle_skyline_keys(bound)


class TestProgressiveSafety:
    """Every prefix of the emission stream is a subset of the final skyline."""

    @pytest.mark.parametrize("dist", ["correlated", "independent", "anticorrelated"])
    def test_no_false_positives_ever(self, dist):
        bound = make_bound(dist, n=100, d=2, sigma=0.1, seed=21)
        oracle = oracle_skyline_keys(bound)
        engine = ProgXeEngine(bound, VirtualClock())
        for result in engine.run():
            assert result.key() in oracle, (
                f"{engine.name} emitted a non-final result"
            )

    def test_no_false_positives_no_order(self):
        bound = make_bound("independent", n=100, d=3, sigma=0.1, seed=22)
        oracle = oracle_skyline_keys(bound)
        engine = ProgXeEngine(bound, VirtualClock(), ordering=False, seed=5)
        for result in engine.run():
            assert result.key() in oracle

    def test_no_false_positives_pushthrough(self):
        bound = make_bound("anticorrelated", n=100, d=2, sigma=0.1, seed=23)
        oracle = oracle_skyline_keys(bound)
        engine = ProgXeEngine(bound, VirtualClock(), pushthrough=True)
        for result in engine.run():
            assert result.key() in oracle


class TestVariants:
    def test_all_variants_agree(self, small_bound):
        report = compare_algorithms(PROGXE_VARIANTS, small_bound)
        report.verify_agreement()

    def test_all_algorithms_agree(self, anti_bound):
        report = compare_algorithms(ALGORITHMS, anti_bound)
        report.verify_agreement()

    def test_names(self, small_bound):
        clock = VirtualClock()
        assert progxe(small_bound, clock).name == "ProgXe"
        assert progxe_plus(small_bound, clock).name == "ProgXe+"
        assert progxe_no_order(small_bound, clock).name == "ProgXe (No-Order)"

    def test_pushthrough_records_pruning(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock(), pushthrough=True)
        list(engine.run())
        assert "left_pruned" in engine.stats

    def test_no_order_seed_changes_order_not_results(self):
        bound = make_bound("independent", n=80, d=2, sigma=0.1, seed=31)
        keys = set()
        for seed in (0, 1, 2):
            engine = ProgXeEngine(bound, VirtualClock(), ordering=False, seed=seed)
            keys.add(frozenset(r.key() for r in engine.run()))
        assert len(keys) == 1  # result set independent of processing order


class TestEngineInternals:
    def test_stats_populated(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        results = list(engine.run())
        stats = engine.stats
        assert stats["regions_total"] > 0
        assert stats["regions_processed"] + stats["regions_discarded"] >= 1
        assert stats["inserted"] >= len(results)
        assert stats["active_cells"] > 0

    def test_lookahead_discards_regions(self):
        # Independent data: many regions sit strictly above others, so the
        # look-ahead must discard a substantial share.  (Anti-correlated
        # data legitimately discards almost nothing — regions hug the
        # anti-diagonal and rarely dominate each other.)
        bound = make_bound("independent", n=150, d=2, sigma=0.2, seed=32)
        engine = ProgXeEngine(bound, VirtualClock())
        list(engine.run())
        assert engine.stats["regions_discarded"] > 0

    def test_arrival_discarding_in_marked_cells(self):
        bound = make_bound("independent", n=150, d=2, sigma=0.2, seed=33)
        engine = ProgXeEngine(bound, VirtualClock())
        list(engine.run())
        state = engine.state
        assert state.discarded_on_arrival + state.dominated_on_arrival > 0

    def test_custom_grid_resolutions(self, small_bound):
        engine = ProgXeEngine(
            small_bound, VirtualClock(), input_cells=2, output_cells=4
        )
        assert {r.key() for r in engine.run()} == oracle_skyline_keys(small_bound)

    def test_single_cell_grids_degenerate_but_correct(self, small_bound):
        engine = ProgXeEngine(
            small_bound, VirtualClock(), input_cells=1, output_cells=1
        )
        assert {r.key() for r in engine.run()} == oracle_skyline_keys(small_bound)

    def test_verification_runs_by_default(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        list(engine.run())  # verify_drained() must not raise

    def test_clock_default_constructed(self, small_bound):
        engine = ProgXeEngine(small_bound)
        assert engine.clock is not None
        list(engine.run())
        assert engine.clock.now() > 0


class TestProgressivenessShape:
    def test_progxe_earlier_than_jfsl(self):
        from repro.baselines.jfsl import JoinFirstSkylineLater

        bound = make_bound("independent", n=200, d=2, sigma=0.05, seed=41)
        px = run_algorithm(progxe, bound)
        run_algorithm(JoinFirstSkylineLater, bound)
        if px.recorder.total_results >= 3:
            # ProgXe's first result arrives well before JF-SL's only batch
            # relative to each algorithm's own horizon.
            px_frac = px.recorder.time_to_first() / px.recorder.total_vtime
            assert px_frac < 0.9

    def test_ordering_improves_progressiveness_on_average(self):
        improvements = 0
        trials = 4
        for seed in range(trials):
            bound = make_bound("anticorrelated", n=150, d=2, sigma=0.1, seed=seed)
            ordered = run_algorithm(progxe, bound)
            unordered = run_algorithm(progxe_no_order, bound)
            if (
                ordered.recorder.progressiveness_auc()
                >= unordered.recorder.progressiveness_auc()
            ):
                improvements += 1
        assert improvements >= trials / 2
