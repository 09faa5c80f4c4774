"""Tests for the baseline algorithms: JF-SL, JF-SL+, SSMJ, SAJ."""

import sys

import numpy as np
import pytest

from tests.conftest import make_bound, oracle_skyline_keys
from tests.sfs_reference import sfs_skyline_entries
from tests.test_multiway import three_tables, three_way_query
from repro.baselines.jfsl import JoinFirstSkylineLater
from repro.baselines.jfsl_plus import JoinFirstSkylineLaterPlus
from repro.baselines.saj import SortedAccessJoin
from repro.baselines.ssmj import SkylineSortMergeJoin
from repro.query import multiway
from repro.runtime.clock import VirtualClock
from repro.runtime.runner import run_algorithm


class TestJFSL:
    def test_matches_oracle(self, small_bound):
        run = run_algorithm(JoinFirstSkylineLater, small_bound)
        assert run.result_keys == oracle_skyline_keys(small_bound)

    def test_single_blocking_batch(self, small_bound):
        run = run_algorithm(JoinFirstSkylineLater, small_bound)
        assert run.recorder.batch_count() == 1

    def test_emission_happens_at_the_end(self, small_bound):
        run = run_algorithm(JoinFirstSkylineLater, small_bound)
        # First output arrives only after all join+map+skyline work.
        assert run.recorder.time_to_first() == pytest.approx(
            run.recorder.total_vtime, rel=0.01
        )

    def test_join_count_recorded(self, small_bound):
        clock = VirtualClock()
        algo = JoinFirstSkylineLater(small_bound, clock)
        list(algo.run())
        assert algo.join_result_count == clock.count("join_result")


class TestJFSLPlus:
    def test_matches_oracle(self, small_bound):
        run = run_algorithm(JoinFirstSkylineLaterPlus, small_bound)
        assert run.result_keys == oracle_skyline_keys(small_bound)

    def test_prunes_before_joining(self, small_bound):
        clock = VirtualClock()
        algo = JoinFirstSkylineLaterPlus(small_bound, clock)
        list(algo.run())
        assert algo.left_prune is not None
        assert algo.left_prune.pruned_count >= 0
        # JF-SL+ joins fewer rows than JF-SL on skyline-friendly data.
        plain = JoinFirstSkylineLater(small_bound, VirtualClock())
        list(plain.run())
        assert algo.join_result_count <= plain.join_result_count

    def test_cheaper_on_correlated_data(self):
        bound = make_bound("correlated", n=300, d=2, sigma=0.05, seed=5)
        plus = run_algorithm(JoinFirstSkylineLaterPlus, bound)
        plain = run_algorithm(JoinFirstSkylineLater, bound)
        assert plus.result_keys == plain.result_keys
        assert plus.recorder.total_vtime < plain.recorder.total_vtime


class TestSSMJ:
    def test_matches_oracle(self, small_bound):
        run = run_algorithm(SkylineSortMergeJoin, small_bound)
        assert run.result_keys == oracle_skyline_keys(small_bound)

    def test_two_emission_instants_at_most(self, small_bound):
        run = run_algorithm(SkylineSortMergeJoin, small_bound)
        assert run.recorder.batch_count() <= 2

    def test_batch_sizes_recorded(self, small_bound):
        clock = VirtualClock()
        algo = SkylineSortMergeJoin(small_bound, clock)
        results = list(algo.run())
        assert sum(algo.batch_sizes) == len(results)
        assert len(algo.batch_sizes) == 2

    def test_verified_mode_has_no_false_positives(self):
        for seed in range(5):
            bound = make_bound("independent", n=100, d=3, sigma=0.1, seed=seed)
            clock = VirtualClock()
            algo = SkylineSortMergeJoin(bound, clock, verified=True)
            keys = {r.key() for r in algo.run()}
            assert keys == oracle_skyline_keys(bound)
            assert not algo.false_positive_keys

    def test_naive_mode_can_emit_false_positives(self):
        """Demonstrates the paper's drawback 3: with mapping functions,
        phase-1 skyline membership no longer guarantees final membership."""
        found = False
        for seed in range(60):
            bound = make_bound("anticorrelated", n=60, d=2, sigma=0.2, seed=seed)
            algo = SkylineSortMergeJoin(bound, VirtualClock(), verified=False)
            list(algo.run())
            if algo.false_positive_keys:
                found = True
                break
        assert found, (
            "expected at least one seed where naive SSMJ emits a result "
            "later dominated by a phase-2 result"
        )

    def test_anticorrelated_first_batch_is_late(self):
        bound = make_bound("anticorrelated", n=150, d=3, sigma=0.1, seed=2)
        run = run_algorithm(SkylineSortMergeJoin, bound)
        # The blocking local-skyline prefix pushes the first emission deep
        # into the run on skyline-hostile data.
        assert run.recorder.time_to_first() > 0.3 * run.recorder.total_vtime


class TestSAJ:
    def test_matches_oracle(self, small_bound):
        run = run_algorithm(SortedAccessJoin, small_bound)
        assert run.result_keys == oracle_skyline_keys(small_bound)

    def test_matches_oracle_multi_d(self):
        for seed in range(3):
            bound = make_bound("anticorrelated", n=80, d=3, sigma=0.1, seed=seed)
            run = run_algorithm(SortedAccessJoin, bound)
            assert run.result_keys == oracle_skyline_keys(bound)

    def test_rounds_bounded_by_input(self, small_bound):
        clock = VirtualClock()
        algo = SortedAccessJoin(small_bound, clock)
        list(algo.run())
        n = max(len(small_bound.left_table), len(small_bound.right_table))
        assert 0 < algo.rounds_used <= n

    def test_early_termination_on_correlated(self):
        # Correlated data lets the threshold test stop sorted access early.
        bound = make_bound("correlated", n=300, d=2, sigma=0.1, seed=4)
        clock = VirtualClock()
        algo = SortedAccessJoin(bound, clock)
        keys = {r.key() for r in algo.run()}
        assert keys == oracle_skyline_keys(bound)
        assert algo.rounds_used < len(bound.left_table.rows)


def scalar_skyline_order(points, *, on_comparisons=None):
    """``skyline_order`` through the scalar SFS loop of
    ``tests/sfs_reference.py``, charging one comparison per test."""
    entries = [(tuple(p), i) for i, p in enumerate(np.asarray(points, dtype=float).tolist())]
    charge = None if on_comparisons is None else (lambda: on_comparisons(1))
    return np.array(
        [i for _, i in sfs_skyline_entries(entries, on_comparison=charge)], dtype=np.intp
    )


def trace(run):
    """Result sequence (with the clock at each result) and final counts."""
    clock = VirtualClock()
    seq = [(repr(r), clock.now()) for r in run(clock)]
    return seq, clock.snapshot()


IDENTITY_SHAPES = [
    (dist, d) for dist in ("independent", "anticorrelated", "correlated") for d in (2, 3, 5)
]


class TestScalarSFSIdentity:
    """JF-SL, SSMJ and the multi-way blocking evaluator moved from the
    scalar SFS loop to ``skyline_order``: same results, same order, same
    clock at every result, same counts."""

    @pytest.mark.parametrize("dist, d", IDENTITY_SHAPES)
    @pytest.mark.parametrize("algorithm", [JoinFirstSkylineLater, SkylineSortMergeJoin])
    def test_baselines_match_the_scalar_loop(self, monkeypatch, algorithm, dist, d):
        bound = make_bound(dist, n=150, d=d, sigma=0.05, seed=3)
        module = sys.modules[algorithm.__module__]

        def run(clock):
            return list(algorithm(bound, clock).run())

        fast = trace(run)
        monkeypatch.setattr(module, "skyline_order", scalar_skyline_order)
        assert fast == trace(run)
        assert fast[1].get("dominance_cmp", 0) > 0

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_multiway_blocking_matches_the_scalar_loop(self, monkeypatch, seed):
        bound = three_way_query().bind(three_tables(n=80, seed=seed))
        fast = trace(bound.evaluate_blocking)
        monkeypatch.setattr(multiway, "skyline_order", scalar_skyline_order)
        assert fast == trace(bound.evaluate_blocking)
        assert fast[0]
