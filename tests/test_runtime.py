"""Tests for the virtual clock, recorder and harnesses."""

import json

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime.clock import VirtualClock
from repro.runtime.compare import compare_algorithms
from repro.runtime.recorder import ProgressRecorder
from repro.runtime.runner import run_algorithm


class TestVirtualClock:
    def test_charge_accumulates(self):
        clock = VirtualClock()
        clock.charge("map", 3)
        clock.charge("map")
        assert clock.count("map") == 4

    def test_weighted_time(self):
        clock = VirtualClock(weights={"x": 2.0, "y": 0.5})
        clock.charge("x", 2)
        clock.charge("y", 4)
        assert clock.now() == pytest.approx(6.0)

    def test_unknown_kind_defaults_to_unit_weight(self):
        clock = VirtualClock()
        clock.charge("exotic", 3)
        assert clock.now() == pytest.approx(3.0)

    def test_charger_closure(self):
        clock = VirtualClock()
        tick = clock.charger("dominance_cmp")
        tick()
        tick()
        assert clock.count("dominance_cmp") == 2

    def test_snapshot_is_copy(self):
        clock = VirtualClock()
        clock.charge("map")
        snap = clock.snapshot()
        snap["map"] = 99
        assert clock.count("map") == 1

    def test_total_operations(self):
        clock = VirtualClock()
        clock.charge("a", 2)
        clock.charge("b", 3)
        assert clock.total_operations() == 5

    def test_numpy_units_are_stored_as_python_ints(self):
        clock = VirtualClock()
        clock.charge("a", np.int64(2))
        clock.charge("a", np.count_nonzero(np.ones(3, dtype=bool)))
        clock.charge("b", np.intp(4))
        clock.charge("c", np.uint8(1))
        assert clock.snapshot() == {"a": 5, "b": 4, "c": 1}
        assert all(type(units) is int for units in clock.snapshot().values())
        assert json.loads(json.dumps(clock.snapshot())) == {"a": 5, "b": 4, "c": 1}

    @pytest.mark.parametrize("units", [1.0, np.float64(2.0), "3"])
    def test_non_integer_units_are_refused(self, units):
        clock = VirtualClock()
        with pytest.raises(TypeError):
            clock.charge("a", units)


class TestProgressRecorder:
    def _recorder_with_events(self, times):
        clock = VirtualClock(weights={"tick": 1.0})
        rec = ProgressRecorder(clock)
        prev = 0.0
        for t in times:
            clock.charge("tick", int(t - prev))
            prev = t
            rec.record(clock.now())
        rec.finish()
        return rec

    def test_time_to_first(self):
        rec = self._recorder_with_events([5, 10, 20])
        assert rec.time_to_first() == 5.0

    def test_empty_run(self):
        clock = VirtualClock()
        rec = ProgressRecorder(clock)
        rec.finish()
        assert rec.time_to_first() is None
        assert rec.total_results == 0
        assert rec.progressiveness_auc() == 0.0

    def test_time_to_fraction(self):
        rec = self._recorder_with_events([10, 20, 30, 40])
        assert rec.time_to_fraction(0.5) == 20.0
        assert rec.time_to_fraction(1.0) == 40.0

    def test_time_to_fraction_validates(self):
        rec = self._recorder_with_events([10])
        with pytest.raises(ValueError):
            rec.time_to_fraction(0.0)

    def test_results_by(self):
        rec = self._recorder_with_events([10, 20, 30])
        assert rec.results_by(5) == 0
        assert rec.results_by(20) == 2
        assert rec.results_by(99) == 3

    def test_batches(self):
        clock = VirtualClock(weights={"tick": 1.0})
        rec = ProgressRecorder(clock)
        clock.charge("tick", 10)
        rec.record(clock.now())
        rec.record(clock.now())  # same instant
        clock.charge("tick", 10)
        rec.record(clock.now())
        rec.finish()
        assert rec.batch_count() == 2

    def test_auc_extremes(self):
        # Everything at the very start -> AUC near 1.
        clock = VirtualClock(weights={"tick": 1.0})
        rec = ProgressRecorder(clock)
        rec.record(clock.now())
        rec.record(clock.now())
        clock.charge("tick", 100)
        rec.finish()
        assert rec.progressiveness_auc() == pytest.approx(1.0)
        # Everything at the very end -> AUC 0.
        rec2 = self._recorder_with_events([100])
        assert rec2.progressiveness_auc() == pytest.approx(0.0)

    def test_curve_is_monotone(self):
        rec = self._recorder_with_events([10, 30, 60])
        curve = rec.curve(points=10)
        counts = [c for _, c in curve]
        assert counts == sorted(counts)
        assert counts[-1] == 3


class TestHarnesses:
    def test_run_algorithm_collects(self, small_bound):
        from repro.core.variants import progxe

        run = run_algorithm(progxe, small_bound)
        assert run.name == "ProgXe"
        assert run.recorder.total_results == len(run.results)
        summary = run.summary()
        assert summary["results"] == len(run.results)
        assert summary["total_vtime"] > 0

    def test_compare_verifies_agreement(self, small_bound):
        from repro.core.variants import progxe, progxe_no_order

        report = compare_algorithms(
            {"a": progxe, "b": progxe_no_order}, small_bound
        )
        assert set(report.runs) == {"a", "b"}
        report.verify_agreement()  # must not raise

    def test_compare_detects_disagreement(self, small_bound):
        from repro.core.variants import progxe

        def truncating(bound, clock):
            class Truncated:
                name = "broken"

                def run(self):
                    engine = progxe(bound, clock)
                    for i, r in enumerate(engine.run()):
                        if i >= 1:
                            return
                        yield r

            return Truncated()

        with pytest.raises(ExecutionError, match="disagree"):
            compare_algorithms(
                {"good": progxe, "bad": truncating}, small_bound
            )

    def test_tables_render(self, small_bound):
        from repro.core.variants import progxe

        report = compare_algorithms({"ProgXe": progxe}, small_bound)
        assert "ProgXe" in report.progressiveness_table()
        assert "total_vtime" in report.total_time_table()
        series = report.series(points=5)
        assert len(series["ProgXe"]) == 6
