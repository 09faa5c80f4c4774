"""Tests for the EXPLAIN / trace facility."""


from tests.conftest import make_bound
from repro.core.engine import ProgXeEngine
from repro.core.explain import ExplainReport, explain, trace
from repro.runtime.clock import VirtualClock


class TestExplain:
    def test_plan_counts(self, small_bound):
        report = explain(small_bound)
        assert isinstance(report, ExplainReport)
        assert report.left_partitions > 0
        assert report.right_partitions > 0
        assert report.regions_total == len(report.region_plans)
        assert 0 <= report.regions_discarded <= report.regions_total
        assert report.active_cells > 0

    def test_plan_is_pure(self, small_bound):
        """explain() must not mutate anything a later run depends on."""
        explain(small_bound)
        engine = ProgXeEngine(small_bound, VirtualClock())
        results = list(engine.run())
        assert results  # run still works after a dry-run plan

    def test_live_regions_have_rank(self, small_bound):
        report = explain(small_bound)
        live = [p for p in report.region_plans if not p.discarded]
        assert live
        assert all(p.cost > 0 for p in live)
        assert all(p.rank >= 0 for p in live)

    def test_roots_flagged(self, small_bound):
        report = explain(small_bound)
        roots = [p for p in report.region_plans if p.is_root]
        assert len(roots) <= report.roots + report.regions_discarded
        assert report.roots >= 0

    def test_render_output(self, small_bound):
        text = explain(small_bound).render(top=5)
        assert "ProgXe plan" in text
        assert "EL-Graph roots" in text
        assert "benefit" in text

    def test_custom_resolutions(self, small_bound):
        coarse = explain(small_bound, input_cells=1, output_cells=2)
        fine = explain(small_bound, input_cells=4, output_cells=10)
        assert coarse.regions_total <= fine.regions_total

    def test_explain_matches_engine_stats(self):
        bound = make_bound("independent", n=120, d=2, sigma=0.1, seed=9)
        report = explain(bound)
        engine = ProgXeEngine(bound, VirtualClock())
        list(engine.run())
        assert report.regions_total == engine.stats["regions_total"]
        # Look-ahead discards agree; execution may discard more later.
        assert report.regions_discarded <= engine.stats["regions_discarded"]


class TestTrace:
    def test_trace_covers_all_emissions(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        t = trace(engine)
        emitted = sum(e.emitted_during + e.emitted_after for e in t.events)
        assert emitted + t.unattributed == t.total_results

    def test_trace_times_monotone(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        t = trace(engine)
        starts = [e.vtime_start for e in t.events]
        assert starts == sorted(starts)
        for e in t.events:
            assert e.vtime_end >= e.vtime_start

    def test_trace_render(self, small_bound):
        engine = ProgXeEngine(small_bound, VirtualClock())
        t = trace(engine)
        text = t.render(limit=5)
        assert "total results" in text

    def test_trace_attributes_each_region_step(self, small_bound):
        t = trace(ProgXeEngine(small_bound, VirtualClock()))
        kernel = ProgXeEngine(small_bound, VirtualClock()).kernel()
        reports = []
        while not kernel.finished:
            reports.append(kernel.step())
        regions = [r for r in reports if r.kind == "region"]
        assert t.events
        assert [(e.rid, e.emitted_during) for e in t.events] == [
            (r.region_id, len(r.results)) for r in regions
        ]
        assert [(e.vtime_start, e.vtime_end) for e in t.events] == [
            (r.vtime - r.vtime_delta, r.vtime) for r in regions
        ]
        assert t.unattributed == len(reports[0].results)
        assert sum(e.emitted_during for e in t.events) > 0

    def test_trace_total_matches_plain_run(self):
        bound = make_bound("anticorrelated", n=100, d=2, sigma=0.1, seed=10)
        plain = len(list(ProgXeEngine(bound, VirtualClock()).run()))
        traced = trace(ProgXeEngine(bound, VirtualClock()))
        assert traced.total_results == plain
