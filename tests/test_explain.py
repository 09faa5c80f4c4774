"""Tests for the EXPLAIN facility."""

import pytest

from tests.conftest import ExpSkewWorkload, make_bound
from repro.data.workloads import SyntheticWorkload
from repro.core.engine import ProgXeEngine
from repro.core.explain import ExplainReport, explain
from repro.core.kernel import ExecutionKernel
from repro.core.plan import QueryPlan
from repro.planner.choose import Planner
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

    def test_skewed_input_explains_the_quadtree_plan_auto_runs(self):
        bound = ExpSkewWorkload(n=300, seed=7).bound()
        report = explain(bound)
        plan = QueryPlan.build(bound, partitioning="quadtree")
        assert report.decision.partitioning == "quadtree"
        assert report.regions_total == len(plan.regions) == 159
        sides = (report.left_partitions, report.right_partitions)
        assert sides == plan.input_partitions

    @pytest.mark.parametrize("bound", [
        make_bound("anticorrelated", n=120, d=3, sigma=0.1, seed=3),
        ExpSkewWorkload(n=300, seed=7).bound(),
    ], ids=["grid", "quadtree"])
    def test_root_ranks_are_the_ranks_the_kernel_starts_from(self, bound):
        report = explain(bound)
        kernel = ExecutionKernel(QueryPlan.build(bound, planner=Planner()))
        queued = {region.rid: -neg for neg, _, region in kernel.policy._heap}
        assert queued
        assert queued == {p.rid: p.rank for p in report.region_plans if p.is_root}

    def test_a_rootless_graph_says_progorder_ranks_every_live_region(self):
        """Mutual partial elimination leaves no root; EXPLAIN says so, and
        the kernel's first region is the report's top-ranked row."""
        bound = SyntheticWorkload(
            distribution="anticorrelated", n=300, d=2, sigma=0.01, seed=7
        ).bound()
        report = explain(bound)
        live = [p for p in report.region_plans if not p.discarded]
        assert report.roots == 0 and len(live) == 71
        assert (
            "  every live region has an incoming EL-Graph edge: ProgOrder "
            "ranks all 71 live regions at its first pick"
        ) in report.render().splitlines()
        kernel = ExecutionKernel(QueryPlan.build(bound, planner=Planner()))
        step = kernel.step()
        while step.kind != "region":
            step = kernel.step()
        assert step.region_id == max(live, key=lambda p: p.rank).rid

    def test_a_rooted_graph_adds_no_rootless_line(self):
        report = explain(make_bound("anticorrelated", n=120, d=3, sigma=0.1, seed=3))
        assert report.roots > 0
        assert "incoming EL-Graph edge" not in report.render()
