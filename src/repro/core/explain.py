"""EXPLAIN output for the ProgXe engine.

``explain(bound)`` builds the plan the ``auto`` preset would run — the
planner's partitioner decision, partitioning and look-ahead — without any
tuple-level work, and renders it: partition counts, surviving regions with
their benefit/cost/rank, the EL-Graph root set and the decision line.  It
exists for the reasons EXPLAIN exists in any query engine: debugging
unexpected plans, understanding why output is late, and teaching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.elimination_graph import EliminationGraph
from repro.core.plan import QueryPlan
from repro.core.progorder import region_rank
from repro.planner.choose import SKEW_THRESHOLD, PlanDecision, Planner
from repro.query.smj import BoundQuery


@dataclass
class RegionPlan:
    """One region's planning numbers."""

    rid: int
    left_coords: tuple
    right_coords: tuple
    rows: tuple[int, int]
    expected_join: float
    covered_cells: int
    discarded: bool
    is_root: bool
    benefit: float
    cost: float
    rank: float


@dataclass
class ExplainReport:
    """The plan-level view of a ProgXe execution."""

    left_partitions: int
    right_partitions: int
    regions_total: int
    regions_discarded: int
    active_cells: int
    marked_cells: int
    roots: int
    #: The planner's decision the plan was built under.
    decision: PlanDecision
    region_plans: list[RegionPlan] = field(default_factory=list)

    def render(self, *, top: int = 10) -> str:
        """Human-readable EXPLAIN text."""
        lines = [
            "ProgXe plan",
            f"  input partitions: {self.left_partitions} x {self.right_partitions}",
            f"  output regions:   {self.regions_total} "
            f"({self.regions_discarded} eliminated by look-ahead)",
            f"  output cells:     {self.active_cells} active, "
            f"{self.marked_cells} marked non-contributing",
            f"  EL-Graph roots:   {self.roots}",
            "",
            f"  top {top} regions by rank (benefit/cost):",
            f"  {'rank':>10}  {'benefit':>9}  {'cost':>10}  {'cells':>5}  "
            f"{'join':>6}  pair",
        ]
        ranked = sorted(
            (p for p in self.region_plans if not p.discarded),
            key=lambda p: p.rank,
            reverse=True,
        )
        for plan in ranked[:top]:
            root_mark = "*" if plan.is_root else " "
            lines.append(
                f" {root_mark}{plan.rank:>10.4f}  {plan.benefit:>9.2f}  "
                f"{plan.cost:>10.0f}  {plan.covered_cells:>5}  "
                f"{plan.expected_join:>6.0f}  "
                f"{list(plan.left_coords)}x{list(plan.right_coords)}"
            )
        lines.append("  (* = current EL-Graph root)")
        decision = self.decision
        relation = ">=" if decision.skew >= SKEW_THRESHOLD else "<"
        lines.append(
            f"  auto partitioner: {decision.partitioning} (skew "
            f"{decision.skew:.3f} {relation} {SKEW_THRESHOLD}; pinned: "
            f"{', '.join(decision.pinned) or 'none'})"
        )
        return "\n".join(lines)


def explain(
    bound: BoundQuery,
    *,
    input_cells: int | None = None,
    output_cells: int | None = None,
) -> ExplainReport:
    """Plan-only dry run: the plan ``auto`` would run, ranked, no
    tuple-level processing.

    The regions, grid and partitioner decision come from one
    :meth:`~repro.core.plan.QueryPlan.build` under a fresh
    :class:`~repro.planner.choose.Planner`, so a skewed input is explained
    with the quadtree plan it would run on.
    """
    plan = QueryPlan.build(
        bound, input_cells=input_cells, output_cells=output_cells,
        planner=Planner(),
    )
    regions, grid = plan.regions, plan.grid
    roots = {r.rid for r in EliminationGraph(regions, plan.clock).roots()}
    dims = bound.skyline_dimension_count

    plans = []
    for region in regions:
        if region.discarded:
            benefit = cost = rank = 0.0
        else:
            benefit, cost, rank = region_rank(region, grid, dims)
        plans.append(
            RegionPlan(
                rid=region.rid,
                left_coords=region.left_partition.coords,
                right_coords=region.right_partition.coords,
                rows=region.join_cost_inputs,
                expected_join=region.expected_join,
                covered_cells=region.partition_count,
                discarded=region.discarded,
                is_root=region.rid in roots,
                benefit=benefit,
                cost=cost,
                rank=rank,
            )
        )
    left_partitions, right_partitions = plan.input_partitions
    return ExplainReport(
        left_partitions=left_partitions,
        right_partitions=right_partitions,
        regions_total=len(regions),
        regions_discarded=sum(1 for r in regions if r.discarded),
        active_cells=grid.active_count,
        marked_cells=grid.marked_count,
        roots=len(roots),
        decision=plan.decision,
        region_plans=plans,
    )
