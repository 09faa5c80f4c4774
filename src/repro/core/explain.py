"""EXPLAIN output for the ProgXe engine.

``explain(bound)`` dry-runs the look-ahead and ordering phases without any
tuple-level work and renders what the engine *would* do: partition counts,
surviving regions with their benefit/cost/rank, the EL-Graph root set and
the first processing decisions.  It exists for the reasons EXPLAIN exists
in any query engine: debugging unexpected plans, understanding why output
is late, and teaching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.benefit import region_benefit
from repro.core.cost import region_cost
from repro.core.elimination_graph import EliminationGraph
from repro.core.plan import (
    default_output_cells as _default_output_cells,
    input_cells_per_side,
)
from repro.core.lookahead import run_lookahead
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.storage.grid import GridPartitioner


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
        return "\n".join(lines)


def explain(
    bound: BoundQuery,
    *,
    input_cells: int | None = None,
    output_cells: int | None = None,
) -> ExplainReport:
    """Plan-only dry run: look-ahead + ranking, no tuple-level processing."""
    clock = VirtualClock()
    k_left, k_right = input_cells_per_side(bound, input_cells)
    left_grid = GridPartitioner(k_left).partition(
        bound.left_table, bound.left_map_attrs, bound.query.join.left_attr,
        source=bound.left_alias,
    )
    right_grid = GridPartitioner(k_right).partition(
        bound.right_table, bound.right_map_attrs, bound.query.join.right_attr,
        source=bound.right_alias,
    )
    k_out = output_cells or _default_output_cells(bound.skyline_dimension_count)
    regions, grid = run_lookahead(bound, left_grid, right_grid, k_out, clock)
    graph = EliminationGraph(regions, clock)
    dims = bound.skyline_dimension_count
    roots = {r.rid for r in graph.roots()}

    plans = []
    for region in regions:
        if region.discarded:
            benefit = cost = rank = 0.0
        else:
            benefit = region_benefit(region, dims)
            cost = region_cost(region, grid, dims)
            rank = benefit / cost if cost > 0 else benefit
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
    return ExplainReport(
        left_partitions=left_grid.partition_count,
        right_partitions=right_grid.partition_count,
        regions_total=len(regions),
        regions_discarded=sum(1 for r in regions if r.discarded),
        active_cells=grid.active_count,
        marked_cells=grid.marked_count,
        roots=len(roots),
        region_plans=plans,
    )
