"""Execution tracing and EXPLAIN output for the ProgXe engine.

``explain(bound)`` dry-runs the look-ahead and ordering phases without any
tuple-level work and renders what the engine *would* do: partition counts,
surviving regions with their benefit/cost/rank, the EL-Graph root set and
the first processing decisions.  ``trace(engine)`` wraps a real run and
records the region processing order with per-region emission counts.

Both exist for the reasons EXPLAIN exists in any query engine: debugging
unexpected plans, understanding why output is late, and teaching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.benefit import region_benefit
from repro.core.cost import region_cost
from repro.core.elimination_graph import EliminationGraph
from repro.core.engine import ProgXeEngine
from repro.core.kernel import STEP_REGION
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
    signature_kind: str = "exact",
) -> ExplainReport:
    """Plan-only dry run: look-ahead + ranking, no tuple-level processing."""
    clock = VirtualClock()
    k_left, k_right = input_cells_per_side(bound, input_cells)
    left_grid = GridPartitioner(k_left, signature_kind).partition(
        bound.left_table, bound.left_map_attrs, bound.query.join.left_attr,
        source=bound.left_alias,
    )
    right_grid = GridPartitioner(k_right, signature_kind).partition(
        bound.right_table, bound.right_map_attrs, bound.query.join.right_attr,
        source=bound.right_alias,
    )
    k_out = output_cells or _default_output_cells(bound.skyline_dimension_count)
    regions, grid = run_lookahead(bound, left_grid, right_grid, k_out, clock)
    graph = EliminationGraph(regions, clock)
    by_id = {r.rid: r for r in regions}
    dims = bound.skyline_dimension_count
    roots = {r.rid for r in graph.roots()}

    plans = []
    for region in regions:
        if region.discarded:
            benefit = cost = rank = 0.0
        else:
            benefit = region_benefit(region, by_id, dims)
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


@dataclass
class TraceEvent:
    """One region step of a traced run.

    ``emitted_during`` counts the results the region's step made final
    (during its tuple-level processing and at its completion);
    ``emitted_after`` those of non-region steps before the next region.
    """

    order: int
    rid: int
    emitted_during: int
    emitted_after: int
    vtime_start: float
    vtime_end: float


@dataclass
class ExecutionTrace:
    """Region-granularity trace of a real engine run."""

    events: list[TraceEvent] = field(default_factory=list)
    total_results: int = 0
    #: Results of the bootstrap step, before any region ran (cells freed
    #: purely by look-ahead).
    unattributed: int = 0

    def render(self, *, limit: int = 20) -> str:
        lines = [
            f"{'#':>4}  {'region':>6}  {'t_start':>10}  {'t_end':>10}  "
            f"{'emit@run':>8}  {'emit@done':>9}"
        ]
        for e in self.events[:limit]:
            lines.append(
                f"{e.order:>4}  {e.rid:>6}  {e.vtime_start:>10.0f}  "
                f"{e.vtime_end:>10.0f}  {e.emitted_during:>8}  "
                f"{e.emitted_after:>9}"
            )
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more regions")
        lines.append(f"total results: {self.total_results}")
        return "\n".join(lines)


@dataclass
class EstimateRow:
    """One metric's estimate-vs-actual comparison."""

    metric: str
    estimated: float
    actual: float | None

    @property
    def relative_error(self) -> float | None:
        """``(estimated - actual) / max(|actual|, 1)``; ``None`` pre-run."""
        if self.actual is None:
            return None
        return (self.estimated - self.actual) / max(abs(self.actual), 1.0)


@dataclass
class PlanningReport:
    """The cost-based EXPLAIN: what the planner chose, and how well.

    Produced by :func:`explain_estimates`, which plans **and executes**
    the query with a planner so every estimated quantity has an observed
    counterpart.  ``rows`` carry the relative error of each estimate —
    the visibility that makes mis-estimates debuggable and testable.

    Example::

        report = explain_estimates(workload.bound())
        print(report.render())
        report.to_dict()["rows"]    # machine-readable estimate/actual pairs
    """

    partitioning: str
    #: Grid cells per dimension on the (left, right) side; ``None`` under
    #: quadtree partitioning.
    input_cells: tuple[int, int] | None
    batch_size: int
    filter_strategy: str
    corrected: bool
    pinned: tuple[str, ...]
    rows: list[EstimateRow] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable estimate-vs-actual table."""
        lines = ["cost-based plan", f"  partitioning:    {self.partitioning}"]
        if self.input_cells is not None:
            left, right = self.input_cells
            lines.append(f"  input cells:     left {left}, right {right}")
        lines += [
            f"  batch size:      {self.batch_size}",
            f"  filter strategy: {self.filter_strategy}",
            f"  feedback:        "
            f"{'corrected by prior run' if self.corrected else 'cold (first run)'}",
        ]
        if self.pinned:
            lines.append(f"  pinned by caller: {', '.join(self.pinned)}")
        lines += [
            "",
            f"  {'metric':<18} {'estimated':>12} {'actual':>12} {'rel.err':>9}",
        ]
        for row in self.rows:
            actual = "-" if row.actual is None else f"{row.actual:>12.0f}"
            error = (
                "-"
                if row.relative_error is None
                else f"{row.relative_error:>+8.1%}"
            )
            lines.append(
                f"  {row.metric:<18} {row.estimated:>12.1f} {actual:>12} "
                f"{error:>9}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form (the CLI's ``--format json``)."""
        return {
            "partitioning": self.partitioning,
            "input_cells": (
                None if self.input_cells is None else list(self.input_cells)
            ),
            "batch_size": self.batch_size,
            "filter_strategy": self.filter_strategy,
            "corrected": self.corrected,
            "pinned": list(self.pinned),
            "rows": [
                {
                    "metric": row.metric,
                    "estimated": row.estimated,
                    "actual": row.actual,
                    "relative_error": row.relative_error,
                }
                for row in self.rows
            ],
        }


def explain_estimates(
    bound: BoundQuery,
    *,
    planner=None,
    config=None,
) -> PlanningReport:
    """Plan with the cost-based planner, execute, compare estimates.

    Runs ``bound`` to completion through a planner-driven engine and
    returns the :class:`PlanningReport` pairing every planner estimate
    (rows scanned, partition fanout, output regions, join cardinality,
    skyline size) with the observed value and its relative error.

    ``planner`` defaults to a fresh :class:`~repro.planner.choose.Planner`
    (pass a session's to reuse its statistics); ``config`` is an optional
    :class:`~repro.session.EngineConfig` whose non-default knobs are
    honoured as pinned.

    Example::

        report = explain_estimates(workload.bound())
        {r.metric: r.relative_error for r in report.rows}
    """
    from repro.planner.choose import Planner

    if planner is None:
        planner = Planner()
    kwargs = {}
    if config is not None:
        kwargs = config.engine_kwargs()
        kwargs.pop("follow", None)
    engine = ProgXeEngine(bound, planner=planner, **kwargs)
    for _ in engine.run():
        pass
    decision = engine.plan_decision
    assert decision is not None  # planner-driven by construction
    return PlanningReport(
        partitioning=decision.partitioning,
        input_cells=decision.input_cells,
        batch_size=decision.batch_size,
        filter_strategy=decision.filter_strategy,
        corrected=decision.estimates.corrected,
        pinned=decision.pinned,
        rows=[
            EstimateRow(metric=metric, estimated=estimated, actual=actual)
            for metric, estimated, actual in decision.comparison()
        ],
    )


def trace(engine: ProgXeEngine) -> ExecutionTrace:
    """Run ``engine`` to completion, recording the region schedule.

    Steps the engine's kernel exactly as :meth:`ProgXeEngine.run` does and
    reads each :class:`~repro.core.kernel.StepReport`: every ``"region"``
    step becomes one :class:`TraceEvent` spanning the step's clock
    interval, with the results that step made final.  Results of later
    non-region steps (arrival polls, finalize) count as the preceding
    region's ``emitted_after``; those before the first region (the
    bootstrap pass) as ``unattributed``.
    """
    out = ExecutionTrace()
    kernel = engine.kernel()
    current: TraceEvent | None = None
    while not kernel.finished:
        report = kernel.step()
        emitted = len(report.results)
        out.total_results += emitted
        if report.kind == STEP_REGION:
            current = TraceEvent(
                order=len(out.events) + 1, rid=report.region_id,
                emitted_during=emitted, emitted_after=0,
                vtime_start=report.vtime - report.vtime_delta,
                vtime_end=report.vtime,
            )
            out.events.append(current)
        elif current is not None:
            current.emitted_after += emitted
        else:
            out.unattributed += emitted
    return out
