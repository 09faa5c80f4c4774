"""Query planning: the pre-execution phases of the ProgXe framework.

A :class:`QueryPlan` is the materialised outcome of phases 0–2 of the
paper's pipeline (Figure 2) — everything that happens *before* the
ProgOrder / ProgDetermine loop touches a tuple:

0. *(ProgXe+ only)* skyline partial push-through pruning of both sources,
1. grid/quadtree partitioning of the inputs with join-value signatures,
2. output-space look-ahead: region construction, region- and cell-level
   domination pruning, dominance-cone wiring.

The plan also carries the execution knobs (ordering, vectorization,
verification, RNG seed) that the :class:`~repro.core.kernel.ExecutionKernel`
needs to drive phase 3/4, so ``ExecutionKernel(plan)`` is self-contained.
Building a plan charges the clock exactly as the former monolithic
``ProgXeEngine.run()`` prologue did; the split exists so that execution can
be suspended and resumed step by step without re-planning.

Phase 1 is the only *query-independent* phase: the input grids depend on
the table contents, the mapping attributes and the partitioner
configuration, never on preferences or conditions.  Passing a
:class:`~repro.cache.plan_cache.PlanCache` via ``build(cache=...)``
therefore lets concurrent plans over the same tables share one built grid
per side — a cache hit replaces the per-row partitioning charge with a
single ``cache_op`` — while look-ahead and push-through stay per-query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.baselines.pushthrough import prune_source
from repro.core.lookahead import run_lookahead
from repro.core.output_grid import OutputGrid
from repro.core.regions import OutputRegion
from repro.errors import QueryError
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.storage.grid import GridPartitioner
from repro.storage.quadtree import QuadTreePartitioner
from repro.storage.sources.base import DataSource
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cache.plan_cache import PlanCache
    from repro.planner.choose import PlanDecision, Planner


@dataclass
class StreamSide:
    """One input side's delta-ingestion handle, retained by a follow plan.

    Everything the :class:`~repro.core.streaming.StreamingKernel` needs to
    absorb rows appended to ``table`` after planning: the partitioner that
    built ``structure`` (so delta passes use identical geometry), the cache
    the build went through (``None`` when the side bypassed it), and the
    source's :attr:`~repro.storage.sources.base.DataSource.cache_token` at
    build time — the cursor the first arrival poll resumes from.
    """

    table: DataSource
    attributes: tuple[str, ...]
    join_attribute: str
    alias: str
    partitioner: object
    structure: object
    cache: "PlanCache | None"
    token: tuple


def default_input_cells(source_dims: int) -> int:
    """Grid resolution aiming at a few dozen partitions per source."""
    if source_dims <= 1:
        return 8
    if source_dims == 2:
        return 4
    if source_dims == 3:
        return 3
    return 2


def input_cells_per_side(
    bound: BoundQuery, input_cells: int | None
) -> tuple[int, int]:
    """Grid cells per dimension on the (left, right) side.

    A pinned ``input_cells`` applies to both sides; otherwise each side
    gets :func:`default_input_cells` for its own mapping dimensionality.
    """
    return (
        input_cells or default_input_cells(len(bound.left_map_attrs)),
        input_cells or default_input_cells(len(bound.right_map_attrs)),
    )


def default_output_cells(dimensions: int) -> int:
    """Output grid resolution by skyline dimensionality.

    Finer grids settle later (more interlocking cones) but discriminate
    better; 4 cells per dimension is the sweet spot measured for d >= 4 —
    3 per dimension leaves cones so coarse that emission collapses to the
    end of the run.
    """
    if dimensions <= 2:
        return 10
    if dimensions == 3:
        return 6
    return 4


@dataclass
class QueryPlan:
    """Phases 0–2 done: regions, grid, and the knobs for execution.

    ``prune_stats`` records push-through effects (``left_pruned`` /
    ``right_pruned``) so the engine's historical ``stats`` surface keeps
    reporting them.

    Example::

        plan = QueryPlan.build(bound, VirtualClock(), pushthrough=True)
        len(plan.regions)                    # surviving output regions
        kernel = ExecutionKernel(plan)       # plan is consumed (single-use)
    """

    bound: BoundQuery
    clock: VirtualClock
    regions: list[OutputRegion]
    grid: OutputGrid
    ordering: bool = True
    seed: int = 0
    verify: bool = True
    prune_stats: dict[str, int] = field(default_factory=dict)
    #: Partition-cache outcome of this build: ``partition_hits`` /
    #: ``partition_misses`` per side served through a
    #: :class:`~repro.cache.plan_cache.PlanCache`.  Empty when no cache was
    #: offered (or both sides bypassed it after push-through pruning).
    cache_events: dict[str, int] = field(default_factory=dict)
    #: Set by the first :class:`~repro.core.kernel.ExecutionKernel` built
    #: over this plan.  Execution mutates the plan's regions and grid, so
    #: a second kernel would silently produce an empty result set; the
    #: kernel constructor raises instead.
    consumed: bool = False
    #: Per-side delta-ingestion handles, retained only when the plan was
    #: built with ``follow=True`` (streaming mode); ``None`` otherwise.
    stream_sides: "tuple[StreamSide, StreamSide] | None" = None
    #: The cost-based planner's :class:`~repro.planner.choose.PlanDecision`
    #: when the plan was built with ``planner=``; ``None`` otherwise.
    #: Carries every estimate plus the actuals recorded during build and
    #: at kernel finalize (the EXPLAIN estimate-vs-actual source).
    decision: "PlanDecision | None" = None

    @classmethod
    def build(
        cls,
        bound: BoundQuery,
        clock: VirtualClock | None = None,
        *,
        ordering: bool = True,
        pushthrough: bool = False,
        input_cells: int | None = None,
        output_cells: int | None = None,
        partitioning: str = "grid",
        leaf_capacity: int | None = None,
        seed: int = 0,
        verify: bool = True,
        cache: "PlanCache | None" = None,
        follow: bool = False,
        planner: "Planner | None" = None,
    ) -> "QueryPlan":
        """Run phases 0–2 and return the finished plan.

        Parameters mirror :class:`~repro.core.engine.ProgXeEngine` (which
        validates them); planning charges partitioning and look-ahead work
        to ``clock``.  When ``cache`` is given, phase 1 is served through
        the shared :class:`~repro.cache.plan_cache.PlanCache`: a hit reuses
        the grid another plan already built (one ``cache_op`` charged
        instead of per-row partitioning work) and the outcome is recorded in
        the plan's :attr:`cache_events`.  Tables replaced by push-through
        pruning are always partitioned privately — they are fresh per-query
        objects no other plan can ever share.

        ``follow=True`` builds a *streaming* plan: the per-side delta
        handles (:class:`StreamSide`) are retained on the returned plan so
        a :class:`~repro.core.streaming.StreamingKernel` can keep absorbing
        appended rows after planning.  Incompatible with ``pushthrough``
        (pruning snapshots the inputs, severing them from the live source).

        ``planner`` hands knob selection to a cost-based
        :class:`~repro.planner.choose.Planner`: it picks the partitioner
        kind from statistics when the caller left it at its default,
        records its estimates on the plan's
        :attr:`decision`, and the build writes the plan-time actuals back
        onto the decision for the EXPLAIN estimate-vs-actual report.
        """
        if follow and pushthrough:
            raise QueryError(
                "follow=True is incompatible with pushthrough: push-through "
                "pruning snapshots the inputs, so appended rows could never "
                "reach the running query"
            )
        clock = clock or VirtualClock()
        prune_stats: dict[str, int] = {}
        cache_events: dict[str, int] = {}

        decision = None
        if planner is not None:
            decision = planner.decide(
                bound,
                partitioning=partitioning,
                input_cells=input_cells,
            )
            partitioning = decision.partitioning

        # Phase 0: (optional) skyline partial push-through.
        left_table, right_table = _pruned_tables(
            bound, clock, pushthrough, prune_stats
        )

        # Phase 1: input partitioning with join-value signatures.
        if partitioning == "quadtree":
            capacity = leaf_capacity or max(
                8, (len(left_table) + len(right_table)) // 32
            )
            partitioner_left = QuadTreePartitioner(capacity)
            partitioner_right = QuadTreePartitioner(capacity)
        else:
            k_left, k_right = input_cells_per_side(bound, input_cells)
            partitioner_left = GridPartitioner(k_left)
            partitioner_right = GridPartitioner(k_right)
        left_grid = _partition_side(
            partitioner_left, left_table, bound.left_map_attrs,
            bound.query.join.left_attr, bound.left_alias, clock, cache_events,
            # A pruned table is a fresh object; caching it would only pollute
            # the store with entries no later plan can hit.
            cache if left_table is bound.left_table else None,
        )
        right_grid = _partition_side(
            partitioner_right, right_table, bound.right_map_attrs,
            bound.query.join.right_attr, bound.right_alias, clock,
            cache_events,
            cache if right_table is bound.right_table else None,
        )

        stream_sides = None
        if follow:
            stream_sides = (
                StreamSide(
                    table=left_table,
                    attributes=tuple(bound.left_map_attrs),
                    join_attribute=bound.query.join.left_attr,
                    alias=bound.left_alias,
                    partitioner=partitioner_left,
                    structure=left_grid,
                    cache=cache if left_table is bound.left_table else None,
                    token=left_table.cache_token,
                ),
                StreamSide(
                    table=right_table,
                    attributes=tuple(bound.right_map_attrs),
                    join_attribute=bound.query.join.right_attr,
                    alias=bound.right_alias,
                    partitioner=partitioner_right,
                    structure=right_grid,
                    cache=cache if right_table is bound.right_table else None,
                    token=right_table.cache_token,
                ),
            )

        # Phase 2: output-space look-ahead.
        k_out = output_cells or default_output_cells(
            bound.skyline_dimension_count
        )
        regions, grid = run_lookahead(bound, left_grid, right_grid, k_out, clock)

        if decision is not None:
            decision.record_plan_actuals(
                rows_left=len(left_table),
                rows_right=len(right_table),
                left_partitions=left_grid.partition_count,
                right_partitions=right_grid.partition_count,
                regions=len(regions),
            )

        return cls(
            bound=bound,
            clock=clock,
            regions=regions,
            grid=grid,
            ordering=ordering,
            seed=seed,
            verify=verify,
            prune_stats=prune_stats,
            cache_events=cache_events,
            stream_sides=stream_sides,
            decision=decision,
        )


def _partition_side(
    partitioner,
    table: DataSource,
    attributes: tuple[str, ...],
    join_attribute: str,
    source: str,
    clock: VirtualClock,
    cache_events: dict[str, int],
    cache: "PlanCache | None",
):
    """Partition one input side, through the shared cache when offered.

    Charges ``partition_op`` per row on a build (the historical phase-1
    cost) and a single ``cache_op`` on a hit, recording the outcome in
    ``cache_events``.  A *patch* — the store held the partitioning over an
    older generation of a table that proves an append-only delta, and the
    cached structure was extended in place — charges one ``cache_op`` plus
    ``partition_op`` for just the appended rows, and records
    ``partition_patched``: planning cost scales with the delta, not the
    table.
    """
    if cache is None:
        grid = partitioner.partition(
            table, attributes, join_attribute, source=source
        )
        clock.charge("partition_op", len(table))
        return grid
    invalidations_before = cache.stats().invalidations
    grid, outcome, delta_rows = cache.get_or_partition_outcome(
        partitioner, table, attributes, join_attribute, source=source
    )
    if outcome == "hit":
        clock.charge("cache_op")
        cache_events["partition_hits"] = cache_events.get("partition_hits", 0) + 1
    elif outcome == "patched":
        clock.charge("cache_op")
        if delta_rows:
            clock.charge("partition_op", delta_rows)
        cache_events["partition_patched"] = (
            cache_events.get("partition_patched", 0) + 1
        )
    else:
        clock.charge("partition_op", len(table))
        cache_events["partition_misses"] = (
            cache_events.get("partition_misses", 0) + 1
        )
        # A miss that dropped a stale generation on the way (the source
        # could not prove an append-only delta) is the invalidation half
        # of the patched-vs-invalidated split.
        dropped = cache.stats().invalidations - invalidations_before
        if dropped:
            cache_events["partition_invalidated"] = (
                cache_events.get("partition_invalidated", 0) + dropped
            )
    return grid


def _pruned_tables(
    bound: BoundQuery,
    clock: VirtualClock,
    pushthrough: bool,
    prune_stats: dict[str, int],
) -> tuple[DataSource, DataSource]:
    """Apply push-through (ProgXe+) or pass the bound sources through.

    Pruned survivors are always rehoused in an in-memory :class:`Table`,
    whatever the original backend: the skyline-pruned set is a small
    materialised row list by construction.
    """
    left, right = bound.left_table, bound.right_table
    if not pushthrough:
        return left, right
    charge = partial(clock.charge, "dominance_cmp")
    left_prune = prune_source(bound, bound.left_alias, on_comparisons=charge)
    right_prune = prune_source(bound, bound.right_alias, on_comparisons=charge)
    if left_prune is not None:
        left = Table(left.name, left.schema, left_prune.kept_rows)
        prune_stats["left_pruned"] = left_prune.pruned_count
    if right_prune is not None:
        right = Table(right.name, right.schema, right_prune.kept_rows)
        prune_stats["right_pruned"] = right_prune.pruned_count
    return left, right
