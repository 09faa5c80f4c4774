"""The ProgXe progressive execution engine (paper §III, Figure 2).

Pipelines the framework phases (numbered as in :mod:`repro.core.plan`):

0. *(ProgXe+ only)* skyline partial push-through pruning of both sources,
1. grid/quadtree partitioning of the inputs with join-value signatures,
2. output-space look-ahead (regions, region/cell-level domination pruning,
   dominance cones, elimination graph),
3. the ProgOrder / ProgDetermine loop: pick a region, run tuple-level
   processing, release its coverage, emit every output cell that became
   provably final — repeated until no region remains.

Since the kernel split, the engine is a thin façade over two explicit
layers: :meth:`ProgXeEngine.plan` runs phases 0–2 and returns a
:class:`~repro.core.plan.QueryPlan`; :meth:`ProgXeEngine.kernel` wraps the
plan in a resumable :class:`~repro.core.kernel.ExecutionKernel` whose
``step()`` performs one region at a time (the unit the multi-query
scheduler interleaves).  ``run()`` is a loop over ``kernel().step()`` — a
generator yielding :class:`~repro.query.smj.ResultTuple` objects once the
step that made them safe ends; progressive correctness (no false positives) and completeness (no drops)
remain engine invariants, verified at the end of every run unless disabled.

An engine executes **once**: its clock, stats and execution state describe
a single run.  Requesting a second kernel (or iterating ``run()`` twice)
raises :class:`~repro.errors.ExecutionError` instead of silently
re-executing the phases and corrupting ``stats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.kernel import ExecutionKernel
from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.query.smj import BoundQuery, ResultTuple
from repro.runtime.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cache.plan_cache import PlanCache
    from repro.planner.choose import PlanDecision, Planner


class ProgXeEngine:
    """Progressive SMJ evaluation: the paper's contribution.

    Example::

        engine = ProgXeEngine(workload.bound(), pushthrough=True)
        for result in engine.run():      # provably final, step by step
            print(result.outputs)
        engine.stats["regions_processed"]

    ``cache`` accepts a shared :class:`~repro.cache.plan_cache.PlanCache`;
    planning then reuses input partitionings other engines over the same
    tables already built (sessions pass their own cache automatically).
    """

    def __init__(
        self,
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
        follow: bool = False,
        cache: "PlanCache | None" = None,
        planner: "Planner | None" = None,
    ) -> None:
        if partitioning not in ("grid", "quadtree"):
            raise ValueError(
                f"partitioning must be 'grid' or 'quadtree', got {partitioning!r}"
            )
        if follow and pushthrough:
            raise ValueError(
                "follow=True is incompatible with pushthrough: push-through "
                "pruning snapshots the inputs, so appended rows could never "
                "reach the running query"
            )
        self.bound = bound
        self.clock = clock or VirtualClock()
        self.ordering = ordering
        self.pushthrough = pushthrough
        self.partitioning = partitioning
        self.leaf_capacity = leaf_capacity
        self.seed = seed
        self.verify = verify
        self.follow = follow
        self.input_cells = input_cells
        self.output_cells = output_cells
        self.cache = cache
        self.planner = planner
        base = "ProgXe+" if pushthrough else "ProgXe"
        self.name = base if ordering else f"{base} (No-Order)"
        # Populated during execution for inspection/tests.
        self.stats: dict[str, float | int] = {}
        self.state = None
        self._plan: QueryPlan | None = None
        self._kernel: ExecutionKernel | None = None

    @classmethod
    def from_config(
        cls,
        bound: BoundQuery,
        clock: VirtualClock | None = None,
        config=None,
    ) -> "ProgXeEngine":
        """Build an engine from an :class:`~repro.session.EngineConfig`.

        ``config`` may also be a preset name (see
        :data:`~repro.session.config.PRESETS`); ``None`` means defaults.
        A config selects no variant, so this builds the plain ProgXe; the
        factories of :mod:`repro.core.variants` build the others.
        """
        from repro.session.config import EngineConfig

        if config is None:
            config = EngineConfig()
        elif isinstance(config, str):
            config = EngineConfig.preset(config)
        kwargs = config.engine_kwargs()
        if config.planner:
            from repro.planner.choose import Planner

            kwargs["planner"] = Planner()
        return cls(bound, clock, **kwargs)

    # ------------------------------------------------------------------
    # the plan / kernel layering
    # ------------------------------------------------------------------
    def plan(self) -> QueryPlan:
        """Run phases 0–2 (push-through, partitioning, look-ahead).

        Planning charges the engine's clock, so the result is cached:
        repeated calls — including the implicit one inside :meth:`kernel`
        — return the same plan instead of re-running the phases and
        double-charging the shared clock.
        """
        if self._plan is None:
            self._plan = self._build_plan()
        return self._plan

    def _build_plan(self) -> QueryPlan:
        return QueryPlan.build(
            self.bound,
            self.clock,
            ordering=self.ordering,
            pushthrough=self.pushthrough,
            input_cells=self.input_cells,
            output_cells=self.output_cells,
            partitioning=self.partitioning,
            leaf_capacity=self.leaf_capacity,
            seed=self.seed,
            verify=self.verify,
            cache=self.cache,
            follow=self.follow,
            planner=self.planner,
        )

    @property
    def cache_events(self) -> dict[str, int]:
        """Partition-cache outcome of this engine's (lazy) planning.

        ``{"partition_hits": ..., "partition_misses": ...}`` once the plan
        was built through a shared cache; empty before planning or when no
        cache was configured.
        """
        if self._plan is None:
            return {}
        return dict(self._plan.cache_events)

    @property
    def plan_decision(self) -> "PlanDecision | None":
        """The planner's decision for this engine's plan.

        ``None`` before planning or when the engine was built without a
        ``planner``; otherwise the partitioner in effect, the grid
        granularity, the knobs the caller pinned and the skew behind the
        choice.
        """
        if self._plan is None:
            return None
        return self._plan.decision

    def kernel(self) -> ExecutionKernel:
        """Plan the query and return its resumable execution kernel.

        The kernel writes into this engine's ``stats`` dict and exposes the
        live :class:`~repro.core.progdetermine.ExecutionState` as
        ``engine.state``, so existing inspection surfaces keep working.
        One kernel per engine: a second request raises
        :class:`~repro.errors.ExecutionError` (re-running the phases would
        corrupt ``stats`` and double-charge the clock).
        """
        if self._kernel is not None:
            raise ExecutionError(
                f"{self.name} engine has already been executed; construct a "
                "new engine (or keep stepping the existing kernel) instead "
                "of iterating run() twice"
            )
        plan = self.plan()
        if self.follow:
            from repro.core.streaming import StreamingKernel

            kernel: ExecutionKernel = StreamingKernel(
                plan, stats_sink=self.stats
            )
        else:
            kernel = ExecutionKernel(plan, stats_sink=self.stats)
        self._kernel = kernel
        self.state = kernel.state
        return kernel

    @property
    def execution_kernel(self) -> ExecutionKernel | None:
        """The kernel created for this engine's (single) execution, if any."""
        return self._kernel

    def run(self) -> Iterator[ResultTuple]:
        """Execute progressively; results yield as their step makes them final.

        A loop over :meth:`kernel` steps.  Planning happens lazily on the
        first pull, exactly as the historical monolithic generator did.
        """
        kernel = self.kernel()
        while not kernel.finished:
            yield from kernel.step().results
