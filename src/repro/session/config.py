"""Validated engine configuration.

:class:`~repro.core.engine.ProgXeEngine` grew ten keyword arguments; every
call site that wanted to thread "use bloom signatures and a quadtree" through
a harness had to forward them all.  :class:`EngineConfig` consolidates the
sprawl into one immutable, validated object with named presets, convertible
back into the engine's keyword form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.errors import QueryError
from repro.storage.signatures import SIGNATURE_KINDS

#: Input-partitioning strategies understood by the engine.
PARTITIONING_KINDS: tuple[str, ...] = ("grid", "quadtree")


@dataclass(frozen=True)
class EngineConfig:
    """Every tunable of the ProgXe engine, validated at construction.

    Parameters mirror :class:`~repro.core.engine.ProgXeEngine`:

    ordering:
        Rank regions by benefit/cost (ProgOrder) instead of randomly.
    pushthrough:
        Apply skyline partial push-through to both sources first (the "+"
        variants).
    input_cells / output_cells:
        Grid resolutions; ``None`` picks the dimension-dependent default.
    signature_kind:
        Join-value signature: ``"exact"`` or ``"bloom"``.
    partitioning:
        ``"grid"`` or ``"quadtree"`` input partitioning.
    leaf_capacity:
        Quadtree leaf capacity; ``None`` derives it from input size.
    seed:
        RNG seed for the random-order ablation.
    verify:
        Check the progressive-completeness invariant at end of run.
    follow:
        Streaming ingestion: keep the query open after planning and absorb
        rows appended to its source tables while it runs (see
        :class:`~repro.core.streaming.StreamingKernel`).  Incompatible with
        ``pushthrough`` (pruning snapshots the inputs).
    batch_size:
        Joined pairs per ``insert_batch`` flush in tuple-level
        processing; ``None`` keeps
        :data:`~repro.core.tuple_level.DEFAULT_BATCH_SIZE`.
    planner:
        Plan through the cost-based
        :class:`~repro.planner.choose.Planner` (the ``"auto"`` preset):
        statistics pick the partitioner and filter strategy where left at
        their defaults, and post-run actuals feed back into the planner.
        Not an engine keyword as-is: the session (or
        ``ProgXeEngine.from_config``) resolves the flag into the
        ``planner`` object it hands the engine, so estimates and feedback
        accumulate in one place per session.
    share_partitions:
        Let planning consume the session's shared
        :class:`~repro.cache.plan_cache.PlanCache` (default), so concurrent
        queries over the same tables partition once.  ``False`` plans
        privately.  Not an engine keyword: the session resolves the flag
        into the ``cache`` object it hands the engine.

    Example::

        config = EngineConfig(partitioning="quadtree", signature_kind="bloom")
        stream = session.execute(bound, config=config)
        # or by preset name:
        stream = session.execute(bound, config="low-memory")
    """

    ordering: bool = True
    pushthrough: bool = False
    input_cells: int | None = None
    output_cells: int | None = None
    signature_kind: str = "exact"
    partitioning: str = "grid"
    leaf_capacity: int | None = None
    seed: int = 0
    verify: bool = True
    follow: bool = False
    batch_size: int | None = None
    planner: bool = False
    share_partitions: bool = True

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise QueryError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.follow and self.pushthrough:
            raise QueryError(
                "follow=True is incompatible with pushthrough: push-through "
                "pruning snapshots the inputs, so appended rows could never "
                "reach the running query"
            )
        if self.signature_kind not in SIGNATURE_KINDS:
            raise QueryError(
                f"signature_kind must be one of {SIGNATURE_KINDS}, "
                f"got {self.signature_kind!r}"
            )
        if self.partitioning not in PARTITIONING_KINDS:
            raise QueryError(
                f"partitioning must be one of {PARTITIONING_KINDS}, "
                f"got {self.partitioning!r}"
            )
        for name in ("input_cells", "output_cells", "leaf_capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise QueryError(f"{name} must be >= 1, got {value}")

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def engine_kwargs(self) -> dict:
        """The full ``ProgXeEngine(bound, clock, **kwargs)`` keyword set.

        ``share_partitions`` is session-level policy (it selects whether a
        shared cache object is passed at all), so it is not part of the
        engine keyword surface — and neither is the ``planner`` *flag*:
        the session resolves it into the shared ``Planner`` object it
        hands the engine.
        """
        kwargs = asdict(self)
        del kwargs["share_partitions"], kwargs["planner"]
        return kwargs

    def variant_kwargs(self) -> dict:
        """Keywords safe to pass a ProgXe *variant* factory.

        The variants (``progxe``, ``progxe_plus``, …) fix ``ordering`` and
        ``pushthrough`` themselves, so those two are omitted (as is the
        session-level ``share_partitions`` flag).
        """
        kwargs = self.engine_kwargs()
        del kwargs["ordering"], kwargs["pushthrough"]
        return kwargs

    def with_options(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def preset(cls, name: str) -> "EngineConfig":
        """A named configuration preset; see :data:`PRESETS`."""
        try:
            return PRESETS[name]
        except KeyError:
            raise QueryError(
                f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
            ) from None


#: Named presets: the paper's default setup, the push-through "+" variant,
#: a memory-lean setup (bloom signatures, quadtree partitioning that adapts
#: to skew), a production profile that skips the end-of-run verification,
#: and ``auto`` — the cost-based planner chooses partitioner and filter
#: strategy from statistics.
PRESETS: dict[str, EngineConfig] = {
    "default": EngineConfig(),
    "progressive-plus": EngineConfig(pushthrough=True),
    "low-memory": EngineConfig(signature_kind="bloom", partitioning="quadtree"),
    "production": EngineConfig(pushthrough=True, verify=False),
    "auto": EngineConfig(planner=True),
}


#: Cross-query scheduling policies understood by the scheduler.
SCHEDULING_POLICIES: tuple[str, ...] = (
    "round-robin",
    "benefit-greedy",
    "fair-share",
    "deadline",
    "wall-deadline",
)


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the cooperative multi-query scheduler, validated.

    policy:
        Dispatch policy (see :data:`SCHEDULING_POLICIES`): ``"round-robin"``
        cycles admitted queries; ``"benefit-greedy"`` steps the query whose
        next region promises the highest benefit/cost rank across *all*
        queries; ``"fair-share"`` steps the query with the least virtual
        time consumed; ``"deadline"`` steps the query with the least slack
        to its virtual-time budget (queries without one go last);
        ``"wall-deadline"`` is the real-time analogue of ``"deadline"`` —
        slack is measured against the query's *wall-clock* budget
        (``max_wall_seconds``) using real elapsed time, not virtual time.
    max_active:
        Admission ceiling — at most this many queries execute concurrently;
        the rest wait in submission order.  ``None`` admits everything.
        A paused query keeps its admission slot until it finishes or is
        cancelled.
    quantum:
        Consecutive kernel steps a dispatched query runs before the policy
        chooses again.  1 maximises interleaving (best time-to-first under
        concurrency); larger values amortise switching for throughput.
    quantum_vtime:
        Virtual-time cap on a dispatch burst.  Regions vary wildly in cost,
        so a step-count quantum alone lets one expensive region monopolise
        the interpreter; with a cap, the burst ends as soon as its
        cumulative virtual time reaches this value — a burst can overshoot
        by at most the one region that crossed the line.  ``None`` (the
        default) caps by step count only.
    starvation_rounds:
        Starvation bound: a runnable admitted query that has not been
        dispatched for this many consecutive scheduling decisions is chosen
        next regardless of the policy's preference, so greedy policies
        (benefit-greedy especially) cannot starve a low-rank query
        indefinitely.  ``None`` (the default) disables the bound, which
        preserves strict policy order — e.g. ``"deadline"`` runs
        deadline-free queries only after every deadline is honoured.
    record_interleaving:
        Keep a per-dispatch :class:`~repro.runtime.recorder.InterleaveEvent`
        record (default).  Disable for long-lived serving loops where the
        unbounded dispatch log is unwanted overhead.
    share_partitions:
        Serve submitted queries through the session's shared
        :class:`~repro.cache.plan_cache.PlanCache` (default), so concurrent
        queries over the same tables partition their inputs once.
        ``False`` forces private planning for every query this scheduler
        admits, regardless of the engine config.
    cache_aware_admission:
        Fill free admission slots by **table affinity** instead of strict
        submission order: among the waiting queries, prefer the one whose
        estimated table footprint (planner metadata, no scan) overlaps
        most with the tables already admitted, so co-scheduled queries hit
        the shared partition cache instead of thrashing it.  Ties — and
        the first slot — still go to the oldest submission, and only
        queries *within* the waiting set can be reordered, so admission
        remains starvation-free (every waiting query's overlap with the
        admitted set can only grow as its peers run).  Off by default:
        strict submission order is the historical contract.

    Example::

        scheduler = session.scheduler(SchedulerConfig(policy="fair-share",
                                                      quantum=4))
        # or by preset name:
        scheduler = session.scheduler("interactive")
    """

    policy: str = "round-robin"
    max_active: int | None = None
    quantum: int = 1
    quantum_vtime: float | None = None
    starvation_rounds: int | None = None
    record_interleaving: bool = True
    share_partitions: bool = True
    cache_aware_admission: bool = False

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULING_POLICIES:
            raise QueryError(
                f"policy must be one of {SCHEDULING_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.max_active is not None and self.max_active < 1:
            raise QueryError(
                f"max_active must be >= 1, got {self.max_active}"
            )
        if self.quantum < 1:
            raise QueryError(f"quantum must be >= 1, got {self.quantum}")
        if self.quantum_vtime is not None and self.quantum_vtime <= 0:
            raise QueryError(
                f"quantum_vtime must be positive, got {self.quantum_vtime}"
            )
        if self.starvation_rounds is not None and self.starvation_rounds < 1:
            raise QueryError(
                f"starvation_rounds must be >= 1, got {self.starvation_rounds}"
            )

    @classmethod
    def preset(cls, name: str) -> "SchedulerConfig":
        """A named scheduler preset; see :data:`SCHEDULER_PRESETS`."""
        try:
            return SCHEDULER_PRESETS[name]
        except KeyError:
            raise QueryError(
                f"unknown scheduler preset {name!r}; "
                f"available: {', '.join(SCHEDULER_PRESETS)}"
            ) from None


#: Named scheduler presets: ``interactive`` favours time-to-first-result
#: across many small queries (starvation-bounded so greed cannot freeze a
#: query out); ``fair`` equalises virtual time; ``throughput`` trades
#: interleaving for fewer context switches; ``deadline`` serves
#: budget-constrained queries strictly by slack; ``realtime`` does the same
#: against wall-clock budgets; ``serving`` is the network edge's profile —
#: fair share with vtime-capped bursts, a starvation bound and no unbounded
#: dispatch log.
SCHEDULER_PRESETS: dict[str, SchedulerConfig] = {
    "interactive": SchedulerConfig(
        policy="benefit-greedy", max_active=8, starvation_rounds=32
    ),
    "fair": SchedulerConfig(policy="fair-share"),
    "throughput": SchedulerConfig(policy="round-robin", quantum=8),
    "deadline": SchedulerConfig(policy="deadline"),
    "realtime": SchedulerConfig(policy="wall-deadline", starvation_rounds=64),
    "serving": SchedulerConfig(
        policy="fair-share",
        quantum=8,
        quantum_vtime=2_000.0,
        starvation_rounds=32,
        record_interleaving=False,
    ),
}
