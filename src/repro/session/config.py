"""Validated engine configuration.

:class:`~repro.core.engine.ProgXeEngine` grew ten keyword arguments; every
call site that wanted to thread "use a quadtree with small leaves" through
a harness had to forward them all.  :class:`EngineConfig` consolidates the
sprawl into one immutable, validated object with named presets, convertible
back into the engine's keyword form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.errors import QueryError

#: Input-partitioning strategies understood by the engine.
PARTITIONING_KINDS: tuple[str, ...] = ("grid", "quadtree")

#: Engine keywords that select a ProgXe variant, so the algorithm name
#: carries them and an :class:`EngineConfig` may not.
VARIANT_SWITCHES: dict[str, str] = {
    "pushthrough": "push-through is selected by the algorithm name "
    "('ProgXe+' or 'ProgXe+ (No-Order)')",
    "ordering": "random region ordering is selected by the algorithm name "
    "('ProgXe (No-Order)' or 'ProgXe+ (No-Order)')",
}


@dataclass(frozen=True)
class EngineConfig:
    """Every tunable of the ProgXe engine, validated at construction.

    Parameters mirror :class:`~repro.core.engine.ProgXeEngine`, except
    the two that select a variant: push-through and region ordering are
    chosen by the algorithm name alone (``ProgXe``, ``ProgXe+``,
    ``ProgXe (No-Order)``, ``ProgXe+ (No-Order)``), and a config naming
    ``pushthrough`` or ``ordering`` is refused with a
    :class:`~repro.errors.QueryError`.

    input_cells / output_cells:
        Grid resolutions; ``None`` picks the dimension-dependent default.
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
        :class:`~repro.core.streaming.StreamingKernel`).  The push-through
        variants refuse it (pruning snapshots the inputs).
    planner:
        Plan through the :class:`~repro.planner.choose.Planner` (the
        ``"auto"`` preset): where the partitioner is left at its default,
        the quadtree is picked when the mapped attributes' sampled
        histograms are skewed.
        Not an engine keyword as-is: the session resolves the flag into
        the ``planner`` object it hands the engine, so source statistics
        accumulate in one place per session.
    share_partitions:
        Let planning consume the session's shared
        :class:`~repro.cache.plan_cache.PlanCache` (default), so concurrent
        queries over the same tables partition once.  ``False`` plans
        privately.  Not an engine keyword: the session resolves the flag
        into the ``cache`` object it hands the engine.

    Example::

        config = EngineConfig(partitioning="quadtree", leaf_capacity=16)
        stream = session.execute(bound, config=config)
        # or by preset name:
        stream = session.execute(bound, config="production")
    """

    input_cells: int | None = None
    output_cells: int | None = None
    partitioning: str = "grid"
    leaf_capacity: int | None = None
    seed: int = 0
    verify: bool = True
    follow: bool = False
    planner: bool = False
    share_partitions: bool = True

    def __new__(cls, *args, **kwargs) -> "EngineConfig":
        # Construction and with_options (dataclasses.replace) both pass
        # through here, so a variant switch fails by name.
        named = sorted(VARIANT_SWITCHES.keys() & kwargs.keys())
        if named:
            raise QueryError(
                f"{named[0]!r} is not an EngineConfig field: "
                f"{VARIANT_SWITCHES[named[0]]}"
            )
        return super().__new__(cls)

    def __post_init__(self) -> None:
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
        """The ``ProgXeEngine(bound, clock, **kwargs)`` keywords it sets.

        The variant switches are the algorithm name's.
        ``share_partitions`` is session-level policy (it selects whether a
        shared cache object is passed at all), so it is not part of the
        engine keyword surface — and neither is the ``planner`` *flag*:
        the session resolves it into the shared ``Planner`` object it
        hands the engine.
        """
        kwargs = asdict(self)
        del kwargs["share_partitions"], kwargs["planner"]
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


#: Named presets: the paper's default setup, a production profile that
#: skips the end-of-run verification, and ``auto`` — the planner
#: chooses the partitioner from histogram skew.  None selects
#: push-through or ordering: the algorithm name does.
PRESETS: dict[str, EngineConfig] = {
    "default": EngineConfig(),
    "production": EngineConfig(verify=False),
    "auto": EngineConfig(planner=True),
}
