"""The :class:`Planner`: one rule, one :class:`PlanDecision`.

``Planner.decide(bound)`` reads both sources' sampled histograms (built,
patched or served from the statistics store as the source tokens
demand), takes the worst histogram concentration over the mapped
attributes, and picks the quadtree when it reaches
:data:`SKEW_THRESHOLD`, the grid otherwise.  Grid granularity is the
engine's own (:func:`~repro.core.plan.input_cells_per_side`).

Knobs the caller pinned explicitly (a non-default ``partitioning``, an
explicit ``input_cells``) are honoured, never overridden: the planner
fills the gaps the caller left open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.plan import input_cells_per_side
from repro.planner.statistics import StatisticsStore

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.query.smj import BoundQuery

#: Histogram concentration above which the planner prefers the quadtree
#: (equi-width grids put skewed data into one overfull cell).
SKEW_THRESHOLD = 0.55


@dataclass(frozen=True)
class PlanDecision:
    """The planner's output: the knobs in effect and the skew behind them.

    Example::

        engine = ProgXeEngine(bound, planner=Planner())
        results = list(engine.run())
        decision = engine.plan_decision
        decision.partitioning                # what the planner chose
        decision.skew >= SKEW_THRESHOLD      # why
    """

    partitioning: str
    #: Grid cells per dimension on the (left, right) side; ``None`` when
    #: the plan partitions with the quadtree.
    input_cells: tuple[int, int] | None
    #: Names of knobs the caller pinned (honoured, not chosen).
    pinned: tuple[str, ...]
    #: Worst histogram concentration over both sides' mapped attributes.
    skew: float


class Planner:
    """The skew rule over cached source statistics (see the module docs).

    One planner instance accumulates source summaries (token-validated)
    across queries.  Sessions hold one planner and pass it to every engine
    they build with the ``"auto"`` preset.

    Example::

        planner = Planner()
        decision = planner.decide(bound)
        decision.partitioning, decision.input_cells
    """

    def __init__(self, *, statistics: StatisticsStore | None = None) -> None:
        self.statistics = statistics or StatisticsStore()

    def decide(
        self,
        bound: "BoundQuery",
        *,
        partitioning: str = "grid",
        input_cells: int | None = None,
    ) -> PlanDecision:
        """Plan ``bound``; caller-pinned values are honoured.

        ``partitioning`` other than the ``"grid"`` default and a
        non-``None`` ``input_cells`` count as pinned.  The planner does
        not choose granularity: measured in wall time, the engine default
        is within noise of the best setting (``docs/planning.md``).
        """
        left = self.statistics.for_source(
            getattr(bound, "left_base", bound.left_table)
        )
        right = self.statistics.for_source(
            getattr(bound, "right_base", bound.right_table)
        )
        skew = max(
            left.skew(bound.left_map_attrs), right.skew(bound.right_map_attrs)
        )
        pinned: list[str] = []
        if partitioning != "grid":
            pinned.append("partitioning")
        elif skew >= SKEW_THRESHOLD:
            partitioning = "quadtree"
        if input_cells is not None:
            pinned.append("input_cells")
        return PlanDecision(
            partitioning=partitioning,
            input_cells=(
                input_cells_per_side(bound, input_cells)
                if partitioning == "grid" else None
            ),
            pinned=tuple(pinned),
            skew=skew,
        )
