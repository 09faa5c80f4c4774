"""The :class:`Planner`: estimates in, one :class:`PlanDecision` out.

``Planner.decide(bound)`` consults the statistics store (building or
patching summaries as the source tokens demand) and returns a decision
carrying:

* the knobs that take effect — partitioner kind (the quadtree on skewed
  inputs), filter strategy (SQLite push-down vs streamed filter), and the
  grid granularity and batch size, which are the engine's own
  (:func:`~repro.core.plan.input_cells_per_side`,
  :data:`~repro.core.tuple_level.DEFAULT_BATCH_SIZE`) unless pinned;
* **every estimate of the plan** (:class:`PlanEstimates`), so EXPLAIN can
  print estimate-vs-actual columns after the run;
* the query *fingerprint* under which post-run actuals feed back into the
  statistics store — the second plan over the same tables starts from the
  observed join/skyline cardinalities instead of the independence
  assumptions (``PlanEstimates.corrected`` marks such plans).

Knobs the caller pinned explicitly (a non-default ``partitioning``, an
explicit ``input_cells`` or ``batch_size``) are honoured, never
overridden: the planner fills the gaps the caller left open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.plan import input_cells_per_side
from repro.core.tuple_level import DEFAULT_BATCH_SIZE
from repro.planner.cost import join_cardinality, partition_fanout
from repro.planner.statistics import (
    BYTES_PER_VALUE,
    JoinObservation,
    StatisticsStore,
)
from repro.skyline.estimate import expected_skyline_size
from repro.storage.sources.filtered import conditions_fingerprint

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.query.smj import BoundQuery

#: Histogram concentration above which the planner prefers the quadtree
#: (equi-width grids put skewed data into one overfull cell).
SKEW_THRESHOLD = 0.55


@dataclass
class PlanEstimates:
    """Every number the planner estimated for the plan.

    Example::

        decision = Planner().decide(bound)
        decision.estimates.join_rows        # expected join cardinality
        decision.estimates.regions          # expected output regions
    """

    rows_left: float
    rows_right: float
    base_rows_left: int
    base_rows_right: int
    selectivity_left: float
    selectivity_right: float
    bytes_scanned: float
    fanout_left: float
    fanout_right: float
    regions: float
    join_rows: float
    skyline_size: float
    skew: float
    #: True when run feedback corrected the cardinality estimates.
    corrected: bool = False


@dataclass
class PlanDecision:
    """The planner's output: knobs in effect + estimates + post-run actuals.

    ``actuals`` starts empty and is filled in two stages:
    :meth:`record_plan_actuals` during plan construction (rows scanned,
    partition counts, regions) and :meth:`record_run_actuals` at kernel
    finalize (join cardinality, skyline size) — the latter also feeds the
    observation back into the planner's statistics store.

    Example::

        engine = ProgXeEngine(bound, planner=Planner())
        results = list(engine.run())
        decision = engine.plan_decision
        decision.partitioning                # what the planner chose
        decision.comparison()                # (metric, estimated, actual) rows
    """

    partitioning: str
    #: Grid cells per dimension on the (left, right) side; ``None`` when
    #: the plan partitions with the quadtree.
    input_cells: tuple[int, int] | None
    batch_size: int
    #: ``"push"`` (predicate push-down), ``"stream"`` (filter during the
    #: scan), or ``"auto"`` (the bind-time default; nothing to decide).
    filter_strategy: str
    estimates: PlanEstimates
    fingerprint: tuple
    #: Names of knobs the caller pinned (honoured, not chosen).
    pinned: tuple[str, ...] = ()
    actuals: dict[str, float] = field(default_factory=dict)
    _planner: "Planner | None" = field(default=None, repr=False)

    def record_plan_actuals(
        self,
        *,
        rows_left: int,
        rows_right: int,
        left_partitions: int,
        right_partitions: int,
        regions: int,
    ) -> None:
        """Record what planning actually produced (phase 0–2 actuals)."""
        self.actuals.update(
            rows_scanned=float(rows_left + rows_right),
            rows_left=float(rows_left),
            rows_right=float(rows_right),
            left_partitions=float(left_partitions),
            right_partitions=float(right_partitions),
            fanout=float(left_partitions * right_partitions),
            regions=float(regions),
        )

    def record_run_actuals(
        self, *, join_rows: float, skyline_size: float
    ) -> None:
        """Record execution actuals and feed them back into the store."""
        self.actuals.update(
            join_rows=float(join_rows), skyline_size=float(skyline_size)
        )
        if self._planner is not None:
            self._planner.observe(
                self.fingerprint,
                rows_left=self.actuals.get(
                    "rows_left", self.estimates.rows_left
                ),
                rows_right=self.actuals.get(
                    "rows_right", self.estimates.rows_right
                ),
                join_rows=float(join_rows),
                skyline_size=float(skyline_size),
                regions=self.actuals.get("regions", self.estimates.regions),
            )

    def comparison(self) -> list[tuple[str, float, float | None]]:
        """``(metric, estimated, actual)`` rows for the EXPLAIN report.

        ``actual`` is ``None`` for metrics whose run stage has not
        happened yet.
        """
        est = self.estimates
        rows = [
            ("rows scanned", est.rows_left + est.rows_right,
             self.actuals.get("rows_scanned")),
            ("partition fanout", est.fanout_left * est.fanout_right,
             self.actuals.get("fanout")),
            ("output regions", est.regions, self.actuals.get("regions")),
            ("join cardinality", est.join_rows,
             self.actuals.get("join_rows")),
            ("skyline size", est.skyline_size,
             self.actuals.get("skyline_size")),
        ]
        return rows


class Planner:
    """Statistics-driven planner (see the module docs).

    One planner instance accumulates state across queries: source
    summaries (token-validated) and run feedback keyed by query
    fingerprint.  Sessions hold one planner and pass it to every engine
    they build with the ``"auto"`` preset.

    Example::

        planner = Planner()
        decision = planner.decide(bound)
        decision.partitioning, decision.filter_strategy
        # after a run, actuals recorded via the kernel feed back in:
        planner.statistics.feedback_for(decision.fingerprint)
    """

    def __init__(self, *, statistics: StatisticsStore | None = None) -> None:
        self.statistics = statistics or StatisticsStore()

    # ------------------------------------------------------------------
    # the decision
    # ------------------------------------------------------------------
    def decide(
        self,
        bound: "BoundQuery",
        *,
        partitioning: str = "grid",
        input_cells: int | None = None,
        batch_size: int | None = None,
    ) -> PlanDecision:
        """Plan ``bound``; caller-pinned values are honoured.

        ``partitioning`` other than the ``"grid"`` default, a non-``None``
        ``input_cells`` or ``batch_size`` count as pinned.  The planner
        does not choose granularity or batch size: measured in wall
        time, the engine defaults are within noise of the best setting
        (``docs/planning.md``).
        """
        left_base = getattr(bound, "left_base", bound.left_table)
        right_base = getattr(bound, "right_base", bound.right_table)
        left_stats = self.statistics.for_source(left_base)
        right_stats = self.statistics.for_source(right_base)
        query = bound.query
        left_conditions = [
            f for f in query.filters if f.alias == bound.left_alias
        ]
        right_conditions = [
            f for f in query.filters if f.alias == bound.right_alias
        ]
        selectivity_left = left_stats.selectivity(left_conditions)
        selectivity_right = right_stats.selectivity(right_conditions)
        rows_left = left_stats.estimated_rows(left_conditions)
        rows_right = right_stats.estimated_rows(right_conditions)
        dims = bound.skyline_dimension_count
        join_rows = join_cardinality(
            left_stats, right_stats,
            query.join.left_attr, query.join.right_attr,
            rows_left=rows_left, rows_right=rows_right,
        )
        fingerprint = self._fingerprint(bound, left_base, right_base)
        observation = self.statistics.feedback_for(fingerprint)
        corrected = False
        skyline_size = expected_skyline_size(join_rows, dims)
        if observation is not None:
            join_rows, skyline_size = self._corrected_estimates(
                observation, rows_left, rows_right, dims
            )
            corrected = True

        skew = max(
            left_stats.skew(bound.left_map_attrs),
            right_stats.skew(bound.right_map_attrs),
        )
        pinned: list[str] = []
        if partitioning != "grid":
            pinned.append("partitioning")
        elif skew >= SKEW_THRESHOLD:
            partitioning = "quadtree"

        if input_cells is not None:
            pinned.append("input_cells")
        if batch_size is not None:
            pinned.append("batch_size")
        # The quadtree ignores the grid granularity; fanout is still
        # estimated on the grid the plan would otherwise build.
        cells_left, cells_right = input_cells_per_side(bound, input_cells)
        fanout_left = partition_fanout(
            left_stats, bound.left_map_attrs, cells_left, rows=rows_left,
            correlation=left_stats.mean_abs_correlation(bound.left_map_attrs),
        )
        fanout_right = partition_fanout(
            right_stats, bound.right_map_attrs, cells_right, rows=rows_right,
            correlation=right_stats.mean_abs_correlation(bound.right_map_attrs),
        )

        filter_strategy = self._choose_filter_strategy(
            left_base, right_base, left_conditions, right_conditions,
            selectivity_left, selectivity_right,
        )

        estimates = PlanEstimates(
            rows_left=rows_left,
            rows_right=rows_right,
            base_rows_left=left_stats.row_count,
            base_rows_right=right_stats.row_count,
            selectivity_left=selectivity_left,
            selectivity_right=selectivity_right,
            bytes_scanned=(
                left_stats.estimated_bytes() + right_stats.estimated_bytes()
            ),
            fanout_left=fanout_left,
            fanout_right=fanout_right,
            regions=fanout_left * fanout_right,
            join_rows=join_rows,
            skyline_size=skyline_size,
            skew=skew,
            corrected=corrected,
        )
        return PlanDecision(
            partitioning=partitioning,
            input_cells=(
                (cells_left, cells_right) if partitioning == "grid" else None
            ),
            batch_size=batch_size or DEFAULT_BATCH_SIZE,
            filter_strategy=filter_strategy,
            estimates=estimates,
            fingerprint=fingerprint,
            pinned=tuple(pinned),
            _planner=self,
        )

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def observe(
        self,
        fingerprint: tuple,
        *,
        rows_left: float,
        rows_right: float,
        join_rows: float,
        skyline_size: float,
        regions: float,
    ) -> None:
        """Record one run's actuals for ``fingerprint`` (latest wins)."""
        self.statistics.record_feedback(
            fingerprint,
            JoinObservation(
                rows_left=rows_left,
                rows_right=rows_right,
                join_rows=join_rows,
                skyline_size=skyline_size,
                regions=regions,
            ),
        )

    def _corrected_estimates(
        self,
        observation: JoinObservation,
        rows_left: float,
        rows_right: float,
        dims: int,
    ) -> tuple[float, float]:
        """Scale an observation to the current input cardinalities."""
        observed_product = max(
            observation.rows_left * observation.rows_right, 1.0
        )
        scale = (rows_left * rows_right) / observed_product
        join_rows = max(1.0, observation.join_rows * scale)
        if abs(scale - 1.0) < 1e-9:
            skyline = max(1.0, observation.skyline_size)
        else:
            skyline = expected_skyline_size(join_rows, dims)
        return join_rows, skyline

    # ------------------------------------------------------------------
    # individual choices
    # ------------------------------------------------------------------
    def _choose_filter_strategy(
        self,
        left_base,
        right_base,
        left_conditions: Sequence,
        right_conditions: Sequence,
        selectivity_left: float,
        selectivity_right: float,
    ) -> str:
        """Push-down vs streamed filter, by backend and selectivity.

        Only meaningful when a filtered side supports ``apply_filters``
        (SQLite).  Push-down wins whenever the filter actually drops rows
        — the database skips materialising them; a filter that keeps
        (nearly) everything is pure per-row WHERE overhead, so the scan
        streams instead.  ``"auto"`` when there is nothing to decide.
        """
        pushable = (
            (left_conditions and hasattr(left_base, "apply_filters"))
            or (right_conditions and hasattr(right_base, "apply_filters"))
        )
        if not pushable:
            return "auto"
        keep = min(
            selectivity_left if left_conditions else 1.0,
            selectivity_right if right_conditions else 1.0,
        )
        return "stream" if keep >= 0.95 else "push"

    def _fingerprint(
        self, bound: "BoundQuery", left_base, right_base
    ) -> tuple:
        query = bound.query
        return (
            left_base.uid,
            right_base.uid,
            query.join.left_attr,
            query.join.right_attr,
            conditions_fingerprint(query.filters),
            bound.skyline_dimension_count,
        )

    # ------------------------------------------------------------------
    # scheduler support
    # ------------------------------------------------------------------
    def table_footprint(self, source: Any) -> float:
        """Estimated bytes of ``source`` — **without scanning it**.

        Uses a cached summary when the store holds one; otherwise falls
        back to ``len(source) * columns * 8`` from schema metadata.  The
        cache-aware scheduler admission policy sums these to score table
        overlap between queries.
        """
        cached = self.statistics.cached(source)
        if cached is not None:
            return cached.estimated_bytes()
        try:
            rows = len(source)
            columns = len(source.schema.columns)
        except (AttributeError, TypeError):
            return 0.0
        return float(rows) * columns * BYTES_PER_VALUE
