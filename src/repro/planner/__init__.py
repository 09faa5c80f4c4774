"""Statistics-driven cost-based planning and self-tuning.

Every engine knob the reproduction has grown — partitioner choice, grid
granularity, vectorized batch size, SQLite push-down vs streamed
filters — is caller-picked by default.  This package closes the
loop: :func:`collect_statistics` summarises sources in one sampled scan,
the :class:`CostModel` turns summaries into work estimates, and the
:class:`Planner` picks the knobs, records every estimate on its
:class:`PlanDecision`, and learns from post-run actuals.

Entry points::

    engine = ProgXeEngine(bound, planner=Planner())      # engine level
    stream = session.execute(bound, config="auto")        # session preset
    repro.explain_estimates(bound)                        # estimate vs actual
"""

from repro.planner.choose import (
    BATCH_SIZE_CANDIDATES,
    GRANULARITY_CANDIDATES,
    PlanDecision,
    PlanEstimates,
    Planner,
)
from repro.planner.cost import (
    DEFAULT_SCAN_COSTS,
    CostModel,
    calibrated_scan_costs,
)
from repro.planner.statistics import (
    ColumnStatistics,
    JoinObservation,
    SourceStatistics,
    StatisticsCounters,
    StatisticsStore,
    collect_statistics,
)

__all__ = [
    "BATCH_SIZE_CANDIDATES",
    "GRANULARITY_CANDIDATES",
    "PlanDecision",
    "PlanEstimates",
    "Planner",
    "DEFAULT_SCAN_COSTS",
    "CostModel",
    "calibrated_scan_costs",
    "ColumnStatistics",
    "JoinObservation",
    "SourceStatistics",
    "StatisticsCounters",
    "StatisticsStore",
    "collect_statistics",
]
