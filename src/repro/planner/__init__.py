"""Statistics-driven cost-based planning and self-tuning.

:func:`collect_statistics` summarises sources in one sampled scan,
:mod:`repro.planner.cost` turns summaries into estimates (fanout, join
cardinality), and the :class:`Planner` picks the one knob the
statistics can decide — the quadtree on skewed inputs — records every
estimate on its :class:`PlanDecision`, and learns from post-run actuals.  Grid
granularity and batch size stay at the engine defaults unless pinned.

Entry points::

    engine = ProgXeEngine(bound, planner=Planner())      # engine level
    stream = session.execute(bound, config="auto")        # session preset
    repro.explain_estimates(bound)                        # estimate vs actual
"""

from repro.planner.choose import PlanDecision, PlanEstimates, Planner
from repro.planner.statistics import (
    ColumnStatistics,
    JoinObservation,
    SourceStatistics,
    StatisticsCounters,
    StatisticsStore,
    collect_statistics,
)

__all__ = [
    "PlanDecision",
    "PlanEstimates",
    "Planner",
    "ColumnStatistics",
    "JoinObservation",
    "SourceStatistics",
    "StatisticsCounters",
    "StatisticsStore",
    "collect_statistics",
]
