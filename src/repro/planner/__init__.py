"""Statistics-driven cost-based planning.

:func:`collect_statistics` summarises sources in one sampled scan,
:mod:`repro.planner.cost` turns summaries into estimates (fanout, join
cardinality), and the :class:`Planner` picks the one knob the
statistics can decide — the quadtree on skewed inputs — and records every
estimate on its :class:`PlanDecision`, beside the actuals the run records.
Grid granularity stays at the engine default unless pinned.

Entry points::

    engine = ProgXeEngine(bound, planner=Planner())      # engine level
    stream = session.execute(bound, config="auto")        # session preset
    repro.explain_estimates(bound)                        # estimate vs actual
"""

from repro.planner.choose import PlanDecision, PlanEstimates, Planner
from repro.planner.statistics import (
    ColumnStatistics,
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
    "SourceStatistics",
    "StatisticsCounters",
    "StatisticsStore",
    "collect_statistics",
]
