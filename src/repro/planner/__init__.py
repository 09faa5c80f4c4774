"""The planner: one rule over sampled source statistics.

:func:`collect_statistics` summarises a source's columns as histograms in
one sampled scan, the :class:`StatisticsStore` caches the summaries by
source token, and the :class:`Planner` picks the one knob the statistics
can decide — the quadtree when the mapped attributes' histograms are
skewed, the grid otherwise.  Grid granularity stays at the engine default
unless pinned.

Entry points::

    engine = ProgXeEngine(bound, planner=Planner())      # engine level
    stream = session.execute(bound, config="auto")        # session preset
"""

from repro.planner.choose import PlanDecision, Planner
from repro.planner.statistics import (
    ColumnStatistics,
    SourceStatistics,
    StatisticsCounters,
    StatisticsStore,
    collect_statistics,
)

__all__ = [
    "PlanDecision",
    "Planner",
    "ColumnStatistics",
    "SourceStatistics",
    "StatisticsCounters",
    "StatisticsStore",
    "collect_statistics",
]
