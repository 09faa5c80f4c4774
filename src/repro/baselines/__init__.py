"""Baseline algorithms the paper compares against (§VI-A)."""

from repro.baselines.jfsl import JoinFirstSkylineLater
from repro.baselines.jfsl_plus import JoinFirstSkylineLaterPlus
from repro.baselines.pushthrough import (
    SourcePruneResult,
    attribute_bounds,
    derived_preference,
    prune_source,
)
from repro.baselines.saj import SortedAccessJoin
from repro.baselines.ssmj import SkylineSortMergeJoin

__all__ = [
    "JoinFirstSkylineLater",
    "JoinFirstSkylineLaterPlus",
    "SkylineSortMergeJoin",
    "SortedAccessJoin",
    "SourcePruneResult",
    "attribute_bounds",
    "derived_preference",
    "prune_source",
]
