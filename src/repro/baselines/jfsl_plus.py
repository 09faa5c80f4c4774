"""JF-SL+: JF-SL preceded by skyline partial push-through (paper §VI-A).

Each source is first reduced to its group-level skyline ``LS(N)`` under the
derived source preference; the join, map and skyline phases then run on the
pruned inputs.  Still fully blocking — the local pruning happens *before*
any output — but the join and final skyline are cheaper on skyline-friendly
data.  When a derived preference does not exist for a side, that side is
processed unpruned (push-through would be unsafe).
"""

from __future__ import annotations

from functools import partial

from repro.baselines.jfsl import JoinFirstSkylineLater
from repro.baselines.pushthrough import SourcePruneResult, prune_source
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.storage.sources.base import rows_of


class JoinFirstSkylineLaterPlus(JoinFirstSkylineLater):
    """JF-SL over push-through-pruned inputs."""

    name = "JF-SL+"

    def __init__(self, bound: BoundQuery, clock: VirtualClock) -> None:
        super().__init__(bound, clock)
        self.left_prune: SourcePruneResult | None = None
        self.right_prune: SourcePruneResult | None = None

    def _join_rows(self) -> tuple[list, list]:
        charge = partial(self.clock.charge, "dominance_cmp")
        self.left_prune = prune_source(
            self.bound, self.bound.left_alias, on_comparisons=charge
        )
        self.right_prune = prune_source(
            self.bound, self.bound.right_alias, on_comparisons=charge
        )
        left_rows = (
            self.left_prune.kept_rows
            if self.left_prune is not None
            else rows_of(self.bound.left_table)
        )
        right_rows = (
            self.right_prune.kept_rows
            if self.right_prune is not None
            else rows_of(self.bound.right_table)
        )
        return left_rows, right_rows
