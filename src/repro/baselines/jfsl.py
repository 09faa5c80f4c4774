"""JF-SL: the join-first / skyline-later baseline (paper §I-C, Figure 1.b).

The traditional translation of an SMJ query into canonical relational
operators: materialise the full join, map every join result, then run a
skyline over everything.  Fully blocking — the first (and only) batch of
output appears after the last dominance comparison, which is exactly the
behaviour the paper's progressiveness figures show for the state of the
art.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.join.hash_join import hash_join
from repro.join.predicates import EquiJoin
from repro.query.smj import BoundQuery, ResultTuple
from repro.runtime.clock import VirtualClock
from repro.skyline.vectorized import skyline_order
from repro.storage.sources.base import rows_of


class JoinFirstSkylineLater:
    """JF-SL with a hash join and a sort-filter-skyline (:func:`skyline_order`)."""

    name = "JF-SL"

    def __init__(self, bound: BoundQuery, clock: VirtualClock) -> None:
        self.bound = bound
        self.clock = clock
        self.join_result_count = 0

    def _join_rows(self) -> tuple[list, list]:
        """Rows fed into the join (overridden by JF-SL+)."""
        return rows_of(self.bound.left_table), rows_of(self.bound.right_table)

    def run(self) -> Iterator[ResultTuple]:
        bound = self.bound
        clock = self.clock
        left_rows, right_rows = self._join_rows()
        predicate = EquiJoin(bound.left_join_index, bound.right_join_index)

        vectors: list[tuple[float, ...]] = []
        payloads: list[tuple] = []
        for lrow, rrow in hash_join(
            left_rows,
            right_rows,
            predicate,
            on_build=clock.charger("join_build"),
            on_probe=clock.charger("join_probe"),
            on_result=clock.charger("join_result"),
        ):
            mapped = bound.map_pair(lrow, rrow)
            clock.charge("map")
            vectors.append(bound.vector_of(mapped))
            payloads.append((lrow, rrow, mapped))
        self.join_result_count = len(payloads)

        survivors = skyline_order(
            vectors, on_comparisons=partial(clock.charge, "dominance_cmp")
        )
        # Single blocking batch: everything is reported only now.
        for i in survivors.tolist():
            yield bound.make_result(*payloads[i])
