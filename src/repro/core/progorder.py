"""ProgOrder: progressive-driven ordering (paper §IV-D, Algorithm 1).

Maintains the roots of the elimination graph in an inverted priority queue
ranked by ``rank = Benefit / Cost`` (Eq. 8).  Regions are handed out for
tuple-level processing highest-rank first; when a region completes (or is
discarded), its outgoing edges are removed, newly rootless regions are
ranked and enqueued, and a popped entry is re-ranked before it is handed
out: it goes back if the next entry now outranks it.  Ranks move both ways
(ProgCount as cells settle or reopen, cost with the mean cone size that
marking moves), so this lazy refresh keeps the order approximate.

Mutual partial elimination can leave the graph rootless while regions
remain (cycles of Figure 6.d); the policy then breaks the cycle by ranking
every remaining region directly.

:class:`RandomOrder` is the paper's "(No-Order)" ablation: regions are
processed in seeded-random order, with ProgDetermine still deciding safe
early output.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from repro.core.benefit import region_benefit
from repro.core.cost import region_cost
from repro.core.elimination_graph import EliminationGraph
from repro.core.output_grid import OutputGrid
from repro.core.regions import OutputRegion
from repro.runtime.clock import VirtualClock

RankFn = Callable[[OutputRegion], float]


def region_rank(
    region: OutputRegion, grid: OutputGrid, dimensions: int
) -> tuple[float, float, float]:
    """``(benefit, cost, rank)`` of a live region: Eq. 8's
    ``Benefit / Cost``, or the benefit alone when the cost is zero."""
    benefit = region_benefit(region, dimensions)
    cost = region_cost(region, grid, dimensions)
    return benefit, cost, benefit / cost if cost > 0 else benefit


class ProgOrder:
    """Benefit/cost-ranked region ordering over EL-Graph roots."""

    name = "ProgOrder"

    def __init__(
        self, graph: EliminationGraph, rank_fn: RankFn, clock: VirtualClock
    ) -> None:
        self.graph = graph
        self.rank_fn = rank_fn
        self.clock = clock
        self._heap: list[tuple[float, int, OutputRegion]] = []
        self._seq = 0
        for region in graph.roots():
            self._push(region)

    def _push(self, region: OutputRegion) -> None:
        rank = self.rank_fn(region)
        self.clock.charge("queue_op")
        heapq.heappush(self._heap, (-rank, self._seq, region))
        self._seq += 1

    def next_region(self) -> OutputRegion | None:
        """Highest-rank pending region, or ``None`` when all are done."""
        refreshes = 0
        budget = len(self._heap) + 2
        while True:
            while self._heap:
                neg_rank, _, region = heapq.heappop(self._heap)
                self.clock.charge("queue_op")
                if region.done:
                    continue
                # A popped entry may be stale: its rank moved since it was
                # pushed.  Refresh it; if something else now outranks it,
                # push it back and look again (bounded to stay O(heap)).
                fresh = self.rank_fn(region)
                if (
                    refreshes < budget
                    and self._heap
                    and fresh < -self._heap[0][0]
                ):
                    refreshes += 1
                    heapq.heappush(self._heap, (-fresh, self._seq, region))
                    self._seq += 1
                    continue
                return region
            # Queue exhausted: either done, or the graph is rootless due to
            # mutual (cyclic) partial elimination — break the cycle by
            # ranking everything still pending.
            remaining = self.graph.remaining()
            if not remaining:
                return None
            for region in remaining:
                self._push(region)

    def on_region_done(self, region: OutputRegion) -> None:
        """Graph maintenance after processing/discarding (lines 10–19)."""
        for new_root in self.graph.remove(region):
            self._push(new_root)

    def add_region(self, region: OutputRegion) -> None:
        """Streaming: enqueue a region created after construction.

        Regions built over newly arrived rows enter the elimination graph
        edge-free (in-degree 0), so they are roots by definition and go
        straight onto the rank queue.
        """
        self._push(region)


class RandomOrder:
    """The "(No-Order)" ablation: seeded-random region sequencing."""

    name = "RandomOrder"

    def __init__(
        self,
        graph: EliminationGraph,
        rank_fn: RankFn,  # accepted for interface parity; unused
        clock: VirtualClock,
        *,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.clock = clock
        order = list(graph.regions.values())
        random.Random(seed).shuffle(order)  # repro: allow[determinism] — caller-supplied seed; the shuffle is the ablation's whole point
        self._order = order
        self._cursor = 0

    def next_region(self) -> OutputRegion | None:
        while self._cursor < len(self._order):
            region = self._order[self._cursor]
            self._cursor += 1
            self.clock.charge("queue_op")
            if not region.done:
                return region
        return None

    def on_region_done(self, region: OutputRegion) -> None:
        # Keep the graph's degrees consistent for inspection, although
        # random ordering never consults them.
        self.graph.remove(region)

    def add_region(self, region: OutputRegion) -> None:
        """Streaming: append a late region in arrival order.

        The ablation's shuffle covers the initial region set; regions
        created by arrival polls are processed in the (deterministic)
        order they were built.
        """
        self._order.append(region)
