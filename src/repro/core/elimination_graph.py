"""The elimination graph (EL-Graph, paper §IV-B).

A directed graph over output regions with an edge ``A -> B`` whenever some
output cell of ``A`` could — if populated during A's tuple-level
processing — partially or completely dominate ``B``.  Roots (no incoming
edges) are regions nobody can eliminate, hence the best candidates for
early processing; ProgOrder only ever ranks roots.

The edge test is a cell-coordinate box test: cells ``h ∈ A`` and ``g ∈ B``
with ``h + 1 <= g`` in every dimension exist iff
``A.cell_min + 1 <= B.cell_max`` everywhere (regions cover full coordinate
rectangles).  Mutual partial elimination produces cycles; a graph with
unprocessed regions but no roots is resolved by the ordering policy's
cycle-breaking fallback.
"""

from __future__ import annotations

import numpy as np

from repro.core.output_grid import row_lists
from repro.core.regions import OutputRegion
from repro.runtime.clock import VirtualClock


class EliminationGraph:
    """Incrementally maintained EL-Graph over surviving regions."""

    def __init__(self, regions: list[OutputRegion], clock: VirtualClock) -> None:
        self.regions = {r.rid: r for r in regions}
        self.clock = clock
        live = [r for r in regions if not r.discarded and r.covered]
        if live:
            self._build_edges(live)

    def _build_edges(self, live: list[OutputRegion]) -> None:
        cmin = np.array([r.cell_min for r in live], dtype=np.int64)
        cmax = np.array([r.cell_max for r in live], dtype=np.int64)
        self.clock.charge("graph_op", len(live))
        # could[i, j]: region i has a cell strictly below some cell of
        # region j in every dimension — one 2-D pass per dimension.
        could = np.ones((len(live), len(live)), dtype=bool)
        for j in range(cmin.shape[1]):
            could &= cmin[:, j, None] < cmax[None, :, j]
        np.fill_diagonal(could, False)
        for region, targets, degree in zip(
            live,
            row_lists(could, np.array([r.rid for r in live], dtype=object)),
            np.count_nonzero(could, axis=0).tolist(),
        ):
            region.out_edges = targets
            region.in_degree += degree

    # ------------------------------------------------------------------
    def roots(self) -> list[OutputRegion]:
        """Regions with no incoming edges that still need processing."""
        return [
            r
            for r in self.regions.values()
            if not r.done and r.in_degree == 0
        ]

    def remaining(self) -> list[OutputRegion]:
        """All regions still needing processing (roots or not)."""
        return [r for r in self.regions.values() if not r.done]

    def remove(self, region: OutputRegion) -> list[OutputRegion]:
        """Drop a processed/discarded node; return newly rootless regions.

        Mirrors Algorithm 1 lines 10–19: removing the node's outgoing edges
        may turn other regions into roots, which become candidates for the
        priority queue.
        """
        targets = map(self.regions.get, region.out_edges)
        targets = [t for t in targets if t is not None]
        if targets:
            self.clock.charge("graph_op", len(targets))  # one per edge
        new_roots: list[OutputRegion] = []
        for target in targets:
            target.in_degree -= 1
            if target.in_degree == 0 and not target.done:
                new_roots.append(target)
        region.out_edges = []
        return new_roots
