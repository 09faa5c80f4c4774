"""Progressiveness measurement.

A :class:`ProgressRecorder` captures, for every emitted result, the virtual
and wall-clock timestamp — exactly the data behind the paper's
"total number of results output over time" plots (Figures 10–12).  The
derived metrics quantify the curves: time-to-first-result, time to any
fraction of the output, number of distinct emission instants (batchiness),
and the normalised area under the progressiveness curve.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

from repro.runtime.clock import VirtualClock


@dataclass(frozen=True)
class EmissionEvent:
    """One result emission: sequence number and timestamps."""

    index: int  # 1-based cumulative result count
    vtime: float
    wall: float


class ProgressRecorder:
    """Records emission events against a :class:`VirtualClock`."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.events: list[EmissionEvent] = []
        self._wall_start = time.perf_counter()
        self.finished_vtime: float | None = None
        self.finished_wall: float | None = None

    def record(self, vtime: float) -> None:
        """Record the emission of one result that became final at ``vtime``."""
        self.events.append(
            EmissionEvent(
                index=len(self.events) + 1,
                vtime=vtime,
                wall=time.perf_counter() - self._wall_start,
            )
        )

    def finish(self) -> None:
        """Mark the end of execution (total time, even if output ended earlier)."""
        self.finished_vtime = self.clock.now()
        self.finished_wall = time.perf_counter() - self._wall_start

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def total_results(self) -> int:
        """Number of results emitted."""
        return len(self.events)

    @property
    def total_vtime(self) -> float:
        """Virtual time at completion (falls back to last emission)."""
        if self.finished_vtime is not None:
            return self.finished_vtime
        return self.events[-1].vtime if self.events else 0.0

    def time_to_first(self) -> float | None:
        """Virtual time of the first emission, or ``None`` if no output."""
        return self.events[0].vtime if self.events else None

    def time_to_fraction(self, fraction: float) -> float | None:
        """Virtual time at which ``fraction`` of all results were out."""
        if not self.events:
            return None
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        needed = max(1, int(round(fraction * len(self.events))))
        return self.events[needed - 1].vtime

    def results_by(self, vtime: float) -> int:
        """Cumulative results emitted at or before ``vtime``."""
        times = [e.vtime for e in self.events]
        return bisect.bisect_right(times, vtime)

    def emission_instants(self) -> list[float]:
        """Distinct virtual timestamps at which output appeared."""
        seen: list[float] = []
        for e in self.events:
            if not seen or e.vtime != seen[-1]:
                seen.append(e.vtime)
        return seen

    def batch_count(self) -> int:
        """Number of distinct emission instants (1–2 for blocking algorithms)."""
        return len(self.emission_instants())

    def progressiveness_auc(self) -> float:
        """Normalised area under the results-vs-time curve, in ``[0, 1]``.

        1.0 means everything was emitted at time zero; 0.0 means everything
        arrived only at completion.  This is the scalar summary used by the
        benches to compare curve shapes.
        """
        total = self.total_results
        horizon = self.total_vtime
        if total == 0 or horizon <= 0.0:
            return 0.0
        # Sum over results of the fraction of the horizon they were "out".
        area = sum((horizon - e.vtime) / horizon for e in self.events)
        return area / total

    def curve(self, points: int = 50) -> list[tuple[float, int]]:
        """Sampled ``(vtime, cumulative results)`` series for plotting/printing."""
        horizon = self.total_vtime
        if horizon <= 0.0:
            return [(0.0, self.total_results)]
        out = []
        for i in range(points + 1):
            t = horizon * i / points
            out.append((t, self.results_by(t)))
        return out
