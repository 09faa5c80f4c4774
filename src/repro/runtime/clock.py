"""Deterministic virtual cost clock.

The paper reports wall-clock seconds of a 2009 Java implementation at
N = 500K.  A pure-Python reproduction cannot (and should not) chase those
absolute numbers, so every algorithm in this library charges its abstract
work — join build/probe steps, mapping evaluations, dominance comparisons,
partition bookkeeping — to a :class:`VirtualClock`.  Progressiveness curves
and total-cost comparisons are then reported in *virtual time units*, which
are deterministic across machines and runs, while preserving exactly the
relative behaviour the paper's figures show.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping

#: Default weight per operation kind.  Dominance comparisons and join steps
#: are the work the paper's wall-clock measurements are dominated by; the
#: bookkeeping ops of the ProgXe framework are charged too so that "ordering
#: overhead is negligible" (§VI-B) is a measured claim, not an artefact.
DEFAULT_WEIGHTS: dict[str, float] = {
    "join_build": 1.0,
    "join_probe": 1.0,
    "join_result": 1.0,
    "map": 1.0,
    "dominance_cmp": 1.0,
    "sort_step": 1.0,
    "partition_op": 0.25,
    "graph_op": 0.25,
    "queue_op": 0.25,
    "discard": 0.25,
    "cache_op": 0.25,
}


class VirtualClock:
    """Weighted operation counter posing as a clock.

    A *tripwire* may be installed (see :meth:`set_tripwire`): a zero-argument
    callable invoked after every charge.  The session layer installs one
    while a budgeted query steps: it raises once a budget is exhausted, and
    the exception unwinds the step at that very unit of charged work.
    """

    __slots__ = ("weights", "counts", "_time", "_tripwire")

    def __init__(self, weights: Mapping[str, float] | None = None) -> None:
        self.weights = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)
        self.counts: dict[str, int] = {}
        self._time = 0.0
        self._tripwire: Callable[[], None] | None = None

    def charge(self, kind: str, units: int = 1) -> None:
        """Record ``units`` operations of ``kind``.

        ``units`` is stored as a Python ``int`` (a numpy count is accepted
        and converted; a float is refused), so every count stays
        JSON-serialisable as a number.
        """
        units = operator.index(units)
        self.counts[kind] = self.counts.get(kind, 0) + units
        self._time += self.weights.get(kind, 1.0) * units
        if self._tripwire is not None:
            self._tripwire()

    def set_tripwire(self, hook: Callable[[], None] | None) -> None:
        """Install (or with ``None``, remove) the post-charge hook."""
        self._tripwire = hook

    def charger(self, kind: str) -> Callable[[], None]:
        """A zero-argument callback charging one ``kind`` op (for hot loops)."""
        def tick() -> None:
            self.charge(kind)
        return tick

    def now(self) -> float:
        """Current virtual time (weighted op count)."""
        return self._time

    def count(self, kind: str) -> int:
        """Total operations of ``kind`` charged so far."""
        return self.counts.get(kind, 0)

    def total_operations(self) -> int:
        """Unweighted total of all charged operations."""
        return sum(self.counts.values())

    def snapshot(self) -> dict[str, int]:
        """Copy of the per-kind counters."""
        return dict(self.counts)

    def since(self, snapshot: Mapping[str, int]) -> dict[str, int]:
        """Per-kind charge deltas relative to an earlier :meth:`snapshot`.

        Kinds whose counter did not move are omitted, so the result is the
        exact work performed in the window — the execution kernel uses this
        for per-step charge accounting and the scheduler for per-query
        fairness bookkeeping.
        """
        return {
            kind: total - snapshot.get(kind, 0)
            for kind, total in self.counts.items()
            if total != snapshot.get(kind, 0)
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(t={self._time:.0f}, {self.counts})"
