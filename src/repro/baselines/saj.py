"""SAJ: skyline-over-join via Fagin-style sorted access (paper §VI-A).

The paper describes SAJ (Koudas et al., VLDB 2006) as an extension of the
Fagin threshold framework (Fagin, Lotem & Naor, PODS 2001) following the
JF-SL paradigm.  This implementation:

1. sorts each source ascending by a monotone surrogate score (the sum of
   its derived-preference-normalised mapped attributes),
2. consumes both sorted lists round-robin ("sorted access"); each newly
   seen tuple is immediately joined against the already-seen tuples of the
   other source through a hash index ("random access"), with the mapped
   results maintained in an incremental skyline buffer,
3. after each round computes *threshold points*: interval lower bounds of
   every join result still involving at least one unseen tuple (suffix
   attribute minima make this sound regardless of the sort key),
4. emits a buffered result as soon as no threshold point can dominate it,
   and terminates sorted access early once some buffered result strictly
   dominates every threshold point.

Emission is correct and complete but heavily back-loaded — the blocking
behaviour the paper attributes to the JF-SL family.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.baselines.pushthrough import derived_preference
from repro.query.smj import BoundQuery, ResultTuple
from repro.runtime.clock import VirtualClock
from repro.skyline.dominance import dominates, weakly_dominates
from repro.storage.sources.base import rows_of


class _SourceState:
    """Sorted-access state for one source."""

    __slots__ = (
        "rows", "join_index", "map_indices", "map_attrs",
        "suffix_min", "suffix_max", "frontier", "seen_by_key",
    )

    def __init__(self, rows, join_index, map_indices, map_attrs, sort_key):
        self.rows = sorted(rows, key=sort_key)
        self.join_index = join_index
        self.map_indices = tuple(map_indices)
        self.map_attrs = tuple(map_attrs)
        n = len(self.rows)
        # suffix_min[i][j]: minimum of mapped attribute j over rows[i:].
        self.suffix_min: list[tuple[float, ...]] = [()] * (n + 1)
        self.suffix_max: list[tuple[float, ...]] = [()] * (n + 1)
        inf = float("inf")
        cur_min = [inf] * len(self.map_indices)
        cur_max = [-inf] * len(self.map_indices)
        self.suffix_min[n] = tuple(cur_min)
        self.suffix_max[n] = tuple(cur_max)
        for i in range(n - 1, -1, -1):
            row = self.rows[i]
            for j, idx in enumerate(self.map_indices):
                v = row[idx]
                if v < cur_min[j]:
                    cur_min[j] = v
                if v > cur_max[j]:
                    cur_max[j] = v
            self.suffix_min[i] = tuple(cur_min)
            self.suffix_max[i] = tuple(cur_max)
        self.frontier = 0
        self.seen_by_key: dict = defaultdict(list)

    @property
    def exhausted(self) -> bool:
        return self.frontier >= len(self.rows)

    def unseen_bounds(self) -> dict[str, tuple[float, float]] | None:
        """Per-attribute bounds over the unseen suffix (``None`` if empty)."""
        if self.exhausted:
            return None
        lo = self.suffix_min[self.frontier]
        hi = self.suffix_max[self.frontier]
        return {a: (lo[j], hi[j]) for j, a in enumerate(self.map_attrs)}

    def full_bounds(self) -> dict[str, tuple[float, float]]:
        """Per-attribute bounds over the whole source."""
        lo = self.suffix_min[0]
        hi = self.suffix_max[0]
        return {a: (lo[j], hi[j]) for j, a in enumerate(self.map_attrs)}

    def advance(self):
        """Consume the next row under sorted access."""
        row = self.rows[self.frontier]
        self.frontier += 1
        self.seen_by_key[row[self.join_index]].append(row)
        return row


class _BufferEntry:
    __slots__ = ("vector", "lrow", "rrow", "mapped", "emitted", "alive")

    def __init__(self, vector, lrow, rrow, mapped):
        self.vector = vector
        self.lrow = lrow
        self.rrow = rrow
        self.mapped = mapped
        self.emitted = False
        self.alive = True


class SortedAccessJoin:
    """SAJ evaluation of an SMJ query."""

    name = "SAJ"

    def __init__(self, bound: BoundQuery, clock: VirtualClock) -> None:
        self.bound = bound
        self.clock = clock
        self.rounds_used = 0

    # ------------------------------------------------------------------
    def _sort_key(self, alias: str, table, map_attrs, map_indices):
        """Monotone surrogate score: derived-preference-normalised sum."""
        pref = derived_preference(self.bound, alias)
        sign_list = [1] * len(map_attrs)
        if pref is not None:
            # An attribute outside the derived preference counts as minimised.
            sign_list = [s or 1 for s in pref.signs_for(map_attrs)]
        idx_list = list(map_indices)
        def key(row):
            return sum(s * row[i] for s, i in zip(sign_list, idx_list))
        return key

    def _threats(self, left: _SourceState, right: _SourceState):
        """Lower-bound vectors of all join results involving unseen tuples."""
        bound = self.bound
        threats = []
        lu = left.unseen_bounds()
        ru = right.unseen_bounds()
        if lu is not None:
            lo, _ = bound.region_box(lu, right.full_bounds())
            threats.append(lo)
        if ru is not None:
            lo, _ = bound.region_box(left.full_bounds(), ru)
            threats.append(lo)
        return threats

    # ------------------------------------------------------------------
    def run(self) -> Iterator[ResultTuple]:
        bound = self.bound
        clock = self.clock

        left = _SourceState(
            rows_of(bound.left_table),
            bound.left_join_index,
            bound.left_map_indices,
            bound.left_map_attrs,
            self._sort_key(bound.left_alias, bound.left_table,
                           bound.left_map_attrs, bound.left_map_indices),
        )
        right = _SourceState(
            rows_of(bound.right_table),
            bound.right_join_index,
            bound.right_map_indices,
            bound.right_map_attrs,
            self._sort_key(bound.right_alias, bound.right_table,
                           bound.right_map_attrs, bound.right_map_indices),
        )
        clock.charge("sort_step", len(left.rows) + len(right.rows))

        buffer: list[_BufferEntry] = []

        def insert(lrow, rrow) -> None:
            mapped = bound.map_pair(lrow, rrow)
            clock.charge("map")
            vec = bound.vector_of(mapped)
            for entry in buffer:
                if not entry.alive:
                    continue
                clock.charge("dominance_cmp")
                if dominates(entry.vector, vec):
                    return
            for entry in buffer:
                if not entry.alive:
                    continue
                clock.charge("dominance_cmp")
                if dominates(vec, entry.vector):
                    entry.alive = False
            buffer.append(_BufferEntry(vec, lrow, rrow, mapped))

        while not (left.exhausted and right.exhausted):
            self.rounds_used += 1
            for state, other, is_left in ((left, right, True), (right, left, False)):
                if state.exhausted:
                    continue
                row = state.advance()
                partners = other.seen_by_key.get(row[state.join_index], ())
                clock.charge("join_probe")
                for partner in partners:
                    clock.charge("join_result")
                    if is_left:
                        insert(row, partner)
                    else:
                        insert(partner, row)

            threats = self._threats(left, right)
            # Emit every buffered survivor no future result can dominate.
            for entry in buffer:
                if not entry.alive or entry.emitted:
                    continue
                if any(weakly_dominates(t, entry.vector) for t in threats):
                    continue
                entry.emitted = True
                yield bound.make_result(entry.lrow, entry.rrow, entry.mapped)
            # Early termination: some buffered result strictly dominates
            # every threat corner, so no unseen tuple can contribute.
            if threats and buffer:
                def beaten(t):
                    return any(
                        e.alive and all(ev < tv for ev, tv in zip(e.vector, t))
                        for e in buffer
                    )
                if all(beaten(t) for t in threats):
                    break

        for entry in buffer:
            if entry.alive and not entry.emitted:
                entry.emitted = True
                yield bound.make_result(entry.lrow, entry.rrow, entry.mapped)
