"""SSMJ: Skyline-Sort-Merge-Join (Jin, Ester, Hu & Han, ICDE 2007), as
characterised by the paper's §VI-A.

SSMJ maintains for each source two active lists: the source-level skyline
``LS(S)`` (join condition ignored) and the group-level skylines ``LS(N)``
(per join value).  Query evaluation is two-phased:

* **Phase 1** — join ``LS(S) ⋈ LS(S)``, map, run the skyline over those
  results, report the first batch.
* **Phase 2** — join the remaining combinations (``LS(S) ⋈ LS(N)``,
  ``LS(N) ⋈ LS(S)``, ``LS(N) ⋈ LS(N)``), complete the skyline, report the
  rest at the very end.

So output appears at exactly *two* instants — the signature the paper's
figures show for SSMJ.

**Mapping-function caveat (the paper's drawback 3).** With mapping
functions, "objects in the source-level skyline are guaranteed to be in the
output" no longer holds: a phase-1 skyline member can still be dominated by
a phase-2 result.  This implementation therefore supports two modes:

* ``verified=True`` (default): phase-1 results are emitted only if an
  interval *threat bound* over the not-yet-joined tuples proves no phase-2
  result can dominate them; the rest is held back to the final batch.  All
  emitted results are guaranteed correct, so SSMJ stays comparable with the
  oracle in the agreement tests.
* ``verified=False`` (naive / faithful-to-criticism): phase 1 emits its
  whole batch skyline immediately.  The ``false_positive_keys`` attribute
  then records any early emission the final skyline retracts — the tests
  use this mode to *demonstrate* the paper's drawback.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from repro.baselines.pushthrough import (
    attribute_bounds,
    derived_preference,
    preference_scan,
    source_side,
)
from repro.errors import ExecutionError
from repro.join.hash_join import hash_join
from repro.join.predicates import EquiJoin
from repro.query.smj import BoundQuery, ResultTuple
from repro.runtime.clock import VirtualClock
from repro.skyline.bnl import bnl_skyline_entries
from repro.skyline.dominance import weakly_dominates
from repro.skyline.vectorized import skyline_order
from repro.storage.sources.base import Row, rows_of

#: A source row with its vector under the derived preference.
Entry = tuple[tuple[float, ...], Row]


def source_level_skyline(
    entries: Sequence[Entry], *, on_comparison: Callable[[], None] | None = None
) -> list[Row]:
    """``LS(S)``: skyline of the whole source, join condition ignored."""
    return [row for _, row in bnl_skyline_entries(entries, on_comparison=on_comparison)]


def group_level_skyline(
    entries: Sequence[Entry],
    keys: Sequence[Any],
    *,
    on_comparison: Callable[[], None] | None = None,
) -> list[Row]:
    """``LS(N)``: union of per-join-value group skylines, in source order.

    The source-order bookkeeping keys on row object identity, so
    ``entries`` must hold each row object once.
    """
    groups: dict = defaultdict(list)
    for entry, key in zip(entries, keys):
        groups[key].append(entry)
    kept: list[Row] = []
    for group_entries in groups.values():
        kept.extend(
            row
            for _, row in bnl_skyline_entries(
                group_entries, on_comparison=on_comparison
            )
        )
    order = {id(row): i for i, (_, row) in enumerate(entries)}
    kept.sort(key=lambda r: order[id(r)])
    return kept


class SkylineSortMergeJoin:
    """Two-batch SSMJ evaluation of an SMJ query."""

    name = "SSMJ"

    def __init__(
        self, bound: BoundQuery, clock: VirtualClock, *, verified: bool = True
    ) -> None:
        self.bound = bound
        self.clock = clock
        self.verified = verified
        self.false_positive_keys: set[tuple] = set()
        self.batch_sizes: list[int] = []

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _local_lists(self, alias: str) -> tuple[list, list]:
        """``(LS(S), LS(N))`` for one source under its derived preference.

        Both lists are scalar BNL skylines: BNL's comparison count is
        SSMJ's cost model for its local phase, so it does not share the
        vectorized kernel push-through prunes with.  Without a safe derived
        preference no local pruning is possible: the source-level list
        degenerates to *all* rows (phase 1 covers everything; phase 2 is
        empty), mirroring SSMJ's collapse when its local decisions cannot
        fire.
        """
        bound = self.bound
        charge = self.clock.charger("dominance_cmp")
        pref = derived_preference(bound, alias)
        table, join_attr = source_side(bound, alias)
        if pref is None:
            rows = rows_of(table)
            return list(rows), list(rows)
        # One scan shared by both passes: phase-2's LS(N)∖LS(S) difference
        # keys on row object identity.
        rows, vectors, keys = preference_scan(table, pref, join_attr)
        entries = list(zip(map(tuple, vectors.tolist()), rows))
        ls_s = source_level_skyline(entries, on_comparison=charge)
        ls_n = group_level_skyline(entries, keys, on_comparison=charge)
        return ls_s, ls_n

    def _join_and_map(
        self, left_rows: list, right_rows: list
    ) -> list[tuple[tuple[float, ...], tuple]]:
        bound = self.bound
        clock = self.clock
        predicate = EquiJoin(bound.left_join_index, bound.right_join_index)
        out = []
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
            out.append((bound.vector_of(mapped), (lrow, rrow, mapped)))
        return out

    def _skyline(
        self, candidates: list[tuple[tuple[float, ...], tuple]]
    ) -> list[tuple[tuple[float, ...], tuple]]:
        """The skyline of a batch's candidates, in sort-filter order."""
        survivors = skyline_order(
            [vector for vector, _ in candidates],
            on_comparisons=partial(self.clock.charge, "dominance_cmp"),
        )
        return [candidates[i] for i in survivors.tolist()]

    def _phase2_threats(
        self, ln_left: list, ln_right: list, lsn_left: list, lsn_right: list
    ) -> list[tuple[float, ...]]:
        """Component-wise lower bounds of every possible phase-2 result.

        Phase-2 results involve at least one tuple outside ``LS(S)``; the
        two classes are (LS(N)∖LS(S)) × LS(N) and LS(N) × (LS(N)∖LS(S)).
        For each class the interval-mapped lower corner bounds all its
        results from below.
        """
        bound = self.bound
        threats = []
        if ln_left and lsn_right:
            lo, _ = bound.region_box(
                attribute_bounds(ln_left, bound.left_map_attrs, bound.left_map_indices),
                attribute_bounds(lsn_right, bound.right_map_attrs, bound.right_map_indices),
            )
            threats.append(lo)
        if ln_right and lsn_left:
            lo, _ = bound.region_box(
                attribute_bounds(lsn_left, bound.left_map_attrs, bound.left_map_indices),
                attribute_bounds(ln_right, bound.right_map_attrs, bound.right_map_indices),
            )
            threats.append(lo)
        return threats

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> Iterator[ResultTuple]:
        bound = self.bound

        # Blocking prefix: local skyline computation on both sources.
        ls_left, lsn_left = self._local_lists(bound.left_alias)
        ls_right, lsn_right = self._local_lists(bound.right_alias)
        ls_left_ids = {id(r) for r in ls_left}
        ls_right_ids = {id(r) for r in ls_right}
        ln_left = [r for r in lsn_left if id(r) not in ls_left_ids]
        ln_right = [r for r in lsn_right if id(r) not in ls_right_ids]

        # ---- phase 1: LS(S) x LS(S) ----
        phase1 = self._join_and_map(ls_left, ls_right)
        batch1 = self._skyline(phase1)
        emitted_keys: set[tuple] = set()
        batch1_count = 0
        if self.verified:
            threats = self._phase2_threats(ln_left, ln_right, lsn_left, lsn_right)
            for vec, (lrow, rrow, mapped) in batch1:
                threatened = any(weakly_dominates(t, vec) for t in threats)
                if not threatened:
                    emitted_keys.add((lrow, rrow))
                    batch1_count += 1
                    yield bound.make_result(lrow, rrow, mapped)
        else:
            for vec, (lrow, rrow, mapped) in batch1:
                emitted_keys.add((lrow, rrow))
                batch1_count += 1
                yield bound.make_result(lrow, rrow, mapped)
        self.batch_sizes.append(batch1_count)

        # ---- phase 2: the remaining combinations ----
        candidates = list(phase1)
        candidates.extend(self._join_and_map(ln_left, lsn_right))
        candidates.extend(self._join_and_map(ls_left, ln_right))
        final = self._skyline(candidates)
        final_keys = {(lrow, rrow) for _, (lrow, rrow, _) in final}
        self.false_positive_keys = emitted_keys - final_keys
        if self.verified and self.false_positive_keys:
            raise ExecutionError(
                "verified SSMJ emitted a result outside the final skyline; "
                "the phase-2 threat bound is broken"
            )
        batch2_count = 0
        for _, (lrow, rrow, mapped) in final:
            if (lrow, rrow) in emitted_keys:
                continue
            batch2_count += 1
            yield bound.make_result(lrow, rrow, mapped)
        self.batch_sizes.append(batch2_count)
