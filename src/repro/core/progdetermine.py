"""ProgDetermine: progressive result determination (paper §V, Algorithm 2).

Decides which output cells can be emitted *safely* — provably members of
the final skyline — and when.  The paper's Principle 1 requires, for a cell
``Oh``:

1. no future tuple will map into ``Oh`` (its RegCount reached zero),
2. every cell that would dominate ``Oh`` outright is settled empty (else
   ``Oh`` would have been marked),
3. every cell that could contribute *individual* dominators has settled —
   all its tuples exist and their comparisons have pruned ``Oh``.

This implementation realises the paper's count-based variant: conditions
(2) and (3) collapse into one ``pending`` counter per cell — the number of
unsettled cells in its dominance cone — maintained by settle notifications
(the count decrements replacing the Dom/DomBy/Dependent/Dependence list
removals of Algorithm 2).

:class:`ExecutionState` owns the mutable execution structures and exposes
the three state transitions (settle, mark, region completion) plus the
tuple-insertion path used by tuple-level processing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.output_grid import CellEntry, OutputCell, OutputGrid
from repro.core.regions import OutputRegion
from repro.errors import ExecutionError
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.skyline.dominance import dominates
from repro.skyline.vectorized import dominates_matrix, skyline_mask
from repro.storage.partition import materialize_rows


def _vector_rows(cell: OutputCell) -> list[list[float]]:
    """A cell's entry vectors as Python lists (what the per-tuple path walks)."""
    matrix = cell.vector_matrix()
    return [] if matrix is None else matrix.tolist()


class ExecutionState:
    """Shared mutable state of one ProgXe execution."""

    def __init__(
        self,
        bound: BoundQuery,
        regions: list[OutputRegion],
        grid: OutputGrid,
        clock: VirtualClock,
    ) -> None:
        self.bound = bound
        self.grid = grid
        self.clock = clock
        self.regions = {r.rid: r for r in regions}
        self.active_region: OutputRegion | None = None
        self.newly_discarded: list[OutputRegion] = []
        self._emissions: list[CellEntry] = []
        #: Streaming mode: while the arrival window is open a settled cell
        #: may be *reopened* by a region built over later-arriving rows, so
        #: "settled with an empty cone" is not yet proof of finality.  The
        #: streaming kernel sets this flag to buffer every emission until
        #: :meth:`release_emissions` declares arrivals over.
        self.hold_emissions = False
        #: Streaming mode: delta rows falling outside a frozen input-grid
        #: domain are clamped into edge partitions, which breaks the
        #: coordinate-granularity argument behind the strict-upper marking
        #: shortcut (a clamped entry's true vector may exceed its cell's
        #: box).  With this flag the marking stage tests full dominance of
        #: the candidate over the cell's lower corner instead — sound for
        #: clamped entries and equivalent for unclamped ones.
        self.careful_marking = False
        # Statistics
        self.inserted = 0
        self.discarded_on_arrival = 0
        self.dominated_on_arrival = 0
        self.live_entries = 0
        self.peak_live_entries = 0

    # ------------------------------------------------------------------
    # emission plumbing
    # ------------------------------------------------------------------
    def drain_emissions(self) -> list[CellEntry]:
        """Entries that became safely emittable since the last drain.

        Emission is where row references end: entries buffered by the
        vectorized path name their rows as
        :class:`~repro.storage.partition.RowRef`, and the drained entries
        carry the tuples — fetched once per source partition, for these
        entries only.
        """
        if not self._emissions:
            return []
        out = self._emissions
        self._emissions = []
        lrows = materialize_rows([entry[1] for entry in out])
        rrows = materialize_rows([entry[2] for entry in out])
        return [
            (entry[0], lrow, rrow, entry[3])
            for entry, lrow, rrow in zip(out, lrows, rrows)
        ]

    def emit_settled(self, cell: OutputCell) -> None:
        """Emit ``cell``'s buffered entries if it is provably final.

        Public API used by the engine/kernel bootstrap (cells released
        during look-ahead) and by the internal settle/mark cascades.  A
        no-op unless the cell is :attr:`~repro.core.output_grid.OutputCell.
        emittable` — settled, unmarked, not yet emitted, and with an empty
        pending cone — so it is always safe to call.
        """
        if self.hold_emissions:
            return
        if cell.emittable:
            cell.emitted = True
            if cell.size:
                # Emitted entries leave the held-back buffer (they remain
                # in the cell for future dominance checks, but the user has
                # them already).
                self.live_entries -= cell.size
                self._emissions.extend(cell.entries)

    def release_emissions(self) -> None:
        """End the streaming hold: emit every cell that is now final.

        Called by the streaming kernel once the arrival window has closed
        and all regions are processed — from that point the ordinary
        emittable condition is again proof of finality, so one sweep over
        the grid emits everything the hold deferred.
        """
        self.hold_emissions = False
        for cell in self.grid.cells.values():
            self.emit_settled(cell)

    # ------------------------------------------------------------------
    # the three state transitions
    # ------------------------------------------------------------------
    def settle(self, cell: OutputCell) -> None:
        """No future tuple can map to ``cell``; notify its cone."""
        if cell.settled:
            return
        cell.settled = True
        self.emit_settled(cell)
        for uc in cell.cone_upper:
            uc.pending -= 1
            self.emit_settled(uc)

    def mark_cell(self, cell: OutputCell) -> None:
        """Mark ``cell`` non-contributing; drop its buffer, cascade."""
        if cell.marked:
            return
        if cell.emitted:
            raise ExecutionError(
                f"attempt to mark emitted cell {cell!r}; "
                "the emission guarantee is broken"
            )
        cell.marked = True
        totals = self.grid.cone_totals
        if totals is not None:
            totals[0] -= len(cell.cone_lower) + len(cell.cone_upper) + 1
            totals[1] -= 1
        if cell.size:
            self.clock.charge("discard", cell.size)
            self.live_entries -= cell.size
            cell.clear()
        for rid in cell.region_ids:
            region = self.regions[rid]
            region.unmarked_covered -= 1
            if (
                region.unmarked_covered == 0
                and not region.done
                and region is not self.active_region
            ):
                # Every cell the region could populate is dominated; its
                # tuple-level processing would produce only dominated
                # results.  (The active region is left to finish: its
                # remaining arrivals land in marked cells and are dropped.)
                self.discard_region(region)
        if not cell.settled:
            cell.settled = True
            for uc in cell.cone_upper:
                uc.pending -= 1
                self.emit_settled(uc)

    def reopen_cell(self, cell: OutputCell) -> None:
        """Streaming: a region over newly arrived rows covers ``cell`` again.

        Undoes the settle — future tuples may map here after all — and
        restores the cone's pending counts.  Only unemitted cells can be
        reopened; the streaming kernel's emission hold guarantees that
        while the arrival window is open.  Marked cells stay marked (their
        domination witness remains valid whatever arrives later).
        """
        if cell.emitted:
            raise ExecutionError(
                f"attempt to reopen emitted cell {cell!r}; "
                "the emission guarantee is broken"
            )
        if cell.marked or not cell.settled:
            return
        cell.settled = False
        for uc in cell.cone_upper:
            uc.pending += 1

    def complete_region(self, region: OutputRegion) -> None:
        """Release the region's coverage (Algorithm 2 lines 2–5)."""
        for cell in region.covered:
            cell.reg_count -= 1
            if cell.reg_count == 0 and not cell.settled:
                self.settle(cell)
        region.covered = []

    def discard_region(self, region: OutputRegion) -> None:
        """Discard a dominated region and release its coverage."""
        region.discarded = True
        self.newly_discarded.append(region)
        self.complete_region(region)

    def drain_discarded(self) -> list[OutputRegion]:
        """Regions discarded since the last drain (for the ordering policy)."""
        if not self.newly_discarded:
            return []
        out = self.newly_discarded
        self.newly_discarded = []
        return out

    # ------------------------------------------------------------------
    # tuple insertion (the §III-B comparison-minimising path)
    # ------------------------------------------------------------------
    def insert(
        self,
        vector: tuple[float, ...],
        lrow: tuple,
        rrow: tuple,
        mapped: tuple[float, ...],
    ) -> None:
        """Insert one mapped join result into the output grid."""
        clock = self.clock
        cell = self.grid.cell_for_vector(vector)
        if cell.marked:
            # Dominated wholesale by the cell's marking witness: zero
            # comparisons needed.
            clock.charge("discard")
            self.discarded_on_arrival += 1
            return
        if cell.reg_count <= 0:
            raise ExecutionError(
                f"tuple arrived in settled cell {cell!r}; RegCount accounting broken"
            )

        # (1) Can anything already present dominate the newcomer?  Only the
        # cell itself and its lower cone can (paper §III-B).
        beaten: list[bool] = []
        for present in _vector_rows(cell):
            clock.charge("dominance_cmp")
            if dominates(present, vector):
                self.dominated_on_arrival += 1
                return
            # While scanning, note same-cell entries the newcomer beats.
            clock.charge("dominance_cmp")
            beaten.append(dominates(vector, present))
        for lc in cell.cone_lower:
            for present in _vector_rows(lc):
                clock.charge("dominance_cmp")
                if dominates(present, vector):
                    self.dominated_on_arrival += 1
                    return

        # (2) The newcomer survived: evict dominated entries, here and
        # upstream.
        if True in beaten:
            self.live_entries -= cell.evict(np.asarray(beaten))
        for uc in cell.cone_upper:
            beaten = []
            for present in _vector_rows(uc):
                clock.charge("dominance_cmp")
                beaten.append(dominates(vector, present))
            if True in beaten:
                self.live_entries -= uc.evict(np.asarray(beaten))

        # (3) Mark every strictly-dominated cell (Example 3 at tuple
        # granularity): anything ever falling there is dominated by the
        # newcomer — with the value-level strictness guard for boundary
        # ties.
        careful = self.careful_marking
        for sc in cell.strict_upper:
            if sc.marked:
                continue
            clock.charge("partition_op")
            lower = sc.lower
            if careful:
                if dominates(vector, lower):
                    self.mark_cell(sc)
                continue
            strict = False
            for v, b in zip(vector, lower):
                if v < b:
                    strict = True
                    break
            if strict:
                self.mark_cell(sc)

        # An object block keeps the mapped values as computed (ints stay ints).
        values = np.asarray([mapped], dtype=object)
        cell.append(np.asarray([vector], dtype=float), (lrow,), (rrow,), values)
        self.inserted += 1
        self.live_entries += 1
        if self.live_entries > self.peak_live_entries:
            self.peak_live_entries = self.live_entries

    # ------------------------------------------------------------------
    # batched tuple insertion (the vectorized §III-B path)
    # ------------------------------------------------------------------
    def insert_batch(
        self,
        vectors: np.ndarray,
        lrows: Sequence[tuple],
        rrows: Sequence[tuple],
        mapped: np.ndarray,
    ) -> None:
        """Insert a chunk of mapped join results with matrix kernels.

        Semantically equivalent to calling :meth:`insert` per tuple — the
        surviving entry sets, evictions, markings and cascades are
        identical (dominance is transitive, so the outcome is
        order-independent) — but every dominance test runs as one numpy
        broadcast per cell group and comparisons are charged to the clock
        in bulk.  A budget tripwire can therefore fire mid-batch; that is
        safe because nothing is emitted from here (the caller drains
        emissions only after the batch returns), so any previously yielded
        prefix remains provably final.
        """
        clock = self.clock
        grid = self.grid
        n = len(lrows)
        if n == 0:
            return
        coords = grid.coords_matrix(vectors)
        # Group candidates by cell: one stable argsort over the raveled
        # cell id leaves each group's members in arrival order, and groups
        # are visited in order of first arrival (marking cascades depend
        # on it).
        flat = np.ravel_multi_index(
            tuple(coords.T), (grid.cells_per_dim,) * coords.shape[1]
        )
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_flat[1:] != sorted_flat[:-1]))
        )
        stops = np.append(starts[1:], n)
        mapped = np.asarray(mapped)

        for g in np.argsort(order[starts], kind="stable").tolist():
            idx = order[starts[g]:stops[g]]
            key = tuple(coords[idx[0]].tolist())
            cell = grid.cells.get(key)
            if cell is None:
                raise ExecutionError(
                    f"mapped result batch fell into inactive cell {key}; "
                    "region covering is broken"
                )
            b = len(idx)
            if cell.marked:
                clock.charge("discard", b)
                self.discarded_on_arrival += b
                continue
            if cell.reg_count <= 0:
                raise ExecutionError(
                    f"tuple batch arrived in settled cell {cell!r}; "
                    "RegCount accounting broken"
                )
            cand = vectors[idx]  # (b, d)

            # (1) Dominator filtering in stages of decreasing kill rate,
            # each stage shrinking the candidate set the next one tests —
            # the bulk analogue of the scalar path's short-circuiting.
            # Stage order is free: dominance is transitive, so the final
            # survivor set is order-independent (an eliminated candidate's
            # victims are also its dominator's victims).
            #
            # (1a) intra-batch: candidates of one region pair are often
            # mutually dominating.  The sweep is O(s·b) for a local skyline
            # of size s — far below the b² of all pairs — and what it
            # reports, whichever form the kernel takes at this size, is the
            # pairs that sweep tests.
            live = np.arange(b, dtype=np.intp)
            if b > 1:
                tested: list[int] = []
                live = live[skyline_mask(cand, on_comparisons=tested.append)]
                clock.charge("dominance_cmp", sum(tested))
            # (1b) the cell's own entries (charged both directions,
            # mirroring the scalar path's paired dominates() calls).
            own = cell.size
            if own and live.size:
                clock.charge("dominance_cmp", 2 * live.size * own)
                hit = dominates_matrix(cell.vector_matrix(), cand[live]).any(axis=0)
                live = live[~hit]
            # (1c) the lower cone, pooled into one matrix / one kernel
            # (per-cell matrices are views of the cells' blocks).
            if live.size:
                cone_mats = [
                    lc.vector_matrix() for lc in cell.cone_lower if lc.size
                ]
                if cone_mats:
                    cone = (
                        np.concatenate(cone_mats)
                        if len(cone_mats) > 1
                        else cone_mats[0]
                    )
                    clock.charge("dominance_cmp", live.size * cone.shape[0])
                    hit = dominates_matrix(cone, cand[live]).any(axis=0)
                    live = live[~hit]
            surv_idx = idx[live]
            s = len(surv_idx)
            self.dominated_on_arrival += b - s
            if not s:
                continue
            surv = vectors[surv_idx]

            # (2) Evict dominated entries: same cell plus the upper cone,
            # again pooled into one kernel call and split back per cell.
            targets = [t for t in (cell, *cell.cone_upper) if t.size]
            if targets:
                evict_mats = [t.vector_matrix() for t in targets]
                evict_pool = (
                    np.concatenate(evict_mats)
                    if len(evict_mats) > 1
                    else evict_mats[0]
                )
                upper_total = evict_pool.shape[0] - own
                if upper_total:
                    clock.charge("dominance_cmp", s * upper_total)
                kill = dominates_matrix(surv, evict_pool).any(axis=0)
                if kill.any():
                    pos = 0
                    for target in targets:
                        part = kill[pos : pos + target.size]
                        pos += len(part)
                        self.live_entries -= target.evict(part)

            # (3) Mark strictly-dominated cells.  One surviving candidate
            # with some dimension strictly below the cell's lower corner
            # suffices, so testing the per-dimension minimum over the
            # survivors is exact.
            strict = cell.strict_upper
            unmarked = [i for i, sc in enumerate(strict) if not sc.marked]
            if unmarked:
                clock.charge("partition_op", len(unmarked))
                lowers = cell.strict_lowers()[unmarked]
                if self.careful_marking:
                    to_mark = dominates_matrix(surv, lowers).any(axis=0)
                else:
                    to_mark = (surv.min(axis=0) < lowers).any(axis=1)
                for i in np.flatnonzero(to_mark).tolist():
                    self.mark_cell(strict[unmarked[i]])

            # ``lrows[i]`` is a row tuple, or a row reference when the
            # batch came as index pairs (resolved at emission).
            picked = surv_idx.tolist()
            cell.append(
                surv,
                [lrows[i] for i in picked],
                [rrows[i] for i in picked],
                mapped[surv_idx],
            )
            self.inserted += s
            self.live_entries += s
            if self.live_entries > self.peak_live_entries:
                self.peak_live_entries = self.live_entries

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify_drained(self) -> None:
        """After all regions are done every live cell must have emitted."""
        for cell in self.grid.cells.values():
            if cell.marked:
                continue
            if not cell.emitted:
                raise ExecutionError(
                    f"execution finished with unemitted live cell {cell!r}"
                )
