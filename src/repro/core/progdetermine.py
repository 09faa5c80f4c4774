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

from repro.core.output_grid import (
    CellEntry,
    OutputCell,
    OutputGrid,
    pooled_entries,
)
from repro.core.regions import OutputRegion
from repro.errors import ExecutionError
from repro.query.smj import BoundQuery
from repro.runtime.clock import VirtualClock
from repro.skyline.vectorized import dominated_by_any, dominates_matrix, skyline_mask
from repro.storage.partition import materialize_rows

#: Dominance tests (rows x columns) per ``dominates_matrix`` call in
#: :meth:`ExecutionState.insert_batch`.  Each call builds ``(d, rows,
#: columns)`` boolean temporaries, so a larger test runs in blocks of
#: ``DOMINANCE_LANES // rows`` columns.  Read at call time.
DOMINANCE_LANES = 2**20


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
        #: Regions completed without a join: a buffered entry dominated
        #: their lower corner (:meth:`witnesses`).
        self.regions_skipped = 0
        #: Input rows left out of a region's join: a buffered entry
        #: dominated the corner of every pair they could make.
        self.rows_skipped = 0
        #: Joined pairs left out of every cell-group scan: a buffered entry
        #: dominated them (the witness pass of :meth:`insert_batch`).
        self.pairs_skipped = 0
        self.discarded_on_arrival = 0
        self.dominated_on_arrival = 0
        self.live_entries = 0
        self.peak_live_entries = 0

    # ------------------------------------------------------------------
    # emission plumbing
    # ------------------------------------------------------------------
    def drain_emissions(self) -> list[CellEntry]:
        """Entries that became safely emittable since the last drain.

        Emission is where row references end: entries buffered from a
        region's index pairs name their rows as
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

    def witnesses(self, region: OutputRegion) -> np.ndarray | None:
        """The buffered entries that can kill ``region``'s pairs unjoined:
        those in the corner cell ``region.cell_min`` and its non-empty
        ``cone_lower``, pooled ``(m, d)``; ``None`` when there are none.

        Every pair the region joins maps to a vector ``>=`` a corner the
        join can compute beforehand — ``region.lower`` for all of them,
        and for one row's pairs the row's own corner
        (:meth:`~repro.query.smj.BoundQuery.row_corners`).  An entry that
        strictly dominates such a corner dominates each of those pairs,
        which would die in the (1a) scan of :meth:`insert_batch` without
        surviving, evicting or marking (Example 2, with a real tuple as the
        witness).  Grid coordinates are monotone, so every entry ``<=``
        ``region.lower`` sits in this pool, and the (1a) scan of any pair
        of the region sees every entry of it.  Emitted entries stay in
        their cells and count.  A corner cell pre-marked at look-ahead has
        no cone.  The tests charge nothing: like the rank refresh before
        them, they ride on the dispatch's ``queue_op``.  :meth:`insert_batch`
        pools them again for each batch of the active region (its witness
        pass).
        """
        cell = self.grid.cells[region.cell_min]
        return pooled_entries((cell, *cell.cone_lower))

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
    def insert_batch(
        self,
        vectors: np.ndarray,
        lrows: Sequence[tuple],
        rrows: Sequence[tuple],
        mapped: np.ndarray,
    ) -> None:
        """Insert a chunk of mapped join results with matrix kernels.

        ``vectors`` is the ``(n, d)`` float64 minimisation matrix and
        ``mapped`` the ``(n, k)`` float64 mapped values
        (:meth:`~repro.query.smj.BoundQuery.map_rows_batch`).  The outcome
        is that of inserting the tuples one at a time in arrival order —
        only a newcomer's own cell and lower cone can dominate it, it
        evicts what it dominates in its cell and upper cone, and it marks
        the strict-upper cells it dominates outright (paper §III-B) — with
        every dominance test run as one numpy broadcast per cell group and
        comparisons charged to the clock in bulk.  Each group is scanned
        against its cell and lower cone, swept for its local skyline, then
        evicts, marks and is appended.  While a region is active, one
        witness pass first removes the candidates its witness pool
        dominates, and the scans skip that pool; the outcome and every
        charge but ``dominance_cmp``, which only falls, stay the same.
        A budget tripwire can fire mid-batch; that is safe because nothing
        is emitted from here (the caller drains emissions only after the
        batch returns), so any previously yielded prefix remains provably
        final.
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
        # on it).  Ids go in the narrowest unsigned dtype that holds them:
        # numpy radix-sorts 8- and 16-bit keys.
        d = coords.shape[1]
        flat = np.ravel_multi_index(
            tuple(coords.T), (grid.cells_per_dim,) * d
        ).astype(np.min_scalar_type(grid.cells_per_dim**d - 1), copy=False)
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_flat[1:] != sorted_flat[:-1]))
        )
        stops = np.append(starts[1:], n)

        # (0) The witness pass: with the group order fixed, every candidate
        # is tested once against the active region's witness pool — the
        # entries of its corner cell and that cell's lower cone as they
        # stand before the batch (:meth:`witnesses`).  Each of those cells
        # is the group's own cell or in its lower cone, so a candidate the
        # pool dominates would die in its group's (1a) scan: it leaves its
        # group here, uncharged like the region and row tests.  The scans
        # then skip the pool.  No pool cell but the corner can change
        # mid-batch: they are ``<=`` every covered cell, so they are never
        # an eviction target, never strictly above a group and never
        # appended to.  The corner's group evicts from it only what its own
        # survivors dominate, and appends them; so a scan keeps the
        # corner's last ``fresh`` entries, the ones appended this batch.
        region = self.active_region
        pool = None if region is None else self.witnesses(region)
        corner, pooled, fresh = None, frozenset(), 0
        killed = [0] * len(starts)
        if pool is not None:
            corner = grid.cells[region.cell_min]
            pooled = frozenset(c.coords for c in corner.cone_lower if c.size)
            dead = dominated_by_any(vectors, pool)
            killed = np.add.reduceat(dead[order], starts, dtype=np.intp).tolist()

        first = order[starts]
        keys = coords[first].tolist()
        bounds = np.column_stack((starts, stops)).tolist()
        for g in np.argsort(first, kind="stable").tolist():
            key = tuple(keys[g])
            cell = grid.cells.get(key)
            if cell is None:
                raise ExecutionError(
                    f"mapped result batch fell into inactive cell {key}; "
                    "region covering is broken"
                )
            lo, hi = bounds[g]
            b = hi - lo
            if cell.marked:
                clock.charge("discard", b)
                self.discarded_on_arrival += b
                continue
            if cell.reg_count <= 0:
                raise ExecutionError(
                    f"tuple batch arrived in settled cell {cell!r}; "
                    "RegCount accounting broken"
                )
            idx = order[lo:hi]
            if killed[g]:
                self.dominated_on_arrival += killed[g]
                self.pairs_skipped += killed[g]
                if killed[g] == b:
                    continue  # the pass emptied the group: no kernel
                idx = idx[~dead[idx]]
                b = len(idx)
            cand = vectors[idx]  # (b, d)

            # (1) Dominator filtering in two stages, the first shrinking
            # the set the second sweeps.  Stage order is free because
            # dominance is transitive: the sweep keeps a point iff no point
            # before it in sum order beats it, and where such a point fell
            # to the scan, its dominator beats this point too and the scan
            # removes it as well.  So the survivors are those of the
            # sweep-first order.  Mapped vectors are finite
            # (:meth:`~repro.query.smj.BoundQuery.map_rows_batch`), which
            # this argument needs: NaN breaks transitivity.
            #
            # (1a) the §III-B scan: the cell's own entries, then its
            # non-empty lower cone, pooled into one kernel launch in the
            # order the per-tuple scan walks them, less what the witness
            # pass tested.  It kills almost every candidate, so it runs
            # first.  Charged as that scan: each candidate pays for the
            # entries before its first dominator (own entries twice, as the
            # scan tests both directions) plus the dominator itself, or for
            # the whole pool if none beats it.  The witness entries dropped
            # from the pool dominate no candidate left, so dropping them
            # lowers each charge by the entries they were.  Charges are per
            # candidate, so candidate blocks sum to them.
            own = cell.size
            scanned_own = 0 if cell is corner else own
            live = np.arange(b, dtype=np.intp)
            pool_mats = []
            for c in (cell, *cell.cone_lower):
                if not c.size:
                    continue
                if c is corner:
                    if fresh:
                        pool_mats.append(c.vector_matrix()[-fresh:])
                elif c.coords not in pooled:
                    pool_mats.append(c.vector_matrix())
            if pool_mats:
                scan = np.concatenate(pool_mats) if len(pool_mats) > 1 else pool_mats[0]
                step = max(1, DOMINANCE_LANES // len(scan))
                charged = 0
                alive = np.empty(b, dtype=bool)
                for lo in range(0, b, step):
                    seen = np.logical_or.accumulate(
                        dominates_matrix(scan, cand[lo : lo + step]), axis=0
                    )
                    passed = seen.size - np.count_nonzero(seen)
                    passed_own = scanned_own * seen.shape[1] - np.count_nonzero(
                        seen[:scanned_own]
                    )
                    beaten = np.count_nonzero(seen[-1])
                    charged += passed + passed_own + beaten
                    np.logical_not(seen[-1], out=alive[lo : lo + step])
                clock.charge("dominance_cmp", charged)
                live = np.flatnonzero(alive)
            # (1b) intra-group: what the scan leaves is often mutually
            # dominating.  The sweep is O(s·b) for a local skyline of size
            # s, and what it reports, whichever form the kernel takes at
            # this size, is the pairs that sweep tests.
            if live.size > 1:
                tested: list[int] = []
                live = live[skyline_mask(cand[live], on_comparisons=tested.append)]
                clock.charge("dominance_cmp", sum(tested))
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
                step = max(1, DOMINANCE_LANES // s)
                kill = np.empty(len(evict_pool), dtype=bool)
                for lo in range(0, len(kill), step):
                    dominates_matrix(surv, evict_pool[lo : lo + step]).any(
                        axis=0, out=kill[lo : lo + step]
                    )
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
            if cell is corner:
                fresh = s
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
