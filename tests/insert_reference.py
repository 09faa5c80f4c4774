"""The tuple-insertion loop before the witness pass on pairs.

:meth:`~repro.core.progdetermine.ExecutionState.insert_batch` tests a
batch once against the active region's witness pool and drops the pool's
pre-batch entries from every cell-group scan.  This is the loop it
replaced, kept verbatim (``self`` reads ``state``) as the reference it
must equal: the same survivors, evictions, marks, emissions, counters and
clock charges, except ``dominance_cmp``, which may only fall.
``tests/test_pair_witness.py`` runs the two side by side.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import progdetermine
from repro.core.progdetermine import ExecutionState
from repro.errors import ExecutionError
from repro.skyline.vectorized import dominates_matrix, skyline_mask


def insert_batch(
    state: ExecutionState,
    vectors: np.ndarray,
    lrows: Sequence[tuple],
    rrows: Sequence[tuple],
    mapped: np.ndarray,
) -> None:
    """Every cell group scans its cell and whole lower cone."""
    self = state
    clock = self.clock
    grid = self.grid
    n = len(lrows)
    if n == 0:
        return
    coords = grid.coords_matrix(vectors)
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

        own = cell.size
        live = np.arange(b, dtype=np.intp)
        pool_mats = [c.vector_matrix() for c in (cell, *cell.cone_lower) if c.size]
        if pool_mats:
            pool = np.concatenate(pool_mats) if len(pool_mats) > 1 else pool_mats[0]
            step = max(1, progdetermine.DOMINANCE_LANES // len(pool))
            charged = 0
            alive = np.empty(b, dtype=bool)
            for lo in range(0, b, step):
                seen = np.logical_or.accumulate(
                    dominates_matrix(pool, cand[lo : lo + step]), axis=0
                )
                passed = seen.size - np.count_nonzero(seen)
                passed_own = own * seen.shape[1] - np.count_nonzero(seen[:own])
                beaten = np.count_nonzero(seen[-1])
                charged += passed + passed_own + beaten
                np.logical_not(seen[-1], out=alive[lo : lo + step])
            clock.charge("dominance_cmp", charged)
            live = np.flatnonzero(alive)
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
            step = max(1, progdetermine.DOMINANCE_LANES // s)
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
