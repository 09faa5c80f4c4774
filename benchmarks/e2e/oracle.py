"""Independent numpy reference for a SkyMapJoin query's result set.

Shares no code with ``repro``: a dict join per key group, the mapping
arithmetic on gathered columns, and a sort/sweep skyline.  The skyline of a
union is the skyline of the per-group skylines, so each join-key group
(at most ``n_l * n_r * sigma`` pairs) is reduced on its own and the survivors
are reduced once more — the full join is never materialised.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

#: Rows whose mutual dominance is tested at once (``BLOCK**2`` booleans).
BLOCK = 1024
#: Ceiling on the booleans of one dominance test; larger tests are chunked.
_MAX_CELLS = 1 << 24


def _dominated(by: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask over ``points``: strictly Pareto-dominated by some row of ``by``.

    Minimisation on every column; ``u`` dominates ``v`` iff ``u <= v``
    everywhere and ``u < v`` somewhere.
    """
    out = np.zeros(len(points), dtype=bool)
    if not len(by):
        return out
    chunk = max(1, _MAX_CELLS // len(by))
    for lo in range(0, len(points), chunk):
        part = points[lo : lo + chunk]
        le = np.ones((len(by), len(part)), dtype=bool)
        lt = np.zeros((len(by), len(part)), dtype=bool)
        for j in range(points.shape[1]):
            le &= by[:, j, None] <= part[None, :, j]
            lt |= by[:, j, None] < part[None, :, j]
        out[lo : lo + chunk] = (le & lt).any(axis=0)
    return out


def skyline_mask(vectors: np.ndarray) -> np.ndarray:
    """Mask of the non-dominated rows of an ``(n, d)`` minimisation matrix.

    Rows are visited in lexicographic order, in which every dominator
    precedes what it dominates (a dominator of a row the pivot pass keeps is
    itself kept by that pass: dominance is transitive).  Each round settles the first ``BLOCK``
    remaining rows among themselves — nothing kept earlier dominates them,
    the previous rounds swept that — and then sweeps what they dominate out
    of the rest.  Equal rows do not dominate each other, so duplicates all
    survive.
    """
    n, d = vectors.shape
    keep = np.zeros(n, dtype=bool)
    if not n:
        return keep
    # One linear pass first: whatever the smallest-sum row dominates is out,
    # which on independent data leaves a small fraction to sort.
    pivot = vectors[np.argmin(vectors.sum(axis=1))][None, :]
    candidates = np.flatnonzero(~_dominated(pivot, vectors))
    part = vectors[candidates]
    remaining = candidates[np.lexsort(tuple(part[:, j] for j in reversed(range(d))))]
    while remaining.size:
        head, remaining = remaining[:BLOCK], remaining[BLOCK:]
        head = head[~_dominated(vectors[head], vectors[head])]
        keep[head] = True
        if remaining.size:
            remaining = remaining[~_dominated(vectors[head], vectors[remaining])]
    return keep


def reference_keys(left, right, spec) -> set[tuple[str, str]]:
    """The ``(R.id, T.id)`` pairs of the query's skyline over two tables.

    ``left`` / ``right`` are ``(columns, rows)`` pairs — plain column names
    and row tuples, exactly the content the program was given; ``spec`` is a
    :class:`~benchmarks.e2e.workloads.QuerySpec`.
    """
    lcols, lrows = left
    rcols, rrows = right
    if spec.where_le is not None:
        column, literal = spec.where_le
        at = lcols.index(column)
        lrows = [row for row in lrows if row[at] <= literal]
    lids, lkeys, lattrs = _columns(lcols, lrows, [d.lcol for d in spec.dims])
    rids, rkeys, rattrs = _columns(rcols, rrows, [d.rcol for d in spec.dims])
    lw = np.asarray([d.lw for d in spec.dims], dtype=float)
    sign = np.asarray([1.0 if d.lowest else -1.0 for d in spec.dims])

    right_groups: dict[str, list[int]] = defaultdict(list)
    for i, key in enumerate(rkeys):
        right_groups[key].append(i)
    left_groups: dict[str, list[int]] = defaultdict(list)
    for i, key in enumerate(lkeys):
        left_groups[key].append(i)

    cand_l: list[np.ndarray] = []
    cand_r: list[np.ndarray] = []
    cand_v: list[np.ndarray] = []
    for key, lmembers in left_groups.items():
        rmembers = right_groups.get(key)
        if not rmembers:
            continue
        li = np.repeat(np.asarray(lmembers), len(rmembers))
        ri = np.tile(np.asarray(rmembers), len(lmembers))
        vectors = (lw * lattrs[li] + rattrs[ri]) * sign
        mask = skyline_mask(vectors)
        cand_l.append(li[mask])
        cand_r.append(ri[mask])
        cand_v.append(vectors[mask])
    if not cand_v:
        return set()
    li = np.concatenate(cand_l)
    ri = np.concatenate(cand_r)
    mask = skyline_mask(np.concatenate(cand_v))
    return {(lids[i], rids[j]) for i, j in zip(li[mask].tolist(), ri[mask].tolist())}


def _columns(columns: Sequence[str], rows, attrs: Sequence[str]):
    id_at, key_at = columns.index("id"), columns.index("jkey")
    at = [columns.index(a) for a in attrs]
    matrix = np.asarray([[row[i] for i in at] for row in rows], dtype=float)
    return (
        [row[id_at] for row in rows],
        [row[key_at] for row in rows],
        matrix.reshape(len(rows), len(at)),
    )
