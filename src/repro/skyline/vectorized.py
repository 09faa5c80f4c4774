"""Vectorized (block/matrix) dominance kernels.

The per-tuple functions in :mod:`repro.skyline.dominance` are the reference
semantics; this module provides their columnar counterparts, formulated as
numpy broadcasts so a candidate block is compared against an entire window
in one kernel invocation instead of a Python loop.  This is the standard
route to scaling dominance-based operators (see the flexible-skyline
surveys in PAPERS.md) and is what the engine's batched probe path and the
``bench_vectorized`` benchmark build on.

Conventions shared with the per-tuple functions:

* all vectors live in normalised minimisation space (lower is better),
* ``u`` dominates ``v`` iff ``u <= v`` everywhere and ``u < v`` somewhere
  (Definition 1) — in particular, equal vectors never dominate each other,
  so duplicates always survive together.

Comparison accounting is *bulk* and *algorithmic*.  Every kernel accepts an
optional ``on_comparisons(count)`` callback, so callers can charge a
:class:`~repro.runtime.clock.VirtualClock` without per-pair call overhead.
What is reported is the number of vector pairs the **algorithm** tests,
not the lanes a particular kernel happened to evaluate: for
:func:`skyline_order` and :func:`skyline_mask` that is the scalar
Sort-Filter-Skyline count — every point against each head before it in
sum order, up to and including the first head that dominates it.  The
blocked form evaluates whole pairwise blocks and still reports that
count, so a charge means the same thing at every input size and does not
move when a kernel is reshaped.  Callers follow the same rule: the
engine's batched insertion runs its dominator scan as one
:func:`dominates_matrix` launch and charges each candidate the
short-circuiting scan it stands for, up to and including its first
dominator.  Every skyline of the library runs on :func:`skyline_order`
— the engine's batch sweep, push-through's per-group LS(N), and the
batch skylines of JF-SL, SSMJ and the multi-way blocking evaluator —
except the independent references (``core/verify.py``, the tests'
oracle) and SSMJ's local lists, which keep scalar BNL
(:mod:`repro.skyline.bnl`) as SSMJ's cost model.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Bulk comparison-count callback: called with the number of pairs tested.
OnComparisons = Callable[[int], None]

#: Default candidate block size: bounds peak broadcast memory at roughly
#: ``block * window * d`` booleans while keeping kernel launches rare.
DEFAULT_BLOCK = 1024


def as_matrix(vectors, dimensions: int | None = None) -> np.ndarray:
    """Coerce a vector collection into a contiguous ``(n, d)`` float matrix.

    Accepts anything :func:`numpy.asarray` does (lists of tuples, an
    existing matrix).  An empty input needs ``dimensions`` to produce a
    well-shaped ``(0, d)`` result.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.size == 0:
        d = dimensions if dimensions is not None else (
            arr.shape[1] if arr.ndim == 2 else 0
        )
        return arr.reshape(0, d)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D vector matrix, got shape {arr.shape}")
    return arr


def dominates_matrix(u, v) -> np.ndarray:
    """Pairwise dominance: ``out[i, j]`` iff ``u[i]`` dominates ``v[j]``.

    ``u`` is ``(n, d)``, ``v`` is ``(m, d)``; the result is an ``(n, m)``
    boolean matrix — the matrix counterpart of
    :func:`repro.skyline.dominance.dominates`, NaN included (a NaN
    coordinate is neither worse nor better).  Both sides are laid out one
    contiguous row per dimension: one 2-D pass per dimension, reduced across
    the ``d`` slabs — several times cheaper than an ``(n, m, d)`` broadcast
    reduced over its short trailing axis.
    """
    U = as_matrix(u)
    V = as_matrix(v, dimensions=U.shape[1])
    n, d = U.shape
    m = V.shape[0]
    if d != V.shape[1]:
        raise ValueError(
            "dominance comparison of unequal-width matrices: "
            f"{d} vs {V.shape[1]} dimensions"
        )
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=bool)
    return _beats(np.ascontiguousarray(U.T), np.ascontiguousarray(V.T))


def _beats(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """:func:`dominates_matrix` of operands laid out ``(d, n)`` and ``(d, m)``."""
    U, V = U[:, :, None], V[:, None, :]
    out = (U > V).any(axis=0)
    np.logical_not(out, out=out)
    out &= (U < V).any(axis=0)
    return out


def dominated_by_any(
    points,
    window,
    *,
    block_size: int = DEFAULT_BLOCK,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Mask over ``points``: which are dominated by *some* row of ``window``.

    The candidate side is processed in blocks of ``block_size`` so peak
    broadcast memory stays bounded at ``block_size * len(window)`` pairs.
    """
    P = as_matrix(points)
    W = as_matrix(window, dimensions=P.shape[1])
    n = P.shape[0]
    out = np.zeros(n, dtype=bool)
    if n == 0 or W.shape[0] == 0:
        return out
    for start in range(0, n, block_size):
        stop = min(n, start + block_size)
        if on_comparisons is not None:
            on_comparisons(W.shape[0] * (stop - start))
        out[start:stop] = dominates_matrix(W, P[start:stop]).any(axis=0)
    return out


def _sum_order(P: np.ndarray) -> np.ndarray:
    """Sort permutation by coordinate sum, ties broken lexicographically.

    After this sort no vector is dominated by a later one.  Rounded
    summation is monotone, so a dominator's float sum is never larger than
    its victim's; when the two sums round to the same value (``(1e16, 0)``
    and ``(1e16, 1)``), the dominator is smaller at the first coordinate
    where they differ, so the lexicographic tie-break puts it first.
    Identical vectors keep their input order (the sort is stable), and the
    sweep keeps them all by explicit equality.  A vector holding both
    ``+inf`` and ``-inf`` has a NaN sum and sorts last, after vectors it
    may dominate; the sweep only ever tests a vector against earlier ones,
    so its blocked and per-head forms still agree with each other.
    """
    return np.lexsort((*P.T[::-1], P.sum(axis=1)))


#: Points per block of :func:`_blocked_sweep`: a block costs two kernel
#: launches (pairwise inside it, its heads against the rest of the window)
#: where a per-head sweep pays one per skyline member.  Set from the
#: microbench rows in docs/benchmarks.md.
_BLOCK = 32

_EARLIER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


def _blocked_sweep(S: np.ndarray, on_comparisons: OnComparisons | None) -> np.ndarray:
    """Skyline positions of a non-empty sum-sorted matrix, blocked.

    Nothing later in :func:`_sum_order` dominates a point, so the sweep's
    heads — points no earlier head beats — are exactly the skyline.  The
    next ``_BLOCK`` points of the window are swept pairwise: one of them
    is a head iff no earlier one beats it (had that one been eliminated,
    its eliminator beats this one too: dominance is transitive).  Then one
    dominance-matrix launch tests the block's heads against the rest of
    the window, which keeps only the points they leave standing.
    Reported is the per-head sweep's count: a point is tested against
    each head before it, up to and including the first that beats it.
    """
    kept: list[np.ndarray] = []
    pos = np.arange(S.shape[0])
    # (d, window), as in dominates_matrix; compress keeps it so.
    work = np.ascontiguousarray(S.T)
    tested = 0
    while pos.shape[0]:
        block, work = work[:, :_BLOCK], work[:, _BLOCK:]
        b = block.shape[1]
        beats = _beats(block, block)
        beats &= _EARLIER[:b, :b]
        alive = ~beats.any(axis=0)
        kept.append(pos[:b][alive])
        pos = pos[b:]
        s = len(kept[-1])
        if on_comparisons is not None:
            first = beats[alive].argmax(axis=0)  # 0 down a head's column
            tested += s * (s - 1) // 2 + (b - s) + int(first.sum())
        if pos.shape[0]:
            beaten = _beats(block.compress(alive, axis=1), work)
            dead = beaten.any(axis=0)
            if on_comparisons is not None:
                first = beaten.argmax(axis=0)[dead]
                tested += int(first.sum()) + s * len(pos) - (s - 1) * len(first)
            work, pos = work.compress(~dead, axis=1), pos[~dead]
    if on_comparisons is not None and tested:
        on_comparisons(tested)
    return np.concatenate(kept) if len(kept) > 1 else kept[0]


def skyline_order(
    points,
    *,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Input positions of the skyline of ``points``, in sweep order.

    The sweep runs in :func:`_sum_order` (coordinate sum, ties broken
    lexicographically, identical vectors in input order) — the order of
    Sort-Filter-Skyline (Chomicki et al.) — so no vector is dominated by
    a later one and every sweep reference is a confirmed skyline member.
    Survivors come back in that order, which is the order a scalar SFS
    window fills in, and the charge is the scalar SFS count (see
    :func:`_blocked_sweep`).  The blocking baselines report their
    results in this order; :func:`skyline_mask` scatters it back to input
    positions.
    """
    P = as_matrix(points)
    if P.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    order = _sum_order(P)
    return order[_blocked_sweep(P[order], on_comparisons)]


def skyline_mask(
    points,
    *,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Skyline membership mask of ``points``.

    Semantically identical to :func:`repro.skyline.bnl.bnl_skyline` (the
    kept set, duplicates included, is the same); a mask so payloads can
    be recovered by index.  Total work is ``O(s · n · d)`` element
    operations at numpy throughput, in two launches per ``_BLOCK`` points
    of :func:`skyline_order`'s sweep.
    """
    P = as_matrix(points)
    keep = np.zeros(P.shape[0], dtype=bool)
    keep[skyline_order(P, on_comparisons=on_comparisons)] = True
    return keep
