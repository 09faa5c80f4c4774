"""Vectorized (block/matrix) dominance kernels.

The per-tuple functions in :mod:`repro.skyline.dominance` are the reference
semantics; this module provides their columnar counterparts, formulated as
numpy broadcasts so a candidate block is compared against an entire window
in one kernel invocation instead of a Python loop.  This is the standard
route to scaling dominance-based operators (see the flexible-skyline
surveys in PAPERS.md) and is what the engine's batched probe path and the
``bench_vectorized`` benchmark build on.

Conventions shared with the per-tuple functions:

* all vectors live in normalised minimisation space (lower is better; the
  signs come from :meth:`~repro.skyline.preferences.ParetoPreference.signs_for`),
* ``u`` dominates ``v`` iff ``u <= v`` everywhere and ``u < v`` somewhere
  (Definition 1) — in particular, equal vectors never dominate each other,
  so duplicates always survive together.

:func:`dominated_by_any` is the library's one pool test — does some row of
a pool strictly dominate each point? — behind the look-ahead's region
elimination and cell premarking and the engine's three witness tests.  It
decides Definition 1 in the ``<=``/``<`` form, so a NaN coordinate never
lets a point fall or a pool row dominate.

Comparison accounting is *bulk* and *algorithmic*.  The skyline kernels
accept an optional ``on_comparisons(count)`` callback, so callers can
charge a :class:`~repro.runtime.clock.VirtualClock` without per-pair call
overhead.
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
dominator.  A test that removes only pairs the scan would have killed
charges nothing: the engine's three witness tests — a region's corner, a
row's corner, and each joined batch against the region's witness pool,
which the scans then leave out — lower the scan's charge with the pairs
they drop.  Every skyline of the library runs on :func:`skyline_order`
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


#: Point-row tests per block of :func:`dominated_by_any`: one boolean
#: ``(window rows, points)`` temporary per dimension and block.
LANES = 2**18


def dominated_by_any(points, window) -> np.ndarray:
    """``(n,)`` mask: whether some row of ``window`` strictly dominates each
    row of ``points`` — ``<=`` it everywhere and ``<`` somewhere.

    A NaN compares false both ways, so a point holding a NaN is never
    dominated and a window row holding one never dominates.  Only a window
    row ``<=`` the points' componentwise maximum can dominate one, and only
    a point ``>=`` the surviving rows' componentwise minimum can fall; the
    points left are tested in blocks of :data:`LANES` point-row pairs.
    """
    P = as_matrix(points)
    W = as_matrix(window, dimensions=P.shape[1])
    out = np.zeros(len(P), dtype=bool)
    if len(P) == 1:
        # The rows <= the point everywhere: one below it somewhere dominates.
        below = (W <= P[0]).all(axis=1)
        out[0] = below.any() and (W[below] < P[0]).any()
        return out
    if not len(P):
        return out
    # fmax skips NaN points: they must not hide the rest from the window.
    W = W[(W <= np.fmax.reduce(P, axis=0)).all(axis=1)]
    if not len(W):
        return out
    reach = np.flatnonzero((P >= W.min(axis=0)).all(axis=1))
    step = max(1, LANES // len(W))
    for lo in range(0, len(reach), step):
        at = reach[lo : lo + step]
        block = P[at]
        below = np.ones((len(W), len(block)), dtype=bool)
        strict = np.zeros_like(below)
        for j in range(W.shape[1]):
            row, point = W[:, j, None], block[None, :, j]
            below &= row <= point
            strict |= row < point
        below &= strict
        out[at] = below.any(axis=0)
    return out


def _sum_order(P: np.ndarray) -> np.ndarray:
    """Sort permutation by coordinate sum, ties broken lexicographically.

    After this sort no vector is dominated by a later one.  Rounded
    summation is monotone, so a dominator's float sum is never larger than
    its victim's; when the two sums round to the same value (``(1e16, 0)``
    and ``(1e16, 1)``), the dominator is smaller at the first coordinate
    where they differ, so the lexicographic tie-break puts it first.
    Identical vectors keep their input order (the sort is stable), and the
    sweep keeps them all by explicit equality.  All of this needs NaN-free
    sums (see :func:`skyline_mask`).
    """
    return np.lexsort((*P.T[::-1], P.sum(axis=1)))


#: Points per block of :func:`_blocked_sweep`: a block costs two kernel
#: launches (pairwise inside it, its heads against the rest of the window)
#: where a per-head sweep pays one per skyline member.  Set from the
#: microbench rows in docs/benchmarks.md.
_BLOCK = 32


def _blocked_sweep(S: np.ndarray, on_comparisons: OnComparisons | None) -> np.ndarray:
    """Skyline positions of a non-empty sum-sorted matrix, blocked.

    Nothing later in :func:`_sum_order` dominates a point, so the sweep's
    heads — points no earlier head beats — are exactly the skyline.  The
    next ``_BLOCK`` points of the window are swept pairwise: one of them
    is a head iff no other one beats it — only an earlier one can, and had
    that one been eliminated, its eliminator beats this one too: dominance
    is transitive.  Then one dominance-matrix launch tests the block's
    heads against the rest of the window, which keeps only the points they
    leave standing.
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

    The points must be NaN-free, and no point may hold both ``+inf`` and
    ``-inf``: the sweep's order rests on every coordinate sum being a
    number.  The engine and the baselines refuse a non-finite mapped value
    before a vector reaches a skyline.
    """
    P = as_matrix(points)
    keep = np.zeros(P.shape[0], dtype=bool)
    keep[skyline_order(P, on_comparisons=on_comparisons)] = True
    return keep
