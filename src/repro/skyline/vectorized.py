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
:func:`skyline_mask` that is the SFS sweep — every point against each
head before it, up to and including the first head that dominates it.  The
loop-free form used for small windows evaluates a whole pairwise matrix
and still reports the sweep's count, so a charge means the same thing at
every input size and does not move when a kernel is reshaped.  Callers
follow the same rule: the engine's batched insertion runs its dominator
scan as one :func:`dominates_matrix` launch and charges each candidate
the short-circuiting scan it stands for, up to and including its first
dominator.  The engine and the per-tuple BNL/SFS scans of the baselines
therefore count the same kind of test, but neither count bounds the
other: they test different pairs (the engine sweeps a batch, and scans it
only against the entries of its cell and lower cone).
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
    by_dim_u = np.ascontiguousarray(U.T)[:, :, None]  # (d, n, 1)
    by_dim_v = np.ascontiguousarray(V.T)[:, None, :]  # (d, 1, m)
    out = (by_dim_u > by_dim_v).any(axis=0)
    np.logical_not(out, out=out)
    out &= (by_dim_u < by_dim_v).any(axis=0)
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


def pareto_mask(
    points,
    *,
    block_size: int = DEFAULT_BLOCK,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Mask over ``points``: which rows no other row dominates.

    Duplicated (identical) vectors all survive — equal points do not
    dominate each other under Definition 1, matching
    :func:`repro.skyline.dominance.skyline_indices_bruteforce`.  A point
    never dominates itself, so no self-exclusion is needed.
    """
    P = as_matrix(points)
    n = P.shape[0]
    dominated = np.zeros(n, dtype=bool)
    for start in range(0, n, block_size):
        stop = min(n, start + block_size)
        if on_comparisons is not None:
            on_comparisons(n * (stop - start))
        dominated[start:stop] = dominates_matrix(P, P[start:stop]).any(axis=0)
    return ~dominated


def _sum_order(P: np.ndarray) -> np.ndarray:
    """Stable sort permutation by coordinate sum — SFS order.

    A dominator has a strictly smaller coordinate sum, so after this sort
    no vector can be dominated by a later one.  Sum alone (no lexicographic
    tie-breaking) suffices: equal-sum vectors cannot dominate each other
    either, and the sweep handles duplicates by explicit equality.  A
    single-key stable argsort is several times cheaper than a full lexsort
    at the 100k scale.
    """
    return np.argsort(P.sum(axis=1), kind="stable")


def _sorted_sweep(S: np.ndarray, on_comparisons: OnComparisons | None) -> np.ndarray:
    """Skyline positions of a sum-sorted matrix via a vectorized sweep.

    The head of the remaining window is always a confirmed skyline member
    (nothing later in sum order can dominate it, and equal-sum dominance is
    impossible), so each step keeps the head and tests it against the whole
    tail — ``|skyline|`` steps in total, the window algorithm with a matrix
    inner loop.  Identical vectors never dominate each other, so duplicate
    heads survive as subsequent heads.  The window is held one contiguous
    row per dimension, as in :func:`dominates_matrix`.
    """
    kept: list[int] = []
    pos = np.arange(S.shape[0], dtype=np.intp)
    work = np.ascontiguousarray(S.T)  # (d, window)
    while pos.shape[0]:
        kept.append(int(pos[0]))
        if pos.shape[0] == 1:
            break
        if on_comparisons is not None:
            on_comparisons(pos.shape[0] - 1)
        head = work[:, :1]
        tail = work[:, 1:]
        # Tail survivors: strictly better somewhere, or identical to the
        # head (duplicates never dominate each other).
        survive = (tail < head).any(axis=0)
        survive |= (tail == head).all(axis=0)
        work = tail.compress(survive, axis=1)
        pos = pos[1:][survive]
    return np.asarray(kept, dtype=np.intp)


#: Windows up to this size take the loop-free :func:`_pairwise_sweep`: one
#: fixed set of kernel launches over O(n^2) lanes, against a set of launches
#: per skyline member over O(s * n) lanes.  Set from the microbench rows in
#: docs/benchmarks.md: groups of ~8 mostly-surviving candidates fall below
#: it, groups of ~90 candidates with ~5 survivors above.
_PAIRWISE_MAX = 32

_EARLIER = np.triu(np.ones((_PAIRWISE_MAX,) * 2, dtype=bool), 1)


def _pairwise_sweep(S: np.ndarray, on_comparisons: OnComparisons | None) -> np.ndarray:
    """:func:`_sorted_sweep` of a small window from one pairwise matrix.

    Same positions, same comparison total, no Python loop.  A point is a
    head iff no earlier point beats it (had that point been eliminated, its
    eliminator beats this one too: dominance is transitive).  The sweep
    tests a point against each head before it, up to and including the
    first that beats it: ``k`` tests for the ``k``-th head, one more than
    its first beater's rank for an eliminated point.
    """
    n = S.shape[0]
    beats = dominates_matrix(S, S)
    beats &= _EARLIER[:n, :n]  # a head only ever meets the points after it
    alive = ~beats.any(axis=0)
    if on_comparisons is not None and n > 1:
        heads = beats[alive]
        s = heads.shape[0]
        first_beater = heads.argmax(axis=0)  # 0 down a head's own column
        on_comparisons(s * (s - 1) // 2 + (n - s) + int(first_beater.sum()))
    return np.flatnonzero(alive)


def skyline_mask(
    points,
    *,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Skyline membership mask via a vectorized BNL sweep.

    Skyline membership does not depend on input order, so the kernel is
    free to sort internally into SFS (coordinate-sum) order: every sweep
    reference is then a confirmed skyline member, the sweep runs exactly
    ``|skyline|`` steps of one candidate against the whole remaining
    window, and the resulting mask is scattered back to input positions.
    Total work is ``O(s · n · d)`` element operations at numpy throughput.
    Windows of at most ``_PAIRWISE_MAX`` points take the loop-free
    form of the same sweep.

    Semantically identical to :func:`repro.skyline.bnl.bnl_skyline` (the
    returned set, duplicates included, is the same); returns a boolean mask
    so payloads can be recovered by index.
    """
    P = as_matrix(points)
    n = P.shape[0]
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    order = _sum_order(P)
    sweep = _pairwise_sweep if n <= _PAIRWISE_MAX else _sorted_sweep
    keep[order[sweep(P[order], on_comparisons)]] = True
    return keep


def vectorized_skyline(
    points,
    *,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Skyline of ``points`` as an ``(s, d)`` matrix, in input order.

    Matrix counterpart of :func:`repro.skyline.bnl.bnl_skyline` /
    :func:`repro.skyline.sfs.sfs_skyline`: the returned *set* of vectors is
    identical (duplicates included), only the internal order of comparisons
    differs.
    """
    P = as_matrix(points)
    return P[skyline_mask(P, on_comparisons=on_comparisons)]


def vectorized_sfs_skyline(
    points,
    *,
    on_comparisons: OnComparisons | None = None,
) -> np.ndarray:
    """Sort-Filter-Skyline with a vectorized filtering sweep.

    Sorts by coordinate sum (mirroring the monotone scoring function of
    :func:`repro.skyline.sfs.sfs_skyline`) so no vector can be dominated
    by a later one: every sweep reference is then a confirmed skyline
    member and the sweep runs exactly ``|skyline|`` broadcasts.
    """
    P = as_matrix(points)
    if P.shape[0] == 0:
        return P
    S = P[_sum_order(P)]
    return S[_sorted_sweep(S, on_comparisons)]
