"""Pareto dominance tests over minimisation-space vectors.

All functions here assume vectors already normalised so that *lower is
better* on every dimension (each value scaled by its sign from
:meth:`repro.skyline.preferences.ParetoPreference.signs_for`).  Definition 1
of the paper: ``u`` dominates ``v`` iff ``u[i] <= v[i]`` for all ``i`` and
``u[j] < v[j]`` for at least one ``j``.  These are the per-pair reference;
:mod:`repro.skyline.vectorized` holds the array kernels, among them the one
pool test, :func:`~repro.skyline.vectorized.dominated_by_any`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.typing as npt


def _check_lengths(u: Sequence[float], v: Sequence[float]) -> None:
    """Unequal-length vectors are a caller bug, never a tie to truncate."""
    if len(u) != len(v):
        raise ValueError(
            "dominance comparison of unequal-length vectors: "
            f"{len(u)} vs {len(v)} dimensions"
        )


def dominates(u: Sequence[float], v: Sequence[float]) -> bool:
    """Return ``True`` iff ``u`` dominates ``v`` (Definition 1)."""
    _check_lengths(u, v)
    strict = False
    for a, b in zip(u, v):
        if a > b:
            return False
        if a < b:
            strict = True
    return strict


def weakly_dominates(u: Sequence[float], v: Sequence[float]) -> bool:
    """Return ``True`` iff ``u <= v`` component-wise (equality allowed)."""
    _check_lengths(u, v)
    for a, b in zip(u, v):
        if a > b:
            return False
    return True


def skyline_indices_bruteforce(points: npt.NDArray[np.float64]) -> list[int]:
    """Quadratic oracle skyline; used as the reference in tests.

    Keeps duplicated (identical) vectors: equal points do not dominate each
    other under Definition 1, so all copies belong to the skyline.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    keep: list[int] = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if dominates(pts[j], pts[i]):  # repro: allow[clock-discipline] — quadratic test oracle, never on the engine's accounted path
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep
