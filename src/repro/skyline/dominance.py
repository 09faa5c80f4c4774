"""Pareto dominance tests over minimisation-space vectors.

All functions here assume vectors already normalised so that *lower is
better* on every dimension (see
:meth:`repro.skyline.preferences.ParetoPreference.normalise`).  Definition 1
of the paper: ``u`` dominates ``v`` iff ``u[i] <= v[i]`` for all ``i`` and
``u[j] < v[j]`` for at least one ``j``.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np
import numpy.typing as npt


class Dominance(enum.Enum):
    """Outcome of comparing two vectors."""

    LEFT = "left"  # first argument dominates the second
    RIGHT = "right"  # second argument dominates the first
    EQUAL = "equal"  # identical vectors (neither dominates)
    INCOMPARABLE = "incomparable"


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


def compare(u: Sequence[float], v: Sequence[float]) -> Dominance:
    """Classify the dominance relationship between two vectors."""
    _check_lengths(u, v)
    u_better = False
    v_better = False
    for a, b in zip(u, v):
        if a < b:
            u_better = True
        elif a > b:
            v_better = True
        if u_better and v_better:
            return Dominance.INCOMPARABLE
    if u_better:
        return Dominance.LEFT
    if v_better:
        return Dominance.RIGHT
    return Dominance.EQUAL


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
