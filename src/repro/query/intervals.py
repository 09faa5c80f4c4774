"""Closed-interval arithmetic.

The output-space look-ahead (paper §III-A) maps *partition bounding boxes*
through the query's mapping functions to obtain output regions without
touching tuples.  Interval arithmetic is the machinery that makes this
sound: evaluating an expression over intervals yields an interval guaranteed
to contain every point-wise evaluation over values drawn from those
intervals.

Endpoints are floats or, for a block of partition pairs, arrays (an ``(nl, 1)``
column against a ``(1, nr)`` row): arithmetic, and only arithmetic, then yields
one interval per pair, each computed and checked as the scalar form would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _holds(flag) -> bool:
    """Truth of a comparison: for arrays, whether it holds for *any* element."""
    return flag.any() if isinstance(flag, np.ndarray) else flag


def _spanning(candidates: tuple) -> "Interval":
    """The interval spanned by endpoint candidates (element-wise over arrays)."""
    if isinstance(candidates[0], np.ndarray):
        return Interval(np.minimum.reduce(candidates), np.maximum.reduce(candidates))
    return Interval(min(candidates), max(candidates))


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if _holds(self.lo > self.hi):
            raise ValueError(f"interval lower bound {self.lo} exceeds upper {self.hi}")

    @classmethod
    def point(cls, value: float) -> "Interval":
        """Degenerate interval containing a single value."""
        return cls(value, value)

    @property
    def width(self) -> float:
        """``hi - lo``."""
        return self.hi - self.lo

    def contains(self, value: float, *, tol: float = 1e-9) -> bool:
        """Whether ``value`` lies inside the interval (with tolerance)."""
        return self.lo - tol <= value <= self.hi + tol

    def union(self, other: "Interval") -> "Interval":
        """Smallest interval covering both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersects(self, other: "Interval") -> bool:
        """Whether the intervals overlap (closed-interval semantics)."""
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return Interval(self.lo - other, self.hi - other)

    def __rsub__(self, other: float) -> "Interval":
        return Interval(other - self.hi, other - self.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            return _spanning((
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            ))
        if other >= 0:
            return Interval(self.lo * other, self.hi * other)
        return Interval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            if _holds((other.lo <= 0.0) & (other.hi >= 0.0)):
                raise ZeroDivisionError(
                    f"division by an interval containing zero: {other}"
                )
            return _spanning((
                self.lo / other.lo,
                self.lo / other.hi,
                self.hi / other.lo,
                self.hi / other.hi,
            ))
        if other == 0:
            raise ZeroDivisionError("division by zero")
        if other > 0:
            return Interval(self.lo / other, self.hi / other)
        return Interval(self.hi / other, self.lo / other)

    def __rtruediv__(self, other: float) -> "Interval":
        return Interval.point(other) / self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi}]"
