"""Preference model used by the skyline operator (paper §II-A).

A *preference* names an attribute together with an optimisation direction
(``LOWEST`` or ``HIGHEST``).  A set of equally important preferences forms a
*Pareto preference*; the skyline of a relation under a Pareto preference is
the set of tuples not dominated by any other tuple (Definition 1).

Internally every Pareto preference is normalised to **minimisation**: a
``HIGHEST`` dimension is negated when building comparison vectors, so all
dominance tests in the library are "lower is better" on every dimension.
:meth:`ParetoPreference.signs_for` is the one place that turns directions
into those signs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import QueryError


class Direction(enum.Enum):
    """Optimisation direction of a single preference."""

    LOWEST = "LOWEST"
    HIGHEST = "HIGHEST"


LOWEST = Direction.LOWEST
HIGHEST = Direction.HIGHEST


@dataclass(frozen=True)
class Preference:
    """A single preference ``(attribute, direction)``.

    ``Preference("tCost", LOWEST)`` reads "prefer the lowest tCost".
    """

    attribute: str
    direction: Direction = Direction.LOWEST

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.direction.value}({self.attribute})"


def lowest(attribute: str) -> Preference:
    """Convenience constructor for ``Preference(attribute, LOWEST)``."""
    return Preference(attribute, Direction.LOWEST)


def highest(attribute: str) -> Preference:
    """Convenience constructor for ``Preference(attribute, HIGHEST)``."""
    return Preference(attribute, Direction.HIGHEST)


class ParetoPreference:
    """A set of equally important preferences (paper §II-A).

    The Pareto preference induces the strict partial order of Definition 1:
    tuple ``r`` dominates ``s`` iff ``r`` is at least as good on every
    preference dimension and strictly better on at least one.

    Parameters
    ----------
    preferences:
        The component preferences, in dimension order.  At least one is
        required and attribute names must be unique.
    """

    __slots__ = ("preferences", "_attributes")

    def __init__(self, preferences: Iterable[Preference]) -> None:
        prefs = tuple(preferences)
        if not prefs:
            raise QueryError("a Pareto preference needs at least one dimension")
        names = [p.attribute for p in prefs]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate preference attributes: {names}")
        self.preferences = prefs
        self._attributes = tuple(names)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in dimension order."""
        return self._attributes

    @property
    def dimensions(self) -> int:
        """Number of skyline dimensions ``d``."""
        return len(self.preferences)

    def signs_for(self, names: Iterable[str]) -> tuple[int, ...]:
        """Minimisation sign per name: ``+1`` for a ``LOWEST`` dimension,
        ``-1`` for a ``HIGHEST`` one and ``0`` for a name that is not a
        preference dimension.  Values scaled by their signs are "lower is
        better" everywhere, the space Definition 1 is decided in."""
        sign = {
            p.attribute: 1 if p.direction is Direction.LOWEST else -1
            for p in self.preferences
        }
        return tuple(sign.get(name, 0) for name in names)

    def __len__(self) -> int:
        return len(self.preferences)

    def __iter__(self):
        return iter(self.preferences)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParetoPreference):
            return NotImplemented
        return self.preferences == other.preferences

    def __hash__(self) -> int:
        return hash(self.preferences)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " AND ".join(str(p) for p in self.preferences)
        return f"ParetoPreference({inner})"


def all_lowest(attributes: Sequence[str]) -> ParetoPreference:
    """Build a Pareto preference that minimises every listed attribute."""
    return ParetoPreference(lowest(a) for a in attributes)
