"""The Map operator µ[F, X] (paper §II-B).

A :class:`MappingFunction` is one named output dimension ``x_j = f_j(B_j)``;
a :class:`MappingSet` is the full ``F`` that transforms a d-dimensional
joined tuple into the k-dimensional output object the skyline runs over.

Beyond point evaluation, the set supports interval evaluation (for the
output-space look-ahead) and *derived source preference* analysis (for the
skyline partial push-through used by ProgXe+/JF-SL+/SSMJ).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.errors import QueryError
from repro.query.expressions import AttrRef, Expression
from repro.query.intervals import Interval
from repro.skyline.preferences import Direction, ParetoPreference, Preference


class MappingFunction:
    """One output dimension: a name plus the expression computing it."""

    __slots__ = ("name", "expression")

    def __init__(self, name: str, expression: Expression) -> None:
        if not name:
            raise QueryError("mapping functions need a non-empty name")
        self.name = name
        self.expression = expression

    def attributes(self) -> frozenset[AttrRef]:
        """Source attributes referenced by this mapping."""
        return self.expression.attributes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MappingFunction({self.name} = {self.expression!r})"


class MappingSet:
    """The ordered set ``F = {f_1 .. f_k}`` of mapping functions."""

    __slots__ = ("functions", "_by_name")

    def __init__(self, functions: Sequence[MappingFunction]) -> None:
        funcs = tuple(functions)
        if not funcs:
            raise QueryError("a SkyMapJoin query needs at least one mapping function")
        names = [f.name for f in funcs]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate mapping names: {names}")
        self.functions = funcs
        self._by_name = {f.name: f for f in funcs}

    @property
    def names(self) -> tuple[str, ...]:
        """Output dimension names in order."""
        return tuple(f.name for f in self.functions)

    @property
    def dimensions(self) -> int:
        """Number of output dimensions ``k``."""
        return len(self.functions)

    def __getitem__(self, name: str) -> MappingFunction:
        try:
            return self._by_name[name]
        except KeyError:
            raise QueryError(
                f"no mapping named {name!r}; defined: {list(self.names)}"
            ) from None

    def __iter__(self):
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def apply(self, env: Mapping[AttrRef, float]) -> tuple[float, ...]:
        """Point evaluation of all mappings under ``env``."""
        return tuple(f.expression.evaluate(env) for f in self.functions)

    def apply_intervals(
        self, env: Mapping[AttrRef, Interval]
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Interval evaluation: the output-region box ``(lower, upper)``."""
        lows = []
        highs = []
        for f in self.functions:
            iv = f.expression.evaluate_interval(env)
            lows.append(iv.lo)
            highs.append(iv.hi)
        return tuple(lows), tuple(highs)

    def compile(
        self,
        left_alias: str,
        right_alias: str,
        left_index: Mapping[str, int],
        right_index: Mapping[str, int],
    ) -> Callable[[tuple, tuple], tuple[float, ...]]:
        """Compile all mappings into one ``(lrow, rrow) -> vector`` closure."""
        fns = [
            f.expression.compile(left_alias, right_alias, left_index, right_index)
            for f in self.functions
        ]
        def mapped(lrow: tuple, rrow: tuple) -> tuple[float, ...]:
            return tuple(fn(lrow, rrow) for fn in fns)
        return mapped

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def source_attributes(self, alias: str) -> tuple[str, ...]:
        """Attributes of ``alias`` referenced by any mapping (sorted)."""
        attrs = set()
        for f in self.functions:
            for a, name in f.attributes():
                if a == alias:
                    attrs.add(name)
        return tuple(sorted(attrs))

    def derived_source_preference(
        self, alias: str, preference: ParetoPreference
    ) -> ParetoPreference | None:
        """Derive a per-source preference for skyline partial push-through.

        For each attribute of ``alias`` used by the mappings, combine the
        mapping's monotonicity with the output direction.  Minimising an
        output that increases in ``R.a`` means lower ``R.a`` is better;
        flipped for decreasing mappings or maximised outputs.  If any
        attribute receives conflicting directions across mappings — or a
        mapping is non-monotone in it — push-through is unsafe for this
        source and ``None`` is returned.
        """
        wanted: dict[str, int] = {}  # attribute -> minimisation sign
        signs = preference.signs_for(f.name for f in self.functions)
        for f, out_sign in zip(self.functions, signs):
            if not out_sign:
                # Output not part of the skyline — it constrains nothing.
                continue
            mono = f.expression.monotonicity()
            for (a, name), sign in mono.items():
                if a != alias:
                    continue
                if sign is None:
                    return None
                want = out_sign if sign > 0 else -out_sign
                if wanted.setdefault(name, want) != want:
                    return None
        if not wanted:
            return None
        return ParetoPreference(
            Preference(name, Direction.LOWEST if want > 0 else Direction.HIGHEST)
            for name, want in sorted(wanted.items())
        )
