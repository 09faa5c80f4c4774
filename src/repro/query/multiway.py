"""Multi-way SkyMapJoin queries (three or more sources).

The paper's framework is defined over two sources, but its motivating
applications want more: the travel aggregator books flights *and* hotels
*and* activities; the supply chain couples suppliers, transporters and
warehouses.  This module extends the query model to a **chain of
equi-joins** over ``k >= 2`` sources and provides two evaluation routes:

* :meth:`BoundMultiwayQuery.evaluate_blocking` — the JF-SL analogue:
  materialise the chain join, map, skyline.  Simple, always applicable;
  the correctness oracle for the reduction below.
* :meth:`BoundMultiwayQuery.reduce_to_binary` — fold all but the last
  source into one *intermediate relation* (columns prefixed with their
  source alias), rewrite the mapping expressions against it, and hand the
  result to the binary ProgXe engine.  The reduction is exact — the
  intermediate relation enumerates precisely the chain-join prefixes — so
  every ProgXe guarantee (progressive safety, completeness) carries over
  to the multi-way query.

The fold direction is left-to-right (a left-deep plan); joins must form a
chain where each subsequent source joins against an already-folded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping

from repro.errors import BindingError, ExecutionError, QueryError
from repro.query.expressions import AttrRef, rename_attributes
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.smj import (
    BoundQuery,
    JoinCondition,
    PassThrough,
    SkyMapJoinQuery,
)
from repro.runtime.clock import VirtualClock
from repro.skyline.preferences import ParetoPreference
from repro.skyline.vectorized import skyline_order
from repro.storage.schema import Schema
from repro.storage.table import Table

#: Alias given to the folded intermediate relation.
MERGED_ALIAS = "_merged"


def chain_join_rows(
    tables: Mapping[str, Table],
    aliases: tuple[str, ...],
    joins: tuple["ChainJoin", ...],
    clock: VirtualClock,
) -> Iterator[dict[str, tuple]]:
    """Enumerate the chain join's matches as alias→row dicts.

    Left-to-right hash-join pipeline over the given prefix of the chain;
    used both by the blocking evaluator and by the binary-reduction fold.
    """
    first = aliases[0]
    partials: list[dict[str, tuple]] = [
        {first: row} for row in tables[first].rows
    ]
    for join in joins:
        right_table = tables[join.right_alias]
        left_schema_idx = tables[join.left_alias].schema.index(join.left_attr)
        right_idx = right_table.schema.index(join.right_attr)
        # Hash the attached side once, probe each partial.
        buckets: dict = {}
        for row in right_table.rows:
            clock.charge("join_build")
            buckets.setdefault(row[right_idx], []).append(row)
        extended = []
        for partial in partials:
            clock.charge("join_probe")
            key = partial[join.left_alias][left_schema_idx]
            for row in buckets.get(key, ()):
                clock.charge("join_result")
                nxt = dict(partial)
                nxt[join.right_alias] = row
                extended.append(nxt)
        partials = extended
        if not partials:
            return
    yield from partials


@dataclass(frozen=True)
class ChainJoin:
    """One equi-join link: ``left_alias.left_attr = right_alias.right_attr``.

    ``right_alias`` is the source being attached; ``left_alias`` must have
    been attached earlier in the chain (or be the first source).
    """

    left_alias: str
    left_attr: str
    right_alias: str
    right_attr: str


@dataclass
class MultiwayQuery:
    """A SkyMapJoin query over a chain of ``k >= 2`` sources."""

    aliases: tuple[str, ...]
    joins: tuple[ChainJoin, ...]
    mappings: MappingSet
    preference: ParetoPreference
    passthrough: tuple[PassThrough, ...] = ()

    def __post_init__(self) -> None:
        if len(self.aliases) < 2:
            raise QueryError("a multiway query needs at least two sources")
        if len(set(self.aliases)) != len(self.aliases):
            raise QueryError(f"duplicate aliases: {list(self.aliases)}")
        if len(self.joins) != len(self.aliases) - 1:
            raise QueryError(
                f"{len(self.aliases)} sources need {len(self.aliases) - 1} "
                f"chain joins, got {len(self.joins)}"
            )
        attached = {self.aliases[0]}
        for i, join in enumerate(self.joins):
            expected = self.aliases[i + 1]
            if join.right_alias != expected:
                raise QueryError(
                    f"join {i} must attach source {expected!r}, "
                    f"attaches {join.right_alias!r}"
                )
            if join.left_alias not in attached:
                raise QueryError(
                    f"join {i} references {join.left_alias!r} before it is "
                    f"attached; attached so far: {sorted(attached)}"
                )
            attached.add(join.right_alias)
        known = set(self.mappings.names)
        for p in self.preference:
            if p.attribute not in known:
                raise QueryError(
                    f"preference on {p.attribute!r} but no mapping defines it"
                )
        alias_set = set(self.aliases)
        for m in self.mappings:
            for a, _ in m.attributes():
                if a not in alias_set:
                    raise QueryError(f"mapping references unknown alias {a!r}")
        for pt in self.passthrough:
            if pt.alias not in alias_set:
                raise QueryError(f"select item references unknown alias {pt.alias!r}")

    def bind(self, tables: Mapping[str, Table]) -> "BoundMultiwayQuery":
        """Resolve against concrete tables keyed by alias."""
        missing = [a for a in self.aliases if a not in tables]
        if missing:
            raise BindingError(f"no tables bound for aliases {missing}")
        return BoundMultiwayQuery(self, {a: tables[a] for a in self.aliases})


class MultiwayResult:
    """One multi-way result: per-source rows plus the mapped point."""

    __slots__ = ("rows", "mapped", "vector", "outputs")

    def __init__(self, rows, mapped, vector, outputs) -> None:
        self.rows = rows  # dict alias -> row
        self.mapped = mapped
        self.vector = vector
        self.outputs = outputs

    def key(self) -> tuple:
        """Identity key across evaluation strategies."""
        return tuple(self.rows[a] for a in sorted(self.rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiwayResult({self.outputs})"


class BoundMultiwayQuery:
    """A multiway query resolved against concrete tables."""

    def __init__(self, query: MultiwayQuery, tables: dict[str, Table]) -> None:
        self.query = query
        self.tables = tables
        for alias, table in tables.items():
            if not table.rows:
                raise BindingError(f"table for alias {alias!r} is empty")

    # ------------------------------------------------------------------
    # blocking evaluation (the oracle)
    # ------------------------------------------------------------------
    def _chain_rows(
        self, clock: VirtualClock
    ) -> Iterator[dict[str, tuple]]:
        """Enumerate chain-join matches as alias→row dicts."""
        return chain_join_rows(
            self.tables, self.query.aliases, self.query.joins, clock
        )

    def _env_of(self, rows: dict[str, tuple]) -> dict[AttrRef, float]:
        env: dict[AttrRef, float] = {}
        for alias, row in rows.items():
            schema = self.tables[alias].schema
            for i, col in enumerate(schema.columns):
                env[(alias, col)] = row[i]
        return env

    def _make_result(self, rows: dict[str, tuple],
                     mapped: tuple[float, ...]) -> MultiwayResult:
        query = self.query
        signs = []
        for name in query.mappings.names:
            sign = 0
            for p in query.preference:
                if p.attribute == name:
                    sign = 1 if p.direction.value == "LOWEST" else -1
            signs.append(sign)
        vector = tuple(
            s * v for s, v in zip(signs, mapped) if s != 0
        )
        outputs = {}
        for pt in query.passthrough:
            schema = self.tables[pt.alias].schema
            outputs[pt.output_name] = rows[pt.alias][schema.index(pt.attribute)]
        for name, value in zip(query.mappings.names, mapped):
            outputs[name] = value
        return MultiwayResult(rows, mapped, vector, outputs)

    def evaluate_blocking(
        self, clock: VirtualClock | None = None
    ) -> list[MultiwayResult]:
        """JF-SL-style evaluation: full chain join, map, one skyline.

        Refuses a chained row whose skyline vector would hold a NaN or
        ±inf (:meth:`_refuse_non_finite`), as the binary map does."""
        clock = clock or VirtualClock()
        candidates = []
        for rows in self._chain_rows(clock):
            env = self._env_of(rows)
            mapped = self.query.mappings.apply(env)
            clock.charge("map")
            result = self._make_result(rows, mapped)
            if not all(map(math.isfinite, result.vector)):
                raise self._refuse_non_finite(rows, mapped)
            candidates.append(result)
        survivors = skyline_order(
            [result.vector for result in candidates],
            on_comparisons=partial(clock.charge, "dominance_cmp"),
        )
        return [candidates[i] for i in survivors.tolist()]

    def _refuse_non_finite(
        self, rows: dict[str, tuple], mapped: tuple[float, ...]
    ) -> ExecutionError:
        """The error for a chained row whose first non-finite skyline
        value sits in ``mapped``, naming the output column and every
        source's row (see :meth:`BoundQuery._refuse_non_finite`)."""
        preferred = {p.attribute for p in self.query.preference}
        name, value = next(
            (name, value)
            for name, value in zip(self.query.mappings.names, mapped)
            if name in preferred and not math.isfinite(value)
        )
        shown = "NaN" if math.isnan(value) else repr(float(value))
        chained = " joined with ".join(
            f"{alias} row {rows[alias]!r}" for alias in self.query.aliases
        )
        return ExecutionError(
            f"{shown} in output column {name!r} for {chained}: a mapped "
            "value must be a finite number"
        )

    # ------------------------------------------------------------------
    # reduction to the binary engine
    # ------------------------------------------------------------------
    def reduce_to_binary(
        self, clock: VirtualClock | None = None
    ) -> tuple[BoundQuery, Callable]:
        """Fold all sources but the last into one intermediate relation.

        Returns the equivalent binary :class:`BoundQuery` plus a converter
        turning the binary engine's :class:`ResultTuple` objects back into
        :class:`MultiwayResult` objects with full per-source provenance.
        """
        query = self.query
        clock = clock or VirtualClock()
        folded_aliases = list(query.aliases[:-1])
        last_alias = query.aliases[-1]
        last_join = query.joins[-1]

        # Materialise the chain join over the folded prefix.
        if len(folded_aliases) == 1:
            # Two sources total: already binary, no folding needed.
            merged_rows = [
                {folded_aliases[0]: row}
                for row in self.tables[folded_aliases[0]].rows
            ]
        else:
            merged_rows = list(
                chain_join_rows(
                    self.tables,
                    tuple(folded_aliases),
                    query.joins[:-1],
                    clock,
                )
            )
        if not merged_rows:
            raise BindingError("the folded join prefix is empty")

        # Build the intermediate relation: columns "<alias>.<col>".
        columns: list[str] = []
        col_origin: list[tuple[str, int]] = []
        for alias in folded_aliases:
            schema = self.tables[alias].schema
            for i, col in enumerate(schema.columns):
                columns.append(f"{alias}.{col}")
                col_origin.append((alias, i))
        merged_table = Table(
            MERGED_ALIAS,
            Schema(columns),
            (
                tuple(rows[a][i] for a, i in col_origin)
                for rows in merged_rows
            ),
        )

        rename: dict[AttrRef, AttrRef] = {}
        for alias in folded_aliases:
            for col in self.tables[alias].schema.columns:
                rename[(alias, col)] = (MERGED_ALIAS, f"{alias}.{col}")

        mappings = MappingSet(
            [
                MappingFunction(m.name, rename_attributes(m.expression, rename))
                for m in query.mappings
            ]
        )
        passthrough = tuple(
            PassThrough(MERGED_ALIAS, f"{pt.alias}.{pt.attribute}", pt.output_name)
            if pt.alias != last_alias
            else pt
            for pt in query.passthrough
        )
        binary = SkyMapJoinQuery(
            left_alias=MERGED_ALIAS,
            right_alias=last_alias,
            join=JoinCondition(
                f"{last_join.left_alias}.{last_join.left_attr}",
                last_join.right_attr,
            ),
            mappings=mappings,
            preference=query.preference,
            passthrough=passthrough,
        )
        bound = binary.bind(
            {MERGED_ALIAS: merged_table, last_alias: self.tables[last_alias]}
        )

        def convert(result) -> MultiwayResult:
            rows = {last_alias: result.right_row}
            for alias in folded_aliases:
                schema = self.tables[alias].schema
                start = columns.index(f"{alias}.{schema.columns[0]}")
                rows[alias] = tuple(
                    result.left_row[start + i] for i in range(len(schema))
                )
            return self._make_result(rows, result.mapped)

        return bound, convert

    def evaluate_progressive(
        self, clock: VirtualClock | None = None, **engine_kwargs
    ) -> Iterator[MultiwayResult]:
        """Progressive evaluation via the binary ProgXe engine.

        The folding prefix is a blocking join (charged to the clock); from
        there on every ProgXe guarantee applies — results stream out as
        soon as they are provably in the final multi-way skyline.
        """
        from repro.core.engine import ProgXeEngine

        clock = clock or VirtualClock()
        bound, convert = self.reduce_to_binary(clock)
        engine = ProgXeEngine(bound, clock, **engine_kwargs)
        for result in engine.run():
            yield convert(result)
