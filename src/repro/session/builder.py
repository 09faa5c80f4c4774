"""Fluent construction of SkyMapJoin queries.

The paper's SQL-with-PREFERRING surface is great for parity with the text,
but programmatic callers had to assemble ``SkyMapJoinQuery`` dataclasses by
hand.  :class:`QueryBuilder` offers the same expressive power as a chain::

    bound = (
        session.query()
        .from_tables("R", "T")
        .join_on("R.country = T.country")
        .map("tCost", "R.uPrice + T.uShipCost")
        .map("delay", "2 * R.manTime + T.shipTime")
        .where("R.manCap >= 100K")
        .select("R.id", ("T.id", "transporter"))
        .preferring(lowest("tCost"), lowest("delay"))
        .bind()
    )

Expressions, filters and preferences accept either the library's AST objects
or strings in the paper's surface syntax (parsed by the query parser's
fragment entry points).  Each method returns ``self`` for chaining;
:meth:`QueryBuilder.build` produces the logical query, :meth:`bind` the
execution-ready :class:`~repro.query.smj.BoundQuery`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Mapping

from repro.errors import QueryError
from repro.query.expressions import Expression
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.parser import parse_condition, parse_expression, parse_preference
from repro.query.smj import (
    BoundQuery,
    FilterCondition,
    JoinCondition,
    PassThrough,
    SkyMapJoinQuery,
)
from repro.skyline.preferences import ParetoPreference, Preference
from repro.storage.sources.base import DataSource, is_data_source

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.session.service import Session

_JOIN_RE = re.compile(
    r"^\s*(\w+)\.(\w+)\s*=\s*(\w+)\.(\w+)\s*$"
)
_QUALIFIED_RE = re.compile(r"^\s*(\w+)\.(\w+)\s*$")


def _qualified(ref: str) -> tuple[str, str]:
    m = _QUALIFIED_RE.match(ref)
    if m is None:
        raise QueryError(f"expected 'alias.attribute', got {ref!r}")
    return m.group(1), m.group(2)


class QueryBuilder:
    """Incrementally assemble (and optionally execute) an SMJ query.

    Example::

        stream = (
            session.query()
            .from_tables("R", "T")
            .join_on("R.jkey = T.jkey")
            .map("tCost", "R.uPrice + T.uShipCost")
            .where("R.manCap >= 100K")
            .select("R.id", ("T.id", "transporter"))
            .preferring("LOWEST(tCost)")
            .execute()                      # -> ResultStream
        )

    Every method returns ``self`` for chaining; :meth:`build` produces the
    logical query, :meth:`bind` the execution-ready
    :class:`~repro.query.smj.BoundQuery`, and :meth:`execute` runs it
    through the owning session.
    """

    def __init__(self, session: "Session | None" = None) -> None:
        self._session = session
        self._tables: dict[str, DataSource] = {}  # alias -> source
        self._aliases: list[str] = []
        self._join: JoinCondition | None = None
        self._mappings: list[MappingFunction] = []
        self._preferences: list[Preference] = []
        self._filters: list[FilterCondition] = []
        self._passthrough: list[PassThrough] = []
        self._follow = False
        self._auto = False

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def from_tables(self, left, right) -> "QueryBuilder":
        """Declare the two join sources, left then right.

        Each source is a :class:`~repro.storage.sources.base.DataSource`
        (its ``name`` becomes the alias) — an in-memory
        :class:`~repro.storage.table.Table` or a columnar-file backend —
        an ``(alias, source)`` pair, or, on a builder created by
        a session, the name of a source registered with that session.
        """
        if self._aliases:
            raise QueryError("from_tables() was already called")
        for source in (left, right):
            alias, table = self._resolve_source(source)
            if alias in self._tables:
                raise QueryError(f"duplicate source alias {alias!r}")
            self._tables[alias] = table
            self._aliases.append(alias)
        return self

    def from_sources(self, left, right) -> "QueryBuilder":
        """Declare the two join sources — any storage backend.

        The protocol-era spelling of :meth:`from_tables` (identical
        behaviour; both accept any :class:`DataSource`)::

            session.query().from_sources(
                ColumnarFileSource("/data/r.col", name="R"),
                ColumnarFileSource("/data/t.col", name="T"),
            )
        """
        return self.from_tables(left, right)

    #: Shorthand alias for :meth:`from_sources`.
    from_source = from_sources

    def _resolve_source(self, source) -> tuple[str, DataSource]:
        if isinstance(source, str):
            if self._session is None:
                raise QueryError(
                    f"cannot resolve table name {source!r}: builder is not "
                    "attached to a session; pass DataSource objects instead"
                )
            return source, self._session.table(source)
        if isinstance(source, tuple) and len(source) == 2:
            alias, table = source
            if not is_data_source(table):
                raise QueryError(
                    f"expected (alias, DataSource) pair, got ({alias!r}, {table!r})"
                )
            return alias, table
        if is_data_source(source):
            return source.name, source
        raise QueryError(f"cannot interpret query source {source!r}")

    # ------------------------------------------------------------------
    # join / filters
    # ------------------------------------------------------------------
    def join_on(self, condition: str, right_attr: str | None = None) -> "QueryBuilder":
        """Set the equi-join condition.

        Accepts ``"R.jkey = T.jkey"``, or two attribute names
        (``join_on("jkey", "jkey")``) interpreted left-source then
        right-source.
        """
        self._need_sources("join_on")
        left_alias, right_alias = self._aliases
        if right_attr is not None:
            self._join = JoinCondition(condition, right_attr)
            return self
        m = _JOIN_RE.match(condition)
        if m is None:
            raise QueryError(
                f"expected 'L.attr = R.attr' join condition, got {condition!r}"
            )
        a1, attr1, a2, attr2 = m.groups()
        if {a1, a2} != {left_alias, right_alias}:
            raise QueryError(
                f"join condition {condition!r} must reference aliases "
                f"{left_alias!r} and {right_alias!r}"
            )
        if a1 == left_alias:
            self._join = JoinCondition(attr1, attr2)
        else:
            self._join = JoinCondition(attr2, attr1)
        return self

    def where(self, condition, op: str | None = None, literal=None) -> "QueryBuilder":
        """Add a local filter.

        Accepts a :class:`FilterCondition`, a surface-syntax string
        (``"R.manCap >= 100K"``, ``"'P1' IN R.suppliedParts"``), or the
        triple form ``where("R.manCap", ">=", 100_000)``.
        """
        if isinstance(condition, FilterCondition):
            self._filters.append(condition)
            return self
        if op is not None:
            alias, attr = _qualified(condition)
            self._filters.append(FilterCondition(alias, attr, op, literal))
            return self
        parsed = parse_condition(condition)
        if not isinstance(parsed, FilterCondition):
            raise QueryError(
                f"{condition!r} is a join condition; use join_on() for joins"
            )
        self._filters.append(parsed)
        return self

    # ------------------------------------------------------------------
    # mappings / output
    # ------------------------------------------------------------------
    def map(self, name: str, expression: "Expression | str") -> "QueryBuilder":
        """Define output dimension ``name`` as ``expression``.

        ``expression`` is an :class:`~repro.query.expressions.Expression`
        (composable with ``+ - * /`` operator sugar) or a string like
        ``"R.uPrice + T.uShipCost"``.
        """
        if isinstance(expression, str):
            expression = parse_expression(expression)
        self._mappings.append(MappingFunction(name, expression))
        return self

    def select(self, *items) -> "QueryBuilder":
        """Carry source attributes through to the output unchanged.

        Each item is ``"R.id"`` (output name = attribute name) or a
        ``("R.id", "output_name")`` pair.
        """
        for item in items:
            if isinstance(item, tuple):
                ref, output_name = item
            else:
                ref, output_name = item, None
            alias, attr = _qualified(ref)
            self._passthrough.append(
                PassThrough(alias, attr, output_name or attr)
            )
        return self

    def preferring(self, *preferences) -> "QueryBuilder":
        """Declare the Pareto preference over mapped output dimensions.

        Each term is a :class:`~repro.skyline.preferences.Preference`
        (use :func:`~repro.skyline.preferences.lowest` /
        :func:`~repro.skyline.preferences.highest`) or a string like
        ``"LOWEST(tCost)"``.
        """
        for pref in preferences:
            if isinstance(pref, str):
                pref = parse_preference(pref)
            if not isinstance(pref, Preference):
                raise QueryError(
                    f"expected a Preference or 'LOWEST(name)' string, got {pref!r}"
                )
            self._preferences.append(pref)
        return self

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build(self) -> SkyMapJoinQuery:
        """Assemble the logical :class:`SkyMapJoinQuery` (validates shape)."""
        self._need_sources("build")
        if self._join is None:
            raise QueryError("no join condition; call join_on() first")
        if not self._mappings:
            raise QueryError("no mapping functions; call map() at least once")
        if not self._preferences:
            raise QueryError("no preference; call preferring() first")
        left_alias, right_alias = self._aliases
        return SkyMapJoinQuery(
            left_alias=left_alias,
            right_alias=right_alias,
            join=self._join,
            mappings=MappingSet(self._mappings),
            preference=ParetoPreference(self._preferences),
            filters=tuple(self._filters),
            passthrough=tuple(self._passthrough),
            table_names=tuple((a, self._tables[a].name) for a in self._aliases),
        )

    def bind(self, tables: Mapping[str, Table] | None = None) -> BoundQuery:
        """Bind to concrete tables (defaults to the builder's own sources)."""
        query = self.build()
        return query.bind(dict(tables) if tables is not None else self._tables)

    # ------------------------------------------------------------------
    # execution sugar
    # ------------------------------------------------------------------
    def follow(self, value: bool = True) -> "QueryBuilder":
        """Execute in streaming (*follow*) mode.

        The query stays open after planning and absorbs rows appended to
        its source tables while it runs; close the arrival window with
        :meth:`~repro.session.stream.ResultStream.close_ingest` to let it
        finish.  Applied by :meth:`execute` on top of whatever engine
        config is in effect (see
        :attr:`~repro.session.config.EngineConfig.follow`).
        """
        self._follow = value
        return self

    def auto(self, value: bool = True) -> "QueryBuilder":
        """Let the planner pick the partitioner.

        Sugar for executing with ``EngineConfig(planner=True)`` (the
        ``"auto"`` preset): the session's shared
        :class:`~repro.planner.choose.Planner` picks the quadtree when the
        mapped attributes' histograms are skewed.  Applied by
        :meth:`execute` on top of whatever engine config is in effect.
        """
        self._auto = value
        return self

    def execute(self, **kwargs):
        """Bind and execute through the owning session; see
        :meth:`~repro.session.service.Session.execute` for keywords."""
        if self._session is None:
            raise QueryError(
                "builder is not attached to a session; use Session.query() "
                "or bind() + run_algorithm()"
            )
        if self._follow or self._auto:
            from repro.session.config import EngineConfig

            config = kwargs.pop("config", None)
            if config is None:
                config = self._session.config
            elif isinstance(config, str):
                config = EngineConfig.preset(config)
            overrides = {}
            if self._follow:
                overrides["follow"] = True
            if self._auto:
                overrides["planner"] = True
            kwargs["config"] = config.with_options(**overrides)
        return self._session.execute(self.bind(), **kwargs)

    def _need_sources(self, method: str) -> None:
        if len(self._aliases) != 2:
            raise QueryError(f"call from_tables() before {method}()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryBuilder(sources={self._aliases}, "
            f"mappings={[m.name for m in self._mappings]})"
        )
