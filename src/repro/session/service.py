"""The session facade: the canonical way to use the library.

A :class:`Session` holds named tables, resolves algorithm names against
:data:`~repro.core.variants.ALGORITHM_TABLE`, accepts queries in any of
the library's forms — fluent builder chains, the paper's SQL surface,
pre-built logical or bound queries — and executes them progressively,
returning :class:`~repro.session.stream.ResultStream` handles::

    session = (
        repro.Session()
        .register_table(suppliers, "Suppliers")
        .register_table(transporters, "Transporters")
    )
    stream = session.execute(Q1_SQL, algorithm="ProgXe+",
                             budget=repro.StreamBudget(max_results=10))
    for result in stream:
        ...  # provably-final results, the moment they are known

The batch helpers (:meth:`Session.run`, :meth:`Session.compare`) drain
streams into the legacy :class:`~repro.runtime.runner.RunResult` /
:class:`~repro.runtime.compare.ComparisonReport` shapes, so everything built
on those keeps working.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.session.scheduler import QueryScheduler

from repro.cache.plan_cache import PlanCache
from repro.core.variants import ALGORITHM_TABLE, lookup_algorithm
from repro.errors import BindingError, QueryError
from repro.query.parser import parse_query
from repro.query.smj import BoundQuery, SkyMapJoinQuery
from repro.runtime.clock import VirtualClock
from repro.runtime.compare import ComparisonReport
from repro.runtime.runner import RunResult
from repro.session.builder import QueryBuilder
from repro.session.config import EngineConfig
from repro.session.stream import ResultStream, StreamBudget
from repro.storage.sources.base import DataSource
from repro.storage.sources.uri import open_source as _open_source_uri

#: Algorithm used when ``execute()`` is not told otherwise.
DEFAULT_ALGORITHM = "ProgXe"


class Session:
    """Service entry point: tables + algorithms + execution.

    Parameters
    ----------
    config:
        Default :class:`EngineConfig` applied when ``execute()`` receives
        none.
    clock_weights:
        Optional per-operation cost weights for the virtual clocks this
        session creates (see :data:`~repro.runtime.clock.DEFAULT_WEIGHTS`).
    plan_cache:
        Shared :class:`~repro.cache.plan_cache.PlanCache` for cross-query
        work sharing.  Defaults to a fresh per-session cache; pass one
        explicitly to share partitioning work *across* sessions.  Disable
        sharing per query or per session with ``EngineConfig(
        share_partitions=False)``.
    planner:
        Shared :class:`~repro.planner.choose.Planner` used by
        queries executed with ``EngineConfig(planner=True)`` (the
        ``"auto"`` preset).  Defaults to a lazily created per-session
        planner, so source statistics accumulate across this session's
        queries.

    Example::

        session = repro.Session().register_tables(workload.tables())
        stream = session.execute(session.sql(Q1_SQL), algorithm="ProgXe+")
        results = list(stream)
        session.plan_cache.stats()     # partition-sharing hit/miss counters
    """

    def __init__(
        self,
        *,
        config: EngineConfig | None = None,
        clock_weights: Mapping[str, float] | None = None,
        plan_cache: PlanCache | None = None,
        planner=None,
    ) -> None:
        self.config = config or EngineConfig()
        self.clock_weights = dict(clock_weights) if clock_weights else None
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._planner = planner
        self._tables: dict[str, DataSource] = {}

    @property
    def planner(self):
        """The session's shared planner (created lazily).

        One :class:`~repro.planner.choose.Planner` per session, so source
        statistics accumulate across queries — the second ``"auto"`` query
        over a table reuses (or patches) the first one's summary instead
        of scanning again.
        """
        if self._planner is None:
            from repro.planner.choose import Planner

            self._planner = Planner()
        return self._planner

    # ------------------------------------------------------------------
    # tables / sources
    # ------------------------------------------------------------------
    def register_table(
        self, table: DataSource, name: str | None = None
    ) -> "Session":
        """Register a data source under ``name`` (default: its own name).

        ``table`` is any :class:`~repro.storage.sources.base.DataSource` —
        an in-memory :class:`~repro.storage.table.Table` or an mmap-backed
        :class:`~repro.storage.sources.columnar.ColumnarFileSource`.
        """
        self._tables[name or table.name] = table
        return self

    #: Protocol-era alias of :meth:`register_table`.
    register_source = register_table

    def register_tables(self, tables: Mapping[str, DataSource]) -> "Session":
        """Register several sources at once."""
        for name, table in tables.items():
            self.register_table(table, name)
        return self

    def open_source(self, uri: str, name: str | None = None) -> DataSource:
        """Open a source URI, register it, and return it.

        URIs follow :func:`repro.storage.sources.uri.open_source`:
        ``mem:PATH.csv`` or ``columnar:PATH``.  The source registers under
        ``name`` (default: the backend's derived name).
        """
        source = _open_source_uri(uri, name=name)
        self.register_table(source, name)
        return source

    def table(self, name: str) -> DataSource:
        """Look up a registered source."""
        try:
            return self._tables[name]
        except KeyError:
            raise BindingError(
                f"no table registered under {name!r}; "
                f"registered: {sorted(self._tables)}"
            ) from None

    @property
    def tables(self) -> dict[str, DataSource]:
        """Snapshot of the registered sources (name → source)."""
        return dict(self._tables)

    # ------------------------------------------------------------------
    # query construction
    # ------------------------------------------------------------------
    def query(self) -> QueryBuilder:
        """Start a fluent :class:`QueryBuilder` attached to this session."""
        return QueryBuilder(session=self)

    def sql(self, text: str) -> BoundQuery:
        """Parse the paper's SQL surface and bind against registered tables."""
        return self.bind(parse_query(text))

    def bind(self, query: SkyMapJoinQuery) -> BoundQuery:
        """Bind a logical query against this session's tables.

        FROM-clause table names take precedence (parser-built queries);
        otherwise the query's aliases are looked up directly.
        """
        if query.table_names:
            return query.bind_by_table_name(self._tables)
        return query.bind(self._tables)

    def _coerce_bound(self, query) -> BoundQuery:
        if isinstance(query, BoundQuery):
            return query
        if isinstance(query, QueryBuilder):
            return query.bind()
        if isinstance(query, SkyMapJoinQuery):
            return self.bind(query)
        if isinstance(query, str):
            return self.sql(query)
        raise QueryError(
            f"cannot execute {type(query).__name__!r}: expected a BoundQuery, "
            "SkyMapJoinQuery, QueryBuilder, or SQL string"
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def build_algorithm(
        self,
        query,
        *,
        algorithm: str | None = None,
        config: EngineConfig | str | None = None,
        clock: VirtualClock | None = None,
    ) -> tuple[object, VirtualClock, str]:
        """Resolve and instantiate an algorithm for one execution.

        The shared construction path behind :meth:`execute` and
        :meth:`scheduler`-submitted queries (both wrap the instance in a
        :class:`ResultStream`).  Returns ``(instance, clock, name)`` — ``name``
        is the algorithm's display name in
        :data:`~repro.core.variants.ALGORITHM_TABLE`.

        A configurable algorithm (a ProgXe variant) receives the config's
        engine keywords; when the config's ``share_partitions`` is on it
        also receives the session's :attr:`plan_cache`, so planning reuses
        input partitionings across queries, and under ``planner`` the
        session's shared :attr:`planner`.
        """
        bound = self._coerce_bound(query)
        clock = clock or VirtualClock(self.clock_weights)
        entry = lookup_algorithm(
            DEFAULT_ALGORITHM if algorithm is None else algorithm
        )
        if isinstance(config, str):
            config = EngineConfig.preset(config)
        if not entry.configurable:
            if config is not None:
                raise QueryError(
                    f"algorithm {entry.name!r} does not accept an EngineConfig"
                )
            return entry.factory(bound, clock), clock, entry.name
        effective = config or self.config
        kwargs = effective.engine_kwargs()
        if effective.share_partitions:
            kwargs["cache"] = self.plan_cache
        if effective.planner:
            # The config carries a flag; the session resolves it into its
            # shared planner object, so source statistics accumulate
            # across this session's queries.
            kwargs["planner"] = self.planner
        return entry.factory(bound, clock, **kwargs), clock, entry.name

    def execute(
        self,
        query,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        config: EngineConfig | str | None = None,
        budget: StreamBudget | None = None,
        clock: VirtualClock | None = None,
    ) -> ResultStream:
        """Start a progressive execution; returns a lazy :class:`ResultStream`.

        Parameters
        ----------
        query:
            A :class:`BoundQuery`, logical :class:`SkyMapJoinQuery`,
            :class:`QueryBuilder`, or SQL string.
        algorithm:
            Algorithm name or alias (see
            :func:`~repro.core.variants.lookup_algorithm`).
        config:
            :class:`EngineConfig` (or preset name) for configurable
            algorithms; falls back to the session default.  Passing an
            explicit config to a non-configurable algorithm raises.
        budget:
            Execution ceilings; the stream stops cleanly when one is hit.
        clock:
            Virtual clock to charge; a fresh one is created by default.
        """
        instance, clock, name = self.build_algorithm(
            query, algorithm=algorithm, config=config, clock=clock,
        )
        return ResultStream(instance, clock, name=name, budget=budget)

    def scheduler(self, *, max_active: int | None = None) -> "QueryScheduler":
        """A cooperative multi-query scheduler over this session.

        ``max_active`` caps how many queries execute at once (the rest wait
        in submission order); ``None`` admits everything.  Dispatch follows
        the scheduler's one rule — fair share in virtual time, bounded
        bursts, a starvation bound (see :mod:`repro.session.scheduler`).
        Submit queries with :meth:`QueryScheduler.submit`, then iterate
        :meth:`QueryScheduler.run` (or ``run_async``) to interleave them::

            scheduler = session.scheduler(max_active=8)
            a = scheduler.submit(QUERY_A)
            b = scheduler.submit(QUERY_B, budget=StreamBudget(max_results=5))
            for query, result in scheduler.run():
                ...
        """
        from repro.session.scheduler import QueryScheduler

        return QueryScheduler(self, max_active=max_active)

    async def execute_async(
        self,
        query,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        config: EngineConfig | str | None = None,
        budget: StreamBudget | None = None,
        clock: VirtualClock | None = None,
    ):
        """Asyncio-friendly execution: ``async for result in ...``.

        Steps the :class:`ResultStream` :meth:`execute` would return,
        yielding each result as its step hands it out and returning control
        to the event loop between steps — so multiple queries (or other
        coroutines) progress concurrently under ``asyncio.gather``.
        Accepts the arguments of :meth:`execute`, budgets included, with
        the same semantics.
        """
        stream = self.execute(
            query, algorithm=algorithm, config=config, budget=budget,
            clock=clock,
        )
        while not stream.finished:
            for result in stream.step().results:
                if stream.cancelled:
                    return
                yield result
            await asyncio.sleep(0)

    def run(self, query, **kwargs) -> RunResult:
        """Execute to completion; return the legacy batch :class:`RunResult`."""
        stream = self.execute(query, **kwargs)
        stream.drain()
        return stream.to_run_result()

    def compare(
        self,
        query,
        algorithms: Iterable[str] | None = None,
        *,
        config: EngineConfig | str | None = None,
        budget: StreamBudget | None = None,
        verify: bool = True,
    ) -> ComparisonReport:
        """Run several algorithms on one query and collect a report.

        ``algorithms`` is a list of algorithm names (default: all eight).
        ``config`` applies to the configurable contenders; the baselines
        run unconfigured.  Each run gets a fresh clock and **plans
        privately** — the configurable contenders run with
        ``share_partitions=False``, so no contender inherits another's
        phase-1 work and the reported progressiveness/cost figures stay
        comparable.  With ``verify`` (default) the final result sets must
        agree — skipped automatically when a ``budget`` is set, since
        truncated runs legitimately stop early.
        """
        bound = self._coerce_bound(query)
        if isinstance(config, str):
            config = EngineConfig.preset(config)
        private = (config or self.config).with_options(share_partitions=False)
        runs: dict[str, RunResult] = {}
        for name in ALGORITHM_TABLE if algorithms is None else algorithms:
            stream = self.execute(
                bound, algorithm=name, budget=budget,
                config=private if lookup_algorithm(name).configurable else None,
            )
            stream.drain()
            runs[name] = stream.to_run_result()
        report = ComparisonReport(runs)
        if verify and budget is None:
            report.verify_agreement()
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(tables={sorted(self._tables)})"
