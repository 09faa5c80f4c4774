"""ProgXe: progressive result generation for multi-criteria decision support
(SkyMapJoin) queries.

Reproduction of Raghavan & Rundensteiner, ICDE 2010 / WPI-CS-TR-09-05.

The canonical entry point is the **session API**: register tables once, then
build queries fluently and consume results as a stream::

    import repro

    workload = repro.SyntheticWorkload(distribution="anticorrelated",
                                       n=500, d=2, sigma=0.01)
    session = repro.Session().register_tables(workload.tables())

    stream = (
        session.query()
        .from_tables("R", "T")
        .join_on("R.jkey = T.jkey")
        .map("x0", "R.a0 + T.b0")
        .map("x1", "R.a1 + T.b1")
        .preferring(repro.lowest("x0"), repro.lowest("x1"))
        .execute()                      # -> ResultStream
    )
    for result in stream:               # results stream out as proven final
        print(result.outputs)

Streams also support push callbacks (``on_result`` / ``on_progress`` /
``on_complete``), cooperative ``cancel()``, and ``StreamBudget`` ceilings
that stop the engine cleanly mid-run — any prefix is provably correct.
The paper's SQL surface goes through the same session::

    stream = session.execute('''
        SELECT R.id, T.id,
               (R.uPrice + T.uShipCost) AS tCost,
               (2 * R.manTime + T.shipTime) AS delay
        FROM Suppliers R, Transporters T
        WHERE R.country = T.country
        PREFERRING LOWEST(tCost) AND LOWEST(delay)
    ''', algorithm="ProgXe+", budget=repro.StreamBudget(max_results=10))

Storage is pluggable behind the ``DataSource`` batch-scan protocol:
besides in-memory ``Table`` objects, queries run directly over mmap-backed
columnar files (``ColumnarFileSource`` — inputs larger than RAM stream
through planning in bounded memory), with
``open_source("columnar:...")`` / ``open_source("mem:rows.csv")``
resolving backend URIs.

The lower layers remain public: ``ProgXeEngine`` (raw engine, configurable
via ``EngineConfig``), ``run_algorithm``/``compare_algorithms`` (batch
harnesses, now shims over the stream layer), and the ``ALGORITHMS`` view
over the pluggable algorithm registry.
"""

from repro.cache import CacheStats, PartitionKey, PartitionStore, PlanCache
from repro.baselines import (
    JoinFirstSkylineLater,
    JoinFirstSkylineLaterPlus,
    SkylineSortMergeJoin,
    SortedAccessJoin,
)
from repro.core import (
    ALGORITHMS,
    PROGXE_VARIANTS,
    ExecutionKernel,
    ExplainReport,
    KernelSnapshot,
    ProgXeEngine,
    QueryPlan,
    StepReport,
    StreamingKernel,
    VerificationReport,
    explain,
    progxe,
    progxe_no_order,
    progxe_plus,
    progxe_plus_no_order,
    verify_results,
)
from repro.planner import (
    PlanDecision,
    Planner,
    SourceStatistics,
    StatisticsStore,
)
from repro.data import (
    RefinementWorkload,
    SupplyChainWorkload,
    SyntheticWorkload,
    TravelWorkload,
)
from repro.errors import (
    BindingError,
    ExecutionError,
    ParseError,
    QueryError,
    RegistryError,
    ReproError,
    SchemaError,
)
from repro.query import (
    Attr,
    BoundQuery,
    ChainJoin,
    Const,
    Interval,
    MappingFunction,
    MappingSet,
    MultiwayQuery,
    ResultTuple,
    SkyMapJoinQuery,
    parse_query,
)
from repro.session import (
    AlgorithmRegistry,
    EngineConfig,
    QueryBuilder,
    QueryScheduler,
    ResultStream,
    Session,
    StreamBudget,
    StreamStats,
    default_registry,
)
from repro.runtime import (
    ComparisonReport,
    ProgressRecorder,
    RunResult,
    VirtualClock,
    compare_algorithms,
    run_algorithm,
)
from repro.skyline import (
    HIGHEST,
    LOWEST,
    ParetoPreference,
    Preference,
    bnl_skyline,
    dominates,
    highest,
    lowest,
)
from repro.storage import (
    ColumnarFileSource,
    ColumnarWriter,
    DataSource,
    InMemorySource,
    Schema,
    Table,
    open_source,
    write_columnar,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmRegistry",
    "Attr",
    "BindingError",
    "BoundQuery",
    "CacheStats",
    "ChainJoin",
    "ComparisonReport",
    "Const",
    "EngineConfig",
    "ExecutionError",
    "ExecutionKernel",
    "ExplainReport",
    "KernelSnapshot",
    "HIGHEST",
    "Interval",
    "JoinFirstSkylineLater",
    "JoinFirstSkylineLaterPlus",
    "LOWEST",
    "MappingFunction",
    "MappingSet",
    "MultiwayQuery",
    "PROGXE_VARIANTS",
    "ParetoPreference",
    "ParseError",
    "PartitionKey",
    "PartitionStore",
    "PlanCache",
    "PlanDecision",
    "Planner",
    "Preference",
    "ProgXeEngine",
    "ProgressRecorder",
    "QueryBuilder",
    "QueryError",
    "QueryPlan",
    "QueryScheduler",
    "RefinementWorkload",
    "RegistryError",
    "ReproError",
    "ResultStream",
    "ResultTuple",
    "RunResult",
    "Schema",
    "SchemaError",
    "Session",
    "SkyMapJoinQuery",
    "SkylineSortMergeJoin",
    "SortedAccessJoin",
    "SourceStatistics",
    "StatisticsStore",
    "StepReport",
    "StreamBudget",
    "StreamStats",
    "StreamingKernel",
    "SupplyChainWorkload",
    "SyntheticWorkload",
    "Table",
    "ColumnarFileSource",
    "ColumnarWriter",
    "DataSource",
    "InMemorySource",
    "open_source",
    "write_columnar",
    "TravelWorkload",
    "VerificationReport",
    "VirtualClock",
    "bnl_skyline",
    "compare_algorithms",
    "default_registry",
    "dominates",
    "explain",
    "highest",
    "lowest",
    "parse_query",
    "progxe",
    "progxe_no_order",
    "progxe_plus",
    "progxe_plus_no_order",
    "run_algorithm",
    "verify_results",
]
