"""Command-line interface: ``python -m repro <command>``.

All commands are routed through the :class:`~repro.session.service.Session`
service API — queries execute as :class:`~repro.session.stream.ResultStream`
handles, so budgets (``--max-vtime``, ``--max-comparisons``,
``--max-results``) stop the engine cleanly mid-run while keeping every
already-emitted result provably final.

Commands
--------

``run``
    Execute one algorithm on a synthetic workload; print the progressive
    output stream (or just the summary).

``compare``
    Run several algorithms on the same workload; print the paper-style
    progressiveness and total-cost tables.

``query``
    Parse an SMJ query (the paper's SQL-with-PREFERRING surface) and run
    it progressively against CSV tables.

``generate``
    Write a synthetic workload's two tables to CSV files.

``explain``
    Show the ProgXe plan for a workload without executing it.

``serve``
    Start the streaming HTTP server
    (:class:`~repro.serve.app.QueryServer`): clients POST queries to
    ``/query`` and receive NDJSON/SSE result frames the moment the
    interleaved engine emits them, under admission control and per-client
    backpressure.

``interleave``
    Concurrency demo: admit several queries to the cooperative
    :class:`~repro.session.scheduler.QueryScheduler` and interleave their
    execution kernels, printing results as each query emits them plus a
    per-query latency summary.

``algorithms``
    List the registered algorithms (the pluggable registry behind ``-a``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.data.workloads import SyntheticWorkload
from repro.errors import RegistryError, ReproError
from repro.session.config import PRESETS, EngineConfig
from repro.session.service import Session
from repro.session.stream import StreamBudget
from repro.storage.sources import (
    describe_source,
    is_source_uri,
    open_source,
    write_columnar,
)
from repro.storage.table import Table


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--distribution", "-D",
        choices=["independent", "correlated", "anticorrelated"],
        default="independent", help="attribute correlation regime",
    )
    parser.add_argument("-n", type=int, default=400, help="rows per table")
    parser.add_argument("-d", type=int, default=2, help="skyline dimensions")
    parser.add_argument("--sigma", type=float, default=0.01,
                        help="target join selectivity")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-vtime", type=float, default=None,
                        help="stop after this much virtual time")
    parser.add_argument("--max-comparisons", type=int, default=None,
                        help="stop after this many dominance comparisons")
    parser.add_argument("--max-results", type=int, default=None,
                        help="stop after this many results")


def _budget(args: argparse.Namespace) -> StreamBudget | None:
    budget = StreamBudget(
        max_vtime=getattr(args, "max_vtime", None),
        max_comparisons=getattr(args, "max_comparisons", None),
        max_results=getattr(args, "max_results", None),
    )
    return None if budget.unlimited else budget


def _workload(args: argparse.Namespace) -> SyntheticWorkload:
    return SyntheticWorkload(
        distribution=args.distribution, n=args.n, d=args.d,
        sigma=args.sigma, seed=args.seed,
    )


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--source", action="append", default=[], metavar="ALIAS=URI",
        help="bind a workload alias to a storage backend URI "
        "(mem:PATH.csv, columnar:PATH); aliases not "
        "listed keep the generated in-memory tables",
    )


def _resolve_sources(
    args: argparse.Namespace, workload: SyntheticWorkload
):
    """Workload tables with ``--source`` overrides applied.

    Returns ``(tables, backends)`` where ``backends`` maps each alias to a
    human description of its active backend (empty without overrides).
    """
    tables = workload.tables()
    backends: dict[str, str] = {}
    for spec in getattr(args, "source", None) or []:
        alias, sep, uri = spec.partition("=")
        if not sep:
            raise SystemExit(f"--source expects ALIAS=URI, got {spec!r}")
        if alias not in tables:
            raise SystemExit(
                f"--source alias {alias!r} is not a workload alias; "
                f"expected one of {sorted(tables)}"
            )
        if uri in ("mem", "mem:"):
            backends[alias] = describe_source(tables[alias])
            continue  # explicit default: the generated in-memory table
        tables[alias] = open_source(uri, name=alias)
        backends[alias] = describe_source(tables[alias])
    return tables, backends


def _backend_line(tables, backends) -> str:
    """``R=columnar(...) T=memory(...)`` summary of the active backends."""
    return "  ".join(
        f"{alias}={backends.get(alias, describe_source(table))}"
        for alias, table in tables.items()
    )


def _session(args: argparse.Namespace) -> Session:
    config = None
    preset = getattr(args, "preset", None)
    if preset:
        config = EngineConfig.preset(preset)
    return Session(config=config)


def _algorithm_names(session: Session, spec: str) -> list[str]:
    if spec == "all":
        return list(session.algorithms())
    if spec == "variants":
        return [
            entry.name
            for entry in session.registry.entries()
            if "progressive" in entry.tags
        ]
    names = []
    for name in spec.split(","):
        name = name.strip()
        try:
            names.append(session.registry.entry(name).name)
        except RegistryError as exc:
            raise SystemExit(str(exc)) from None
    return names


def _cmd_run(args: argparse.Namespace) -> int:
    session = _session(args)
    [name] = _one_algorithm(session, args.algorithm)
    workload = _workload(args)
    if args.follow:
        if args.source:
            raise SystemExit(
                "--follow demonstrates in-memory streaming ingestion; "
                "drop --source"
            )
        return _run_follow(session, name, workload, args)
    tables, backends = _resolve_sources(args, workload)
    bound = workload.query().bind(tables)
    if backends:
        print(f"sources: {_backend_line(tables, backends)}")
    stream = session.execute(bound, algorithm=name, budget=_budget(args))
    for result in stream:
        if args.stream:
            vtime = stream.recorder.events[-1].vtime
            print(f"t={vtime:>12.0f}  {result.outputs}")
    stats = stream.stats()
    print(f"{name}: {stats.results} results, total virtual cost "
          f"{stats.vtime:.0f}, {stats.dominance_comparisons} dominance "
          "comparisons")
    if stats.stop_reason:
        print(f"stopped early: {stats.stop_reason}")
    return 0


def _run_follow(
    session: Session, name: str, workload: SyntheticWorkload,
    args: argparse.Namespace,
) -> int:
    """Streaming-ingestion demo: plan over a prefix, absorb arrivals mid-run.

    Half of each synthetic table is present at submission; the rest
    arrives in ``--arrival-chunks`` batches interleaved with kernel steps
    through the cooperative scheduler, then the arrival window closes and
    the query drains to its full (one-shot-equivalent) result set.
    """
    chunks = args.arrival_chunks
    if chunks < 1:
        raise SystemExit(f"--arrival-chunks must be >= 1, got {chunks}")
    config = session.config.with_options(follow=True)
    live: dict[str, Table] = {}
    arrivals: dict[str, list[list[tuple]]] = {}
    for alias, table in workload.tables().items():
        rows = list(table.rows)
        split = max(1, len(rows) // 2)
        live[alias] = Table(alias, table.schema, rows[:split])
        rest = rows[split:]
        size = max(1, -(-len(rest) // chunks))
        arrivals[alias] = [
            rest[i:i + size] for i in range(0, len(rest), size)
        ]
    bound = workload.query().bind(live)
    scheduler = session.scheduler()
    handle = scheduler.submit(
        bound, algorithm=name, config=config, budget=_budget(args),
        name="follow",
    )
    rounds = max(len(parts) for parts in arrivals.values())
    for i in range(rounds):
        for _ in range(50):
            if not scheduler.tick():
                break
        appended = 0
        for alias, parts in arrivals.items():
            if i < len(parts):
                live[alias].extend_rows(parts[i])
                appended += len(parts[i])
        print(f"arrival {i + 1}/{rounds}: +{appended} rows mid-run")
    handle.close_ingest()
    while not handle.finished and scheduler.tick():
        pass
    if args.stream:
        for result in handle.results:
            print(f"  {result.outputs}")
    stats = handle.stats()
    engine_stats = getattr(handle.algorithm, "stats", {})
    print(
        f"{name} (follow): {stats.results} results, total virtual cost "
        f"{stats.vtime:.0f}, {stats.dominance_comparisons} dominance "
        "comparisons"
    )
    print(
        f"ingestion: {engine_stats.get('rows_ingested', 0)} rows absorbed "
        f"over {engine_stats.get('polls', 0)} polls, "
        f"{engine_stats.get('regions_added', 0)} regions added, "
        f"{engine_stats.get('cells_reopened', 0)} cells reopened"
    )
    if stats.stop_reason:
        print(f"stopped early: {stats.stop_reason}")
        return 0
    # Differential check: the streamed run must equal a one-shot run over
    # the final table contents (the tables after every arrival landed).
    reference = session.execute(
        workload.query().bind(live), algorithm=name, share_partitions=False
    )
    reference.drain()
    streamed = {r.key() for r in handle.results}
    oneshot = {r.key() for r in reference.results}
    verdict = "OK" if streamed == oneshot else "MISMATCH"
    print(
        f"one-shot equivalence: {verdict} "
        f"({len(streamed)} streamed vs {len(oneshot)} one-shot results)"
    )
    return 0 if verdict == "OK" else 1


def _one_algorithm(
    session: Session, spec: str, command: str = "run"
) -> list[str]:
    names = _algorithm_names(session, spec)
    if len(names) != 1:
        hint = (
            "all submitted queries share one algorithm"
            if command == "interleave"
            else "use compare for several"
        )
        raise SystemExit(f"{command} takes exactly one algorithm; {hint}")
    return names


def _cmd_compare(args: argparse.Namespace) -> int:
    session = _session(args)
    names = _algorithm_names(session, args.algorithms)
    workload = _workload(args)
    tables, backends = _resolve_sources(args, workload)
    bound = workload.query().bind(tables)
    if backends:
        print(f"sources: {_backend_line(tables, backends)}")
    report = session.compare(bound, names, verify=not args.no_verify)
    print("Progressiveness (virtual time to reach each output fraction):")
    print(report.progressiveness_table())
    print("\nTotal execution cost:")
    print(report.total_time_table())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.query_file:
        with open(args.query_file) as f:
            text = f.read()
    else:
        text = args.query
    if not text:
        raise SystemExit("provide --query or --query-file")
    session = _session(args)
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not path:
            raise SystemExit(f"--table expects NAME=PATH, got {spec!r}")
        if is_source_uri(path):
            session.open_source(path, name)
        else:
            session.register_table(Table.from_csv(name, path), name)
    [name] = _one_algorithm(session, args.algorithm, command="query")
    budget = (
        StreamBudget(max_results=args.limit) if args.limit else None
    )
    stream = session.execute(text, algorithm=name, budget=budget)
    for result in stream:
        print(result.outputs)
    stats = stream.stats()
    first = "-" if stats.time_to_first is None else f"{stats.time_to_first:.0f}"
    print(
        f"\n{name}: {stats.results} results, first at t={first}, "
        f"total cost {stats.vtime:.0f}"
    )
    if stats.stop_reason:
        print(f"stopped early: {stats.stop_reason}")
    return 0


def _cmd_interleave(args: argparse.Namespace) -> int:
    """Interleave N concurrent queries through the scheduler (demo)."""
    session = _session(args)
    [name] = _one_algorithm(session, args.algorithm, command="interleave")
    sharing = not args.no_share
    if not sharing:
        session.config = session.config.with_options(share_partitions=False)
    scheduler = session.scheduler(max_active=args.max_active)
    budget = _budget(args)
    # --source overrides imply one shared set of backends for every query
    # (there is exactly one columnar dir / database per alias).
    workload = _workload(args)
    shared_tables, backends = _resolve_sources(args, workload)
    shared_bound = None
    if args.shared_tables or backends:
        shared_bound = workload.query().bind(shared_tables)
    query_backends: dict[str, str] = {}
    for i in range(args.concurrency):
        if shared_bound is not None:
            bound, qname = shared_bound, f"q{i}(shared)"
            tables = shared_tables
        else:
            per_query = SyntheticWorkload(
                distribution=args.distribution, n=args.n, d=args.d,
                sigma=args.sigma, seed=args.seed + i,
            )
            tables = per_query.tables()
            bound = per_query.query().bind(tables)
            qname = f"q{i}(seed={args.seed + i})"
        scheduler.submit(bound, algorithm=name, budget=budget, name=qname)
        query_backends[qname] = _backend_line(tables, backends)
    print(
        f"interleaving {args.concurrency} queries ({name}), "
        f"sharing={'on' if sharing else 'off'}"
    )
    for qname, line in query_backends.items():
        print(f"  {qname}: {line}")
    for query, result in scheduler.run():
        if args.stream:
            print(
                f"  [{query.name}] t_global={scheduler.global_vtime:>12.0f}"
                f"  {result.outputs}"
            )
    print(
        f"\n{'query':<16}{'state':<18}{'results':>8}{'steps':>7}"
        f"{'vtime':>12}{'first@global':>14}"
    )
    for query in scheduler.queries:
        first = query.first_result_global_vtime
        print(
            f"{query.name:<16}{query.state:<18}{len(query.results):>8}"
            f"{query.steps:>7}{query.clock.now():>12.0f}"
            f"{'-' if first is None else format(first, '>14.0f'):>14}"
        )
    # Each dispatch is one step() of one query.
    dispatches = sum(query.steps for query in scheduler.queries)
    print(
        f"\ndispatches={dispatches}  "
        f"total virtual work={scheduler.global_vtime:.0f}"
    )
    cache = scheduler.cache_stats()
    print(
        f"partition cache: hits={cache.hits}  misses={cache.misses}  "
        f"evictions={cache.evictions}  entries={cache.entries}  "
        f"hit-rate={cache.hit_rate:.0%}"
    )
    return 0


def _workload_sql(workload: SyntheticWorkload) -> str:
    """The SQL form of the synthetic workload's query (client copy-paste)."""
    left, right = workload.left_alias, workload.right_alias
    maps = ", ".join(
        f"({left}.a{i} + {right}.b{i}) AS x{i}" for i in range(workload.d)
    )
    prefs = " AND ".join(f"LOWEST(x{i})" for i in range(workload.d))
    return (
        f"SELECT {left}.id, {right}.id, {maps} "
        f"FROM {left} {left}, {right} {right} "
        f"WHERE {left}.jkey = {right}.jkey PREFERRING {prefs}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the streaming HTTP server over a session's tables."""
    from repro.serve import AdmissionPolicy, QueryServer, Watermarks

    session = _session(args)
    if args.table:
        for spec in args.table:
            name, _, path = spec.partition("=")
            if not path:
                raise SystemExit(f"--table expects NAME=PATH, got {spec!r}")
            if is_source_uri(path):
                session.open_source(path, name)
            else:
                session.register_table(Table.from_csv(name, path), name)
    else:
        workload = _workload(args)
        session.register_tables(workload.tables())
        print(f"tables: synthetic workload (seed={args.seed}); example query:")
        print(f"  {_workload_sql(workload)}")
    policy = AdmissionPolicy(
        max_active=args.max_active,
        max_per_client=args.max_per_client,
        max_wall_seconds=args.timeout_wall,
        max_vtime=args.timeout_vtime,
    )
    watermarks = Watermarks(high=args.high_water, low=args.low_water)
    server = QueryServer(
        session,
        host=args.host,
        port=args.port,
        admission=policy,
        watermarks=watermarks,
    )
    server.run()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain, explain_estimates

    workload = _workload(args)
    if args.no_run:
        if args.format == "json":
            print("--format json requires the estimate report", file=sys.stderr)
            return 2
        print(explain(workload.bound()).render(top=args.top))
        return 0
    report = explain_estimates(workload.bound())
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(explain(workload.bound()).render(top=args.top))
    print()
    print(report.render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = _workload(args)
    tables = workload.tables()
    left = tables[workload.left_alias]
    right = tables[workload.right_alias]
    if args.format == "csv":
        left_path = f"{args.prefix}_{workload.left_alias}.csv"
        right_path = f"{args.prefix}_{workload.right_alias}.csv"
        left.to_csv(left_path)
        right.to_csv(right_path)
    else:  # columnar
        left_path = write_columnar(
            f"{args.prefix}_{workload.left_alias}.col", left
        )
        right_path = write_columnar(
            f"{args.prefix}_{workload.right_alias}.col", right
        )
        print(
            "use with: --source "
            f"{workload.left_alias}=columnar:{left_path} "
            f"--source {workload.right_alias}=columnar:{right_path}"
        )
    print(f"wrote {left_path} ({len(left)} rows) and {right_path} ({len(right)} rows)")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    session = Session()
    print(f"{'name':<22}{'configurable':<14}description")
    for entry in session.registry.entries():
        extras = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(
            f"{entry.name:<22}{'yes' if entry.configurable else 'no':<14}"
            f"{entry.description}{extras}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProgXe: progressive SkyMapJoin query evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    preset_help = f"engine configuration preset: {', '.join(PRESETS)}"

    p_run = sub.add_parser("run", help="run one algorithm on a synthetic workload")
    _add_workload_args(p_run)
    _add_budget_args(p_run)
    _add_source_args(p_run)
    p_run.add_argument("--algorithm", "-a", default="ProgXe",
                       help="algorithm name (see the 'algorithms' command)")
    p_run.add_argument("--preset", choices=list(PRESETS), help=preset_help)
    p_run.add_argument("--stream", action="store_true",
                       help="print every result as it is emitted")
    p_run.add_argument(
        "--follow", action="store_true",
        help="streaming-ingestion demo: plan over half the rows, absorb "
        "the rest in batches mid-run, and verify against one-shot results",
    )
    p_run.add_argument(
        "--arrival-chunks", type=int, default=4,
        help="arrival batches for --follow (default 4)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare algorithms on one workload")
    _add_workload_args(p_cmp)
    _add_source_args(p_cmp)
    p_cmp.add_argument("--algorithms", "-a", default="variants",
                       help="'all', 'variants', or a comma list of names")
    p_cmp.add_argument("--preset", choices=list(PRESETS), help=preset_help)
    p_cmp.add_argument("--no-verify", action="store_true",
                       help="skip the result-set agreement check")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_query = sub.add_parser("query", help="run an SMJ query over CSV tables")
    p_query.add_argument("--query", help="query text")
    p_query.add_argument("--query-file", help="file containing the query")
    p_query.add_argument("--table", action="append", default=[],
                         metavar="NAME=PATH",
                         help="bind table NAME to a CSV file or a source URI "
                         "(columnar:PATH)")
    p_query.add_argument("--algorithm", "-a", default="ProgXe")
    p_query.add_argument("--preset", choices=list(PRESETS), help=preset_help)
    p_query.add_argument("--limit", type=int, default=0,
                         help="stop cleanly after this many results (0 = all)")
    p_query.set_defaults(fn=_cmd_query)

    p_il = sub.add_parser(
        "interleave",
        help="interleave N concurrent queries via the cooperative scheduler",
    )
    _add_workload_args(p_il)
    _add_budget_args(p_il)
    _add_source_args(p_il)
    p_il.add_argument(
        "--concurrency", "-c", type=_positive_int, default=4,
        help="number of concurrent queries to admit (workload seeds "
        "SEED..SEED+N-1)",
    )
    p_il.add_argument(
        "--max-active", type=int, default=None,
        help="admission ceiling; further queries wait (default: admit all)",
    )
    p_il.add_argument("--algorithm", "-a", default="ProgXe",
                      help="algorithm to run each query with")
    p_il.add_argument("--preset", choices=list(PRESETS), help=preset_help)
    p_il.add_argument("--stream", action="store_true",
                      help="print every result as it is emitted")
    p_il.add_argument(
        "--shared-tables", action="store_true",
        help="submit all queries over ONE workload's tables (seed=SEED) so "
        "cross-query partition sharing kicks in; default gives each query "
        "its own tables",
    )
    p_il.add_argument(
        "--no-share", action="store_true",
        help="disable cross-query work sharing: every query partitions its "
        "inputs privately instead of reusing the session's partition cache",
    )
    p_il.set_defaults(fn=_cmd_interleave)

    p_serve = sub.add_parser(
        "serve",
        help="start the streaming HTTP server (POST /query, NDJSON/SSE)",
    )
    _add_workload_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8484,
                         help="bind port (0 picks a free one)")
    p_serve.add_argument(
        "--table", action="append", default=[], metavar="NAME=PATH",
        help="serve table NAME from a CSV file or source URI "
        "(columnar:PATH); default: the synthetic "
        "workload's tables",
    )
    p_serve.add_argument("--preset", choices=list(PRESETS), help=preset_help)
    p_serve.add_argument(
        "--max-active", type=int, default=64,
        help="reject (429) beyond this many concurrent streaming queries",
    )
    p_serve.add_argument(
        "--max-per-client", type=int, default=None,
        help="per-client concurrent-query quota (default: none)",
    )
    p_serve.add_argument(
        "--timeout-wall", type=float, default=None,
        help="per-query wall-clock timeout ceiling in seconds; clamps "
        "client-requested timeouts",
    )
    p_serve.add_argument(
        "--timeout-vtime", type=float, default=None,
        help="per-query virtual-time timeout ceiling; clamps "
        "client-requested timeouts",
    )
    p_serve.add_argument(
        "--high-water", type=int, default=32 * 1024,
        help="pause a query once its client buffers this many bytes",
    )
    p_serve.add_argument(
        "--low-water", type=int, default=8 * 1024,
        help="resume once the client's buffer drains to this many bytes",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_gen = sub.add_parser(
        "generate", help="write a synthetic workload to CSV/columnar"
    )
    _add_workload_args(p_gen)
    p_gen.add_argument("--prefix", default="workload",
                       help="output file prefix (PREFIX_R.csv, PREFIX_T.csv)")
    p_gen.add_argument(
        "--format", choices=["csv", "columnar"], default="csv",
        help="storage backend to write: CSV files or mmap-able columnar "
        "directories",
    )
    p_gen.set_defaults(fn=_cmd_generate)

    p_explain = sub.add_parser(
        "explain",
        help="show the ProgXe plan plus the cost-based planner's "
        "estimate-vs-actual report",
    )
    _add_workload_args(p_explain)
    p_explain.add_argument("--top", type=int, default=10,
                           help="regions to list, by rank")
    p_explain.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="estimate report output format",
    )
    p_explain.add_argument(
        "--no-run", action="store_true",
        help="plan-only dry run: skip execution and the estimate report",
    )
    p_explain.set_defaults(fn=_cmd_explain)

    p_algos = sub.add_parser("algorithms", help="list registered algorithms")
    p_algos.set_defaults(fn=_cmd_algorithms)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
