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
    it progressively against CSV tables or columnar sources.

``generate``
    Write a synthetic workload's two tables to CSV files or columnar
    directories.

``explain``
    Show the ProgXe plan for a workload, and the partitioner the ``auto``
    planner picks for it, without executing it.

``serve``
    Start the streaming HTTP server
    (:class:`~repro.serve.app.QueryServer`): clients POST queries to
    ``/query`` and receive NDJSON/SSE result frames the moment the
    interleaved engine emits them, under admission control and per-client
    backpressure.  Concurrent queries and follow queries (``"follow":
    true``, streaming ingestion) run here or through the ``Session`` API.

``algorithms``
    List the paper's eight algorithms, the names ``-a`` takes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.variants import ALGORITHM_TABLE, lookup_algorithm
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


def _algorithm_names(spec: str) -> list[str]:
    if spec == "all":
        return list(ALGORITHM_TABLE)
    if spec == "variants":
        return [e.name for e in ALGORITHM_TABLE.values() if e.configurable]
    names = []
    for name in spec.split(","):
        try:
            names.append(lookup_algorithm(name.strip()).name)
        except RegistryError as exc:
            raise SystemExit(str(exc)) from None
    return names


def _cmd_run(args: argparse.Namespace) -> int:
    session = _session(args)
    [name] = _one_algorithm(args.algorithm)
    workload = _workload(args)
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


def _one_algorithm(spec: str, command: str = "run") -> list[str]:
    names = _algorithm_names(spec)
    if len(names) != 1:
        raise SystemExit(
            f"{command} takes exactly one algorithm; use compare for several"
        )
    return names


def _cmd_compare(args: argparse.Namespace) -> int:
    session = _session(args)
    names = _algorithm_names(args.algorithms)
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
    [name] = _one_algorithm(args.algorithm, command="query")
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
    from repro.core.explain import explain

    print(explain(_workload(args).bound()).render(top=args.top))
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
    print(f"{'name':<22}{'configurable':<14}description")
    for entry in ALGORITHM_TABLE.values():
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
        help="show the ProgXe plan and the partitioner the auto planner "
        "picks, without executing",
    )
    _add_workload_args(p_explain)
    p_explain.add_argument("--top", type=int, default=10,
                           help="regions to list, by rank")
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
