"""Source-level invariants of the engine, checked with stdlib ``ast``.

The paper's cost results are comparison counts: every dominance test is
charged to a ``VirtualClock`` (``clock-discipline``), and the deterministic
core reads no wall clock and no unseeded RNG (``determinism``).  Four more
checks guard the serving loop, failure reporting, the public surface and the
one-process executor.  Each is a function from a parsed module to offending
lines, scoped by ``SCOPES`` and exercised by ``FIXTURES``; a line correct as
written carries ``# repro: allow[<rule>] — <reason>``.  ``RETIRED`` lists
names deleted on purpose, with the paths they must not come back to.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import Iterator

import pytest

from repro.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SOURCES = sorted(SRC.rglob("*.py"))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def called(call: ast.Call) -> str | None:
    """Last segment of the called name: ``a.b.c()`` -> ``"c"``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def targets(node: ast.AST) -> list[ast.expr]:
    """Assignment targets of ``node`` (none when it is no assignment)."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []


def own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope`` itself: nested ``def`` bodies are their own scope."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCS):
            stack.extend(ast.iter_child_nodes(node))


def import_bindings(tree: ast.Module) -> dict[str, str]:
    """Local name -> the module path an import binds it to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                bound[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def resolved(call: ast.Call, bindings: dict[str, str]) -> str | None:
    """The called name, its first segment resolved through the imports:
    ``t.time()`` after ``import time as t`` is ``"time.time"``."""
    name = dotted(call.func)
    if name is None:
        return None
    head, dot, rest = name.partition(".")
    return bindings.get(head, head) + dot + rest


# --- determinism: virtual time only, injected seeded RNGs, no id() ordering ---
WALL_CLOCKS = {f"time.{name}{ns}" for name in ("time", "monotonic", "perf_counter")
               for ns in ("", "_ns")}
CALENDAR_CLOCKS = (".datetime.now", ".datetime.utcnow", ".datetime.today", ".date.today")
RNG_CONSTRUCTORS = {"default_rng", "Random", "RandomState"}


def determinism(tree: ast.Module, path: str) -> Iterator[int]:
    """Wall/calendar clock reads, calls into the global ``random`` and
    ``numpy.random`` modules, any RNG construction (a seed is a claim to
    document with a marker) and ``id()``."""
    bindings = import_bindings(tree)
    for node in ast.walk(tree):
        name = resolved(node, bindings) if isinstance(node, ast.Call) else None
        if name is not None and (
            name in WALL_CLOCKS
            or f".{name}".endswith(CALENDAR_CLOCKS)
            or name.startswith(("random.", "numpy.random."))
            or name.rsplit(".", 1)[-1] in RNG_CONSTRUCTORS
            or name == "id"
        ):
            yield node.lineno


# --- clock-discipline: no free dominance comparisons ---
COMPARISONS = {"dominates", "weakly_dominates", "dominates_matrix"}
ACCOUNTING_PARAMETERS = {"clock", "on_comparison", "on_comparisons", "charge", "charger"}
ACCOUNTING_CALLS = {"charge", "_charge", "charger", "on_comparison", "on_comparisons"}


def clock_discipline(tree: ast.Module, path: str) -> Iterator[int]:
    """Dominance-kernel calls outside a function that takes an accounting
    parameter or charges a clock; at module level nothing is charged."""
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCS))]:
        calls = [n for n in own_nodes(scope) if isinstance(n, ast.Call)]
        if isinstance(scope, FUNCS):
            args = scope.args
            params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
            if params & ACCOUNTING_PARAMETERS or {called(c) for c in calls} & ACCOUNTING_CALLS:
                continue
        yield from (c.lineno for c in calls if called(c) in COMPARISONS)


# --- async-hygiene: nothing blocks the event loop, no coroutine is dropped ---
BLOCKING = {
    "time.sleep", "sqlite3.connect", "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen", "requests.get", "requests.post", "requests.request",
    "subprocess.run", "subprocess.call", "subprocess.check_call", "subprocess.check_output",
    "subprocess.Popen", "os.system", "os.waitpid", "open", "input",
}


def async_hygiene(tree: ast.Module, path: str) -> Iterator[int]:
    """Blocking calls inside an ``async def``, and same-module coroutines
    called as bare statements (built, never awaited, so never run)."""
    bindings = import_bindings(tree)
    coroutines = {n.name for n in ast.walk(tree) if isinstance(n, ast.AsyncFunctionDef)}
    for func in ast.walk(tree):
        for node in own_nodes(func) if isinstance(func, ast.AsyncFunctionDef) else ():
            name = (resolved(node, bindings) or "") if isinstance(node, ast.Call) else ""
            if name in BLOCKING or any(name.endswith(f".{b}") for b in BLOCKING if "." in b):
                yield node.lineno
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                target = dotted(node.value.func) or ""
                if target.removeprefix("self.").removeprefix("cls.") in coroutines:
                    yield node.lineno


# --- error-handling: a broad handler re-raises or records the failure ---
BROAD = {"Exception", "BaseException"}
RECORDING_CALLS = ("fail", "retire", "abort", "error", "terminate", "record", "finish",
                   "close", "log", "warning", "exception")
RECORDING_ATTRIBUTES = {"state", "stop_reason", "error", "failed", "aborted", "last_error"}


def _is_broad(node: ast.expr) -> bool:
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    return any((dotted(e) or "").rsplit(".", 1)[-1] in BROAD for e in exprs)


def _is_honest(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        or (isinstance(node, ast.Call)
            and any(m in (called(node) or "").lower() for m in RECORDING_CALLS))
        or any(getattr(t, "attr", None) in RECORDING_ATTRIBUTES for t in targets(node))
        for node in ast.walk(handler)
    )


def error_handling(tree: ast.Module, path: str) -> Iterator[int]:
    """Bare or broad ``except`` that neither re-raises nor records a terminal
    state, and ``suppress(Exception)`` anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and not _is_honest(node) and (
            node.type is None or _is_broad(node.type)
        ):
            yield node.lineno
        if isinstance(node, ast.Call) and called(node) == "suppress" and any(
            _is_broad(arg) for arg in node.args
        ):
            yield node.lineno


# --- export-consistency: __all__ and the real surface agree ---
def _toplevel(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-level statements, inside top-level ``if``/``try`` guards too."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            stack += [*stmt.body, *stmt.orelse, *getattr(stmt, "finalbody", [])]
            stack += [s for h in getattr(stmt, "handlers", []) for s in h.body]


def export_consistency(tree: ast.Module, path: str) -> Iterator[int]:
    """A package ``__init__`` declares a literal, duplicate-free ``__all__``
    naming every public re-export; every ``__all__`` entry resolves."""
    init = path.endswith("__init__.py")
    declared = next((
        stmt for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and any(getattr(t, "id", None) == "__all__" for t in targets(stmt))
    ), None)
    if declared is None:
        yield from [1] if init else []
        return
    value = declared.value
    elts = value.elts if isinstance(value, (ast.List, ast.Tuple)) else [None]
    if not all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts):
        yield declared.lineno
        return
    names = [e.value for e in elts]
    defined, reexports, star = set(), {}, False
    for stmt in _toplevel(tree):
        if isinstance(stmt, (*FUNCS, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Import):
            defined |= {a.asname or a.name.split(".")[0] for a in stmt.names}
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                star |= alias.name == "*"
                local = alias.asname or alias.name
                defined.add(local)
                if not local.startswith("_") and alias.name != "*":
                    reexports[local] = stmt.lineno
        defined |= {n.id for t in targets(stmt) for n in ast.walk(t) if isinstance(n, ast.Name)}
    if len(set(names)) < len(names) or (not star and set(names) - defined):
        yield declared.lineno
    if init:
        yield from (line for name, line in reexports.items() if name not in names)


# --- process-pool: execution is one in-process kernel ---
def process_pool(tree: ast.Module, path: str) -> Iterator[int]:
    """Imports of ``multiprocessing`` or of a process-pool executor."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if "ProcessPoolExecutor" in names or any(
                n.split(".")[0] == "multiprocessing" for n in names
            ):
                yield node.lineno


SCOPES = {
    determinism: ("repro/core/", "repro/skyline/", "repro/query/", "repro/cache/",
                  "repro/data/", "repro/storage/"),
    clock_discipline: ("repro/core/", "repro/skyline/", "repro/join/"),
    async_hygiene: ("repro/serve/", "repro/session/scheduler.py"),
    error_handling: ("repro/",),
    export_consistency: ("repro/",),
    process_pool: ("repro/",),
}


def violations(path: str, source: str) -> list[tuple[str, int]]:
    """``(rule, line)`` for every unexempted violation in one module, whose
    package path (``repro/core/kernel.py``) is ``path``."""
    tree, lines = ast.parse(source), source.splitlines()
    found = []
    for check, scope in SCOPES.items():
        rule = check.__name__.replace("_", "-")
        if path.startswith(scope):
            found += [
                (rule, line) for line in sorted(set(check(tree, path)))
                if f"# repro: allow[{rule}] — " not in lines[line - 1]
            ]
    return found


def test_src_keeps_every_invariant():
    assert len(SOURCES) > 50
    found = [
        f"{path}:{line}: {rule}"
        for path in SOURCES
        for rule, line in violations(path.relative_to(SRC).as_posix(), path.read_text())
    ]
    assert found == []


# --- retired names: (pattern, paths) that must match no line ---
#: Names of the deleted planner estimates, EXPLAIN estimate report and
#: run trace, word-bounded so survivors that contain them stay legal.
PLANNER_ESTIMATE_NAMES = (
    "PlanEstimates", "explain_estimates", "PlanningReport", "EstimateRow",
    "record_run_actuals", "record_plan_actuals", "join_cardinality",
    "partition_fanout", "mean_abs_correlation", "fold_moments", "key_ndv",
    "fraction_below", "estimated_bytes", "ExecutionTrace", "TraceEvent",
)
ONE_PLANNER_RULE = r"\b(?:" + "|".join(PLANNER_ESTIMATE_NAMES) + r")\b"
#: The CLI demos that duplicated ``Session``/``repro serve`` (``interleave``,
#: ``run --follow``) and the public names only tests called: query
#: rendering, the harmonic estimator, ``crossover_time`` and the cache's
#: second and third lookup paths beside ``get_or_partition_outcome``.
CLI_AND_API_REACH = (
    r"_cmd_interleave|_run_follow|arrival.chunks|render_query|def harmonic\b"
    r"|expected_maxima_harmonic|crossover_time|get_or_partition\(|get_or_build"
    r"|def get\(self, key"
)
#: The pluggable algorithm registry, its per-session copies and the
#: signature sniffing behind them, and the second config → engine path:
#: no product surface registered an algorithm.
ONE_ALGORITHM_TABLE = (
    r"AlgorithmRegistry|RegistryView|default_registry|populate_registry"
    r"|register_algorithm|_accepts_keyword|_accepts_cache|def from_config\b"
)

RETIRED = [
    # Phase 2 has one implementation: the scalar path is gone.
    ("use_vectorized", ("src/",)),
    # One in-process executor: no process pool without a hygiene check of its own.
    (r"repro\.parallel|ShardedKernel|multiprocessing", ("src/",)),
    # One query handle (ResultStream) and one kernel driver (step); `def drain\(`
    # spares ExecutionState.drain_emissions/drain_discarded, emission buffers.
    (r"class ScheduledQuery|def drain\(", ("src/repro/core", "src/repro/session/scheduler.py")),
    # No virtual-time knob search in the planner: a search fitted to virtual-clock
    # charges picked plans several times slower in wall time (docs/planning.md).
    (r"GRANULARITY_CANDIDATES|BATCH_SIZE_CANDIDATES|def plan_cost|calibrated_scan_costs",
     ("src/",)),
    # One flush size: a region's join flushes FLUSH_PAIRS pairs at a time
    # (core/tuple_level.py).  Storage scan chunking keeps its own batch_size.
    ("batch_size", ("src/repro/core", "src/repro/session", "src/repro/planner", "src/repro/serve")),
    # One scheduling rule (fair share, bounded bursts, a starvation bound): no
    # policies, presets or config object, no cache-aware admission and no
    # per-dispatch log; none had a served workload of its own.
    (r"SchedulerConfig|SCHEDULER_PRESETS|SCHEDULING_POLICIES|cache_aware_admission"
     r"|InterleaveRecorder|def peek_rank|table_footprint", ("src/",)),
    # Two storage backends and one filter path: no SQLite, no push-down choice;
    # no e2e workload ever ran over SQLite, so its push-down never earned a knob.
    (r"SQLiteSource|apply_filters|filter_strategy|sqlite:", ("src/",)),
    # One push-through switch (the algorithm name) and one skyline kernel
    # (skyline_order): no scalar SFS, no all-pairs mask, no LS(S) in pruning,
    # no config field or preset beside the variant name.
    (r"sfs_skyline|pareto_mask|vectorized_skyline|dominated_mask|dominating_mask"
     r"|source_skyline|variant_kwargs|progressive-plus", ("src/",)),
    # ProgCount reads RegCount and the cone's pending count: no region table
    # to look feeders up in.
    ("regions_by_id", ("src/",)),
    # One join signature, the exact histogram, so every region is known to
    # join.  Bloom signatures never cut peak RSS by 25 % at 1.25x the wall
    # time (100k rows per side, docs/planning.md), and the low-memory preset
    # used more memory than the default.
    (r"BloomFilter|BloomSignature|signature_kind|bloom_bits|bloom_hashes|low-memory"
     r"|SIGNATURE_KINDS|JoinSignature|definitely_shares", ("src/",)),
    # One pool test (skyline.vectorized.dominated_by_any, NaN never dominates
    # or falls) and one sign rule (ParetoPreference.signs_for): no grid-side
    # copies and no normalise family ...
    (r"dominates_point|dominated_points|_POINT_LANES|DEFAULT_BLOCK|_EARLIER"
     r"|denormalise|normalise_batch|def normalise|def signs\(|def index_of"
     r"|_dim_sign|def flip\(|def directions\b|_directions\b", ("src/",)),
    # ... no per-caller sign expression ...
    (r"LOWEST\"? else -1", ("src/repro/query", "src/repro/baselines", "src/repro/core")),
    # ... and no third scalar classifier beside dominates/weakly_dominates
    # (Session.compare stays, so this row is scoped to the skyline package).
    (r"\bcompare\b|\bDominance\b", ("src/repro/skyline",)),
    # The planner is one rule (histogram skew picks the partitioner): no cost
    # model, no estimate-vs-actual report and no statistics only it read.
    # Its fanout, region and skyline-size estimates were off by 78-85 % on
    # `repro explain -n 400 -D anticorrelated`, and no decision read them.
    (ONE_PLANNER_RULE, ("src/",)),
    # What no product surface ran: `repro serve` interleaves queries and runs
    # follow queries through the same scheduler, and the rest had only tests
    # for callers (benchmarks/reach.py).
    (CLI_AND_API_REACH, ("src/",)),
    # The paper's eight algorithms are one table (core/variants.py), read
    # through one lookup by Session, the CLI, serve and compare_algorithms.
    (ONE_ALGORITHM_TABLE, ("src/",)),
]


@pytest.mark.parametrize("pattern, paths", RETIRED, ids=[
    "scalar-path", "process-pool", "second-driver", "knob-search", "batch-size",
    "one-scheduler", "one-filter-path", "one-pushthrough-switch",
    "progcount-from-counters", "one-join-signature", "one-dominance-home-helpers",
    "one-dominance-home-signs", "one-dominance-home-compare", "one-planner-rule",
    "cli-and-api-reach", "one-algorithm-table"])
def test_retired_name_stays_gone(pattern, paths):
    roots = [REPO / p for p in paths]
    files = [f for r in roots for f in ([r] if r.is_file() else sorted(r.rglob("*.py")))]
    assert files
    hits = [
        f"{f.relative_to(REPO)}:{n}"
        for f in files
        for n, line in enumerate(f.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert hits == []


@pytest.mark.parametrize("name", PLANNER_ESTIMATE_NAMES)
def test_one_planner_rule_row_catches_each_name(name):
    assert re.search(ONE_PLANNER_RULE, f"    return repro.{name}(bound)")


@pytest.mark.parametrize("survivor", [
    "empirical_selectivity", "expected_skyline_size", "planner.decide",
    "my_key_ndv_cache", "fraction_below_zero",
])
def test_one_planner_rule_row_spares_survivors(survivor):
    assert not re.search(ONE_PLANNER_RULE, f"    value = {survivor}(rows)")


@pytest.mark.parametrize("line", [
    "def _cmd_interleave(args: argparse.Namespace) -> int:",
    "        return _run_follow(session, name, workload, args)",
    "    chunks = args.arrival_chunks",
    '        "--arrival-chunks", type=int, default=4,',
    "from repro.query.render import render_query",
    "def harmonic(n: int) -> float:",
    "    row = [expected_maxima_harmonic(k, d) for k in range(n + 1)]",
    "from repro.runtime.plots import ascii_curve, crossover_time",
    "        grid, hit = cache.get_or_partition(",
    "        grid, hit = store.get_or_build(key, builder)",
    "    def get(self, key: PartitionKey):",
])
def test_cli_and_api_reach_row_catches_each_name(line):
    assert re.search(CLI_AND_API_REACH, line)


@pytest.mark.parametrize("line", [
    "    grid, outcome, delta_rows = cache.get_or_partition_outcome(",
    "    return expected_skyline_size(region.expected_join, dimensions)",
    "from repro.runtime.plots import ascii_curve",
    "from one :class:`~repro.session.service.Session` and interleaves their",
    "            print(query.name, result.outputs)   # interleaved, provably final",
])
def test_cli_and_api_reach_row_spares_survivors(line):
    assert not re.search(CLI_AND_API_REACH, line)


@pytest.mark.parametrize("line", [
    "from repro.session.registry import AlgorithmRegistry",
    "ALGORITHMS = RegistryView(_default_registry)",
    "        registry = default_registry().copy()",
    "def populate_registry(registry):",
    '        session.register_algorithm("Mine", factory)',
    '    if not _accepts_keyword(factory, "follow"):',
    "    if share and _accepts_cache(factory):",
    "    def from_config(",
])
def test_one_algorithm_table_row_catches_each_name(line):
    assert re.search(ONE_ALGORITHM_TABLE, line)


@pytest.mark.parametrize("line", [
    "from repro.errors import RegistryError, ReproError",
    "    raise RegistryError(f\"unknown algorithm {name!r}\")",
    "from repro.core.variants import ALGORITHMS, ALGORITHM_TABLE, lookup_algorithm",
    "    config = EngineConfig.preset(config)",
])
def test_one_algorithm_table_row_spares_survivors(line):
    assert not re.search(ONE_ALGORITHM_TABLE, line)


def test_the_lint_subcommand_and_its_package_are_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["lint"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".analysis", "repro")


CLOCK, DET, ASYNC = "clock-discipline", "determinism", "async-hygiene"
ERR, EXP, POOL = "error-handling", "export-consistency", "process-pool"
DOM = "from repro.skyline.dominance import dominates\n"
FREE = DOM + "def f(u, v): return dominates(u, v)"
TIMED = "import time\nx = time.time(){}"
TRY = "try: step()\nexcept {}: {}"
INIT, IMPL = "widgets/__init__.py", "from repro.widgets.impl import thing\n"
ASYNC_OK = ("import asyncio\nasync def g(): pass\n"
            "async def f(): await asyncio.sleep(0); await g(); return asyncio.create_task(g())")
EXP_OK = ("from repro.widgets.impl import thing as _thing, other\nCONSTANT = 3\n"
          "def helper(): return _thing\n__all__ = ['CONSTANT', 'helper', 'other']")

FIXTURES = {  # id: (path under repro/, source, the rules that fire, in order)
    "clock-free-call": ("skyline/m.py", FREE, [CLOCK]),
    "clock-module-level": ("join/m.py", DOM + "x = dominates((1.0,), (2.0,))", [CLOCK]),
    "clock-callback-clean":
        ("skyline/m.py", DOM + "def f(u, v, on_comparison): return dominates(u, v)", []),
    "clock-charged-clean":
        ("core/m.py", DOM + "def f(s, u, v): s.clock.charge('c'); return dominates(u, v)", []),
    "clock-out-of-scope": ("serve/m.py", FREE, []),
    "det-wall-clock": ("core/m.py", "import time\ndef f(): return time.perf_counter()", [DET]),
    "det-unseeded-rng": ("cache/m.py", "import numpy as np\nnp.random.default_rng()", [DET]),
    "det-global-random-and-id":
        ("query/m.py", "import random\nrandom.shuffle(xs)\nid(xs)", [DET, DET]),
    "det-alias-from-time": ("core/m.py", "from time import perf_counter\nperf_counter()", [DET]),
    "det-alias-import-as": ("core/m.py", "import time as t\nt.time()", [DET]),
    "det-alias-datetime": ("core/m.py", "from datetime import datetime as dt\ndt.now()", [DET]),
    "det-alias-from-random": ("core/m.py", "from random import shuffle\nshuffle(xs)", [DET]),
    "det-numpy-global-rng": ("core/m.py", "import numpy as np\nnp.random.rand(3)", [DET]),
    "det-marked-seeded-rng-clean":
        ("data/m.py", "import random\nrandom.Random(7)  # repro: allow[determinism] — seed", []),
    "det-injected-rng-clean": ("core/m.py", "def f(rng, t): return rng.random(), t.time()", []),
    "det-out-of-scope": ("serve/m.py", "import time\ndef f(): return time.time()", []),
    "async-blocking-call": ("serve/m.py", "import time\nasync def f(): time.sleep(1)", [ASYNC]),
    "async-blocking-alias":
        ("serve/m.py", "from time import sleep\nasync def f(): sleep(1)", [ASYNC]),
    "async-dropped-coroutine":
        ("session/scheduler.py", "async def g(): pass\nasync def f(self): self.g()", [ASYNC]),
    "async-clean": ("serve/m.py", ASYNC_OK, []),
    "async-sync-def-may-block": ("serve/m.py", "import time\ndef f(): time.sleep(1)", []),
    "err-swallowed": ("session/m.py", TRY.format("Exception", "pass"), [ERR]),
    "err-bare": ("m.py", "try: step()\nexcept: pass", [ERR]),
    "err-swallowed-in-tuple": ("m.py", TRY.format("(KeyError, BaseException)", "pass"), [ERR]),
    "err-broad-suppress":
        ("serve/m.py", "import contextlib\nwith contextlib.suppress(Exception): step()", [ERR]),
    "err-reraise-clean": ("session/m.py", TRY.format("Exception", "retire(); raise"), []),
    "err-recorded-clean": ("session/m.py", TRY.format("Exception as e", "q.error = e"), []),
    "err-narrow-clean": ("session/m.py", TRY.format("(ValueError, KeyError)", "pass"), []),
    "exp-missing-all": (INIT, IMPL, [EXP]),
    "exp-unresolved-entry": (INIT, IMPL + "__all__ = ['thing', 'gone']", [EXP]),
    "exp-duplicate-entry": (INIT, IMPL + "__all__ = ['thing', 'thing']", [EXP]),
    "exp-undeclared-reexport": (INIT, IMPL + "from x import other\n__all__ = ['thing']", [EXP]),
    "exp-non-literal": (INIT, IMPL + "__all__ = [n for n in ('thing',)]", [EXP]),
    "exp-consistent-clean": (INIT, EXP_OK, []),
    "exp-plain-module-clean": ("widgets/impl.py", "def thing(): return 1", []),
    "pool-import": ("m.py", "import multiprocessing.pool", [POOL]),
    "pool-executor": ("m.py", "from concurrent.futures import ProcessPoolExecutor", [POOL]),
    "pool-threads-clean": ("m.py", "from concurrent.futures import ThreadPoolExecutor", []),
    "allow-with-reason": ("core/m.py", TIMED.format("  # repro: allow[determinism] — ok"), []),
    "allow-without-reason": ("core/m.py", TIMED.format("  # repro: allow[determinism]"), [DET]),
    "allow-other-rule": ("core/m.py", TIMED.format("  # repro: allow[process-pool] — x"), [DET]),
}


@pytest.mark.parametrize("path, source, fired", FIXTURES.values(), ids=FIXTURES)
def test_fixture(path, source, fired):
    assert [rule for rule, _ in violations(f"repro/{path}", source)] == fired
