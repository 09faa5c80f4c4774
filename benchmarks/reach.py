"""Reach: which function lines of ``src/repro`` the product surfaces run.

A function of the library is *reached* when some run of a product surface
calls it: the example scripts (``examples/*.py``), the end-to-end benchmark
at smoke scale (``python3 -m benchmarks.e2e --smoke``, served queries
included), CI's paper-figure pytest job and the command line
(``python -m repro``: every subcommand but ``serve``, which the e2e runs
reach).  A unit test does not count.
What no surface reaches is a candidate for deletion, or for a surface run
that reaches it.

Every run gets a ``sitecustomize`` module first on ``PYTHONPATH``.  At
start-up of each Python process — the run itself and every server
subprocess it launches, which inherit the path — it installs a profile
hook (``sys.setprofile`` and ``threading.setprofile``) that logs each
``src/repro`` code object the first time it runs.  A log line is written
when the code object is first seen, so a server that is killed still
leaves its record.

A function's lines are those from its ``def`` to its last line, less the
lines of the functions and classes nested in it, so no line counts twice;
module and class bodies count for nothing.  Usage, from the repository
root (stdlib only; the figure job needs pytest and pytest-benchmark):

    python3 -m benchmarks.reach

To run fewer surfaces, call ``run_surfaces(["examples"])`` and ``table``
from Python.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

HOOK = '''\
import os
import sys
import threading

_root = os.environ["REPRO_REACH_ROOT"]
_log = open(
    os.path.join(os.environ["REPRO_REACH_LOG"], f"{os.getpid()}.log"),
    "a", buffering=1,
)
_seen = set()


def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_root):
            _log.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


sys.setprofile(_profile)
threading.setprofile(_profile)
'''

#: A query over the columnar tables ``generate`` writes, with a filter in
#: its WHERE clause: a filter over a columnar source streams through
#: ``FilteredSource``.
CLI_QUERY = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey AND R.a0 <= 50 "
    "PREFERRING LOWEST(x0) AND LOWEST(x1)"
)

#: The CLI runs, in order (``query`` reads the files ``generate`` wrote).
CLI = [
    ["run", "-n", "200", "--stream"],
    ["compare", "-n", "200", "-a", "ProgXe,JF-SL"],
    ["explain", "-n", "300", "-D", "anticorrelated"],
    ["algorithms"],
    ["generate", "-n", "200", "--prefix", "w", "--format", "csv"],
    ["generate", "-n", "200", "--prefix", "w", "--format", "columnar"],
    ["query", "--query", CLI_QUERY,
     "--table", "R=columnar:w_R.col", "--table", "T=columnar:w_T.col"],
]

#: The product surfaces: name -> argv lists, run from the repository root,
#: but for ``cli``, which runs in a scratch directory of the run.
SURFACES = {
    "examples": [
        [sys.executable, str(script)]
        for script in sorted((ROOT / "examples").glob("*.py"))
    ],
    "e2e": [[sys.executable, "-m", "benchmarks.e2e", "--smoke"]],
    "figures": [[
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        *sorted(
            str(p.relative_to(ROOT))
            for pattern in ("bench_fig*.py", "bench_ablation_*.py", "bench_ext_*.py",
                            "bench_tr_blocking_baselines.py")
            for p in (ROOT / "benchmarks").glob(pattern)
        ),
        "--benchmark-disable",
    ]],
    "cli": [[sys.executable, "-m", "repro", *argv] for argv in CLI],
}


def run_surfaces(names: list[str]) -> set[tuple[str, int]]:
    """Run the named surfaces under the hook; the ``(file, first line)``
    of every ``src/repro`` code object any of their processes ran."""
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        hook, logs = pathlib.Path(tmp, "hook"), pathlib.Path(tmp, "logs")
        work = pathlib.Path(tmp, "work")
        for directory in (hook, logs, work):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env["REPRO_REACH_ROOT"] = str(PACKAGE)
        env["REPRO_REACH_LOG"] = str(logs)
        for name in names:
            for argv in SURFACES[name]:
                print(f"  {name}: {' '.join(argv[1:])}", file=sys.stderr)
                done = subprocess.run(
                    argv, cwd=work if name == "cli" else ROOT, env=env,
                    stdout=subprocess.DEVNULL,
                )
                if done.returncode:
                    sys.exit(f"{name} run failed with exit code {done.returncode}")
        for log in logs.iterdir():
            for line in log.read_text().splitlines():
                path, first = line.rsplit("\t", 1)
                reached.add((path, int(first)))
    return reached


def function_lines(path: pathlib.Path) -> dict[int, int]:
    """Per function of the module, keyed by the first line of its code
    object (its first decorator, else its ``def``): its own line count."""
    spans: dict[int, int] = {}

    def first_line(node) -> int:
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    def visit(node, owner: int | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                span = child.end_lineno - first_line(child) + 1
                if owner is not None:
                    spans[owner] -= span
                if isinstance(child, ast.ClassDef):
                    visit(child, None)
                else:
                    key = first_line(child)
                    spans[key] = child.end_lineno - child.lineno + 1
                    visit(child, key)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return spans


def table(reached: set[tuple[str, int]]) -> list[tuple[str, int, int]]:
    """``(module, function lines, unreached lines)`` per module of the
    package, most unreached first."""
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        spans = function_lines(path)
        unreached = sum(
            n for first, n in spans.items() if (str(path), first) not in reached
        )
        rows.append((path.relative_to(SRC).as_posix(), sum(spans.values()), unreached))
    return sorted(rows, key=lambda row: (-row[2], row[0]))


def main() -> int:
    rows = table(run_surfaces(list(SURFACES)))
    total = sum(row[1] for row in rows)
    unreached = sum(row[2] for row in rows)
    print("| module | function lines | reached | unreached |")
    print("| --- | ---: | ---: | ---: |")
    for module, lines, dead in rows:
        if lines:
            print(f"| `{module}` | {lines} | {lines - dead} | {dead} |")
    share = 100 * unreached / total if total else 0.0
    print(f"| **total** | {total} | {total - unreached} "
          f"| {unreached} ({share:.1f} %) |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
