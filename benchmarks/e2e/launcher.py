"""Server lifecycle for the served workloads.

The server under test always runs as a **separate process**: it executes
``scheduler.tick()`` on its event loop, so sharing an interpreter lock with
the load generator would charge the generator's work to the server.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from benchmarks.e2e import ROOT, SRC
from repro.storage.sources.columnar import write_columnar

_READY = re.compile(rb"repro serving on http://[^:]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
#: Seconds to wait for the readiness line, and for a graceful shutdown.
READY_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    """The server could not be started, or died; the message carries its
    captured stderr, ``records`` the queries attempted until then."""

    def __init__(self, message: str, records: Sequence = ()) -> None:
        super().__init__(message)
        self.records = list(records)


def write_tables(tables, storage: str, directory: Path) -> list[str]:
    """Write the input tables; returns the server's ``--table`` arguments."""
    specs = []
    for alias, table in tables.items():
        if storage == "columnar":
            path = directory / f"{alias}.col"
            write_columnar(path, table)
            specs.append(f"{alias}=columnar:{path}")
        else:
            path = directory / f"{alias}.csv"
            table.to_csv(path)
            specs.append(f"{alias}={path}")
    return specs


class ServerProcess:
    """One ``repro serve`` subprocess on a free loopback port.

    ``trace_out`` starts it through :mod:`benchmarks.e2e.traced_serve`
    instead, which wraps the layers' public callables and dumps the spans
    to that path once the server has shut down.  ``cpu`` pins the server
    to that core (see :mod:`benchmarks.e2e.speed`).
    """

    def __init__(
        self,
        table_specs: list[str],
        directory: Path,
        *,
        trace_out: Path | None = None,
        cpu: int | None = None,
    ) -> None:
        serve = ["serve", "--port", "0"]
        for spec in table_specs:
            serve += ["--table", spec]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [
                sys.executable, "-m", "benchmarks.e2e.traced_serve",
                "--trace-out", str(trace_out), *serve,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        # The program's own scratch files (the planner's scan calibration)
        # stay inside the run's directory, like everything else written here.
        env["TMPDIR"] = str(directory)
        self._stderr_path = directory / "server.stderr"
        self._children_before = _children_usage()
        with open(self._stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr,
            )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        """Parse the port from the readiness line, or fail with stderr."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen = b""
        fd = self.proc.stdout.fileno()
        while True:
            match = _READY.search(seen)
            if match:
                return int(match.group(1))
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.kill()
                raise ServerError(
                    f"server not ready within {READY_TIMEOUT_S:g}s "
                    f"(exit code {self.proc.returncode}); stdout: "
                    f"{seen.decode(errors='replace')!r}; stderr: {self.stderr()!r}"
                )
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                seen += os.read(fd, 4096)

    def stderr(self) -> str:
        return self._stderr_path.read_text(errors="replace")[-4000:]

    # ------------------------------------------------------------------
    # resource sampling
    # ------------------------------------------------------------------
    def cpu_seconds(self) -> float | None:
        """utime + stime of the server so far, from ``/proc``; ``None``
        where ``/proc`` is missing (see :meth:`stop` for the fallback)."""
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return None
        # The command name may hold spaces; fields are counted after it.
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float | None:
        """The server's resident-set high-water mark (``VmHWM``)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024 if match else None

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def stop(self) -> tuple[float, float]:
        """Graceful ``POST /shutdown``, then kill on timeout.

        Returns the portable fallback figures — ``(cpu_seconds,
        peak_rss_mb)`` of the whole server life from
        ``resource.getrusage(RUSAGE_CHILDREN)`` — for platforms where the
        ``/proc`` samples are unavailable.
        """
        if self.proc.poll() is None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("POST", "/shutdown")
                conn.getresponse().read()
                conn.close()
            except OSError:
                pass
            try:
                self.proc.wait(SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()
        cpu, rss = _children_usage()
        return cpu - self._children_before[0], rss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def stats(self) -> dict:
        """``GET /stats`` (also the traced server's window marker)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()


def _children_usage() -> tuple[float, float]:
    """(cpu seconds, max RSS in MiB) over all waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, max_rss_mb(usage)


def max_rss_mb(usage) -> float:
    """``ru_maxrss`` in MiB: KiB on Linux, bytes on macOS."""
    return usage.ru_maxrss / (1024 * 1024 if sys.platform == "darwin" else 1024)
