"""Run one workload: set-up, warm-up, the measured window, the checks.

Two kinds of run share this module.  The **untraced** run sets up
``SETUPS`` times (reporting the median as ``setup_s``), measures what a
client sees on the last server and yields the end-to-end metrics.  The
**traced** run first measures a short untraced reference window, then a
window against a server started through ``traced_serve`` and yields the
per-layer metrics; nothing end-to-end is ever read from a traced process.

The process under test owns one core and the load generator the rest; every
duration is divided by the speed that core showed while it was measured
(:mod:`benchmarks.e2e.speed`).
"""

from __future__ import annotations

import asyncio
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e import trace as tracing
from benchmarks.e2e.client import QueryRecord, closed_loop
from benchmarks.e2e.ingest import follow_session
from benchmarks.e2e.launcher import ServerError, ServerProcess, max_rss_mb, write_tables
from benchmarks.e2e.metrics import end_to_end, passed, percentile
from benchmarks.e2e.oracle import reference_keys
from benchmarks.e2e.speed import SpeedMeter, pin, split_cpus
from benchmarks.e2e.workloads import LEFT, RIGHT, Workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of a traced run's seconds spent on the untraced reference window.
REFERENCE_SHARE = 0.3
#: The measured window may overrun ``--seconds`` by this much (the last
#: queries finishing) before the in-flight ones are recorded as failures.
WINDOW_GRACE_S = 60.0
#: Rows of the warm-up follow session, as a divisor of the workload's rows.
INGEST_WARMUP_DIVISOR = 8

WORK = Path(__file__).resolve().parent / ".work"


@dataclass
class Window:
    """One measured window and what was sampled around it."""

    records: list[QueryRecord]
    #: Wall seconds of the window, calibration pauses taken out.
    window_s: float
    cpu_s: float
    peak_rss_mb: float
    #: How many times slower than the reference the measured core ran.
    speed: float = 1.0
    layers: tracing.LayerTotals | None = None


@dataclass
class Outcome:
    """The result of one run of one workload."""

    workload: str
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Sample count behind each per-query median / percentile.
    samples: int
    failures: list[str] = field(default_factory=list)
    #: Results per query spec: must repeat exactly between runs of one seed.
    result_counts: dict[str, int] = field(default_factory=dict)
    #: Speed factor the window's durations were divided by.
    speed: float = math.nan

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def run(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    max_queries: int | None = None,
) -> Outcome:
    """Run ``workload`` once and check every measured query against the oracle."""
    workdir = WORK / f"{workload.name}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    cpu, home = split_cpus()
    try:
        tables = workload.tables(seed)
        if workload.served:
            pin(home)  # the server gets ``cpu`` when it starts
            driver = _Served(workload, tables, workdir, cpu, home)
        else:
            pin(None if cpu is None else {cpu})  # the engine runs in this process
            driver = _InProcess(workload, tables)
        if traced:
            reference = driver.window(seconds * REFERENCE_SHARE, max_queries)
            window = driver.window(seconds * (1 - REFERENCE_SHARE), max_queries, traced=True)
            records = reference.records + window.records
            metrics = layer_metrics(window, reference)
        else:
            setups = [driver.setup_only() for _ in range(SETUPS - 1)]
            window = driver.window(seconds, max_queries)
            records = window.records
            metrics = end_to_end(
                records, window_s=window.window_s, cpu_s=window.cpu_s,
                peak_rss_mb=window.peak_rss_mb, setup_s=setups + [driver.last_setup_s],
                speed=window.speed,
            )
        # The oracle runs after every timed window (and, for ingest-follow,
        # after the resident-set high-water mark was read).
        source = [(tables[a].schema.columns, tables[a].rows) for a in (LEFT, RIGHT)]
        expected = {spec.name: reference_keys(*source, spec) for spec in workload.queries}
        for record in records:
            if record.complete_s is None and not record.failures:
                record.failures.append("wall cap exceeded before the stream completed")
            if not record.failures:
                record.check(expected[record.spec])
    except ServerError as exc:
        # No server, no metrics: what it said on stderr is the result.
        broken = [r for r in exc.records if r.failures or r.complete_s is None]
        return Outcome(
            workload.name, {}, attempted=max(1, len(exc.records)),
            failed=max(1, len(broken)), samples=0, failures=[str(exc)],
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        pin(None if cpu is None else home | {cpu})
    failures = [f"{r.spec}: {why}" for r in records for why in r.failures]
    return Outcome(
        workload.name,
        metrics,
        attempted=len(records),
        failed=sum(1 for r in records if r.failures),
        samples=len(passed(window.records)),
        failures=failures[:10],
        result_counts={r.spec: len(r.keys) for r in passed(records)},
        speed=window.speed,
    )


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
class _Served:
    """Windows against a ``repro serve`` subprocess over loopback."""

    def __init__(self, workload: Workload, tables, workdir: Path, cpu, home) -> None:
        self.workload = workload
        self.tables = tables
        self.workdir = workdir
        self.cpu, self.home = cpu, home
        self.bodies = [(spec.name, spec.body()) for spec in workload.queries]
        self.last_setup_s = math.nan
        self._starts = 0

    def _start(self, traced: bool) -> tuple[ServerProcess, Path | None]:
        """Data write + server start + warm-up; the time is ``setup_s``."""
        meter = SpeedMeter(self.cpu, self.home)
        meter.sample()
        began = time.perf_counter()
        self._starts += 1
        directory = self.workdir / f"server{self._starts}"
        directory.mkdir()
        trace_out = directory / "spans.npz" if traced else None
        server = ServerProcess(
            write_tables(self.tables, self.workload.storage, directory),
            directory, trace_out=trace_out, cpu=self.cpu,
        )
        try:
            # One client walks the rotation once: every query shape has been
            # parsed, planned and partitioned before anything is timed.
            warmup: list[QueryRecord] = []
            asyncio.run(closed_loop(server.port, self.bodies, warmup, clients=1, seconds=0))
            broken = [why for r in warmup for why in r.failures]
            if broken:
                raise ServerError(f"warm-up failed: {broken[:3]}; stderr: {server.stderr()!r}")
        except BaseException:
            server.kill()
            raise
        raw_s = time.perf_counter() - began
        meter.sample()
        self.last_setup_s = raw_s / meter.factor()
        return server, trace_out

    def setup_only(self) -> float:
        server, _ = self._start(traced=False)
        server.stop()
        return self.last_setup_s

    def window(self, seconds: float, max_queries: int | None, traced: bool = False) -> Window:
        server, trace_out = self._start(traced)
        try:
            records: list[QueryRecord] = []
            rss_at_count: list[float | None] = []
            meter = SpeedMeter(self.cpu, self.home)
            meter.sample()

            def between() -> None:
                # The clients have met: the server is idle.
                if not rss_at_count and len(records) >= self.workload.rss_after:
                    rss_at_count.append(server.peak_rss_mb())
                meter.sample()

            if traced:
                server.stats()  # window marker in the traced server
            cpu_before = server.cpu_seconds()
            began, paused = time.perf_counter(), meter.spent_s
            asyncio.run(self._drive(server.port, records, seconds, max_queries, between))
            window_s = time.perf_counter() - began - (meter.spent_s - paused)
            if server.proc.poll() is not None or any(
                r.status is None and r.failures for r in records
            ):
                server.kill()
                raise ServerError(
                    "server stopped answering during the measured window (exit "
                    f"code {server.proc.returncode}); stderr: {server.stderr()!r}",
                    records,
                )
            cpu_after = server.cpu_seconds()
            peak_rss_mb = rss_at_count[0] if rss_at_count else server.peak_rss_mb()
            if traced:
                server.stats()
        except BaseException:
            server.kill()
            raise
        whole_life_cpu, whole_life_rss = server.stop()
        if cpu_after is None:  # no /proc: charge the server's whole life
            cpu_s, peak_rss_mb = whole_life_cpu, whole_life_rss
        else:
            cpu_s = cpu_after - cpu_before
        layers = tracing.totals(tracing.load(trace_out)) if traced else None
        return Window(records, window_s, cpu_s, peak_rss_mb, meter.factor(), layers)

    async def _drive(self, port, records, seconds, max_queries, between) -> None:
        try:
            await asyncio.wait_for(
                closed_loop(
                    port, self.bodies, records, clients=self.workload.clients,
                    seconds=seconds, max_queries=max_queries, between=between,
                ),
                timeout=seconds + WINDOW_GRACE_S,
            )
        except asyncio.TimeoutError:
            pass  # the incomplete records are counted as failures by run()


# ----------------------------------------------------------------------
# ingest-follow
# ----------------------------------------------------------------------
class _InProcess:
    """Windows of follow sessions in the benchmark's own process."""

    def __init__(self, workload: Workload, tables) -> None:
        self.workload = workload
        self.tables = tables
        self.last_setup_s = math.nan

    def setup_only(self) -> float:
        """A small follow session: imports done, numpy and the engine's
        code paths warm.  Sessions share no state, so nothing else can move
        into set-up."""
        meter = SpeedMeter()
        meter.sample()
        began = time.perf_counter()
        warmup = follow_session(
            self.tables, self.workload, self.workload.n // INGEST_WARMUP_DIVISOR,
            deadline=began + WINDOW_GRACE_S,
        )
        if warmup.failures:
            raise ServerError(f"warm-up session failed: {warmup.failures}")
        raw_s = time.perf_counter() - began
        meter.sample()
        self.last_setup_s = raw_s / meter.factor()
        return self.last_setup_s

    def window(self, seconds: float, max_queries: int | None, traced: bool = False) -> Window:
        self.setup_only()
        tracer = tracing.Tracer()
        meter = SpeedMeter()
        # A span of its own, so that the trace does not report the kernel's
        # CPU time as the engine's unattributed time.
        sample = tracer.span(meter.sample, "benchmark.calibrate") if traced else meter.sample
        if traced:
            tracing.install(tracer)
        try:
            sample()
            tracer.mark()
            records: list[QueryRecord] = []
            cpu_before = time.process_time()
            began, paused, paused_cpu = time.perf_counter(), meter.spent_s, meter.spent_cpu_s
            deadline = began + seconds
            peak_rss_mb = None
            while not records or (
                time.perf_counter() < deadline
                and (max_queries is None or len(records) < max_queries)
            ):
                records.append(follow_session(
                    self.tables, self.workload, self.workload.n,
                    deadline=deadline + WINDOW_GRACE_S,
                ))
                if len(records) == self.workload.rss_after:
                    peak_rss_mb = max_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
                sample()
            window_s = time.perf_counter() - began - (meter.spent_s - paused)
            cpu_s = time.process_time() - cpu_before - (meter.spent_cpu_s - paused_cpu)
            tracer.mark()
        finally:
            tracer.unpatch()
        if peak_rss_mb is None:
            peak_rss_mb = max_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
        layers = tracing.totals(tracer.snapshot()) if traced else None
        return Window(records, window_s, cpu_s, peak_rss_mb, meter.factor(), layers)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Metric suffix -> index into ``LayerTotals.get(name)``.
_FIELDS = {"self_s": 0, "calls": 1, "rows": 2, "bytes": 2, "regions": 2}

#: Span names whose self time / calls / summed value become metrics, with
#: the fields reported for each.
_SPAN_METRICS = {
    "serve.protocol.from_mapping": ("self_s",),
    "serve.admission.try_admit": ("calls",),
    "serve.protocol.frame_build": ("self_s",),
    "serve.protocol.encode_frame": ("self_s", "calls", "bytes"),
    "serve.backpressure.put": ("self_s",),
    "session.scheduler.submit": ("self_s",),
    "session.scheduler.tick": ("self_s", "calls"),
    "query.parser.parse": ("self_s",),
    "query.smj.bind": ("self_s",),
    "query.smj.map_rows_batch": ("self_s", "rows"),
    "query.smj.vectors_of_batch": ("self_s",),
    "query.smj.make_result": ("self_s", "calls"),
    "planner.decide": ("self_s", "calls"),
    "cache.plan_cache.lookup": ("self_s",),
    "storage.scan_batches": ("self_s", "rows"),
    "storage.partition": ("self_s", "rows"),
    "storage.partition_delta": ("self_s", "rows"),
    "storage.fetch_rows": ("self_s", "rows"),
    "storage.column_batch.init": ("self_s", "calls"),
    "storage.append": ("self_s", "rows"),
    "core.plan.build": ("self_s",),
    "core.lookahead": ("self_s", "regions"),
    "core.kernel.step": ("self_s", "calls"),
    "core.progorder.next_region": ("self_s",),
    "core.tuple_level.process_region": ("self_s",),
    "core.output_grid.coords_matrix": ("self_s",),
    "core.output_grid.vector_matrix": ("self_s", "calls"),
    "core.progdetermine.insert_batch": ("self_s", "calls", "rows"),
    "core.progdetermine.emit": ("self_s",),
    "core.streaming.poll_deltas": ("self_s", "calls", "rows"),
    "skyline.vectorized.dominates_matrix": ("self_s", "calls"),
    "skyline.vectorized.skyline_mask": ("self_s", "calls"),
}

#: Counts made by events (summed value per query).
_EVENT_METRICS = {
    "serve.admission.rejected": "serve.admission.rejected",
    "serve.backpressure.pauses": "serve.backpressure.pauses",
    "cache.hits": "cache.hit",
    "cache.misses": "cache.miss",
    "cache.patched": "cache.patched",
    "core.streaming.regions_added": "core.streaming.regions_added",
    "core.streaming.cells_reopened": "core.streaming.cells_reopened",
    "runtime.clock.join_result": "runtime.clock.join_result",
}


def layer_metrics(window: Window, reference: Window) -> dict[str, float]:
    """Per-query means over the traced window, plus the client's view and
    the tracing overhead from the untraced ``reference`` window."""
    layers = window.layers
    queries = max(1, len(passed(window.records)))
    out: dict[str, float] = {}
    for name, fields in _SPAN_METRICS.items():
        for suffix in fields:
            out[f"{name}.{suffix}"] = layers.get(name)[_FIELDS[suffix]] / queries
    for metric, event in _EVENT_METRICS.items():
        out[metric] = layers.get(event)[2] / queries
    out["session.scheduler.queue_wait_s"] = layers.queue_wait_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookups = sum(layers.get(f"cache.{o}")[2] for o in ("hit", "miss", "patched"))
    out["cache.hit_rate"] = ratio(layers.get("cache.hit")[2], lookups)
    pairs = layers.get("query.smj.map_rows_batch")[2]
    out["core.tuple_level.join_pairs"] = pairs / queries
    out["core.progdetermine.survive_frac"] = ratio(
        layers.get("core.progdetermine.inserted")[2], pairs
    )
    out["core.regions.processed_frac"] = ratio(
        layers.get("core.regions.processed")[2], layers.get("core.regions.total")[2]
    )

    # Exact-repeat counts the program reports itself (the complete frame).
    good = passed(window.records)
    for metric, key in (
        ("runtime.clock.vtime", "vtime"),
        ("runtime.clock.dominance_cmp", "dominance_comparisons"),
        ("runtime.steps", "steps"),
    ):
        out[metric] = statistics.fmean(r.stats[key] for r in good) if good else 0.0

    # The client's view comes from the untraced reference window.
    seen = passed(reference.records)
    for metric, attribute in (
        ("client.connect_s", "connect_s"), ("client.admit_s", "admit_s"),
        ("client.frames", "frames"), ("client.bytes", "bytes"),
    ):
        out[metric] = statistics.fmean((getattr(r, attribute) or 0.0) for r in seen) if seen else 0.0
    out["client.ttfr_s_p90"] = percentile([r.result_times[0] for r in seen if r.result_times], 0.9)
    out["client.ttl_s_p90"] = percentile([r.complete_s for r in seen], 0.9)
    out["client.samples"] = float(len(seen))

    # Durations at the reference machine speed: the client's by the speed
    # of the reference window, the spans' by that of the traced window.
    for metric in out:
        if metric.endswith("_s") or "_s_p" in metric:
            out[metric] /= reference.speed if metric.startswith("client.") else window.speed

    traced_ttl = percentile([r.complete_s for r in good], 0.5) / window.speed
    untraced_ttl = percentile([r.complete_s for r in seen], 0.5) / reference.speed
    out["trace.overhead_frac"] = ratio(traced_ttl, untraced_ttl) - 1.0
    out["trace.unattributed_frac"] = 1.0 - ratio(layers.root_cpu_s, layers.cpu_s)
    return out
