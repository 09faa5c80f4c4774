"""Layer tracing from outside the program: spans around public callables.

``repro`` has no span API yet (ROADMAP item 4), so the benchmark wraps the
public functions of each layer itself — in the traced server's process via
:mod:`benchmarks.e2e.traced_serve`, in-process for ``ingest-follow``.  A span
is ``(name, start, end, parent, value, qid)``; a layer's **self time** is its
span's duration minus the part its child spans cover.  Spans stay in memory
(parallel typed arrays) and are written out once, when the server has shut
down.  End-to-end numbers never come from a traced process.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter_ns, process_time_ns
from typing import Any, Callable

import numpy as np


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.value = array("d")
        self.qid = array("i")
        #: Window boundaries, set by :meth:`mark`: wall clock, process CPU
        #: clock and CPU spent under top-level spans so far (all ns).
        self.marks = array("q")
        self.mark_cpu = array("q")
        self.mark_root_cpu = array("q")
        self._root_cpu = [0]
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def mark(self) -> None:
        """Record a measurement-window boundary."""
        self.marks.append(perf_counter_ns())
        self.mark_cpu.append(process_time_ns())
        self.mark_root_cpu.append(self._root_cpu[0])

    def event(self, name: str, value: float = 1.0) -> None:
        """A zero-duration span: a count made where the work happens."""
        now = perf_counter_ns()
        self.name.append(self._name_id(name))
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(value)
        self.qid.append(-1)

    def span(
        self,
        fn: Callable,
        name: str,
        *,
        value: Callable[[tuple, Any], float] | None = None,
        after: Callable[[int, tuple, Any], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span.

        ``value(args, result)`` attaches a count (rows, bytes) to the span;
        ``after(index, args, result)`` runs once the span is closed, for
        derived events or to stamp the span's ``qid``.
        """
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, values, qids = self.parent, self.value, self.qid
        stack = self._stack

        root_cpu = self._root_cpu

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            values.append(0.0)
            qids.append(-1)
            ends.append(0)
            # Top-level spans also read the CPU clock, so the share of the
            # process's CPU that no span covers can be stated exactly.
            cpu_before = None if stack else process_time_ns()
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
                if cpu_before is not None:
                    root_cpu[0] += process_time_ns() - cpu_before
            if value is not None:
                values[index] = value(args, result)
            if after is not None:
                after(index, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(
        self, fn: Callable, name: str, *, item_value: Callable[[Any], float] | None = None
    ) -> Callable:
        """Wrap a generator function: one span per resume-to-yield stretch,
        so time the consumer spends between items is not charged to it."""
        nid = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = len(self.start)
                    self.name.append(nid)
                    self.parent.append(stack[-1] if stack else -1)
                    self.value.append(0.0)
                    self.qid.append(-1)
                    self.end.append(0)
                    cpu_before = None if stack else process_time_ns()
                    stack.append(index)
                    self.start.append(perf_counter_ns())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end[index] = perf_counter_ns()
                        stack.pop()
                        if cpu_before is not None:
                            self._root_cpu[0] += process_time_ns() - cpu_before
                    if item_value is not None:
                        self.value[index] = item_value(item)
                    yield item
            finally:
                inner.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, fn: Callable, name: str) -> Callable:
        """Count calls of a very hot callable; its time folds into the parent."""
        event = self.event

        def wrapper(*args, **kwargs):
            event(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def attribute_delta(self, fn: Callable, events: dict[str, str]) -> Callable:
        """After each call, emit ``event`` with the growth of ``self.<attr>``
        for every ``attr -> event`` pair (reads the program's own counters)."""

        def wrapper(obj, *args, **kwargs):
            before = [getattr(obj, attr) for attr in events]
            try:
                return fn(obj, *args, **kwargs)
            finally:
                for (attr, name), was in zip(events.items(), before):
                    grown = getattr(obj, attr) - was
                    if grown:
                        self.event(name, grown)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (``module`` or ``module:Class``) by
        ``make(original)``, remembering the original for :meth:`unpatch`."""
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls)
        original = target.__dict__[attr] if cls else getattr(target, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((target, attr, original))
        setattr(target, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def snapshot(self) -> "Trace":
        return Trace(
            names=sorted(self.names, key=self.names.__getitem__),
            name=np.asarray(self.name, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.int64),
            end=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            value=np.asarray(self.value, dtype=float),
            qid=np.asarray(self.qid, dtype=np.int64),
            marks=np.asarray(self.marks, dtype=np.int64),
            mark_cpu=np.asarray(self.mark_cpu, dtype=np.int64),
            mark_root_cpu=np.asarray(self.mark_root_cpu, dtype=np.int64),
        )

    def dump(self, path) -> None:
        np.savez(path, **{k: np.asarray(v) for k, v in vars(self.snapshot()).items()})


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
#: Callables hot enough (> ~100k calls per query) that a timed span on each
#: call would dominate the traced run: their calls are counted, their time
#: stays in the parent span's self time.
FOLDED = frozenset({"core.output_grid.vector_matrix"})


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer a query crosses."""
    t = tracer

    def span(owner, attr, name, **kw):
        if name in FOLDED:
            t.patch(owner, attr, lambda fn: t.counting(fn, name))
        else:
            t.patch(owner, attr, lambda fn: t.span(fn, name, **kw))

    def rows_of_arg(position):
        return lambda args, result: len(args[position])

    # serve ----------------------------------------------------------------
    span("repro.serve.protocol:QueryRequest", "from_mapping", "serve.protocol.from_mapping")
    span("repro.serve.admission:AdmissionController", "try_admit", "serve.admission.try_admit")
    t.patch(
        "repro.serve.admission:AdmissionController", "try_admit",
        lambda fn: t.attribute_delta(fn, {"rejected_total": "serve.admission.rejected"}),
    )
    for builder in ("accepted", "result", "progress", "error", "complete"):
        span("repro.serve.protocol:FrameFactory", builder, "serve.protocol.frame_build")
    encoded_bytes = lambda args, result: len(result)  # noqa: E731
    span("repro.serve.protocol", "encode_frame", "serve.protocol.encode_frame", value=encoded_bytes)
    span("repro.serve.app", "encode_frame", "serve.protocol.encode_frame", value=encoded_bytes)
    span("repro.serve.backpressure:OutboundChannel", "put", "serve.backpressure.put")
    t.patch(
        "repro.serve.backpressure:OutboundChannel", "put",
        lambda fn: t.attribute_delta(fn, {"pauses": "serve.backpressure.pauses"}),
    )
    # The window marker: the load generator GETs /stats at both ends of the
    # measured window, between ticks, so no span straddles a boundary.
    t.patch("repro.serve.app:QueryServer", "stats", lambda fn: _marking(t, fn))

    # session --------------------------------------------------------------
    def stamp_submit(index, args, handle):
        t.qid[index] = handle.qid

    def stamp_tick(index, args, burst):
        if burst:
            t.qid[index] = burst[0][0].qid

    span("repro.session.scheduler:QueryScheduler", "submit", "session.scheduler.submit", after=stamp_submit)
    span("repro.session.scheduler:QueryScheduler", "tick", "session.scheduler.tick", after=stamp_tick)

    # query ----------------------------------------------------------------
    span("repro.query.parser", "parse_query", "query.parser.parse")
    span("repro.session.service", "parse_query", "query.parser.parse")
    span("repro.query.smj:SkyMapJoinQuery", "bind", "query.smj.bind")
    span("repro.query.smj:BoundQuery", "map_rows_batch", "query.smj.map_rows_batch", value=rows_of_arg(1))
    span("repro.query.smj:BoundQuery", "vectors_of_batch", "query.smj.vectors_of_batch")
    span("repro.query.smj:BoundQuery", "make_result", "query.smj.make_result")

    # planner / cache --------------------------------------------------------
    span("repro.planner.choose:Planner", "decide", "planner.decide")

    def cache_outcome(index, args, result):
        t.event(f"cache.{result[1]}")

    span("repro.cache.plan_cache:PlanCache", "get_or_partition_outcome", "cache.plan_cache.lookup", after=cache_outcome)

    # storage ----------------------------------------------------------------
    for owner in (
        "repro.storage.sources.memory:InMemorySource",
        "repro.storage.sources.columnar:ColumnarFileSource",
    ):
        t.patch(owner, "scan_batches", lambda fn: t.generator_span(fn, "storage.scan_batches", item_value=len))
    for owner in ("repro.storage.grid:GridPartitioner", "repro.storage.quadtree:QuadTreePartitioner"):
        span(owner, "partition", "storage.partition", value=rows_of_arg(1))
        span(
            owner, "partition_delta", "storage.partition_delta",
            value=lambda args, created: sum(len(p) for p in created),
        )
    span("repro.storage.sources.columnar:ColumnarFileSource", "fetch_rows", "storage.fetch_rows", value=rows_of_arg(1))
    span("repro.storage.column_batch:ColumnBatch", "__init__", "storage.column_batch.init")
    span("repro.storage.sources.memory:InMemorySource", "extend_rows", "storage.append", value=rows_of_arg(1))
    # extend_rows takes any iterable; give the span a list it can count.
    t.patch(
        "repro.storage.sources.memory:InMemorySource", "extend_rows",
        lambda fn: lambda source, rows: fn(source, list(rows)),
    )

    # core -------------------------------------------------------------------
    span("repro.core.plan:QueryPlan", "build", "core.plan.build")
    span("repro.core.plan", "run_lookahead", "core.lookahead", value=lambda args, result: len(result[0]))

    def on_step(index, args, report):
        kernel = args[0]
        if report.finished and report.kind != "idle":
            t.event("runtime.clock.join_result", kernel.clock.count("join_result"))
            t.event("core.regions.total", len(kernel.state.regions))
            t.event("core.regions.processed", kernel.regions_processed)

    span("repro.core.kernel:ExecutionKernel", "step", "core.kernel.step", after=on_step)
    for policy in ("ProgOrder", "RandomOrder"):
        span(f"repro.core.progorder:{policy}", "next_region", "core.progorder.next_region")
    t.patch("repro.core.kernel", "process_region", lambda fn: t.generator_span(fn, "core.tuple_level.process_region"))
    span("repro.core.output_grid:OutputGrid", "coords_matrix", "core.output_grid.coords_matrix")
    span("repro.core.output_grid:OutputCell", "vector_matrix", "core.output_grid.vector_matrix")
    span("repro.core.progdetermine:ExecutionState", "insert_batch", "core.progdetermine.insert_batch", value=rows_of_arg(2))
    t.patch(
        "repro.core.progdetermine:ExecutionState", "insert_batch",
        lambda fn: t.attribute_delta(fn, {"inserted": "core.progdetermine.inserted"}),
    )
    for emitter in ("drain_emissions", "complete_region", "mark_cell"):
        span("repro.core.progdetermine:ExecutionState", emitter, "core.progdetermine.emit")
    span(
        "repro.core.streaming:StreamingKernel", "poll_deltas", "core.streaming.poll_deltas",
        value=lambda args, rows: rows,
    )
    t.patch(
        "repro.core.streaming:StreamingKernel", "poll_deltas",
        lambda fn: t.attribute_delta(fn, {
            "regions_added": "core.streaming.regions_added",
            "cells_reopened": "core.streaming.cells_reopened",
        }),
    )

    # skyline (the bindings core.progdetermine imported) ---------------------
    span("repro.core.progdetermine", "dominates_matrix", "skyline.vectorized.dominates_matrix")
    span("repro.core.progdetermine", "skyline_mask", "skyline.vectorized.skyline_mask")


def _marking(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.mark()
        return fn(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
@dataclass
class Trace:
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    value: np.ndarray
    qid: np.ndarray
    marks: np.ndarray
    mark_cpu: np.ndarray
    mark_root_cpu: np.ndarray


def load(path) -> Trace:
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    fields["names"] = [str(n) for n in fields["names"]]
    return Trace(**fields)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    duration = (end - start).astype(float)
    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


@dataclass
class LayerTotals:
    """Sums over the spans of one measured window."""

    #: span name -> (self seconds, calls, summed value)
    by_name: dict[str, tuple[float, int, float]]
    #: CPU seconds of the traced process inside the window, and the part of
    #: them spent under top-level spans (the attributed share).
    cpu_s: float
    root_cpu_s: float
    #: Mean per-query scheduling wait in seconds (see :func:`queue_wait`).
    queue_wait_s: float

    def get(self, name: str) -> tuple[float, int, float]:
        return self.by_name.get(name, (0.0, 0, 0.0))


def totals(trace: Trace) -> LayerTotals:
    """Aggregate the spans between the trace's first and last mark."""
    lo, hi = int(trace.marks[0]), int(trace.marks[-1])
    self_ns = self_times(trace.start, trace.end, trace.parent)
    inside = (trace.start >= lo) & (trace.end <= hi)
    ids = trace.name[inside]
    size = len(trace.names)
    self_s = np.bincount(ids, weights=self_ns[inside], minlength=size) / 1e9
    calls = np.bincount(ids, minlength=size)
    value = np.bincount(ids, weights=trace.value[inside], minlength=size)
    return LayerTotals(
        by_name={
            name: (float(self_s[i]), int(calls[i]), float(value[i]))
            for i, name in enumerate(trace.names)
        },
        cpu_s=float(trace.mark_cpu[-1] - trace.mark_cpu[0]) / 1e9,
        root_cpu_s=float(trace.mark_root_cpu[-1] - trace.mark_root_cpu[0]) / 1e9,
        queue_wait_s=queue_wait(trace, inside),
    )


def queue_wait(trace: Trace, inside: np.ndarray) -> float:
    """Mean over queries of: submit end -> first tick that steps the query,
    plus every gap between two of its consecutive ticks.

    A query is the ticks carrying its ``qid`` from its submit up to the next
    submit with the same ``qid`` (in-process sessions each start a fresh
    scheduler, so their qids repeat).
    """
    if "session.scheduler.submit" not in trace.names or "session.scheduler.tick" not in trace.names:
        return 0.0
    submits = np.flatnonzero(inside & (trace.name == trace.names.index("session.scheduler.submit")))
    ticks = np.flatnonzero(inside & (trace.name == trace.names.index("session.scheduler.tick")))
    waits = []
    for position, i in enumerate(submits):
        later = submits[position + 1 :]
        same = later[trace.qid[later] == trace.qid[i]]
        until = trace.start[same[0]] if same.size else np.iinfo(np.int64).max
        mine = ticks[
            (trace.qid[ticks] == trace.qid[i])
            & (trace.start[ticks] > trace.start[i])
            & (trace.start[ticks] < until)
        ]
        if mine.size:
            ends = np.concatenate([[trace.end[i]], trace.end[mine][:-1]])
            waits.append(float((trace.start[mine] - ends).sum()) / 1e9)
    return float(np.mean(waits)) if waits else 0.0
