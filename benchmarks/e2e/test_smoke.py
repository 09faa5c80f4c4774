"""Checks of the benchmark's own arithmetic and failure accounting.

Run with ``python -m pytest benchmarks/e2e`` (outside tier-1's testpaths).
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

from benchmarks.e2e import trace as tracing
from benchmarks.e2e import workloads
from benchmarks.e2e.client import QueryRecord, closed_loop
from benchmarks.e2e.ingest import follow_session
from benchmarks.e2e.metrics import end_to_end, load_contract, percentile, spread, supported
from benchmarks.e2e.oracle import reference_keys, skyline_mask
from benchmarks.e2e.runner import Window, layer_metrics, run
from benchmarks.e2e.speed import SpeedMeter, pin, split_cpus
from benchmarks.e2e.workloads import WORKLOADS, Dim, QuerySpec


# ----------------------------------------------------------------------
# span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    #            root 0..100
    #            ├── a 10..40   (child b 20..30)
    #            └── c 50..90
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 90])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [30.0, 20.0, 10.0, 40.0]


def test_tracer_nests_spans_and_restores_patches():
    tracer = tracing.Tracer()

    def leaf(n):
        time.sleep(0.002)
        return [0] * n

    leaf_span = tracer.span(leaf, "leaf", value=lambda args, result: len(result))

    def outer():
        leaf_span(3)
        leaf_span(4)
        time.sleep(0.002)

    tracer.mark()
    tracer.span(outer, "outer")()
    tracer.event("tally", 5)
    tracer.mark()
    totals = tracing.totals(tracer.snapshot())
    outer_self, outer_calls, _ = totals.get("outer")
    leaf_self, leaf_calls, leaf_rows = totals.get("leaf")
    assert (outer_calls, leaf_calls, leaf_rows) == (1, 2, 7.0)
    assert totals.get("tally") == (0.0, 1, 5.0)
    assert leaf_self >= 0.004 and 0.002 <= outer_self < leaf_self
    assert 0 < totals.root_cpu_s <= totals.cpu_s

    import repro.core.progdetermine as module

    original = module.skyline_mask
    tracer.patch("repro.core.progdetermine", "skyline_mask", lambda fn: tracer.span(fn, "x"))
    assert module.skyline_mask is not original
    tracer.unpatch()
    assert module.skyline_mask is original


def test_generator_span_excludes_consumer_time():
    tracer = tracing.Tracer()

    def produce():
        for i in range(3):
            yield i

    tracer.mark()
    for _ in tracer.generator_span(produce, "gen", item_value=lambda item: 1)():
        time.sleep(0.005)  # the consumer's time, not the generator's
    tracer.mark()
    self_s, calls, items = tracing.totals(tracer.snapshot()).get("gen")
    assert calls == 4 and items == 3.0  # three yields and the final resume
    assert self_s < 0.005


def test_queue_wait_sums_gaps_per_query_even_when_qids_repeat():
    names = ["session.scheduler.submit", "session.scheduler.tick"]
    # Two sessions, both qid 0: submit, then two ticks each.
    start = np.array([0, 15, 40, 100, 130, 150]) * 1_000_000_000
    end = np.array([10, 30, 50, 110, 140, 160]) * 1_000_000_000
    trace = tracing.Trace(
        names=names, name=np.array([0, 1, 1, 0, 1, 1]), start=start, end=end,
        parent=np.full(6, -1), value=np.zeros(6), qid=np.zeros(6, dtype=int),
        marks=np.array([0, start[-1] + 1]), mark_cpu=np.zeros(2), mark_root_cpu=np.zeros(2),
    )
    inside = np.ones(6, dtype=bool)
    # session 1: (15-10) + (40-30) = 15; session 2: (130-110) + (150-140) = 30
    assert tracing.queue_wait(trace, inside) == pytest.approx(22.5)


# ----------------------------------------------------------------------
# percentiles, sample counts, spread
# ----------------------------------------------------------------------
def test_percentile_and_sample_count_rule():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50.5
    assert percentile(samples, 0.9) == pytest.approx(90.1)
    assert percentile([3.0], 0.9) == 3.0
    assert supported(100, 0.9) and not supported(99, 0.9)
    assert supported(20, 0.5) and not supported(19, 0.5)
    assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert spread([0.0, 0.0]) == 0.0  # an exact-repeat count that is zero


def test_end_to_end_uses_only_queries_that_passed():
    good = QueryRecord("q", result_times=[0.1, 0.2, 0.4], complete_s=0.5, state="completed")
    bad = QueryRecord("q", result_times=[9.0], complete_s=9.0, failures=["error frame"])
    metrics = end_to_end(
        [good, bad], window_s=2.0, cpu_s=1.0, peak_rss_mb=10.0, setup_s=[3.0, 1.0, 2.0],
    )
    assert metrics["ttfr_s_p50"] == 0.1
    assert metrics["tt50_s_p50"] == 0.2  # the ceil(3/2)-th result
    assert metrics["ttl_s_p50"] == 0.5
    assert metrics["result_delay_s_mean"] == pytest.approx(0.7 / 3)
    assert metrics["queries_per_s"] == 0.5 and metrics["cpu_s_per_query"] == 1.0
    assert metrics["setup_s"] == 2.0


def test_end_to_end_takes_the_median_per_query_shape():
    fast = [QueryRecord("fast", result_times=[t], complete_s=t) for t in (0.1, 0.2, 0.3)]
    slow = [QueryRecord("slow", result_times=[t], complete_s=t) for t in (4.0, 6.0)]
    metrics = end_to_end(fast + slow, window_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, setup_s=[1.0])
    assert metrics["ttl_s_p50"] == pytest.approx((0.2 + 5.0) / 2)


def test_durations_are_divided_by_the_speed_of_their_window():
    record = QueryRecord("q", result_times=[0.2], complete_s=0.4,
                         stats={"vtime": 1.0, "dominance_comparisons": 1, "steps": 1})
    at = lambda speed: end_to_end(  # noqa: E731
        [record], window_s=2.0, cpu_s=1.0, peak_rss_mb=9.0, setup_s=[3.0], speed=speed,
    )
    base, slow = at(1.0), at(2.0)
    for name in ("ttfr_s_p50", "tt50_s_p50", "ttl_s_p50", "result_delay_s_mean", "cpu_s_per_query"):
        assert slow[name] == base[name] / 2
    assert slow["queries_per_s"] == base["queries_per_s"] * 2
    # Memory has no speed; set-ups arrive corrected, each by its own.
    assert slow["peak_rss_mb"] == 9.0 and slow["setup_s"] == 3.0

    empty = tracing.LayerTotals(by_name={}, cpu_s=1.0, root_cpu_s=0.5, queue_wait_s=0.6)
    traced = Window([record], 1.0, 1.0, 1.0, speed=2.0, layers=empty)
    layers = layer_metrics(traced, Window([record], 1.0, 1.0, 1.0, speed=4.0))
    assert layers["session.scheduler.queue_wait_s"] == 0.3
    assert layers["client.ttl_s_p90"] == 0.1
    assert layers["trace.overhead_frac"] == pytest.approx(1.0)  # 0.4/2 against 0.4/4


def test_speed_meter_times_the_kernel_on_the_given_core_and_goes_home():
    cpu, home = split_cpus()
    if cpu is None:
        pytest.skip("no sched_setaffinity on this platform")
    try:
        pin(home)
        meter = SpeedMeter(cpu, home)
        meter.sample()
        meter.sample()
        assert os.sched_getaffinity(0) == home
        assert meter.factor() > 0 and meter.spent_s >= sum(meter.samples)
    finally:
        pin(home | {cpu})


def test_metric_names_match_benchmark_json():
    contract = load_contract()
    record = QueryRecord("q", result_times=[0.1], complete_s=0.2, state="completed",
                         stats={"vtime": 1.0, "dominance_comparisons": 1, "steps": 1})
    e2e = end_to_end([record], window_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, setup_s=[1.0])
    assert set(e2e) == {m["name"] for m in contract["end_to_end"]}
    empty = tracing.LayerTotals(by_name={}, cpu_s=1.0, root_cpu_s=0.5, queue_wait_s=0.0)
    window = Window([record], 1.0, 1.0, 1.0, layers=empty)
    layers = layer_metrics(window, Window([record], 1.0, 1.0, 1.0))
    assert set(layers) == {m["name"] for m in contract["per_layer"]}
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def test_oracle_skyline_keeps_duplicates_and_drops_dominated():
    vectors = np.array([[1.0, 5.0], [1.0, 5.0], [2.0, 6.0], [5.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
    assert skyline_mask(vectors).tolist() == [True, True, False, True, True, False]


def test_oracle_reference_applies_filter_weights_and_direction():
    columns = ("id", "jkey", "a0", "a1", "a2")
    left = (columns, [("R0", "k", 1.0, 9.0, 10.0), ("R1", "k", 0.5, 1.0, 99.0), ("R2", "z", 0.0, 0.0, 0.0)])
    right = (("id", "jkey", "b0", "b1"), [("T0", "k", 1.0, 1.0), ("T1", "k", 2.0, 5.0)])
    spec = QuerySpec(
        "s", (Dim("a0", "b0", lw=2), Dim("a1", "b1", lowest=False)), where_le=("a2", 50.0),
    )
    # R1 is filtered out, R2 has no join partner; of R0's two pairs,
    # (3, 10) and (4, 14) with x1 maximised, neither dominates the other.
    assert reference_keys(left, right, spec) == {("R0", "T0"), ("R0", "T1")}
    assert "2*R.a0" in spec.sql() and "HIGHEST(x1)" in spec.sql() and "R.a2 <= 50" in spec.sql()


# ----------------------------------------------------------------------
# failure accounting against a stub server
# ----------------------------------------------------------------------
def _frames(*frames: dict) -> bytes:
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"
    return head + b"".join(json.dumps(f).encode() + b"\n" for f in frames)


_RESULT = {"event": "result", "index": 1, "values": {"rid": "R0", "tid": "T0"}}
_COMPLETE = {"event": "complete", "state": "completed", "stats": {}}

_STUB_RESPONSES = {
    "ok": _frames({"seq": 0, "event": "accepted"}, {"seq": 1, **_RESULT}, {"seq": 2, **_COMPLETE}),
    "busy": b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}",
    "gap": _frames({"seq": 0, "event": "accepted"}, {"seq": 2, **_RESULT}, {"seq": 3, **_COMPLETE}),
    "error": _frames(
        {"seq": 0, "event": "accepted"}, {"seq": 1, "event": "error", "error": "boom"},
        {"seq": 2, "event": "complete", "state": "failed", "stats": {}},
    ),
    "cancelled": _frames({"seq": 0, "event": "accepted"},
                         {"seq": 1, "event": "complete", "state": "cancelled", "stats": {}}),
    "truncated": _frames({"seq": 0, "event": "accepted"}, {"seq": 1, **_RESULT}),
    "duplicate": _frames({"seq": 0, "event": "accepted"}, {"seq": 1, **_RESULT},
                         {"seq": 2, **_RESULT}, {"seq": 3, **_COMPLETE}),
    "garbled": _frames({"seq": 0, "event": "accepted"}).replace(b"}", b""),
    "headless": b"nonsense\r\n\r\n",
    "stuck": None,  # accepts, then never answers
}


async def _stub(reader, writer):
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    body = json.loads(await reader.readexactly(length))
    response = _STUB_RESPONSES[body["sql"]]
    if response is None:
        await asyncio.sleep(30)
    else:
        writer.write(response)
        await writer.drain()
    writer.close()


def _drive_stub(kinds: list[str], timeout: float = 5.0) -> list[QueryRecord]:
    async def go():
        server = await asyncio.start_server(_stub, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        records: list[QueryRecord] = []
        bodies = [(kind, {"sql": kind}) for kind in kinds]
        try:
            await asyncio.wait_for(
                closed_loop(port, bodies, records, clients=1, seconds=0), timeout
            )
        except asyncio.TimeoutError:
            pass
        server.close()
        return records

    return asyncio.run(go())


def test_every_failure_kind_is_counted_once():
    kinds = ["ok", "busy", "gap", "error", "cancelled", "truncated", "duplicate",
             "garbled", "headless"]
    records = _drive_stub(kinds)
    assert [r.spec for r in records] == kinds
    expected = {("R0", "T0")}
    for record in records:
        if not record.failures:
            record.check(expected)
    why = {r.spec: r.failures for r in records}
    assert why["ok"] == []
    assert why["busy"][0].startswith("HTTP 429")
    assert why["gap"][0].startswith("sequence gap")
    assert why["error"][0] == "error frame: boom" and "terminal state 'failed'" in why["error"]
    assert why["cancelled"] == ["terminal state 'cancelled'"]
    assert why["truncated"] == ["stream ended without a complete frame"]
    assert why["duplicate"] == ["duplicate result"]
    assert why["garbled"][0].startswith("protocol: malformed frame")
    assert why["headless"][0].startswith("protocol: malformed status line")
    assert sum(1 for r in records if r.failures) == 8


def test_clients_meet_after_every_rotation():
    async def go():
        server = await asyncio.start_server(_stub, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        records: list[QueryRecord] = []
        meetings: list[int] = []
        await closed_loop(
            port, [("ok", {"sql": "ok"})] * 3, records, clients=2, seconds=0,
            between=lambda: meetings.append(len(records)),
        )
        server.close()
        return records, meetings

    records, meetings = asyncio.run(go())
    assert len(records) == 6 and meetings == [6]


def test_a_dead_server_is_counted_not_raised():
    async def go():
        server = await asyncio.start_server(_stub, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        records: list[QueryRecord] = []
        await closed_loop(port, [("ok", {"sql": "ok"})] * 2, records, clients=1, seconds=0)
        return records

    records = asyncio.run(go())
    # One attempt, not a retry storm until the deadline.
    assert len(records) == 1
    assert records[0].failures[0].startswith("transport: ConnectionRefusedError")


def test_oracle_mismatch_and_wall_cap_are_failures():
    ok = _drive_stub(["ok"])[0]
    ok.check({("R0", "T0"), ("R1", "T1")})
    assert ok.failures == ["1 oracle results never arrived"]
    wrong = _drive_stub(["ok"])[0]
    wrong.check({("R9", "T9")})
    assert wrong.failures[0] == "1 results not in the oracle skyline"
    # A stream cut by the wall cap leaves an incomplete record behind.
    stuck = _drive_stub(["stuck"], timeout=0.3)[0]
    assert stuck.complete_s is None and not stuck.failures


# ----------------------------------------------------------------------
# the whole path, at smoke scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, traced", [("many-small", False), ("ingest-follow", True)])
def test_smoke_run_passes_the_oracle(name, traced, monkeypatch):
    # Another distribution draw than the one the workloads ship with:
    # different attribute values, join cardinality and result set.
    monkeypatch.setattr(workloads, "DRAW", 11)
    contract = load_contract()
    outcome = run(WORKLOADS[name].scaled(8), seed=7, seconds=0.5, traced=traced, max_queries=4)
    assert outcome.correct, outcome.failures
    group = "per_layer" if traced else "end_to_end"
    assert set(outcome.metrics) == {m["name"] for m in contract[group]}
    assert all(np.isfinite(v) for v in outcome.metrics.values())


def test_follow_session_that_cannot_finish_fails_instead_of_hanging(monkeypatch):
    workload = WORKLOADS["ingest-follow"].scaled(32)
    tables = workload.tables(3)
    far = time.perf_counter() + 60

    late = follow_session(tables, workload, workload.n, deadline=time.perf_counter() - 1)
    assert late.failures[0] == "wall cap exceeded" and late.complete_s is None

    # The query is retired (here: failed) while its arrival window is open;
    # from then on the scheduler's tick() returns nothing, for ever.
    from repro.core.streaming import StreamingKernel

    def broken(self):
        raise RuntimeError("poll failed")

    monkeypatch.setattr(StreamingKernel, "poll_deltas", broken)
    failed = follow_session(tables, workload, workload.n, deadline=far)
    assert failed.failures == ["step raised RuntimeError('poll failed')", "terminal state 'failed'"]

    from repro.session.scheduler import QueryScheduler

    monkeypatch.setattr(QueryScheduler, "tick", lambda self: [])
    idle = follow_session(tables, workload, workload.n, deadline=far)
    assert idle.failures[0] == "query stopped while its arrival window was open"
    assert idle.complete_s is None
