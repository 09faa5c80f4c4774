"""End-to-end tests of the streaming query server.

Real sockets on 127.0.0.1, stdlib asyncio clients.  The load-bearing
guarantees: streamed result frames are sequence-identical to a direct
``Session.execute`` of the same query (across partitioners and flush
granularities), a slow client throttles only its own query, a failing
kernel poisons only its own stream, and shutdown drains cleanly.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.engine import ProgXeEngine
from repro.core.variants import ALGORITHM_TABLE, AlgorithmEntry
from repro.data.workloads import SyntheticWorkload
from repro.serve import AdmissionPolicy, QueryServer, Watermarks
from repro.session.config import EngineConfig
from repro.session.service import Session

from tests.conftest import set_flush_pairs

SQL = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey "
    "PREFERRING LOWEST(x0) AND LOWEST(x1)"
)
#: Anti-correlated 3-d: a large skyline, enough frames for backpressure.
BIG_SQL = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1, "
    "(R.a2 + T.b2) AS x2 FROM R R, T T WHERE R.jkey = T.jkey "
    "PREFERRING LOWEST(x0) AND LOWEST(x1) AND LOWEST(x2)"
)


def make_session() -> Session:
    session = Session()
    session.register_tables(
        SyntheticWorkload(n=150, d=2, sigma=0.05, seed=11).tables()
    )
    big = SyntheticWorkload(
        distribution="anticorrelated", n=150, d=3, sigma=0.05, seed=12,
        left_alias="BR", right_alias="BT",
    )
    tables = big.tables()
    session.register_table(tables["BR"], "R3")
    session.register_table(tables["BT"], "T3")
    return session


BIG_SQL = BIG_SQL.replace("R R", "R3 R").replace("T T", "T3 T")


def serve(test, **server_kwargs):
    """Run ``await test(server, session)`` against a live server."""

    async def main():
        session = make_session()
        server = QueryServer(session, port=0, **server_kwargs)
        await server.start()
        try:
            return await test(server, session)
        finally:
            await server.stop(timeout=10.0)

    return asyncio.run(main())


# ----------------------------------------------------------------------
# stdlib test clients
# ----------------------------------------------------------------------
async def raw(server, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


def http(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def split_response(data: bytes):
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


async def request_json(server, method, path, obj=None):
    body = json.dumps(obj).encode() if obj is not None else b""
    status, headers, payload = split_response(
        await raw(server, http(method, path, body))
    )
    return status, headers, json.loads(payload) if payload else None


async def stream_query(server, body, *, read_chunk=0, read_delay=0.0):
    """POST /query; return (status, headers, frames).

    ``read_chunk`` > 0 simulates a slow client: read that many bytes at a
    time with ``read_delay`` sleeps in between.
    """
    reader, writer = await asyncio.open_connection(server.host, server.port)
    payload = json.dumps(body).encode()
    writer.write(http("POST", "/query", payload))
    await writer.drain()
    chunks = []
    if read_chunk:
        while True:
            chunk = await reader.read(read_chunk)
            if not chunk:
                break
            chunks.append(chunk)
            await asyncio.sleep(read_delay)
    else:
        chunks.append(await reader.read())
    writer.close()
    await writer.wait_closed()
    status, headers, data = split_response(b"".join(chunks))
    if headers.get("content-type") == "application/json":
        return status, headers, json.loads(data) if data else None
    frames = [json.loads(line) for line in data.splitlines() if line]
    return status, headers, frames


def result_values(frames):
    return [f["values"] for f in frames if f["event"] == "result"]


#: ``flush_pairs`` patches ``FLUSH_PAIRS``; the rest is the request config.
ENGINE_VARIANTS = [
    {"partitioning": "grid"},
    {"partitioning": "grid", "flush_pairs": 1},
    {"partitioning": "quadtree"},
    {"partitioning": "quadtree", "flush_pairs": 1},
]


class TestStreamingEquivalence:
    @pytest.mark.parametrize(
        "overrides", ENGINE_VARIANTS,
        ids=lambda o: o["partitioning"]
        + (f"-batch-{o['flush_pairs']}" if "flush_pairs" in o else ""),
    )
    def test_frames_match_direct_execute(self, overrides, monkeypatch):
        overrides = dict(overrides)
        set_flush_pairs(monkeypatch, overrides.pop("flush_pairs", None))

        async def test(server, session):
            status, _, frames = await stream_query(
                server, {"sql": SQL, "config": overrides}
            )
            assert status == 200
            assert frames[0]["event"] == "accepted"
            assert frames[-1]["event"] == "complete"
            assert frames[-1]["state"] == "completed"
            assert [f["seq"] for f in frames] == list(range(len(frames)))
            direct = session.execute(
                SQL, config=EngineConfig(**overrides)
            ).drain()
            assert result_values(frames) == [r.outputs for r in direct]

        serve(test)

    def test_result_indices_are_emission_order(self):
        async def test(server, session):
            _, _, frames = await stream_query(server, {"sql": SQL})
            indices = [
                f["index"] for f in frames if f["event"] == "result"
            ]
            assert indices == list(range(1, len(indices) + 1))

        serve(test)

    def test_budget_stops_cleanly(self):
        async def test(server, session):
            _, _, frames = await stream_query(
                server, {"sql": BIG_SQL, "max_results": 3}
            )
            emitted = len(result_values(frames))
            # Scheduler budgets are checked between kernel steps, so the
            # stream may overshoot by one step's worth of results — but
            # far from the full skyline, and every frame remains final.
            full = len(session.execute(BIG_SQL).drain())
            assert 3 <= emitted < full
            assert frames[-1]["state"] == "budget_exhausted"
            assert "result budget" in frames[-1]["stop_reason"]

        serve(test)

    def test_progress_frames_between_results(self):
        async def test(server, session):
            _, _, frames = await stream_query(
                server, {"sql": BIG_SQL, "progress_every": 5}
            )
            progress = [f for f in frames if f["event"] == "progress"]
            assert progress
            assert all(f["steps"] >= 1 for f in progress)

        serve(test)

    def test_sse_format_carries_the_same_results(self):
        async def test(server, session):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            payload = json.dumps({"sql": SQL, "format": "sse"}).encode()
            writer.write(http("POST", "/query", payload))
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            status, headers, body = split_response(data)
            assert status == 200
            assert headers["content-type"] == "text/event-stream"
            frames = [
                json.loads(line[len("data: "):])
                for line in body.decode().splitlines()
                if line.startswith("data: ")
            ]
            direct = session.execute(SQL).drain()
            assert result_values(frames) == [r.outputs for r in direct]

        serve(test)

    def test_get_query_string_form(self):
        async def test(server, session):
            from urllib.parse import urlencode

            path = "/query?" + urlencode({"sql": SQL, "max_results": "2"})
            status, _, body = split_response(
                await raw(server, http("GET", path))
            )
            frames = [json.loads(l) for l in body.splitlines() if l]
            assert status == 200
            assert len(result_values(frames)) == 2

        serve(test)


async def hold_admitted_hog(server):
    """Wait until one query holds an admission slot, then pause it there.

    A paused query keeps its slot — the state backpressure puts a query
    in — so the hog stays admitted however fast it would otherwise run.
    (A client that stops reading cannot get it there: loopback socket
    buffers take megabytes, the hog's whole stream is a few dozen KB.)
    Polling every loop turn catches the admission within a scheduler tick
    or two, and the hog needs far more ticks than that to finish.  The
    caller resumes the returned handle (the idle pump picks it up within
    ``idle_poll_seconds``).
    """
    while server.admission.active != 1:
        await asyncio.sleep(0)
    (hog,) = server.scheduler.live_queries
    hog.pause()
    return hog


#: Watermarks the hog's stream never crosses: the bridge then neither
#: pauses nor resumes it, so the test's own pause is the only one.
_NEVER_THROTTLE = Watermarks(high=1 << 20, low=0)


class TestAdmissionOverHttp:
    def test_server_capacity_429(self):
        async def test(server, session):
            # Fill the single slot with the hog, then get refused.
            slow = asyncio.ensure_future(
                stream_query(server, {"sql": BIG_SQL, "client": "hog"})
            )
            hog = await hold_admitted_hog(server)
            status, headers, body = await request_json(
                server, "POST", "/query", {"sql": SQL, "client": "other"}
            )
            assert status == 429
            assert "retry-after" in headers
            assert "capacity" in body["error"]
            hog.resume()
            status2, _, frames = await slow
            assert status2 == 200 and frames[-1]["event"] == "complete"
            assert frames[-1]["state"] == "completed"

        serve(
            test,
            admission=AdmissionPolicy(max_active=1),
            watermarks=_NEVER_THROTTLE,
        )

    def test_per_client_quota_429(self):
        async def test(server, session):
            stream = asyncio.ensure_future(
                stream_query(server, {"sql": BIG_SQL, "client": "same"})
            )
            hog = await hold_admitted_hog(server)
            status, _, body = await request_json(
                server, "POST", "/query", {"sql": SQL, "client": "same"}
            )
            assert status == 429 and "quota" in body["error"]
            # A different client identity is still welcome.
            status_other, _, frames = await stream_query(
                server, {"sql": SQL, "client": "different"}
            )
            assert status_other == 200
            assert frames[-1]["state"] == "completed"
            hog.resume()
            status_hog, _, frames = await stream
            assert status_hog == 200 and frames[-1]["state"] == "completed"

        serve(
            test,
            admission=AdmissionPolicy(max_active=8, max_per_client=1),
            watermarks=_NEVER_THROTTLE,
        )

    def test_timeout_cancels_an_overrunning_query(self):
        async def test(server, session):
            # The vtime timeout is deterministic: planning alone costs far
            # more than 500 units, so the guard cancels after the first
            # burst — a *cancellation* (server revoked service), distinct
            # from a clean budget stop.
            status, _, frames = await stream_query(
                server, {"sql": BIG_SQL, "timeout_vtime": 500}
            )
            assert status == 200
            assert frames[-1]["event"] == "complete"
            assert frames[-1]["state"] == "cancelled"
            assert frames[-1]["stop_reason"].startswith("admission timeout:")
            assert server.timed_out_total == 1
            assert server.admission.active == 0

        serve(test, watermarks=Watermarks(high=512, low=64))

    def test_timeout_fires_on_a_paused_query_through_the_pump(self):
        """The idle pump still polls deadlines: a query paused under
        backpressure cannot outlive its timeout, and its slot frees."""

        async def test(server, session):
            handle = server.scheduler.submit(BIG_SQL)
            decision = server.admission.try_admit("stuck")
            assert decision.admitted
            from repro.serve.admission import DeadlineGuard
            from repro.serve.app import ServedQuery
            from repro.serve.backpressure import BackpressureBridge
            from repro.serve.protocol import FrameFactory, QueryRequest

            served = ServedQuery(
                request=QueryRequest(sql=BIG_SQL),
                handle=handle,
                client="stuck",
                bridge=BackpressureBridge(handle),
                frames=FrameFactory(),
                guard=DeadlineGuard(
                    handle, wall_limit=0.05, vtime_limit=None
                ),
            )
            server._served[handle.qid] = served
            server._wake.set()
            # Pause immediately: the pump must cancel it anyway.
            handle.pause()
            for _ in range(300):
                await asyncio.sleep(0.01)
                if handle.finished:
                    break
            assert handle.state == "cancelled"
            assert handle.stop_reason.startswith("admission timeout:")
            assert server.admission.active == 0
            # The terminal frames were still produced for the client.
            frames = []
            while True:
                data = await served.channel.get()
                if data is None:
                    break
                frames.append(json.loads(data))
            assert frames[-1]["event"] == "complete"
            assert frames[-1]["state"] == "cancelled"

        serve(test)

    def test_bad_requests_are_400(self):
        async def test(server, session):
            status, _, body = await request_json(
                server, "POST", "/query", {"sql": SQL, "bogus_field": 1}
            )
            assert status == 400 and "bogus_field" in body["error"]
            status, _, body = await request_json(
                server, "POST", "/query", {"sql": "SELECT nonsense"}
            )
            assert status == 400
            status, _, body = await request_json(
                server, "POST", "/query",
                {"sql": SQL, "algorithm": "NoSuchAlgorithm"},
            )
            assert status == 400
            assert body["error"] == (
                "unknown algorithm 'NoSuchAlgorithm'; registered: ProgXe, "
                "ProgXe+, ProgXe (No-Order), ProgXe+ (No-Order), JF-SL, "
                "JF-SL+, SSMJ, SAJ"
            )
            # Rejected submissions must not leak admission slots.
            assert server.admission.active == 0
            status, _, frames = await stream_query(server, {"sql": SQL})
            assert status == 200 and frames[-1]["state"] == "completed"

        serve(test)

    @pytest.mark.parametrize(
        "key, value",
        [("use_vectorized", False), ("workers", 2), ("batch_size", 256)],
    )
    def test_stale_engine_override_is_rejected_by_name(self, key, value):
        """A client still sending a retired engine option gets a 400 naming
        it, not a stream from a silently different engine, and the
        admission slot it briefly held is released."""
        async def test(server, session):
            status, headers, body = await stream_query(
                server, {"sql": SQL, "config": {key: value}}
            )
            assert status == 400
            assert headers["content-type"] == "application/json"
            assert body["error"].startswith("invalid engine config override:")
            assert key in body["error"]
            assert server.admission.active == 0
            status, _, frames = await stream_query(server, {"sql": SQL})
            assert status == 200 and frames[-1]["state"] == "completed"

        serve(test)

    @pytest.mark.parametrize("fields, named", [
        ({"preset": "low-memory"}, "unknown preset 'low-memory'"),
        ({"config": {"signature_kind": "bloom"}}, "'signature_kind'"),
        ({"config": {"bloom_bits": 512}}, "'bloom_bits'"),
        ({"preset": "production", "config": {"bloom_hashes": 2}}, "'bloom_hashes'"),
    ], ids=["low-memory-preset", "signature-kind", "bloom-bits", "bloom-hashes"])
    def test_retired_bloom_settings_are_rejected_by_name(self, fields, named):
        """Bloom signatures and the ``low-memory`` preset are gone: a
        client still asking for them gets a 400 naming what it sent."""
        async def test(server, session):
            status, headers, body = await stream_query(
                server, {"sql": SQL, **fields}
            )
            assert status == 400
            assert headers["content-type"] == "application/json"
            assert named in body["error"]
            assert server.admission.active == 0

        serve(test)

    @pytest.mark.parametrize("key, value", [("pushthrough", True), ("ordering", False)])
    def test_a_variant_switch_override_is_rejected_by_name(self, key, value):
        """Push-through and ordering are chosen by the algorithm name; an
        override naming either is a 400 that says so."""
        async def test(server, session):
            status, _, body = await stream_query(
                server, {"sql": SQL, "preset": "production", "config": {key: value}}
            )
            assert status == 400
            assert f"'{key}' is not an EngineConfig field" in body["error"]
            assert "algorithm name" in body["error"]
            assert server.admission.active == 0

        serve(test)

    @pytest.mark.parametrize("name, switches", [
        ("ProgXe", (False, True)), ("ProgXe+", (True, True)),
        ("ProgXe (No-Order)", (False, False)), ("ProgXe+ (No-Order)", (True, False)),
    ])
    def test_the_algorithm_name_selects_the_variant(self, monkeypatch, name, switches):
        built = []
        init = ProgXeEngine.__init__

        def record(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            built.append(engine)

        monkeypatch.setattr(ProgXeEngine, "__init__", record)

        async def test(server, session):
            status, _, frames = await stream_query(
                server, {"sql": SQL, "algorithm": name, "preset": "production"}
            )
            assert status == 200 and frames[-1]["state"] == "completed"

        serve(test)
        assert [(e.pushthrough, e.ordering) for e in built] == [switches]

    def test_malformed_http_is_400_and_unknown_path_404(self):
        async def test(server, session):
            status, _, _ = split_response(
                await raw(server, http("POST", "/query") )  # no body
            )
            assert status == 400
            status, _, _ = split_response(
                await raw(server, http("GET", "/nope"))
            )
            assert status == 404
            status, _, _ = split_response(
                await raw(server, http("DELETE", "/query"))
            )
            assert status == 405

        serve(test)


class TestIsolation:
    def test_slow_client_does_not_stall_fast_clients(self):
        async def test(server, session):
            slow = asyncio.ensure_future(
                stream_query(
                    server, {"sql": BIG_SQL, "client": "slow"},
                    read_chunk=64, read_delay=0.02,
                )
            )
            await asyncio.sleep(0.03)
            _, _, fast_frames = await stream_query(
                server, {"sql": SQL, "client": "fast"}
            )
            # The fast client got its full, correct stream while the slow
            # one was still dribbling.
            assert not slow.done()
            direct = session.execute(SQL).drain()
            assert result_values(fast_frames) == [r.outputs for r in direct]
            status, _, slow_frames = await slow
            assert status == 200
            assert slow_frames[-1]["state"] == "completed"
            direct_big = session.execute(BIG_SQL).drain()
            assert result_values(slow_frames) == [
                r.outputs for r in direct_big
            ]

        serve(test, watermarks=Watermarks(high=512, low=64))

    def test_backpressure_pauses_are_recorded(self):
        async def test(server, session):
            stats_during = []

            async def probe():
                while True:
                    await asyncio.sleep(0.02)
                    snapshot = server.stats()
                    stats_during.append(snapshot)
                    if not snapshot["admission"]["active"]:
                        return

            prober = asyncio.ensure_future(probe())
            _, _, frames = await stream_query(
                server, {"sql": BIG_SQL},
                read_chunk=64, read_delay=0.01,
            )
            await prober
            assert frames[-1]["state"] == "completed"
            assert any(
                s["backpressure"]["pauses_total"] > 0 for s in stats_during
            )

        serve(test, watermarks=Watermarks(high=256, low=32))

    def test_failing_query_poisons_only_its_own_stream(self, monkeypatch):
        class Explode:
            name = "Explode"

            def __init__(self, bound, clock):
                pass

            def run(self):
                raise RuntimeError("kernel exploded")
                yield  # pragma: no cover - makes run() a generator

        async def test(server, session):
            monkeypatch.setitem(
                ALGORITHM_TABLE, "Explode", AlgorithmEntry("Explode", Explode)
            )
            healthy = asyncio.ensure_future(
                stream_query(server, {"sql": BIG_SQL, "client": "ok"})
            )
            status, _, frames = await stream_query(
                server, {"sql": SQL, "algorithm": "Explode"}
            )
            # The failed stream reports the error and completes FAILED...
            assert status == 200
            events = [f["event"] for f in frames]
            assert events[-2:] == ["error", "complete"]
            assert "kernel exploded" in frames[-2]["error"]
            assert frames[-1]["state"] == "failed"
            # ...its slot is released...
            # ...and the concurrent healthy query is untouched.
            status_ok, _, ok_frames = await healthy
            assert status_ok == 200
            assert ok_frames[-1]["state"] == "completed"
            direct = session.execute(BIG_SQL).drain()
            assert result_values(ok_frames) == [r.outputs for r in direct]
            assert server.admission.active == 0

        serve(test)

    def test_client_disconnect_cancels_and_frees_the_slot(self):
        async def test(server, session):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            payload = json.dumps({"sql": BIG_SQL}).encode()
            writer.write(http("POST", "/query", payload))
            await writer.drain()
            await reader.read(64)     # the stream has started
            writer.close()            # ...and the client vanishes
            await writer.wait_closed()
            for _ in range(200):
                await asyncio.sleep(0.01)
                if server.admission.active == 0:
                    break
            assert server.admission.active == 0
            # Server is still healthy for the next client.
            status, _, frames = await stream_query(server, {"sql": SQL})
            assert status == 200 and frames[-1]["state"] == "completed"

        serve(test, watermarks=Watermarks(high=256, low=32))

    def test_unattributed_scheduler_error_propagates_out_of_the_pump(self):
        """The pump only swallows exceptions owned by a served query.

        A tick() failure no handle claims is a scheduler/policy bug, not a
        query failure; silently treating it as progress would spin the
        pump hot forever.  It must escape the pump task instead.
        """

        class PolicyBug(RuntimeError):
            pass

        async def main():
            server = QueryServer(make_session(), port=0)

            def broken_tick():
                raise PolicyBug("scheduling machinery bug")

            server.scheduler.tick = broken_tick
            with pytest.raises(PolicyBug):
                await asyncio.wait_for(server._pump(), timeout=5)

        asyncio.run(main())

    def test_kernel_error_is_stamped_on_the_owning_handle(self, monkeypatch):
        """After a kernel failure the served handle carries the exception,
        which is what lets the pump attribute the tick() error."""

        class Explode:
            name = "Explode"

            def __init__(self, bound, clock):
                pass

            def run(self):
                raise RuntimeError("kernel exploded")
                yield  # pragma: no cover - makes run() a generator

        async def test(server, session):
            monkeypatch.setitem(
                ALGORITHM_TABLE, "Explode", AlgorithmEntry("Explode", Explode)
            )
            handle = server.scheduler.submit(SQL, algorithm="Explode")
            with pytest.raises(RuntimeError, match="kernel exploded") as info:
                while not handle.finished:
                    server.scheduler.tick()
            assert handle.error is info.value

        serve(test)


class TestLifecycle:
    def test_healthz_and_stats(self):
        async def test(server, session):
            status, _, body = await request_json(server, "GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, _, stats = await request_json(server, "GET", "/stats")
            assert status == 200
            assert {"admission", "scheduler", "backpressure"} <= set(stats)
            assert "policy" not in stats["scheduler"]

        serve(test)

    def test_finished_queries_are_not_kept(self):
        """A long-lived server releases each query once its stream ended."""

        async def test(server, session):
            counts = set()
            for _ in range(50):
                status, _, frames = await stream_query(server, {"sql": SQL})
                assert status == 200 and frames[-1]["state"] == "completed"
                counts.add(sum(f["event"] == "result" for f in frames))
                assert len(server.scheduler.queries) <= 1
            assert len(counts) == 1 and counts.pop() > 0
            assert server.scheduler.queries == []
            assert server.admission.active == 0
            _, _, stats = await request_json(server, "GET", "/stats")
            assert stats["admission"]["admitted_total"] == 50
            assert stats["scheduler"]["global_vtime"] > 0

        serve(test)

    def test_disconnected_clients_query_is_not_kept(self):
        async def test(server, session):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            payload = json.dumps({"sql": BIG_SQL}).encode()
            writer.write(http("POST", "/query", payload))
            await writer.drain()
            await reader.read(64)
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                await asyncio.sleep(0.01)
                if not server.scheduler.queries:
                    break
            assert server.scheduler.queries == []
            assert server.admission.active == 0

        serve(test, watermarks=Watermarks(high=256, low=32))

    def test_shutdown_drains_active_streams(self):
        async def main():
            session = make_session()
            server = QueryServer(
                session, port=0, watermarks=Watermarks(high=512, low=64)
            )
            await server.start()
            runner = asyncio.ensure_future(server.serve_until_shutdown())
            active = asyncio.ensure_future(
                stream_query(
                    server, {"sql": BIG_SQL},
                    read_chunk=256, read_delay=0.01,
                )
            )
            await asyncio.sleep(0.05)
            status, _, body = await request_json(
                server, "POST", "/shutdown"
            )
            assert status == 200
            # The in-flight stream still completes in full.
            status_active, _, frames = await active
            assert status_active == 200
            assert frames[-1]["state"] == "completed"
            direct = session.execute(BIG_SQL).drain()
            assert result_values(frames) == [r.outputs for r in direct]
            await asyncio.wait_for(runner, timeout=10.0)

        asyncio.run(main())

    def test_queries_after_stop_begins_are_503(self):
        async def main():
            server = QueryServer(make_session(), port=0)
            await server.start()
            server._stopping = True
            status, _, body = await request_json(
                server, "POST", "/query", {"sql": SQL}
            )
            assert status == 503
            server._stopping = False
            await server.stop()

        asyncio.run(main())


class TestCliWiring:
    def test_serve_command_parses(self):
        from repro.cli import _cmd_serve, build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-active", "8"]
        )
        assert args.fn is _cmd_serve
        assert args.port == 0 and args.max_active == 8

    def test_retired_scheduler_argument_raises(self):
        with pytest.raises(TypeError):
            QueryServer(Session(), scheduler="serving")

    def test_workload_sql_round_trips_through_the_parser(self):
        from repro.cli import _workload_sql

        workload = SyntheticWorkload(n=60, d=2, sigma=0.1, seed=5)
        session = Session().register_tables(workload.tables())
        results = session.execute(_workload_sql(workload)).drain()
        direct = session.execute(workload.bound()).drain()
        assert [r.key() for r in results] == [r.key() for r in direct]
