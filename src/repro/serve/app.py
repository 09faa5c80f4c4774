"""The asyncio streaming server edge: ``repro serve``.

One process, one event loop, one :class:`~repro.session.scheduler.
QueryScheduler` — and any number of concurrently streaming clients.  The
paper's contract (results become available the moment they are provably
final) reaches the network here: a client POSTs a query and receives its
result frames the instant the interleaved engine emits them.

Design, in one paragraph: the engine stays synchronous — the server never
moves kernel work off the event loop.  A single *pump* task calls
:meth:`~repro.session.scheduler.QueryScheduler.tick` in a loop, routing
each admitted query's new results into its connection's
:class:`~repro.serve.backpressure.OutboundChannel`; a per-connection
writer task drains that channel into the socket.  A slow client fills its
channel past the high-water mark, which pauses *that query's kernel* via
the scheduler — other queries keep streaming untouched, and nothing
buffers unboundedly.  Admission (:class:`~repro.serve.admission.
AdmissionController`) rejects work beyond the configured ceilings with
429s instead of queueing it; per-query deadline guards cancel overdue
queries through the scheduler, which frees their admission slots even
while paused.  A query whose kernel raises is retired ``failed`` and its
client gets an ``error`` frame plus a terminal ``complete`` frame — the
other connections never notice.

The HTTP surface is deliberately tiny (hand-rolled HTTP/1.1 over
``asyncio.start_server``; stdlib only, close-delimited streaming):

========================= ==========================================
``POST /query``           submit a query (JSON body); stream frames
``GET /query?sql=...``    the same, parameters in the query string
``GET /healthz``          liveness + active-query count
``GET /stats``            admission / scheduler / backpressure counters
``POST /shutdown``        graceful shutdown (drains active streams)
========================= ==========================================
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import asdict
from typing import Any, Mapping
from urllib.parse import parse_qsl

from repro.errors import ProtocolError, ReproError
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    DeadlineGuard,
)
from repro.serve.backpressure import BackpressureBridge, Watermarks
from repro.serve.protocol import (
    CONTENT_TYPES,
    FrameFactory,
    QueryRequest,
    encode_frame,
)
from repro.session.service import Session
from repro.session.stream import FAILED

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

#: Upper bound on one request head (request line + headers) and body.
_MAX_HEAD_BYTES = 16 * 1024
_MAX_BODY_BYTES = 256 * 1024


class ServedQuery:
    """Per-connection serving state of one admitted query."""

    __slots__ = (
        "request", "handle", "client", "bridge", "frames", "guard",
        "sent", "last_progress_step",
    )

    def __init__(self, request, handle, client, bridge, frames, guard):
        self.request = request
        self.handle = handle
        self.client = client
        self.bridge = bridge
        self.frames = frames
        self.guard = guard
        #: Results already routed into the channel (index into handle.results).
        self.sent = 0
        self.last_progress_step = 0

    @property
    def channel(self):
        return self.bridge.channel

    def put(self, frame: Mapping[str, Any]) -> None:
        self.channel.put(encode_frame(frame, self.request.format))


class QueryServer:
    """Streaming HTTP edge over one session's query scheduler.

    Parameters
    ----------
    session:
        The :class:`~repro.session.service.Session` whose tables and
        algorithms the server exposes.
    host / port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    admission:
        :class:`~repro.serve.admission.AdmissionPolicy` ceilings.
    watermarks:
        Per-connection backpressure :class:`~repro.serve.backpressure.
        Watermarks`.
    idle_poll_seconds:
        How often the idle pump re-checks deadlines when no query is
        runnable (all paused / none admitted).

    Example::

        server = QueryServer(session, port=0)
        await server.start()
        ...                      # POST http://127.0.0.1:{server.port}/query
        await server.stop()      # graceful: drains active streams
    """

    def __init__(
        self,
        session: Session,
        *,
        host: str = "127.0.0.1",
        port: int = 8484,
        admission: AdmissionPolicy | None = None,
        watermarks: Watermarks | None = None,
        idle_poll_seconds: float = 0.05,
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.admission = AdmissionController(admission)
        self.watermarks = watermarks or Watermarks()
        self.idle_poll_seconds = idle_poll_seconds
        #: The session's scheduler; admission control lives in
        #: :attr:`admission`, so the scheduler itself admits everything.
        self.scheduler = session.scheduler()
        self._served: dict[int, ServedQuery] = {}
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._wake = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._stopping = False
        self._stopped = False
        self.timed_out_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the scheduling pump."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.ensure_future(self._pump())

    async def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop serving; with ``drain`` (default), finish active streams.

        New queries are refused (503) the moment stopping begins.  Without
        ``drain`` — or when draining exceeds ``timeout`` — the remaining
        queries are cancelled through the scheduler, so every client still
        receives its terminal ``complete`` frame before the socket closes.
        """
        if self._stopped:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
        if not drain:
            self._cancel_all("server shutting down")
        self._wake.set()
        if self._pump_task is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._pump_task), timeout
                )
            except asyncio.TimeoutError:
                self._cancel_all("server shutdown drain timed out")
                self._wake.set()
                await self._pump_task
        if self._server is not None:
            await self._server.wait_closed()
        if self._connections:
            done, pending = await asyncio.wait(
                self._connections, timeout=5.0
            )
            for task in pending:
                task.cancel()
        self._stopped = True

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown`` (or :meth:`shutdown`), then drain."""
        await self._shutdown.wait()
        await self.stop(drain=True)

    def shutdown(self) -> None:
        """Request graceful shutdown (signal-handler and test hook)."""
        self._shutdown.set()

    def run(self) -> None:
        """Synchronous entry point: serve until shutdown (used by the CLI)."""
        asyncio.run(self._run_main())

    async def _run_main(self) -> None:
        await self.start()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(
                    NotImplementedError, RuntimeError, ValueError
                ):
                    loop.add_signal_handler(signum, self.shutdown)
        except ImportError:  # pragma: no cover - signal is stdlib
            pass
        print(f"repro serving on http://{self.host}:{self.port}", flush=True)
        await self.serve_until_shutdown()

    def _cancel_all(self, reason: str) -> None:
        for served in self._served.values():
            served.handle.cancel(reason)

    # ------------------------------------------------------------------
    # the pump: engine work interleaved with the event loop
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Advance the scheduler and route frames until stopped and drained."""
        while True:
            self._wake.clear()
            try:
                worked = bool(self.scheduler.tick())
            except Exception as exc:
                # A kernel raised mid-step: the scheduler retired the
                # owning query FAILED and stamped it with the exception,
                # and the sweep below turns that terminal state into
                # error/complete frames for its one client.  An exception
                # no served query owns is a scheduler bug, not a
                # query failure — swallowing it would spin this loop hot
                # forever, so it propagates.
                owned = any(
                    served.handle.error is exc
                    for served in self._served.values()
                )
                if not owned:
                    raise
                worked = True
            now = time.perf_counter()
            for served in list(self._served.values()):
                if served.guard.enforce(now):
                    self.timed_out_total += 1
                self._route(served)
            self._sweep()
            if self._stopping and not self._served:
                return
            if worked:
                await asyncio.sleep(0)
            else:
                # Nothing runnable: every served query is paused (slow
                # client) or finished.  Wait for a submit/resume wake-up,
                # but re-check deadlines at the idle poll interval so a
                # paused query's timeout still fires.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._wake.wait(), self.idle_poll_seconds
                    )

    def _route(self, served: ServedQuery) -> None:
        """Push a query's unsent results (and progress) into its channel.

        Reads the cumulative ``handle.results`` list rather than the tick's
        step reports, so results from a burst interrupted by a failure are
        never lost.
        """
        handle = served.handle
        results = handle.results
        while served.sent < len(results):
            result = results[served.sent]
            served.sent += 1
            served.put(served.frames.result(served.sent, result))
        every = served.request.progress_every
        if (
            every
            and not handle.finished
            and handle.steps - served.last_progress_step >= every
        ):
            served.last_progress_step = handle.steps
            served.put(
                served.frames.progress(
                    steps=handle.steps,
                    results=len(results),
                    vtime=handle.clock.now(),
                    state=handle.state,
                )
            )

    def _sweep(self) -> None:
        """Finalise terminal queries: last frames, slot release, cleanup."""
        for qid, served in list(self._served.items()):
            handle = served.handle
            if not handle.finished:
                continue
            self._route(served)
            if handle.state == FAILED:
                served.put(
                    served.frames.error(handle.stop_reason or "query failed")
                )
            stats = asdict(handle.stats())
            stats["steps"] = handle.steps
            served.put(
                served.frames.complete(
                    state=handle.state,
                    stop_reason=handle.stop_reason,
                    stats=stats,
                )
            )
            served.channel.close()
            self.admission.release(served.client)
            del self._served[qid]
            # Every frame of the stream is encoded in the channel by now
            # (or the client is gone): nothing reads the handle's results
            # again, so a server that runs forever must not keep them.
            self.scheduler.forget(handle)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()

    async def _handle_request(self, reader, writer) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.LimitOverrunError, asyncio.IncompleteReadError):
            self._respond(writer, 400, {"error": "malformed request head"})
            return
        if len(head) > _MAX_HEAD_BYTES:
            self._respond(writer, 400, {"error": "request head too large"})
            return
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            self._respond(writer, 400, {"error": "malformed request line"})
            return
        headers = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        path, _, query_string = target.partition("?")

        if path == "/healthz" and method == "GET":
            self._respond(
                writer, 200,
                {"status": "ok", "active": self.admission.active},
            )
        elif path == "/stats" and method == "GET":
            self._respond(writer, 200, self.stats())
        elif path == "/shutdown" and method == "POST":
            self._respond(writer, 200, {"status": "shutting down"})
            await self._flush_writer(writer)
            self.shutdown()
        elif path == "/query":
            params = await self._query_params(
                method, query_string, headers, reader, writer
            )
            if params is not None:
                await self._handle_query(params, writer)
        else:
            known = path in ("/healthz", "/stats", "/shutdown", "/query")
            self._respond(
                writer, 405 if known else 404,
                {"error": f"{method} {path} is not a server endpoint"},
            )

    async def _query_params(
        self, method, query_string, headers, reader, writer
    ) -> Mapping[str, Any] | None:
        """The request's raw parameter mapping, or None after an error reply."""
        if method == "GET":
            return dict(parse_qsl(query_string))
        if method != "POST":
            self._respond(
                writer, 405, {"error": "use GET or POST for /query"}
            )
            return None
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            self._respond(
                writer, 400,
                {"error": "POST /query requires a Content-Length body"},
            )
            return None
        if length > _MAX_BODY_BYTES:
            self._respond(writer, 400, {"error": "request body too large"})
            return None
        body = await reader.readexactly(length)
        try:
            decoded = json.loads(body)
        except json.JSONDecodeError as exc:
            self._respond(
                writer, 400, {"error": f"request body is not JSON: {exc}"}
            )
            return None
        if not isinstance(decoded, dict):
            self._respond(
                writer, 400, {"error": "request body must be a JSON object"}
            )
            return None
        return decoded

    async def _handle_query(self, params, writer) -> None:
        try:
            request = QueryRequest.from_mapping(params)
        except ProtocolError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        if self._stopping:
            self._respond(
                writer, 503, {"error": "server is shutting down"}
            )
            return
        client = request.client or self._peer_name(writer)
        decision = self.admission.try_admit(client)
        if not decision.admitted:
            self._respond(
                writer, decision.status,
                {"error": decision.reason,
                 "retry_after": decision.retry_after},
                headers={"Retry-After": f"{decision.retry_after:g}"},
            )
            return
        try:
            handle = self.scheduler.submit(
                request.sql,
                algorithm=request.algorithm,
                config=request.engine_config(),
                budget=request.budget(),
                name=request.name,
            )
        except ReproError as exc:
            self.admission.release(client)
            self._respond(writer, 400, {"error": str(exc)})
            return
        bridge = BackpressureBridge(
            handle, self.watermarks, on_runnable=self._wake.set
        )
        served = ServedQuery(
            request=request,
            handle=handle,
            client=client,
            bridge=bridge,
            frames=FrameFactory(),
            guard=self._guard(handle, request),
        )
        served.put(
            served.frames.accepted(
                qid=handle.qid, name=handle.name, algorithm=request.algorithm
            )
        )
        self._served[handle.qid] = served
        self._wake.set()
        await self._stream(served, writer)

    def _guard(self, handle, request) -> DeadlineGuard:
        policy = self.admission.policy
        return DeadlineGuard(
            handle,
            wall_limit=policy.wall_limit(request.timeout_wall_seconds),
            vtime_limit=policy.vtime_limit(request.timeout_vtime),
            follow=request.follow,
        )

    async def _stream(self, served: ServedQuery, writer) -> None:
        """Write the response head, then drain the channel to the socket."""
        content_type = CONTENT_TYPES[served.request.format]
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: " + content_type.encode() + b"\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            while True:
                data = await served.channel.get()
                if data is None:
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # The client went away (or the connection task was killed):
            # cancel through the scheduler so the admission slot frees at
            # the next decision — even if the query is paused right now.
            served.handle.cancel("client disconnected")
            served.channel.close()
            self._wake.set()
            raise

    @staticmethod
    def _peer_name(writer) -> str:
        peer = writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "unknown"

    def _respond(
        self,
        writer,
        status: int,
        payload: Mapping[str, Any],
        *,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)

    @staticmethod
    async def _flush_writer(writer) -> None:
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` payload: admission, scheduler, backpressure."""
        channels = [s.channel for s in self._served.values()]
        return {
            "admission": self.admission.snapshot(),
            "timed_out_total": self.timed_out_total,
            "scheduler": {
                "live_queries": len(self.scheduler.live_queries),
                "paused_queries": sum(
                    1 for q in self.scheduler.live_queries if q.paused
                ),
                "global_vtime": self.scheduler.global_vtime,
            },
            "backpressure": {
                "streaming": len(channels),
                "buffered_bytes": sum(c.buffered_bytes for c in channels),
                "paused": sum(1 for c in channels if c.paused),
                "pauses_total": sum(c.pauses for c in channels),
                "resumes_total": sum(c.resumes for c in channels),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryServer({self.host}:{self.port}, "
            f"active={self.admission.active}, stopping={self._stopping})"
        )
