"""The load generator: closed-loop NDJSON clients on one asyncio loop.

Every client sends its next query only after the previous stream completed,
so a slow server receives less load and never a 429 retry storm.  Frames are
timestamped on arrival and parsed after the stream ends, keeping the reader
as close to the socket as the interpreter allows.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class QueryRecord:
    """What one client saw of one query; all times relative to ``sent``."""

    spec: str
    #: perf_counter when the first request byte was written.
    sent: float = 0.0
    connect_s: float = 0.0
    #: Request written -> response head read.
    admit_s: float | None = None
    status: int | None = None
    result_times: list[float] = field(default_factory=list)
    keys: list[tuple[str, str]] = field(default_factory=list)
    complete_s: float | None = None
    state: str | None = None
    stats: dict | None = None
    frames: int = 0
    bytes: int = 0
    #: Why the query counts as failed (empty when it passed every check).
    failures: list[str] = field(default_factory=list)

    def check(self, expected: set[tuple[str, str]]) -> None:
        """Oracle check: exact key set, no duplicate, no false positive."""
        if len(set(self.keys)) != len(self.keys):
            self.failures.append("duplicate result")
        false_positives = sum(1 for key in self.keys if key not in expected)
        if false_positives:
            self.failures.append(f"{false_positives} results not in the oracle skyline")
        missing = len(expected - set(self.keys))
        if missing:
            self.failures.append(f"{missing} oracle results never arrived")


async def run_query(port: int, record: QueryRecord, body: dict) -> None:
    """POST one query and read its frame stream to the end into ``record``."""
    payload = json.dumps(body).encode()
    request = (
        b"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n" + payload
    )
    lines: list[tuple[float, bytes]] = []
    writer = None
    t_connect = time.perf_counter()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        record.sent = sent = time.perf_counter()
        record.connect_s = sent - t_connect
        writer.write(request)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        record.admit_s = time.perf_counter() - sent
        record.status = int(head.split(b" ", 2)[1])
        if record.status != 200:
            detail = (await reader.read()).decode(errors="replace")
            record.failures.append(f"HTTP {record.status}: {detail[:200]}")
            return
        while True:
            line = await reader.readline()
            if not line:
                break
            lines.append((time.perf_counter() - sent, line))
    except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        # A refused or reset connection: the server is gone or going.
        record.failures.append(f"transport: {exc!r}")
        return
    except (ValueError, IndexError) as exc:
        record.failures.append(f"protocol: malformed status line: {exc!r}")
        return
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
    try:
        _digest(record, lines)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        record.failures.append(f"protocol: malformed frame: {exc!r}")


def _digest(record: QueryRecord, lines: list[tuple[float, bytes]]) -> None:
    """Parse the timestamped frames into the record and check the protocol."""
    record.frames = len(lines)
    record.bytes = sum(len(line) for _, line in lines)
    for expected_seq, (at, line) in enumerate(lines):
        frame = json.loads(line)
        if frame.get("seq") != expected_seq:
            record.failures.append(
                f"sequence gap: frame {expected_seq} carries seq {frame.get('seq')}"
            )
            return
        event = frame["event"]
        if event == "result":
            values = frame["values"]
            record.result_times.append(at)
            record.keys.append((values["rid"], values["tid"]))
        elif event == "error":
            record.failures.append(f"error frame: {frame.get('error')}")
        elif event == "complete":
            record.complete_s = at
            record.state = frame["state"]
            record.stats = frame.get("stats") or {}
    if record.complete_s is None:
        record.failures.append("stream ended without a complete frame")
    elif record.state != "completed":
        record.failures.append(f"terminal state {record.state!r}")


async def closed_loop(
    port: int,
    bodies: list[tuple[str, dict]],
    records: list[QueryRecord],
    *,
    clients: int,
    seconds: float,
    max_queries: int | None = None,
    between: Callable[[], None] | None = None,
) -> None:
    """Drive ``clients`` closed-loop connections for about ``seconds``.

    Each client walks the rotation ``bodies`` (client ``c`` starts at offset
    ``c``); the clients meet after every rotation, where ``between`` runs
    while the server is idle and the deadline is checked — so every run
    measures the same query mix whatever its duration.  ``max_queries`` caps
    the total issued (``--smoke``).  A record enters ``records`` when its
    query is sent, so a cancelled loop leaves the in-flight ones behind,
    incomplete, for the caller to count as failures.  The loop stops at the
    first query that gets no response head.
    """
    deadline = time.perf_counter() + seconds
    stop = False

    async def rotation(offset: int) -> None:
        nonlocal stop
        for step in range(len(bodies)):
            if stop or (max_queries is not None and len(records) >= max_queries):
                stop = True
                return
            name, body = bodies[(offset + step) % len(bodies)]
            record = QueryRecord(name)
            records.append(record)
            await run_query(port, record, body)
            if record.status is None:
                stop = True  # no reply at all: the server is gone, stop asking

    while True:
        await asyncio.gather(*(rotation(c) for c in range(clients)))
        if between is not None:
            between()
        if stop or time.perf_counter() >= deadline:
            return
