"""An engine that raises ends its query ``failed`` on every driver.

Two faults, neither patching the engine under test:

* ``follow-touch`` — a follow query whose source is declared mutated in
  place (``touch()``) after planning; the next arrival poll refuses the
  non-append change.
* ``policy-raises`` — a static query whose ordering policy raises on its
  third ``next_region`` call, after some regions already ran.

Three drivers run each: a direct :class:`~repro.session.stream.ResultStream`,
the :class:`~repro.session.scheduler.QueryScheduler` and a served query.
Every driver must end ``failed``, give its terminal notice exactly once,
and never let a later pull finalise the partial result set as
``completed``.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro.core.progorder import ProgOrder
from repro.data.workloads import SyntheticWorkload
from repro.errors import ExecutionError
from repro.serve import QueryServer
from repro.session.config import EngineConfig
from repro.session.scheduler import QueryScheduler
from repro.session.service import Session
from repro.session.stream import FAILED

SQL = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey "
    "PREFERRING LOWEST(x0) AND LOWEST(x1)"
)


class FollowTouch:
    """Close the arrival window, then declare ``R`` mutated in place."""

    follow = True
    error = ExecutionError
    message = "non-append-only"

    def install(self, monkeypatch) -> None:
        pass

    def trigger(self, handle, tables) -> None:
        handle.close_ingest()
        tables["R"].touch()


class PolicyRaises:
    """``ProgOrder.next_region`` raises on its ``at``-th call (0-based)."""

    follow = False
    error = RuntimeError
    message = "policy exploded"

    def __init__(self, at: int = 2) -> None:
        self.at = at

    def install(self, monkeypatch) -> None:
        original = ProgOrder.next_region
        calls = itertools.count()

        def next_region(policy):
            if next(calls) == self.at:
                raise RuntimeError("policy exploded")
            return original(policy)

        monkeypatch.setattr(ProgOrder, "next_region", next_region)

    def trigger(self, handle, tables) -> None:
        pass


def make_session() -> tuple[Session, dict]:
    tables = SyntheticWorkload(n=100, d=2, sigma=0.05, seed=17).tables()
    return Session().register_tables(tables), tables


def run_direct(fault) -> dict:
    session, tables = make_session()
    stream = session.execute(SQL, config=EngineConfig(follow=fault.follow))
    notices = []
    stream.on_complete(lambda stats: notices.append(stats.state))
    fault.trigger(stream, tables)
    with pytest.raises(fault.error, match=fault.message):
        stream.drain()
    state = stream.state
    with pytest.raises(StopIteration):
        next(stream)
    return {
        "state": state,
        "notices": notices,
        "state_after_pull": stream.state,
        "stop_reason": stream.stats().stop_reason,
    }


def run_scheduled(fault) -> dict:
    session, tables = make_session()
    scheduler = QueryScheduler(session)
    handle = scheduler.submit(SQL, config=EngineConfig(follow=fault.follow))
    fault.trigger(handle, tables)
    # The scheduler has no completion callback: its terminal notice is the
    # handle's one transition into a finished state, seen after each pull.
    notices = []
    pulls = scheduler.run()
    with pytest.raises(fault.error, match=fault.message):
        for _ in pulls:
            if handle.finished:
                notices.append(handle.state)
    notices.append(handle.state)
    state = handle.state
    with pytest.raises(StopIteration):
        next(pulls)
    assert scheduler.tick() == []
    return {
        "state": state,
        "notices": notices,
        "state_after_pull": handle.state,
        "stop_reason": handle.stop_reason,
    }


def run_served(fault) -> dict:
    session, tables = make_session()

    async def main():
        server = QueryServer(session, port=0)
        handles = []
        submit = server.scheduler.submit

        def recording_submit(*args, **kwargs):
            handles.append(submit(*args, **kwargs))
            return handles[-1]

        server.scheduler.submit = recording_submit
        await server.start()
        try:
            body = {"sql": SQL, "follow": fault.follow}
            response = asyncio.ensure_future(post_query(server, body))
            # Arm the fault once the query has planned and taken a step.
            while not (handles and handles[0].steps):
                assert not response.done()
                await asyncio.sleep(0.001)
            fault.trigger(handles[0], tables)
            frames = await asyncio.wait_for(response, timeout=30)
            server.scheduler.tick()  # a further pull
            return handles[0], frames, server.admission.active
        finally:
            await server.stop(timeout=10.0)

    handle, frames, active = asyncio.run(main())
    events = [frame["event"] for frame in frames]
    assert events[-2:] == ["error", "complete"]
    assert fault.message in frames[-2]["error"]
    assert active == 0
    return {
        "state": frames[-1]["state"],
        "notices": [f["state"] for f in frames if f["event"] == "complete"],
        "state_after_pull": handle.state,
        "stop_reason": frames[-1]["stop_reason"],
    }


async def post_query(server, body) -> list[dict]:
    reader, writer = await asyncio.open_connection(server.host, server.port)
    payload = json.dumps(body).encode()
    writer.write(
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n" + payload
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, stream = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head
    return [json.loads(line) for line in stream.splitlines() if line]


DRIVERS = {"direct": run_direct, "scheduled": run_scheduled, "served": run_served}
FAULTS = {"follow-touch": FollowTouch, "policy-raises": PolicyRaises}


@pytest.mark.parametrize("fault_name", list(FAULTS))
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_engine_error_ends_failed(driver, fault_name, monkeypatch):
    fault = FAULTS[fault_name]()
    fault.install(monkeypatch)
    outcome = DRIVERS[driver](fault)
    assert outcome["state"] == FAILED
    assert outcome["notices"] == [FAILED]
    assert outcome["state_after_pull"] == FAILED
    assert fault.message in outcome["stop_reason"]


def test_failed_stream_keeps_its_prefix_and_ignores_cancel(monkeypatch):
    """The results emitted before the failure stay on the stream and in its
    stats; a later ``cancel()`` does not relabel the terminal state."""
    fault = PolicyRaises(at=30)  # after the first results were emitted
    fault.install(monkeypatch)
    session, _ = make_session()
    stream = session.execute(SQL)
    emitted = []
    with pytest.raises(RuntimeError, match=fault.message):
        for result in stream:
            emitted.append(result.key())
    assert emitted
    assert stream.finished and stream.state == FAILED
    assert [r.key() for r in stream.results] == emitted
    stream.cancel()
    stats = stream.stats()
    assert stats.state == FAILED
    assert stats.results == len(emitted)
