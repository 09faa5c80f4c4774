"""One query handle, every driver: the same results and the same ends.

A query runs through one :class:`~repro.session.stream.ResultStream`
whoever drives it.  The drivers: a direct pull, the
:class:`~repro.session.scheduler.QueryScheduler`, ``Session.execute_async``,
a served query — and, for result sequences, ``algorithm.run()`` itself.

Two engine faults, neither patching the engine under test:

* ``follow-touch`` — a follow query whose source is declared mutated in
  place (``touch()``) after planning; the next arrival poll refuses the
  non-append change.
* ``policy-raises`` — a static query whose ordering policy raises on its
  third ``next_region`` call, after some regions already ran.
* ``nan-arrival`` — a follow query whose source gains a row with a NaN in
  a mapped attribute; the partitioner refuses it with a named error.

Every driver must end ``failed``, give its terminal notice exactly once,
and never let a later pull finalise the partial result set as
``completed``.  Beyond faults: every registered algorithm (and a follow
query) yields the same result-key sequence on every driver, and a cancel
or a result budget ends the query in the same state, with the same stop
reason and the same exact prefix.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro.core.progorder import ProgOrder
from repro.core.variants import ALGORITHM_TABLE
from repro.data.workloads import SyntheticWorkload
from repro.errors import ExecutionError
from repro.serve import QueryServer
from repro.errors import QueryError
from repro.session.config import EngineConfig
from repro.session.scheduler import QueryScheduler
from repro.session.service import Session
from repro.session.stream import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    FAILED,
    PENDING,
    StreamBudget,
)
from repro.storage.table import Table

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


class NaNArrival:
    """Close the arrival window, then append a row whose ``a0`` is NaN."""

    follow = True
    error = ExecutionError
    message = "NaN in column 'a0' of table 'R' at row 100"

    def install(self, monkeypatch) -> None:
        pass

    def trigger(self, handle, tables) -> None:
        handle.close_ingest()
        tables["R"].extend_rows([("nan", "J1", float("nan"), 1.0)])


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


def recording_execute(session: Session) -> list:
    """Make ``session.execute`` remember the streams it returns."""
    streams: list = []
    execute = session.execute

    def record(*args, **kwargs):
        streams.append(execute(*args, **kwargs))
        return streams[-1]

    session.execute = record
    return streams


def run_async(fault) -> dict:
    session, tables = make_session()
    streams = recording_execute(session)

    async def consume():
        async for _ in session.execute_async(
            SQL, config=EngineConfig(follow=fault.follow)
        ):
            pass

    notices = []

    async def main():
        consumer = asyncio.ensure_future(consume())
        while not streams:
            await asyncio.sleep(0)
        streams[0].on_complete(lambda stats: notices.append(stats.state))
        fault.trigger(streams[0], tables)
        with pytest.raises(fault.error, match=fault.message):
            await consumer

    asyncio.run(main())
    stream = streams[0]
    state = stream.state
    with pytest.raises(StopIteration):
        next(stream)
    return {
        "state": state,
        "notices": notices,
        "state_after_pull": stream.state,
        "stop_reason": stream.stop_reason,
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


DRIVERS = {
    "direct": run_direct,
    "scheduled": run_scheduled,
    "async": run_async,
    "served": run_served,
}
FAULTS = {
    "follow-touch": FollowTouch,
    "policy-raises": PolicyRaises,
    "nan-arrival": NaNArrival,
}


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


@pytest.mark.parametrize("fault_name", list(FAULTS))
def test_every_driver_gives_the_same_stop_reason(fault_name, monkeypatch):
    reasons = set()
    for run in DRIVERS.values():
        with monkeypatch.context() as patch:
            fault = FAULTS[fault_name]()
            fault.install(patch)
            reasons.add(run(fault)["stop_reason"])
    assert len(reasons) == 1, reasons


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


# ---------------------------------------------------------------------------
# driver differential: same sequences, same ends
# ---------------------------------------------------------------------------
ALGORITHMS = list(ALGORITHM_TABLE)
#: Rows of each side that arrive after a follow query was submitted.
ARRIVING = 20


def differential_session() -> tuple[Session, dict, dict]:
    """A session over the first rows of each table, plus the rest."""
    full = SyntheticWorkload(n=100, d=2, sigma=0.05, seed=17).tables()
    live, arriving = {}, {}
    for alias, table in full.items():
        rows = list(table.rows)
        live[alias] = Table(alias, table.schema.columns, rows[:-ARRIVING])
        arriving[alias] = rows[-ARRIVING:]
    return Session().register_tables(live), live, arriving


class Case:
    """One query shape: algorithm, follow flag, budget, cancel point."""

    def __init__(self, algorithm="ProgXe", *, follow=False, budget=None,
                 cancel_after=None):
        self.algorithm = algorithm
        self.follow = follow
        self.budget = budget
        self.cancel_after = cancel_after
        self.session, self.tables, self.arriving = differential_session()

    @property
    def config(self):
        return EngineConfig(follow=True) if self.follow else None

    def arrive(self) -> None:
        for alias, rows in self.arriving.items():
            self.tables[alias].extend_rows(rows)

    def on_result(self, handle, keys: list, result) -> None:
        keys.append(result.key())
        if self.cancel_after is not None and len(keys) == self.cancel_after:
            handle.cancel("enough")


def outcome(handle, keys) -> dict:
    return {
        "keys": keys,
        "results": [r.key() for r in handle.results],
        "state": handle.state,
        "stop_reason": handle.stop_reason,
        "vtimes": [event.vtime for event in handle.recorder.events],
        "vtime": handle.stats().vtime,
    }


def pull_direct(case: Case) -> dict:
    stream = case.session.execute(
        SQL, algorithm=case.algorithm, config=case.config, budget=case.budget
    )
    if case.follow:
        case.arrive()
        stream.close_ingest()
    keys: list = []
    for result in stream:
        case.on_result(stream, keys, result)
    return outcome(stream, keys)


def pull_scheduled(case: Case) -> dict:
    scheduler = case.session.scheduler()
    handle = scheduler.submit(
        SQL, algorithm=case.algorithm, config=case.config, budget=case.budget
    )
    if case.follow:
        case.arrive()
        handle.close_ingest()
    keys: list = []
    for _, result in scheduler.run():
        case.on_result(handle, keys, result)
    return outcome(handle, keys)


def pull_async(case: Case) -> dict:
    streams = recording_execute(case.session)
    if case.follow:
        case.arrive()
    keys: list = []

    async def main():
        async for result in case.session.execute_async(
            SQL, algorithm=case.algorithm, config=case.config,
            budget=case.budget,
        ):
            case.on_result(streams[0], keys, result)

    async def closer():
        # A follow query yields nothing until its window closes.
        while not streams:
            await asyncio.sleep(0)
        streams[0].close_ingest()

    async def both():
        tasks = [asyncio.ensure_future(main())]
        if case.follow:
            tasks.append(asyncio.ensure_future(closer()))
        await asyncio.gather(*tasks)

    asyncio.run(both())
    return outcome(streams[0], keys)


def pull_engine(case: Case) -> dict:
    algorithm, _, _ = case.session.build_algorithm(
        SQL, algorithm=case.algorithm, config=case.config
    )
    if case.follow:
        case.arrive()
        build = algorithm.kernel

        def closed_kernel():
            kernel = build()
            kernel.close_ingest()
            return kernel

        algorithm.kernel = closed_kernel
    return {"keys": [r.key() for r in algorithm.run()]}


PULLS = {
    "direct": pull_direct,
    "scheduled": pull_scheduled,
    "async": pull_async,
    "engine": pull_engine,
}


@pytest.mark.parametrize(
    "algorithm, follow",
    [(name, False) for name in ALGORITHMS] + [("ProgXe", True)],
    ids=list(ALGORITHMS) + ["ProgXe-follow"],
)
def test_every_driver_yields_the_same_sequence(algorithm, follow):
    outcomes = {name: pull(Case(algorithm, follow=follow))
                for name, pull in PULLS.items()}
    expected = outcomes["direct"]["keys"]
    assert expected
    for name, got in outcomes.items():
        assert got["keys"] == expected, name
        if name != "engine":
            assert got["results"] == expected, name
            assert got["state"] == "completed", name
    # No scheduler between them: the same steps charge the same clock.
    for field in ("vtimes", "vtime"):
        assert outcomes["async"][field] == outcomes["direct"][field]


STOPS = {
    "cancel": lambda algorithm: Case(algorithm, cancel_after=2),
    "max-results": lambda algorithm: Case(
        algorithm, budget=StreamBudget(max_results=3)
    ),
}


@pytest.mark.parametrize("algorithm", ["ProgXe", "ProgXe+", "SSMJ"])
@pytest.mark.parametrize("stop", list(STOPS))
def test_every_driver_stops_the_same_way(stop, algorithm):
    full = pull_direct(Case(algorithm))["keys"]
    outcomes = {name: PULLS[name](STOPS[stop](algorithm))
                for name in ("direct", "scheduled", "async")}
    expected_state = CANCELLED if stop == "cancel" else BUDGET_EXHAUSTED
    reasons = {got["stop_reason"] for got in outcomes.values()}
    assert len(reasons) == 1, reasons
    for name, got in outcomes.items():
        assert got["state"] == expected_state, name
        if stop == "max-results":
            # Budgets are exact on every driver: precisely the first three.
            assert got["results"] == full[:3], name
            assert got["keys"] == full[:3], name
        else:
            # No result reaches the consumer after the cancel.
            assert got["keys"] == full[:2], name
            assert got["results"] == full[: len(got["results"])], name


# ---------------------------------------------------------------------------
# terminal transitions that must not wait for the next pull
# ---------------------------------------------------------------------------
def pending_handles(session: Session):
    """A direct stream and a scheduled handle, neither started."""
    return {
        "direct": session.execute(SQL),
        "scheduled": session.scheduler().submit(SQL),
    }


@pytest.mark.parametrize("driver", ["direct", "scheduled"])
def test_close_ingest_on_pending_batch_query_does_no_work(driver):
    session, _ = make_session()
    handle = pending_handles(session)[driver]
    with pytest.raises(QueryError, match="not a follow query"):
        handle.close_ingest()
    assert handle.state == PENDING
    assert handle.clock.now() == 0
    assert handle.algorithm.execution_kernel is None


@pytest.mark.parametrize("driver", ["direct", "scheduled"])
def test_cancel_on_started_query_is_terminal_at_once(driver):
    session, _ = make_session()
    scheduler = session.scheduler()
    handle = (
        session.execute(SQL) if driver == "direct" else scheduler.submit(SQL)
    )
    notices = []
    handle.on_complete(lambda stats: notices.append(stats.state))
    if driver == "direct":
        next(handle)
    else:
        scheduler.tick()
    kernel = handle.algorithm.execution_kernel
    assert handle.state == "running" and not kernel.finished
    handle.cancel("user went away")
    assert handle.state == CANCELLED
    assert handle.stop_reason == "user went away"
    assert notices == [CANCELLED]
    assert kernel.finished
    handle.cancel("again")
    assert notices == [CANCELLED]
    assert handle.stop_reason == "user went away"


def test_cancelled_paused_query_frees_its_slot_on_the_next_tick():
    session, _ = make_session()
    scheduler = session.scheduler(max_active=1)
    held = scheduler.submit(SQL)
    waiting = scheduler.submit(SQL)
    scheduler.tick()
    held.pause()
    assert scheduler.tick() == []
    held.cancel()
    assert held.finished and held.algorithm.execution_kernel.finished
    burst = scheduler.tick()
    assert burst and burst[0][0] is waiting
