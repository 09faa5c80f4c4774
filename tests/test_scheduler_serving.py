"""Tests for the scheduler's serving-loop surface.

What the server edge leans on: the ``tick()`` API, per-query
pause/resume (backpressure), immediate slot release on cancelling a
paused query, vtime-capped bursts, the starvation bound, and the served
dispatch order itself, pinned step by step.  The central property stays
the paper's: none of these mechanisms may change any query's result
sequence or step reports.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_bound
from repro.data.workloads import SyntheticWorkload
from repro.session import scheduler as scheduler_module
from repro.session.config import EngineConfig
from repro.session.scheduler import QUANTUM, QUANTUM_VTIME
from repro.session.service import Session
from repro.session.stream import CANCELLED, COMPLETED


@pytest.fixture
def session() -> Session:
    return Session()


def bounds(count: int, **kwargs):
    defaults = dict(distribution="independent", n=100, d=2, sigma=0.1)
    defaults.update(kwargs)
    return [make_bound(seed=170 + i, **defaults) for i in range(count)]


def drive(scheduler, max_ticks: int = 100_000) -> None:
    """Run a scheduler to idleness through the serving API."""
    for _ in range(max_ticks):
        if not scheduler.tick():
            return
    raise AssertionError("scheduler did not go idle")


class TestTick:
    def test_empty_scheduler_ticks_idle(self, session):
        assert session.scheduler().tick() == []

    def test_tick_drives_to_completion(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        drive(scheduler)
        assert handle.state == COMPLETED
        assert handle.results

    def test_overticking_an_idle_scheduler_is_harmless(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        drive(scheduler)
        steps = handle.steps
        for _ in range(5):
            assert scheduler.tick() == []
        assert handle.steps == steps

    def test_tick_matches_run_sequences(self, session):
        queries = bounds(2)
        solo = [
            [r.key() for r in session.execute(b).drain()] for b in queries
        ]
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in queries]
        drive(scheduler)
        for handle, expected in zip(handles, solo):
            assert [r.key() for r in handle.results] == expected

    def test_live_queries_shrinks_as_queries_finish(self, session):
        scheduler = session.scheduler()
        scheduler.submit(bounds(1)[0])
        assert len(scheduler.live_queries) == 1
        drive(scheduler)
        assert scheduler.live_queries == []


class TestPauseResume:
    def test_paused_query_is_not_dispatched(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        scheduler.tick()
        steps = handle.steps
        handle.pause()
        assert scheduler.tick() == []
        assert handle.steps == steps
        handle.resume()
        drive(scheduler)
        assert handle.state == COMPLETED

    def test_pause_does_not_change_the_sequence(self, session):
        bound = bounds(1)[0]
        solo = [r.key() for r in session.execute(bound).drain()]
        scheduler = session.scheduler()
        handle = scheduler.submit(bound)
        while not handle.finished:
            if not scheduler.tick():
                handle.resume()
                continue
            handle.pause()  # pause after every burst, then resume
        assert [r.key() for r in handle.results] == solo

    def test_other_queries_progress_past_a_paused_one(self, session):
        first, second = bounds(2)
        scheduler = session.scheduler()
        paused = scheduler.submit(first)
        running = scheduler.submit(second)
        scheduler.tick()
        paused.pause()
        drive(scheduler)
        assert running.state == COMPLETED
        assert not paused.finished
        paused.resume()
        drive(scheduler)
        assert paused.state == COMPLETED

    def test_paused_query_holds_its_admission_slot(self, session):
        first, second = bounds(2)
        scheduler = session.scheduler(max_active=1)
        held = scheduler.submit(first)
        waiting = scheduler.submit(second)
        scheduler.tick()
        held.pause()
        # The slot is occupied by the paused query: nothing is runnable.
        assert scheduler.tick() == []
        assert waiting.steps == 0
        held.resume()
        drive(scheduler)
        assert held.state == COMPLETED and waiting.state == COMPLETED

    def test_pause_from_a_callback_ends_the_burst(self, session, monkeypatch):
        monkeypatch.setattr(scheduler_module, "QUANTUM_VTIME", float("inf"))
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        handle.on_result(lambda _result: handle.pause())
        while not handle.paused:
            burst = scheduler.tick()
            assert burst, "the query finished without emitting"
        # The step that emitted (and paused) is the burst's last.
        assert burst[-1][1].results
        assert not any(report.results for _, report in burst[:-1])
        assert len(burst) < QUANTUM
        steps = handle.steps
        assert scheduler.tick() == []
        assert handle.steps == steps

    def test_pause_after_finish_is_a_noop(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        drive(scheduler)
        handle.pause()
        assert not handle.paused


class TestCancelPausedReleasesSlot:
    def test_slot_passes_to_waiting_query_in_the_same_decision(self, session):
        first, second = bounds(2)
        scheduler = session.scheduler(max_active=1)
        held = scheduler.submit(first)
        waiting = scheduler.submit(second)
        scheduler.tick()
        held.pause()
        assert scheduler.tick() == []
        held.cancel("client disconnected")
        # The very next decision retires the paused query AND dispatches
        # the waiting one — no dead tick in between.
        burst = scheduler.tick()
        assert burst and burst[0][0] is waiting
        assert held.state == CANCELLED
        assert held.stop_reason == "client disconnected"
        drive(scheduler)
        assert waiting.state == COMPLETED

    def test_cancelled_paused_query_emits_nothing_further(self, session):
        scheduler = session.scheduler()
        handle = scheduler.submit(bounds(1)[0])
        while not handle.results:
            scheduler.tick()
        handle.pause()
        emitted = len(handle.results)
        handle.cancel()
        drive(scheduler)
        assert handle.state == CANCELLED
        assert len(handle.results) == emitted


class TestQuantumVtime:
    def test_burst_overshoots_by_at_most_one_step(self, session):
        bound = make_bound(
            distribution="anticorrelated", n=300, d=3, sigma=0.05, seed=0
        )
        scheduler = session.scheduler()
        handle = scheduler.submit(bound)
        cut = 0
        while not handle.finished:
            burst = scheduler.tick()
            if not burst:
                break
            assert len(burst) <= QUANTUM
            deltas = [report.vtime_delta for _, report in burst]
            # Every step but the last started under the cap.
            assert all(
                sum(deltas[:i]) < QUANTUM_VTIME for i in range(1, len(deltas))
            )
            cut += len(burst) < QUANTUM and not handle.finished
        assert cut >= 1  # the cap, not only the step count, ended a burst

    def test_vtime_cap_shortens_bursts(self, session, monkeypatch):
        uncapped = session.scheduler()
        free = uncapped.submit(bounds(1)[0])
        monkeypatch.setattr(scheduler_module, "QUANTUM_VTIME", float("inf"))
        long_burst = len(uncapped.tick())
        monkeypatch.setattr(scheduler_module, "QUANTUM_VTIME", 200.0)
        capped = session.scheduler()
        tight = capped.submit(bounds(1)[0])
        assert long_burst > len(capped.tick())
        drive(uncapped), drive(capped)
        # ...and never changes what is computed.
        assert [r.key() for r in free.results] == [
            r.key() for r in tight.results
        ]


class TestStarvationBound:
    def test_every_admitted_query_steps_within_k_rounds(
        self, session, monkeypatch
    ):
        k = 3
        monkeypatch.setattr(scheduler_module, "STARVATION_ROUNDS", k)
        scheduler = session.scheduler()
        handles = [scheduler.submit(b) for b in bounds(3)]
        last_dispatch = {h.qid: 0 for h in handles}
        decision = 0
        while True:
            burst = scheduler.tick()
            if not burst:
                break
            decision += 1
            chosen = burst[0][0]
            gap = decision - last_dispatch[chosen.qid]
            last_dispatch[chosen.qid] = decision
            live = [h for h in handles if not h.finished]
            # With L live queries and bound k, no runnable query waits
            # more than max(k, L-1) + 1 decisions between dispatches.
            assert gap <= max(k, len(live) - 1) + 1
            for handle in handles:
                assert handle.rounds_waiting <= k

    def test_longest_waiting_query_is_forced_first(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "QUANTUM", 1)
        fair_order = []
        for rounds in (10**9, 1):
            monkeypatch.setattr(scheduler_module, "STARVATION_ROUNDS", rounds)
            scheduler = Session().scheduler()
            handles = [scheduler.submit(b) for b in bounds(3)]
            order = [scheduler.tick()[0][0].qid for _ in range(9)]
            assert not any(h.finished for h in handles)
            fair_order = fair_order or order
        # With k = 1 every query passed over once is starving: the
        # longest-waiting goes next, ties to the oldest — a strict rotation
        # that fair share alone does not produce here.
        assert order == [h.qid for h in handles] * 3
        assert fair_order != order


#: The served dispatch order of :func:`served_scenario`, run-length encoded
#: as ``(qid, step kind, consecutive steps)``.  Recorded from the scheduler's
#: ``serving`` preset (fair share, 8-step bursts capped at 2 000 vtime, a
#: 32-round starvation bound) before that profile became the only rule.
SERVED_ORDER = [
    (0, "bootstrap", 1), (0, "region", 7), (1, "bootstrap", 1),
    (1, "region", 55), (0, "region", 39), (1, "region", 6), (0, "region", 2),
    (1, "region", 5), (0, "region", 3), (1, "region", 7), (0, "region", 4),
    (1, "region", 24), (0, "region", 4), (1, "region", 8), (0, "region", 8),
    (1, "region", 6), (0, "region", 8), (1, "region", 8), (0, "region", 8),
    (1, "region", 7), (0, "region", 16), (1, "region", 8), (0, "region", 4),
    (1, "region", 8), (0, "region", 5), (1, "region", 6), (0, "region", 8),
    (1, "region", 8), (0, "region", 6), (1, "region", 7), (0, "region", 8),
    (1, "region", 5), (0, "region", 16), (1, "region", 6), (0, "region", 8),
    (1, "region", 8), (0, "region", 8), (1, "region", 8), (0, "region", 8),
    (1, "region", 8), (0, "region", 16), (1, "region", 4), (0, "region", 16),
    (1, "region", 4), (0, "region", 16), (1, "region", 3), (0, "region", 8),
    (1, "region", 5), (0, "region", 22), (1, "region", 14), (0, "region", 16),
    (1, "region", 8), (0, "region", 8), (1, "region", 16), (0, "region", 16),
    (1, "region", 8), (0, "region", 8), (1, "region", 8), (0, "region", 16),
    (1, "region", 8), (0, "region", 16), (1, "region", 8), (0, "region", 5),
    (0, "finalize", 1), (2, "bootstrap", 1), (2, "region", 132),
    (2, "finalize", 1), (3, "bootstrap", 1), (3, "region", 111),
    (1, "region", 8), (3, "region", 151), (3, "finalize", 1),
    (1, "region", 38), (1, "finalize", 1),
]


def served_scenario():
    """Four anticorrelated d = 3 queries under ``max_active=2``: one joins
    after the first tick, and q0 is paused from tick 3 to tick 8.

    Returns ``(steps, bursts, forced, cut)``: every dispatched step as
    ``(qid, kind)``, the burst count, the dispatches the starvation bound
    forced away from the fair-share choice, and the bursts the vtime cap
    ended early.
    """

    def bound(n, seed):
        return SyntheticWorkload(
            distribution="anticorrelated", n=n, d=3, sigma=0.05, seed=seed
        ).bound()

    scheduler = Session().scheduler(max_active=2)
    handles = [
        scheduler.submit(bound(n, seed))
        for n, seed in ((300, 0), (300, 1), (80, 2))
    ]
    steps, bursts, forced, cut = [], 0, 0, 0
    tick = 0
    while True:
        before = {
            q.qid: (q.clock.now(), q.finished) for q in scheduler.queries
        }
        burst = scheduler.tick()
        tick += 1
        if not burst:
            if any(q.paused for q in scheduler.queries):
                continue
            break
        bursts += 1
        chosen = burst[0][0]
        candidates = [
            q
            for q in scheduler.queries
            if q.admitted and not q.paused and not before[q.qid][1]
        ]
        fair = min(candidates, key=lambda q: (before[q.qid][0], q.qid))
        forced += fair is not chosen
        cut += (
            len(burst) < QUANTUM and not chosen.finished and not chosen.paused
        )
        steps.extend((q.qid, report.kind) for q, report in burst)
        if tick == 1:
            handles.append(scheduler.submit(bound(150, 9)))
        elif tick == 3:
            handles[0].pause()
        elif tick == 8:
            handles[0].resume()
    assert all(h.state == COMPLETED for h in handles)
    return steps, bursts, forced, cut


class TestServedDispatchOrder:
    def test_dispatch_order_is_pinned(self):
        steps, bursts, forced, cut = served_scenario()
        expected = [
            (qid, kind) for qid, kind, count in SERVED_ORDER
            for _ in range(count)
        ]
        assert steps == expected
        # Both bounds shape this run (142 bursts: the starvation bound
        # overrode fair share once, the vtime cap cut 23 bursts short of
        # the step quantum), so the pin covers both.
        assert bursts == 142
        assert forced >= 1 and cut >= 1


def report_signature(report):
    """The observable identity of one step: kind, region, work, results."""
    return (
        report.kind,
        report.region_id,
        report.vtime_delta,
        tuple(r.key() for r in report.results),
    )


class TestBackpressureIsolationProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        pause_period=st.integers(min_value=1, max_value=7),
        stall_ticks=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_slow_reader_pauses_only_its_own_query(
        self, pause_period, stall_ticks, seed
    ):
        """A pause/resume pattern on one query (a slow client's
        backpressure) leaves every other query's result sequence AND step
        reports byte-identical to an undisturbed run."""
        session = Session()
        slow_bound = make_bound(n=80, sigma=0.1, seed=200 + seed)
        fast_bound = make_bound(n=80, sigma=0.1, seed=300 + seed)

        def run(paused_pattern: bool):
            scheduler = session.scheduler()
            private = EngineConfig(share_partitions=False)
            slow = scheduler.submit(slow_bound, config=private)
            fast = scheduler.submit(fast_bound, config=private)
            reports = {slow.qid: [], fast.qid: []}
            stalled = 0
            dispatches = 0
            while True:
                if slow.paused:
                    stalled += 1
                    if stalled >= stall_ticks:
                        slow.resume()
                        stalled = 0
                burst = scheduler.tick()
                if not burst:
                    if slow.paused:
                        continue
                    break
                for query, report in burst:
                    reports[query.qid].append(report_signature(report))
                dispatches += 1
                if paused_pattern and dispatches % pause_period == 0:
                    slow.pause()
            return (
                [r.key() for r in slow.results],
                [r.key() for r in fast.results],
                reports[slow.qid],
                reports[fast.qid],
            )

        undisturbed = run(paused_pattern=False)
        throttled = run(paused_pattern=True)
        # Both queries: identical result sequences and step reports.
        assert throttled[0] == undisturbed[0]
        assert throttled[1] == undisturbed[1]
        assert throttled[2] == undisturbed[2]
        assert throttled[3] == undisturbed[3]
