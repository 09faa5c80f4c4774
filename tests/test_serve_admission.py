"""Tests for serving admission control and deadline guards."""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve.admission import (
    TIMEOUT_REASON_PREFIX,
    TOO_MANY_REQUESTS,
    AdmissionController,
    AdmissionPolicy,
    DeadlineGuard,
)


class FakeClock:
    def __init__(self, vtime=0.0):
        self.vtime = vtime

    def now(self):
        return self.vtime


class FakeHandle:
    """Just enough of a ResultStream for guard tests."""

    def __init__(self):
        self.clock = FakeClock()
        self.finished = False
        self.cancelled_with = None

    def cancel(self, reason):
        self.cancelled_with = reason


class TestAdmissionPolicy:
    def test_validation(self):
        with pytest.raises(ServeError, match="max_active"):
            AdmissionPolicy(max_active=0)
        with pytest.raises(ServeError, match="max_per_client"):
            AdmissionPolicy(max_per_client=0)
        with pytest.raises(ServeError, match="max_wall_seconds"):
            AdmissionPolicy(max_wall_seconds=-1)

    def test_timeout_clamping(self):
        policy = AdmissionPolicy(max_wall_seconds=10.0, max_vtime=None)
        assert policy.wall_limit(None) == 10.0      # absent → ceiling
        assert policy.wall_limit(3.0) == 3.0        # shorter → honoured
        assert policy.wall_limit(60.0) == 10.0      # longer → clamped
        assert policy.vtime_limit(None) is None     # both unset → unlimited
        assert policy.vtime_limit(5.0) == 5.0


class TestAdmissionController:
    def test_capacity_rejection_and_release(self):
        controller = AdmissionController(AdmissionPolicy(max_active=2))
        assert controller.try_admit("a").admitted
        assert controller.try_admit("b").admitted
        decision = controller.try_admit("c")
        assert not decision.admitted
        assert decision.status == TOO_MANY_REQUESTS
        assert decision.retry_after == controller.policy.retry_after_seconds
        controller.release("a")
        assert controller.try_admit("c").admitted

    def test_per_client_quota(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active=10, max_per_client=2)
        )
        assert controller.try_admit("greedy").admitted
        assert controller.try_admit("greedy").admitted
        refused = controller.try_admit("greedy")
        assert not refused.admitted and "quota" in refused.reason
        # Another client is unaffected by the first one's quota.
        assert controller.try_admit("polite").admitted
        controller.release("greedy")
        assert controller.try_admit("greedy").admitted

    def test_counters(self):
        controller = AdmissionController(AdmissionPolicy(max_active=1))
        controller.try_admit("a")
        controller.try_admit("b")
        controller.try_admit("c")
        snap = controller.snapshot()
        assert snap["admitted_total"] == 1
        assert snap["rejected_total"] == 2
        assert snap["rejected_by_reason"] == {"server_full": 2}
        assert snap["active"] == 1

    def test_unmatched_release_raises(self):
        controller = AdmissionController()
        with pytest.raises(ServeError, match="release"):
            controller.release("ghost")


class TestDeadlineGuard:
    def test_wall_timeout(self):
        handle = FakeHandle()
        guard = DeadlineGuard(handle, wall_limit=10.0, vtime_limit=None)
        assert guard.expired(now=guard._wall_start + 5.0) is None
        reason = guard.expired(now=guard._wall_start + 10.5)
        assert reason is not None and reason.startswith(TIMEOUT_REASON_PREFIX)
        assert "wall" in reason

    def test_vtime_timeout(self):
        handle = FakeHandle()
        guard = DeadlineGuard(handle, wall_limit=None, vtime_limit=100.0)
        handle.clock.vtime = 50.0
        assert guard.expired() is None
        handle.clock.vtime = 150.0
        assert "vtime" in guard.expired()

    def test_enforce_cancels_through_the_handle(self):
        handle = FakeHandle()
        guard = DeadlineGuard(handle, wall_limit=None, vtime_limit=1.0)
        handle.clock.vtime = 2.0
        assert guard.enforce() is True
        assert handle.cancelled_with.startswith(TIMEOUT_REASON_PREFIX)

    def test_enforce_skips_finished_queries(self):
        handle = FakeHandle()
        handle.finished = True
        guard = DeadlineGuard(handle, wall_limit=None, vtime_limit=1.0)
        handle.clock.vtime = 2.0
        assert guard.enforce() is False
        assert handle.cancelled_with is None

    def test_no_limits_never_expires(self):
        guard = DeadlineGuard(FakeHandle(), wall_limit=None, vtime_limit=None)
        assert guard.expired(now=guard._wall_start + 1e9) is None
