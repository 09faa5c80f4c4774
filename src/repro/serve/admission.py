"""Admission control for the streaming server edge.

A progressive engine is only as responsive as its admission discipline: a
server that accepts every connection degrades everyone's time-to-first-
result at once.  This module keeps admission decisions *synchronous and
pure* — the asyncio layer asks, gets a decision object, and translates it
to HTTP — so the policy is unit-testable without sockets:

* :class:`AdmissionPolicy` — the server's validated ceilings: total
  concurrent streaming queries, per-client quota, and per-query wall/vtime
  timeout caps that clamp whatever the client asked for.
* :class:`AdmissionController` — the counter box enforcing the policy:
  ``try_admit`` either grants a slot or returns a 429-style rejection with
  a ``Retry-After`` hint; ``release`` returns the slot.
* :class:`DeadlineGuard` — the per-query timeout watcher.  The serving
  pump polls it and, on expiry, cancels the query's handle
  (``ResultStream.cancel``), which releases its admission slot at the
  next scheduling decision — even if the query is paused under
  backpressure at that moment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ServeError

#: HTTP status equivalents used by the server layer.
OK = 200
TOO_MANY_REQUESTS = 429

#: Cancellation-reason prefix for admission-enforced timeouts; clients and
#: benches detect a timed-out query by it.
TIMEOUT_REASON_PREFIX = "admission timeout:"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Validated serving ceilings.

    max_active:
        Server-wide cap on concurrently streaming queries; further
        submissions are rejected 429-style (``None`` admits everything).
        Distinct from the scheduler's ``max_active``, which *queues*
        admitted queries — the serving edge refuses instead, because an
        interactive client gains nothing from an unbounded queue.
    max_per_client:
        Concurrent-query quota per client identity (``None`` = no quota).
    max_wall_seconds / max_vtime:
        Hard per-query timeout ceilings.  A client may request a *shorter*
        timeout; a longer or absent request is clamped to these.  ``None``
        leaves the dimension unlimited unless the client asks.
    retry_after_seconds:
        The ``Retry-After`` hint attached to rejections.

    Example::

        policy = AdmissionPolicy(max_active=64, max_per_client=4,
                                 max_wall_seconds=30.0)
        controller = AdmissionController(policy)
        decision = controller.try_admit("client-7")
        if not decision.admitted:
            respond(429, decision.reason, decision.retry_after)
    """

    max_active: int | None = 64
    max_per_client: int | None = None
    max_wall_seconds: float | None = None
    max_vtime: float | None = None
    retry_after_seconds: float = 1.0

    def __post_init__(self) -> None:
        for name in ("max_active", "max_per_client"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServeError(f"{name} must be >= 1, got {value}")
        for name in ("max_wall_seconds", "max_vtime", "retry_after_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ServeError(f"{name} must be positive, got {value}")

    def wall_limit(self, requested: float | None) -> float | None:
        """Effective wall timeout: the client's request clamped by policy."""
        return _clamp(requested, self.max_wall_seconds)

    def vtime_limit(self, requested: float | None) -> float | None:
        """Effective vtime timeout: the client's request clamped by policy."""
        return _clamp(requested, self.max_vtime)


def _clamp(requested: float | None, ceiling: float | None) -> float | None:
    if requested is None:
        return ceiling
    if ceiling is None:
        return requested
    return min(requested, ceiling)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    ``status`` is the HTTP status the server should answer with: 200 for
    an admitted query, 429 for a rejected one (with ``reason`` and a
    ``retry_after`` hint).
    """

    admitted: bool
    status: int = OK
    reason: str | None = None
    retry_after: float | None = None


class AdmissionController:
    """Enforces an :class:`AdmissionPolicy` over live query counts.

    Purely synchronous bookkeeping — the caller owns concurrency (the
    asyncio server runs it from one event loop).  Every ``try_admit`` that
    returns an admitted decision MUST be paired with exactly one
    ``release`` when the query reaches a terminal state.

    Example::

        controller = AdmissionController(AdmissionPolicy(max_active=2))
        controller.try_admit("a").admitted      # True
        controller.try_admit("b").admitted      # True
        controller.try_admit("c").admitted      # False (server full)
        controller.release("a")
        controller.try_admit("c").admitted      # True
    """

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self._active_total = 0
        self._active_by_client: dict[str, int] = {}
        self.admitted_total = 0
        self.rejected_total = 0
        self.rejected_by_reason: dict[str, int] = {}

    @property
    def active(self) -> int:
        """Queries currently holding an admission slot."""
        return self._active_total

    def active_for(self, client: str) -> int:
        """Slots currently held by one client identity."""
        return self._active_by_client.get(client, 0)

    def try_admit(self, client: str) -> AdmissionDecision:
        """Grant a slot to ``client`` or explain the refusal."""
        policy = self.policy
        if (
            policy.max_active is not None
            and self._active_total >= policy.max_active
        ):
            return self._reject(
                f"server at capacity ({policy.max_active} active queries)",
                key="server_full",
            )
        if (
            policy.max_per_client is not None
            and self.active_for(client) >= policy.max_per_client
        ):
            return self._reject(
                f"client {client!r} at quota "
                f"({policy.max_per_client} concurrent queries)",
                key="client_quota",
            )
        self._active_total += 1
        self._active_by_client[client] = self.active_for(client) + 1
        self.admitted_total += 1
        return AdmissionDecision(admitted=True)

    def release(self, client: str) -> None:
        """Return the slot held by one of ``client``'s queries."""
        if self._active_total <= 0 or self.active_for(client) <= 0:
            raise ServeError(
                f"release without a matching admit for client {client!r}"
            )
        self._active_total -= 1
        remaining = self._active_by_client[client] - 1
        if remaining:
            self._active_by_client[client] = remaining
        else:
            del self._active_by_client[client]

    def _reject(self, reason: str, *, key: str) -> AdmissionDecision:
        self.rejected_total += 1
        self.rejected_by_reason[key] = self.rejected_by_reason.get(key, 0) + 1
        return AdmissionDecision(
            admitted=False,
            status=TOO_MANY_REQUESTS,
            reason=reason,
            retry_after=self.policy.retry_after_seconds,
        )

    def snapshot(self) -> dict:
        """Counters for the ``/stats`` endpoint."""
        return {
            "active": self._active_total,
            "active_clients": len(self._active_by_client),
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
            "rejected_by_reason": dict(self.rejected_by_reason),
        }


class DeadlineGuard:
    """Watches one admitted query's wall/vtime timeout.

    Built at admission time from the policy-clamped limits; the serving
    pump polls :meth:`expired` every scheduling round (cheap: two
    comparisons) and cancels the query through its scheduler handle when a
    limit is crossed.  Cancellation — not a budget stop — because a
    timeout is the *server* revoking service, and must free the admission
    slot even for a query paused under backpressure.

    For a *follow* query (``follow=True``) expiry instead closes the
    arrival window (:meth:`ResultStream.close_ingest
    <repro.session.stream.ResultStream.close_ingest>`): the timeout
    bounds how long the server keeps ingesting, but rows already absorbed
    are still fully processed and the query completes normally.
    """

    __slots__ = (
        "handle", "wall_limit", "vtime_limit", "follow", "_wall_start",
        "_ingest_closed",
    )

    def __init__(
        self,
        handle,
        *,
        wall_limit: float | None,
        vtime_limit: float | None,
        follow: bool = False,
    ) -> None:
        self.handle = handle
        self.wall_limit = wall_limit
        self.vtime_limit = vtime_limit
        self.follow = follow
        self._wall_start = time.perf_counter()
        self._ingest_closed = False

    def expired(self, now: float | None = None) -> str | None:
        """The timeout reason if a limit is crossed, else ``None``."""
        if self.wall_limit is not None:
            elapsed = (now or time.perf_counter()) - self._wall_start
            if elapsed >= self.wall_limit:
                return (
                    f"{TIMEOUT_REASON_PREFIX} wall limit "
                    f"({self.wall_limit:g}s) exceeded"
                )
        if (
            self.vtime_limit is not None
            and self.handle.clock.now() >= self.vtime_limit
        ):
            return (
                f"{TIMEOUT_REASON_PREFIX} vtime limit "
                f"({self.vtime_limit:g}) exceeded"
            )
        return None

    def enforce(self, now: float | None = None) -> bool:
        """Cancel (or, for follow queries, close) on a crossed limit."""
        reason = self.expired(now)
        if reason is None or self.handle.finished:
            return False
        if self.follow:
            # Close the arrival window once; the query then drains its
            # absorbed rows to natural completion instead of being killed.
            if self._ingest_closed:
                return False
            self._ingest_closed = True
            self.handle.close_ingest()
            return True
        self.handle.cancel(reason)
        return True
