"""Backpressure bridge: slow clients pause their own query, nobody else's.

The serving pump (producer) runs kernel steps and pushes encoded frames
into a per-connection :class:`OutboundChannel`; the connection's writer
task (consumer) pops frames and writes them to the socket, honouring the
transport's own flow control via ``drain()``.  When a client stops
reading, its socket buffer fills, ``drain()`` blocks the writer, and the
channel's buffered bytes climb — crossing the high-water mark invokes the
pause callback, which a :class:`BackpressureBridge` wires to that one
query's :meth:`~repro.session.stream.ResultStream.pause`.  The
scheduler simply stops dispatching the paused query: no unbounded
buffering, no head-of-line blocking of other queries.  When the writer
drains the channel below the low-water mark, the bridge resumes the query.

Pause/resume never mutates execution state (only dispatch stops), so a
throttled query's step and result sequence is byte-identical to an
unthrottled run — property-tested in ``tests/test_scheduler_serving.py``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ServeError

#: Defaults sized for interactive result streams: a few hundred frames.
DEFAULT_HIGH_WATER = 32 * 1024
DEFAULT_LOW_WATER = 8 * 1024


@dataclass(frozen=True)
class Watermarks:
    """High/low buffered-byte thresholds of one outbound channel.

    The pause callback fires when buffered bytes *exceed* ``high``; the
    resume callback when they fall back to ``low`` or below.  The gap is
    hysteresis — resuming at the high mark would flap pause/resume on
    every frame.
    """

    high: int = DEFAULT_HIGH_WATER
    low: int = DEFAULT_LOW_WATER

    def __post_init__(self) -> None:
        if self.high <= 0:
            raise ServeError(f"high watermark must be positive, got {self.high}")
        if not 0 <= self.low < self.high:
            raise ServeError(
                f"low watermark must satisfy 0 <= low < high, "
                f"got low={self.low} high={self.high}"
            )


class OutboundChannel:
    """Single-producer single-consumer frame buffer with watermark callbacks.

    Both ends live on one event loop, so the implementation is a plain
    deque plus an :class:`asyncio.Event` — no locks.  The channel is
    *bounded by pausing the producer*, never by dropping frames or
    blocking the pump: ``put`` always succeeds while open (triggering
    ``on_pause`` past the high-water mark), and ``get`` triggers
    ``on_resume`` once the backlog drains to the low-water mark.

    Example::

        channel = OutboundChannel(Watermarks(high=1024, low=256),
                                  on_pause=query.pause,
                                  on_resume=query.resume)
        channel.put(frame_bytes)        # producer (the scheduling pump)
        data = await channel.get()      # consumer (the connection writer)
        channel.close()                 # get() returns None once drained
    """

    def __init__(
        self,
        watermarks: Watermarks | None = None,
        *,
        on_pause: Callable[[], None] | None = None,
        on_resume: Callable[[], None] | None = None,
    ) -> None:
        self.watermarks = watermarks or Watermarks()
        self._on_pause = on_pause
        self._on_resume = on_resume
        self._frames: deque[bytes] = deque()
        self._buffered = 0
        self._ready = asyncio.Event()
        self._closed = False
        self.paused = False
        #: Lifetime counters, surfaced by the server's /stats endpoint.
        self.pauses = 0
        self.resumes = 0
        self.frames_in = 0
        self.frames_out = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently queued for the writer."""
        return self._buffered

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, data: bytes) -> bool:
        """Queue one encoded frame; returns False if the channel is closed.

        A closed channel (client gone) swallows the frame silently — the
        producing pump learns of the disconnect through the query's
        cancellation, not through its frame routing.
        """
        if self._closed:
            return False
        self._frames.append(data)
        self._buffered += len(data)
        self.frames_in += 1
        self._ready.set()
        if not self.paused and self._buffered > self.watermarks.high:
            self.paused = True
            self.pauses += 1
            if self._on_pause is not None:
                self._on_pause()
        return True

    async def get(self) -> bytes | None:
        """Wait for the next frame; ``None`` once closed and drained."""
        while not self._frames:
            if self._closed:
                return None
            self._ready.clear()
            await self._ready.wait()
        data = self._frames.popleft()
        self._buffered -= len(data)
        self.frames_out += 1
        if self.paused and self._buffered <= self.watermarks.low:
            self.paused = False
            self.resumes += 1
            if self._on_resume is not None:
                self._on_resume()
        return data

    def close(self) -> None:
        """No more frames will be accepted; the consumer drains the rest."""
        self._closed = True
        self._ready.set()


class BackpressureBridge:
    """Wires one channel's watermarks to one scheduled query's handle.

    The indirection (rather than handing ``handle.pause`` straight to the
    channel) exists so resuming can also *wake the serving pump* — after a
    slow client drains, somebody has to tell the scheduler there is
    runnable work again — and so pause/resume counts stay inspectable per
    query.
    """

    def __init__(
        self,
        handle,
        watermarks: Watermarks | None = None,
        *,
        on_runnable: Callable[[], None] | None = None,
    ) -> None:
        self.handle = handle
        self._on_runnable = on_runnable
        self.channel = OutboundChannel(
            watermarks, on_pause=self._pause, on_resume=self._resume
        )

    def _pause(self) -> None:
        self.handle.pause()

    def _resume(self) -> None:
        self.handle.resume()
        if self._on_runnable is not None:
            self._on_runnable()
