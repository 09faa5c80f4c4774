"""Wire protocol of the streaming server edge.

Two halves, both free of any I/O so they unit-test without sockets:

* **Requests** — :class:`QueryRequest` is the validated form of one query
  submission (JSON body of ``POST /query`` or the query string of
  ``GET /query``).  It carries the paper's SQL surface plus execution
  options (algorithm, engine preset/config, budgets) and serving options
  (timeouts, frame format, progress cadence, client identity for quotas).
  Validation failures raise :class:`~repro.errors.ProtocolError`, which the
  server maps to HTTP 400.

* **Frames** — every streamed response is a sequence of event frames with
  a single monotonically increasing ``seq`` number:

  ========== ===========================================================
  event      meaning
  ========== ===========================================================
  accepted   admission succeeded; carries qid / name / algorithm
  result     one provably-final result (``index`` is 1-based)
  progress   periodic execution snapshot (steps, results, vtime, state)
  error      the query failed; carries the reason
  complete   terminal frame: final state, stop reason and statistics
  ========== ===========================================================

  :class:`FrameFactory` builds them; :func:`encode_frame` renders a frame
  as NDJSON (one JSON object per line) or SSE (``event:`` / ``data:``
  blocks).  Because the sequence number lives *in* the frame, the two
  encodings carry identical content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from repro.errors import ProtocolError
from repro.query.smj import ResultTuple
from repro.session.config import EngineConfig
from repro.session.stream import StreamBudget

#: Frame encodings the server can stream.
FORMATS: tuple[str, ...] = ("ndjson", "sse")

#: Content-Type header value per format.
CONTENT_TYPES: dict[str, str] = {
    "ndjson": "application/x-ndjson",
    "sse": "text/event-stream",
}

_FLOAT_FIELDS = (
    "max_vtime",
    "max_wall_seconds",
    "timeout_vtime",
    "timeout_wall_seconds",
)
_INT_FIELDS = ("max_results", "max_comparisons", "progress_every")
_BOOL_FIELDS = ("follow",)

#: Query-string spellings accepted for boolean request fields.
_BOOL_STRINGS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


@dataclass(frozen=True)
class QueryRequest:
    """One validated query submission to the serving edge.

    sql:
        The query in the paper's SQL-with-PREFERRING surface (required).
    algorithm:
        Algorithm name or alias (:func:`~repro.core.variants.lookup_algorithm`).
    preset:
        Engine configuration preset name (see
        :data:`repro.session.config.PRESETS`).
    config:
        Engine configuration overrides applied on top of the preset (or
        the default configuration), e.g. ``{"partitioning": "quadtree",
        "input_cells": 6}``.
    max_results / max_vtime / max_comparisons / max_wall_seconds:
        Client-requested :class:`~repro.session.stream.StreamBudget`
        ceilings — the stream stops *cleanly* (state
        ``budget_exhausted``) when one is hit.
    timeout_wall_seconds / timeout_vtime:
        Admission-layer timeouts: when exceeded, the server *cancels* the
        query through the scheduler (state ``cancelled``, reason naming
        the timeout).  Server-side policy ceilings clamp these.
    follow:
        Streaming ingestion: keep the query's arrival window open so rows
        appended to its source tables while it runs are absorbed (see
        :attr:`repro.session.config.EngineConfig.follow`).  A follow query
        only completes when its window closes — give it a timeout (the
        server then *closes the window* rather than cancelling, so every
        absorbed row is still fully processed) or close it explicitly.
    format:
        ``"ndjson"`` (default) or ``"sse"``.
    progress_every:
        Emit a ``progress`` frame every N kernel steps (0 disables).
    client:
        Client identity for per-client admission quotas; defaults to the
        connection's peer address.
    name:
        Optional query display name, echoed in the ``accepted`` frame.

    Example::

        request = QueryRequest.from_mapping({
            "sql": "SELECT ... PREFERRING LOWEST(x)",
            "algorithm": "ProgXe+",
            "max_results": 10,
            "format": "sse",
        })
        budget = request.budget()           # StreamBudget or None
        config = request.engine_config()    # EngineConfig or None
    """

    sql: str
    algorithm: str = "ProgXe"
    preset: str | None = None
    config: Mapping[str, Any] | None = None
    max_results: int | None = None
    max_vtime: float | None = None
    max_comparisons: int | None = None
    max_wall_seconds: float | None = None
    timeout_wall_seconds: float | None = None
    timeout_vtime: float | None = None
    follow: bool = False
    format: str = "ndjson"
    progress_every: int = 0
    client: str | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.sql, str) or not self.sql.strip():
            raise ProtocolError("request field 'sql' must be a non-empty string")
        if self.format not in FORMATS:
            raise ProtocolError(
                f"request field 'format' must be one of {FORMATS}, "
                f"got {self.format!r}"
            )
        if self.progress_every < 0:
            raise ProtocolError(
                f"request field 'progress_every' must be >= 0, "
                f"got {self.progress_every}"
            )
        for field in (*_FLOAT_FIELDS, "max_results", "max_comparisons"):
            value = getattr(self, field)
            if value is not None and value <= 0:
                raise ProtocolError(
                    f"request field {field!r} must be positive, got {value}"
                )
        if self.config is not None and not isinstance(self.config, Mapping):
            raise ProtocolError(
                "request field 'config' must be an object of EngineConfig "
                f"overrides, got {type(self.config).__name__}"
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "QueryRequest":
        """Validate a decoded JSON object (or query-string dict).

        Unknown keys are rejected — a typo in a budget field must not
        silently run an unbounded query.  String values for numeric fields
        are coerced, so URL query parameters work unchanged.
        """
        if not isinstance(mapping, Mapping):
            raise ProtocolError(
                f"request body must be a JSON object, got "
                f"{type(mapping).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ProtocolError(
                f"unknown request fields: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs: dict[str, Any] = dict(mapping)
        for field in _FLOAT_FIELDS:
            kwargs[field] = _coerce(mapping.get(field), float, field)
        for field in _INT_FIELDS:
            kwargs[field] = _coerce(mapping.get(field), int, field)
        for field in _BOOL_FIELDS:
            kwargs[field] = _coerce_bool(mapping.get(field), field)
        if kwargs.get("progress_every") is None:
            kwargs["progress_every"] = 0
        if isinstance(kwargs.get("config"), str):
            try:
                kwargs["config"] = json.loads(kwargs["config"])
            except json.JSONDecodeError as exc:
                raise ProtocolError(
                    f"request field 'config' is not valid JSON: {exc}"
                ) from None
        try:
            return cls(**kwargs)
        except TypeError:
            raise ProtocolError(
                "request is missing the required 'sql' field"
            ) from None

    def budget(self) -> StreamBudget | None:
        """The client-requested stream budget, or ``None`` if unbounded."""
        budget = StreamBudget(
            max_vtime=self.max_vtime,
            max_comparisons=self.max_comparisons,
            max_results=self.max_results,
            max_wall_seconds=self.max_wall_seconds,
        )
        return None if budget.unlimited else budget

    def engine_config(self) -> EngineConfig | None:
        """Resolve ``preset`` + ``config`` overrides into an EngineConfig.

        Returns ``None`` when neither was given, so the session default
        applies.  Invalid preset names or override values surface as
        :class:`~repro.errors.ProtocolError`.
        """
        if self.preset is None and self.config is None and not self.follow:
            return None
        try:
            base = (
                EngineConfig.preset(self.preset)
                if self.preset is not None
                else EngineConfig()
            )
            if self.config:
                base = base.with_options(**dict(self.config))
            if self.follow:
                base = base.with_options(follow=True)
            return base
        except TypeError as exc:
            raise ProtocolError(f"invalid engine config override: {exc}") from None
        except Exception as exc:  # QueryError from validation
            raise ProtocolError(str(exc)) from None


def _coerce_bool(value: Any, field: str) -> bool:
    """Coerce a boolean request field; query-string spellings accepted."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in _BOOL_STRINGS:
        return _BOOL_STRINGS[value.lower()]
    raise ProtocolError(
        f"request field {field!r} must be a boolean "
        f"(or one of {sorted(_BOOL_STRINGS)}), got {value!r}"
    )


def _coerce(
    value: Any, kind: type[float] | type[int], field: str
) -> float | int | None:
    if value is None:
        return None
    try:
        coerced = kind(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"request field {field!r} must be a {kind.__name__}, "
            f"got {value!r}"
        ) from None
    return coerced


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
class FrameFactory:
    """Builds the event frames of one streamed response.

    Owns the stream's monotonic sequence counter: every frame built by one
    factory carries the next ``seq`` value, whatever its event type, so a
    client can detect loss or reordering with a single integer check.

    Example::

        frames = FrameFactory()
        frames.accepted(qid=3, name="q3", algorithm="ProgXe")  # seq 0
        frames.result(result)                                  # seq 1
        frames.complete(state="completed", stats={...})        # seq 2
    """

    def __init__(self) -> None:
        self._seq = 0

    @property
    def next_seq(self) -> int:
        """The sequence number the next frame will carry."""
        return self._seq

    def _frame(self, event: str, **payload: Any) -> dict[str, Any]:
        frame = {"seq": self._seq, "event": event, **payload}
        self._seq += 1
        return frame

    def accepted(
        self, *, qid: int, name: str, algorithm: str | None
    ) -> dict[str, Any]:
        """The stream's first frame: the query was admitted."""
        return self._frame(
            "accepted", qid=qid, name=name, algorithm=algorithm
        )

    def result(self, index: int, result: ResultTuple) -> dict[str, Any]:
        """One provably-final result; ``index`` is 1-based emission order."""
        return self._frame("result", index=index, values=result.outputs)

    def progress(
        self, *, steps: int, results: int, vtime: float, state: str
    ) -> dict[str, Any]:
        """Periodic execution snapshot between results."""
        return self._frame(
            "progress", steps=steps, results=results, vtime=vtime, state=state
        )

    def error(self, message: str) -> dict[str, Any]:
        """The query failed; a ``complete`` frame still follows."""
        return self._frame("error", error=message)

    def complete(
        self,
        *,
        state: str,
        stop_reason: str | None = None,
        stats: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Terminal frame: every stream ends with exactly one of these."""
        return self._frame(
            "complete",
            state=state,
            stop_reason=stop_reason,
            stats=dict(stats) if stats else None,
        )


def _plain(value: Any) -> Any:
    """JSON fallback: numpy scalars as their Python value, else ``str``."""
    return value.item() if isinstance(value, np.generic) else str(value)


def encode_frame(frame: Mapping[str, Any], format: str = "ndjson") -> bytes:
    """Render one frame in the requested wire format.

    NDJSON: the frame as one JSON object terminated by ``\\n``.  SSE: an
    ``event:`` line naming the frame's event plus a ``data:`` line with the
    same JSON object, terminated by a blank line.
    """
    if format not in FORMATS:
        raise ProtocolError(f"unknown frame format {format!r}")
    data = json.dumps(frame, default=_plain, separators=(",", ":"))
    if format == "sse":
        return f"event: {frame['event']}\ndata: {data}\n\n".encode()
    return data.encode() + b"\n"
