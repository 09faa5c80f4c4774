"""The session service layer: the canonical public surface of the library.

``Session`` ties everything together — registered tables, the algorithm
names of :data:`~repro.core.variants.ALGORITHM_TABLE`, fluent
:class:`QueryBuilder` query construction, validated :class:`EngineConfig`
engine tuning, and progressive execution via :class:`ResultStream` handles
with callbacks, cancellation and budgets.

The layer sits above :mod:`repro.core`: it imports the core, and nothing
in the core imports it at load time.
"""

from repro.session.builder import QueryBuilder
from repro.session.config import PARTITIONING_KINDS, PRESETS, EngineConfig
from repro.session.scheduler import QueryScheduler
from repro.session.service import DEFAULT_ALGORITHM, Session
from repro.session.stream import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    ResultStream,
    StreamBudget,
    StreamStats,
)

__all__ = [
    "BUDGET_EXHAUSTED",
    "CANCELLED",
    "COMPLETED",
    "DEFAULT_ALGORITHM",
    "EngineConfig",
    "FAILED",
    "PARTITIONING_KINDS",
    "PENDING",
    "PRESETS",
    "QueryBuilder",
    "QueryScheduler",
    "ResultStream",
    "RUNNING",
    "Session",
    "StreamBudget",
    "StreamStats",
]
