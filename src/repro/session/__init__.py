"""The session service layer: the canonical public surface of the library.

``Session`` ties everything together — registered tables, a pluggable
:class:`AlgorithmRegistry`, fluent :class:`QueryBuilder` query construction,
validated :class:`EngineConfig` engine tuning, and progressive execution via
:class:`ResultStream` handles with callbacks, cancellation and budgets.

Import note: the modules here are imported by :mod:`repro.core` (the
``ALGORITHMS`` registry view), so nothing in this package may import the
:mod:`repro.core` *package* (``from repro.core import ...``) at module
load time — the default registry resolves it lazily instead.  Importing
``repro.core`` **submodules** directly (as the stream and the scheduler
do for :mod:`repro.core.kernel`) is safe: submodule imports do not require the
partially-initialised package ``__init__`` to have finished.
"""

from repro.session.builder import QueryBuilder
from repro.session.config import PARTITIONING_KINDS, PRESETS, EngineConfig
from repro.session.registry import (
    AlgorithmRegistry,
    RegistryEntry,
    RegistryView,
    default_registry,
)
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
    "AlgorithmRegistry",
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
    "RegistryEntry",
    "RegistryView",
    "ResultStream",
    "RUNNING",
    "Session",
    "StreamBudget",
    "StreamStats",
    "default_registry",
]
