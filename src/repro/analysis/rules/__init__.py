"""Built-in lint rules.

Importing this package registers every built-in checker; the registry's
:func:`~repro.analysis.registry.all_checkers` does so lazily, so simply
asking for the checkers is enough.
"""

from repro.analysis.rules.async_hygiene import AsyncHygieneChecker
from repro.analysis.rules.clock_discipline import ClockDisciplineChecker
from repro.analysis.rules.determinism import DeterminismChecker
from repro.analysis.rules.error_handling import ErrorHandlingChecker
from repro.analysis.rules.exports import ExportConsistencyChecker

__all__ = [
    "AsyncHygieneChecker",
    "ClockDisciplineChecker",
    "DeterminismChecker",
    "ErrorHandlingChecker",
    "ExportConsistencyChecker",
]
