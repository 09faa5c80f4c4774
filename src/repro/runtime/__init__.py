"""Runtime substrate: virtual clock, progressiveness recording, harnesses."""

from repro.runtime.clock import DEFAULT_WEIGHTS, VirtualClock
from repro.runtime.compare import ComparisonReport, compare_algorithms
from repro.runtime.plots import ascii_curve
from repro.runtime.recorder import EmissionEvent, ProgressRecorder
from repro.runtime.runner import (
    Algorithm,
    AlgorithmFactory,
    RunResult,
    run_algorithm,
)

__all__ = [
    "Algorithm",
    "AlgorithmFactory",
    "ComparisonReport",
    "DEFAULT_WEIGHTS",
    "EmissionEvent",
    "ProgressRecorder",
    "RunResult",
    "ascii_curve",
    "VirtualClock",
    "compare_algorithms",
    "run_algorithm",
]
