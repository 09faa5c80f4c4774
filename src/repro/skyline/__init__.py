"""Skyline substrate: preference model, dominance tests and skyline algorithms."""

from repro.skyline.bnl import bnl_skyline, bnl_skyline_entries
from repro.skyline.dominance import (
    Dominance,
    compare,
    dominates,
    skyline_indices_bruteforce,
    weakly_dominates,
)
from repro.skyline.estimate import (
    expected_maxima_harmonic,
    expected_skyline_size,
    harmonic,
)
from repro.skyline.preferences import (
    HIGHEST,
    LOWEST,
    Direction,
    ParetoPreference,
    Preference,
    all_lowest,
    highest,
    lowest,
)
from repro.skyline.vectorized import (
    dominated_by_any,
    dominates_matrix,
    skyline_mask,
    skyline_order,
)

__all__ = [
    "Direction",
    "Dominance",
    "HIGHEST",
    "LOWEST",
    "ParetoPreference",
    "Preference",
    "all_lowest",
    "bnl_skyline",
    "bnl_skyline_entries",
    "compare",
    "dominated_by_any",
    "dominates",
    "dominates_matrix",
    "expected_maxima_harmonic",
    "expected_skyline_size",
    "harmonic",
    "highest",
    "lowest",
    "skyline_indices_bruteforce",
    "skyline_mask",
    "skyline_order",
    "weakly_dominates",
]
