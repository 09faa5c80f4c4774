"""Skyline substrate: preference model, dominance tests and skyline algorithms."""

from repro.skyline.bnl import bnl_skyline, bnl_skyline_entries
from repro.skyline.dominance import (
    dominates,
    skyline_indices_bruteforce,
    weakly_dominates,
)
from repro.skyline.estimate import expected_skyline_size
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
    "HIGHEST",
    "LOWEST",
    "ParetoPreference",
    "Preference",
    "all_lowest",
    "bnl_skyline",
    "bnl_skyline_entries",
    "dominated_by_any",
    "dominates",
    "dominates_matrix",
    "expected_skyline_size",
    "highest",
    "lowest",
    "skyline_indices_bruteforce",
    "skyline_mask",
    "skyline_order",
    "weakly_dominates",
]
