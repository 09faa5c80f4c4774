"""Skyline substrate: preference model, dominance tests and skyline algorithms."""

from repro.skyline.bnl import bnl_skyline, bnl_skyline_entries
from repro.skyline.dominance import (
    Dominance,
    compare,
    dominated_mask,
    dominates,
    dominating_mask,
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
from repro.skyline.sfs import sfs_skyline, sfs_skyline_entries
from repro.skyline.vectorized import (
    dominated_by_any,
    dominates_matrix,
    pareto_mask,
    skyline_mask,
    vectorized_sfs_skyline,
    vectorized_skyline,
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
    "dominated_mask",
    "dominates",
    "dominates_matrix",
    "dominating_mask",
    "expected_maxima_harmonic",
    "expected_skyline_size",
    "harmonic",
    "highest",
    "lowest",
    "pareto_mask",
    "sfs_skyline",
    "sfs_skyline_entries",
    "skyline_indices_bruteforce",
    "skyline_mask",
    "vectorized_sfs_skyline",
    "vectorized_skyline",
    "weakly_dominates",
]
