"""Block-Nested-Loops skyline (Börzsönyi, Kossmann & Stocker, ICDE 2001).

The classic window algorithm: stream the input once, keeping a window of
mutually incomparable tuples.  A new tuple is discarded if any window tuple
dominates it; window tuples dominated by the new tuple are evicted.  With an
unbounded window (the in-memory case reproduced here) a single pass suffices.

Payload-carrying variant: callers pass ``(vector, payload)`` pairs so skyline
membership can be traced back to the originating tuples.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.skyline.dominance import dominates

T = TypeVar("T")


def bnl_skyline(
    vectors: Iterable[Sequence[float]],
    *,
    on_comparison: Callable[[], None] | None = None,
) -> list[Sequence[float]]:
    """Skyline of ``vectors`` (minimisation space) via block-nested-loops:
    :func:`bnl_skyline_entries` with no payloads.

    ``on_comparison`` is invoked once per dominance comparison so callers can
    charge a virtual clock.
    """
    window = bnl_skyline_entries(
        ((v, None) for v in vectors), on_comparison=on_comparison
    )
    return [v for v, _ in window]


def bnl_skyline_entries(
    entries: Iterable[tuple[Sequence[float], T]],
    *,
    on_comparison: Callable[[], None] | None = None,
) -> list[tuple[Sequence[float], T]]:
    """Payload-preserving block-nested-loops skyline.

    Each entry is a ``(vector, payload)`` pair; vectors are compared, payloads
    ride along.  Identical vectors are all kept (equal tuples do not dominate
    each other under Definition 1).
    """
    window: list[tuple[Sequence[float], T]] = []
    for vec, payload in entries:
        dominated = False
        survivors: list[tuple[Sequence[float], T]] = []
        for i, (wvec, wpayload) in enumerate(window):
            if on_comparison is not None:
                on_comparison()
            if dominates(wvec, vec):
                # A window dominator of vec implies vec evicted nothing
                # before this point (the window is mutually non-dominated,
                # so a tuple vec beats cannot coexist with one beating vec):
                # the suffix restore reconstructs the window exactly.
                dominated = True
                survivors.extend(window[i:])
                break
            if not dominates(vec, wvec):
                survivors.append((wvec, wpayload))
        if not dominated:
            survivors.append((vec, payload))
        window = survivors
    return window
