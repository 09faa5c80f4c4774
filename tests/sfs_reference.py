"""Reference: the scalar Sort-Filter-Skyline loop (Chomicki et al.).

JF-SL, SSMJ's two batch skylines and the multi-way blocking evaluator
once ran this loop; they now run
:func:`repro.skyline.vectorized.skyline_order`.  This copy lets the tests
show that the move changes neither their survivors, nor the order they
report them in, nor the comparisons they charge.
"""

from repro.skyline.dominance import dominates


def sfs_skyline_entries(entries, *, on_comparison=None):
    """Skyline of ``(vector, payload)`` pairs in sum order, one charge per
    test: each vector against the window, up to its first dominator."""
    ordered = sorted(entries, key=lambda e: (sum(e[0]), tuple(e[0])))
    window = []
    for vec, payload in ordered:
        dominated = False
        for wvec, _ in window:
            if on_comparison is not None:
                on_comparison()
            if dominates(wvec, vec):
                dominated = True
                break
        if not dominated:
            window.append((vec, payload))
    return window
