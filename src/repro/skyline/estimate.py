"""Skyline cardinality estimator.

The ProgOrder benefit model (paper Eq. 1) estimates the number of skyline
points a region can produce using the classical result on the expected
number of maxima of ``n`` random vectors in ``d`` dimensions
(Bentley/Kung/Schkolnick/Thompson 1978, Buchta 1989):

    E[|skyline|] = Theta( ln(n)^(d-1) / (d-1)! )
"""

from __future__ import annotations

import math


def expected_skyline_size(n: float, d: int) -> float:
    """Paper Eq. 1: ``ln(n)^(d-1) / (d-1)!`` with small-input guards.

    ``n`` may be fractional (it is typically ``sigma * n_R * n_T``, an
    expected join cardinality).  Inputs below ``1`` clamp to an estimate of
    one result so the benefit model never produces zero or negative
    estimates for regions guaranteed to be populated.
    """
    if d < 1:
        raise ValueError(f"dimensions must be >= 1, got {d}")
    if n <= 1.0:
        return 1.0
    return max(1.0, math.log(n) ** (d - 1) / math.factorial(d - 1))
