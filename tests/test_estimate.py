"""Tests for the skyline-cardinality estimators (benefit model Eq. 1)."""

import math

import numpy as np
import pytest

from repro.skyline.bnl import bnl_skyline
from repro.skyline.estimate import expected_skyline_size


class TestClosedForm:
    def test_one_dimension_is_one(self):
        assert expected_skyline_size(1000, 1) == 1.0

    def test_two_dimensions_is_log(self):
        assert expected_skyline_size(math.e ** 3, 2) == pytest.approx(3.0)

    def test_small_inputs_clamp_to_one(self):
        assert expected_skyline_size(0.5, 3) == 1.0
        assert expected_skyline_size(1.0, 3) == 1.0

    def test_grows_with_dimensions(self):
        n = 10_000
        sizes = [expected_skyline_size(n, d) for d in range(2, 6)]
        assert sizes == sorted(sizes)

    def test_grows_with_cardinality(self):
        assert expected_skyline_size(10_000, 3) > expected_skyline_size(100, 3)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            expected_skyline_size(100, 0)


class TestAgainstSimulation:
    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_form_tracks_monte_carlo(self, d):
        # Within a small constant of the mean skyline size of uniform
        # points, at the sizes ProgOrder deals with.
        rng = np.random.default_rng(17)
        n, trials = 1_000, 20
        sizes = [
            len(bnl_skyline([tuple(p) for p in rng.random((n, d))]))
            for _ in range(trials)
        ]
        assert 0.2 < expected_skyline_size(n, d) / np.mean(sizes) < 5.0
