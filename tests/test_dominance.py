"""Tests for Pareto dominance (Definition 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.skyline.dominance import (
    Dominance,
    compare,
    dominates,
    skyline_indices_bruteforce,
    weakly_dominates,
)

vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=5
)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates((1, 1), (2, 2))

    def test_better_in_one_equal_elsewhere(self):
        assert dominates((1, 5), (2, 5))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((3, 3), (3, 3))

    def test_incomparable(self):
        assert not dominates((1, 5), (5, 1))
        assert not dominates((5, 1), (1, 5))

    def test_worse_does_not_dominate(self):
        assert not dominates((2, 2), (1, 1))

    def test_single_dimension(self):
        assert dominates((1,), (2,))
        assert not dominates((2,), (1,))

    @given(vectors)
    def test_irreflexive(self, v):
        assert not dominates(v, v)

    @given(vectors, vectors)
    def test_asymmetric(self, u, v):
        n = min(len(u), len(v))
        u, v = u[:n], v[:n]
        if dominates(u, v):
            assert not dominates(v, u)

    @given(vectors, vectors, vectors)
    def test_transitive(self, u, v, w):
        n = min(len(u), len(v), len(w))
        u, v, w = u[:n], v[:n], w[:n]
        if dominates(u, v) and dominates(v, w):
            assert dominates(u, w)


class TestWeakDominance:
    def test_equal_weakly_dominates(self):
        assert weakly_dominates((1, 2), (1, 2))

    def test_strict_implies_weak(self):
        assert weakly_dominates((1, 1), (2, 2))

    def test_not_weak_when_worse_somewhere(self):
        assert not weakly_dominates((1, 3), (2, 2))


class TestCompare:
    def test_left(self):
        assert compare((1, 1), (2, 2)) is Dominance.LEFT

    def test_right(self):
        assert compare((2, 2), (1, 1)) is Dominance.RIGHT

    def test_equal(self):
        assert compare((1, 2), (1, 2)) is Dominance.EQUAL

    def test_incomparable(self):
        assert compare((1, 5), (5, 1)) is Dominance.INCOMPARABLE

    @given(vectors, vectors)
    def test_consistent_with_dominates(self, u, v):
        n = min(len(u), len(v))
        u, v = u[:n], v[:n]
        outcome = compare(u, v)
        assert (outcome is Dominance.LEFT) == dominates(u, v)
        assert (outcome is Dominance.RIGHT) == dominates(v, u)


class TestBruteforceSkyline:
    def test_simple(self):
        pts = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        assert skyline_indices_bruteforce(pts) == [0, 1, 2]

    def test_keeps_duplicates(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert skyline_indices_bruteforce(pts) == [0, 1]

    def test_single_point(self):
        assert skyline_indices_bruteforce(np.array([[5.0, 5.0]])) == [0]


class TestUnequalLengthRejection:
    """Regression: unequal-length vectors used to be silently truncated by
    ``zip``, turning a caller bug into a wrong dominance verdict."""

    def test_dominates_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="unequal-length"):
            dominates((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_dominates_rejects_longer_left(self):
        # Pre-fix this returned False (truncated to the common prefix);
        # now it is an error either way round.
        with pytest.raises(ValueError, match="2 vs 1"):
            dominates((1.0, 2.0), (1.0,))

    def test_weakly_dominates_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="unequal-length"):
            weakly_dominates((1.0,), (1.0, 2.0))

    def test_compare_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="unequal-length"):
            compare((1.0, 2.0, 3.0), (1.0, 2.0))

    @given(vectors, vectors)
    def test_any_length_mismatch_raises(self, u, v):
        if len(u) == len(v):
            return
        for fn in (dominates, weakly_dominates, compare):
            with pytest.raises(ValueError):
                fn(u, v)
