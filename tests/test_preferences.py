"""Tests for the preference model (paper §II-A)."""

import pytest

from repro.errors import QueryError
from repro.skyline.preferences import (
    HIGHEST,
    LOWEST,
    ParetoPreference,
    Preference,
    all_lowest,
    highest,
    lowest,
)


class TestPreferenceConstructors:
    def test_lowest_helper(self):
        p = lowest("cost")
        assert p.attribute == "cost"
        assert p.direction is LOWEST

    def test_highest_helper(self):
        p = highest("rating")
        assert p.direction is HIGHEST

    def test_default_direction_is_lowest(self):
        assert Preference("x").direction is LOWEST


class TestParetoPreference:
    def test_requires_at_least_one_dimension(self):
        with pytest.raises(QueryError):
            ParetoPreference([])

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(QueryError, match="duplicate"):
            ParetoPreference([lowest("x"), highest("x")])

    def test_attributes_in_order(self):
        p = ParetoPreference([lowest("b"), highest("a")])
        assert p.attributes == ("b", "a")

    def test_dimensions(self):
        assert ParetoPreference([lowest("x"), lowest("y")]).dimensions == 2

    def test_signs_for(self):
        p = ParetoPreference([lowest("cost"), highest("rating")])
        # +1 minimised, -1 maximised, 0 not a preference dimension; in the
        # order of the names asked for, repeats included.
        assert p.signs_for(["rating", "spare", "cost", "rating"]) == (-1, 0, 1, -1)
        assert p.signs_for(iter(p.attributes)) == (1, -1)
        assert p.signs_for([]) == ()

    def test_equality_and_hash(self):
        p1 = ParetoPreference([lowest("a"), highest("b")])
        p2 = ParetoPreference([lowest("a"), highest("b")])
        p3 = ParetoPreference([lowest("a")])
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert p1 != p3

    def test_iteration_yields_preferences(self):
        prefs = [lowest("a"), highest("b")]
        assert list(ParetoPreference(prefs)) == prefs

    def test_all_lowest(self):
        p = all_lowest(["x", "y", "z"])
        assert all(pref.direction is LOWEST for pref in p)
        assert p.attributes == ("x", "y", "z")
