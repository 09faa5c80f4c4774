"""Tests for the skyline algorithms: BNL and SFS.

The central obligation: both agree with the quadratic oracle on any
input, including duplicates and ties.  SFS is
:func:`~repro.skyline.vectorized.skyline_order`, the sweep every batch
skyline of the library runs; it must also report its survivors in the
order, and charge the comparisons, of the scalar loop in
``tests/sfs_reference.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generator import generate_attributes
from repro.skyline.bnl import bnl_skyline, bnl_skyline_entries
from repro.skyline.dominance import skyline_indices_bruteforce
from repro.skyline.vectorized import skyline_order

from tests.sfs_reference import sfs_skyline_entries as reference_sfs_entries

point_lists = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)
point_lists_3d = st.lists(
    st.tuples(
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)
# Integer grids force many ties/duplicates.
tied_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=40
)


def sfs_skyline(points, *, on_comparisons=None):
    """Survivors of ``points`` in the order :func:`skyline_order` gives them."""
    return [points[i] for i in skyline_order(points, on_comparisons=on_comparisons)]


def sfs_skyline_entries(entries):
    order = skyline_order([vector for vector, _ in entries])
    return [entries[i] for i in order]


def oracle_multiset(points):
    pts = np.array(points, dtype=float) if points else np.empty((0, 2))
    idx = skyline_indices_bruteforce(pts) if len(points) else []
    return sorted(tuple(points[i]) for i in idx)


class TestBNL:
    def test_empty(self):
        assert bnl_skyline([]) == []

    def test_single(self):
        assert bnl_skyline([(1.0, 2.0)]) == [(1.0, 2.0)]

    def test_dominated_dropped(self):
        assert bnl_skyline([(1.0, 1.0), (2.0, 2.0)]) == [(1.0, 1.0)]

    def test_later_dominator_evicts_earlier(self):
        assert bnl_skyline([(2.0, 2.0), (1.0, 1.0)]) == [(1.0, 1.0)]

    def test_keeps_equal_vectors(self):
        result = bnl_skyline([(1.0, 1.0), (1.0, 1.0)])
        assert len(result) == 2

    def test_counts_comparisons(self):
        count = [0]
        bnl_skyline([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)],
                    on_comparison=lambda: count.__setitem__(0, count[0] + 1))
        assert count[0] > 0

    @given(point_lists)
    @settings(max_examples=60)
    def test_matches_oracle(self, points):
        assert sorted(map(tuple, bnl_skyline(points))) == oracle_multiset(points)

    @given(point_lists)
    @settings(max_examples=60)
    def test_is_the_entries_form_without_payloads(self, points):
        plain, entries = [], []
        window = bnl_skyline(points, on_comparison=lambda: plain.append(1))
        kept = bnl_skyline_entries(
            [(p, i) for i, p in enumerate(points)],
            on_comparison=lambda: entries.append(1),
        )
        assert window == [p for p, _ in kept]
        assert len(plain) == len(entries)

    @given(tied_lists)
    @settings(max_examples=60)
    def test_matches_oracle_on_ties(self, points):
        got = sorted(tuple(map(float, v)) for v in bnl_skyline(points))
        want = oracle_multiset([tuple(map(float, p)) for p in points])
        assert got == want

    @given(point_lists_3d)
    @settings(max_examples=40)
    def test_matches_oracle_3d(self, points):
        pts = np.array(points, dtype=float) if points else np.empty((0, 3))
        want = sorted(tuple(points[i]) for i in skyline_indices_bruteforce(pts))
        assert sorted(map(tuple, bnl_skyline(points))) == want

    def test_large_anticorrelated_input_matches_oracle(self):
        rng = np.random.default_rng(4)
        pts = [tuple(p) for p in generate_attributes("anticorrelated", 1500, 3, rng)]
        got = sorted(map(tuple, bnl_skyline(pts)))
        want = sorted(pts[i] for i in skyline_indices_bruteforce(np.array(pts)))
        assert got == want


class TestSFS:
    def test_empty(self):
        assert sfs_skyline([]) == []

    def test_single(self):
        assert sfs_skyline([(3.0, 4.0)]) == [(3.0, 4.0)]

    def test_simple(self):
        pts = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0), (3.0, 3.0)]
        assert sorted(sfs_skyline(pts)) == [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]

    def test_counts_comparisons(self):
        tested = []
        sfs_skyline([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)], on_comparisons=tested.append)
        # (1, 2) and (2, 1) tie on the sum: the second is tested against
        # the first, then (3, 3) is dominated by the first window entry.
        assert sum(tested) == 2

    def test_no_evictions_needed(self):
        # SFS never revisits accepted tuples; the sorted order guarantees it.
        assert sorted(sfs_skyline([(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)])) == [
            (1.0, 3.0), (2.0, 2.0), (3.0, 1.0)
        ]

    def test_keeps_equal_vectors(self):
        assert len(sfs_skyline([(2.0, 2.0), (2.0, 2.0)])) == 2

    @given(point_lists)
    @settings(max_examples=60)
    def test_matches_oracle(self, points):
        assert sorted(map(tuple, sfs_skyline(points))) == oracle_multiset(points)

    @given(tied_lists)
    @settings(max_examples=60)
    def test_matches_oracle_on_ties(self, points):
        got = sorted(tuple(map(float, v)) for v in sfs_skyline(points))
        want = oracle_multiset([tuple(map(float, p)) for p in points])
        assert got == want

    @given(point_lists_3d)
    @settings(max_examples=40)
    def test_matches_bnl_3d(self, points):
        assert sorted(map(tuple, sfs_skyline(points))) == sorted(
            map(tuple, bnl_skyline(points))
        )

    @given(point_lists)
    @settings(max_examples=40)
    def test_window_is_in_score_order(self, points):
        # Append-only window over the sum-sorted input: the output keeps
        # the monotone score order.
        sums = [sum(v) for v in sfs_skyline(points)]
        assert sums == sorted(sums)

    @given(point_lists)
    @settings(max_examples=40)
    def test_each_tuple_scans_at_most_the_final_window(self, points):
        tested = []
        result = sfs_skyline(points, on_comparisons=tested.append)
        assert sum(tested) <= len(points) * len(result)

    @given(st.one_of(point_lists, point_lists_3d, tied_lists))
    @settings(max_examples=80)
    def test_matches_the_scalar_loop(self, points):
        """Same survivors, same order, same charge as the scalar loop."""
        count = [0]
        want = reference_sfs_entries(
            [(p, i) for i, p in enumerate(points)],
            on_comparison=lambda: count.__setitem__(0, count[0] + 1),
        )
        tested = []
        got = skyline_order(points, on_comparisons=tested.append).tolist()
        assert got == [i for _, i in want]
        assert sum(tested) == count[0]


class TestPayloadVariants:
    """The *_entries versions must carry payloads through untouched."""

    def test_bnl_payloads(self):
        entries = [((2.0, 2.0), "a"), ((1.0, 1.0), "b"), ((0.5, 3.0), "c")]
        result = bnl_skyline_entries(entries)
        assert {p for _, p in result} == {"b", "c"}

    def test_sfs_payloads(self):
        entries = [((2.0, 2.0), "a"), ((1.0, 1.0), "b")]
        assert [p for _, p in sfs_skyline_entries(entries)] == ["b"]

    def test_equal_vectors_keep_every_payload(self):
        entries = [((1.0, 1.0), "a"), ((2.0, 0.5), "b"), ((1.0, 1.0), "c")]
        for skyline in (bnl_skyline_entries, sfs_skyline_entries):
            assert sorted(p for _, p in skyline(entries)) == ["a", "b", "c"]

    @given(point_lists)
    @settings(max_examples=30)
    def test_results_are_input_entries(self, points):
        entries = [(p, i) for i, p in enumerate(points)]
        for skyline in (bnl_skyline_entries, sfs_skyline_entries):
            for vec, payload in skyline(entries):
                assert entries[payload] == (vec, payload)

    @given(point_lists)
    @settings(max_examples=30)
    def test_bnl_and_sfs_agree_with_payloads(self, points):
        entries = [(p, i) for i, p in enumerate(points)]
        b = sorted(p for _, p in bnl_skyline_entries(entries))
        s = sorted(p for _, p in sfs_skyline_entries(entries))
        assert b == s
