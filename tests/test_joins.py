"""Tests for the two join algorithms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.hash_join import hash_join
from repro.join.nested_loop import nested_loop_join
from repro.join.predicates import EquiJoin

keys = st.integers(0, 5)
rows = st.lists(st.tuples(st.integers(0, 100), keys), max_size=25)


def canonical(pairs):
    return sorted((lhs, rhs) for lhs, rhs in pairs)


class TestEquiJoin:
    def test_matches(self):
        p = EquiJoin(1, 0)
        assert p.matches((9, "k"), ("k", 7))
        assert not p.matches((9, "k"), ("x", 7))


class TestHashJoin:
    def test_simple(self):
        left = [("a", 1), ("b", 2)]
        right = [(1, "x"), (1, "y"), (3, "z")]
        got = canonical(hash_join(left, right, EquiJoin(1, 0)))
        assert got == canonical([(("a", 1), (1, "x")), (("a", 1), (1, "y"))])

    def test_empty_sides(self):
        assert list(hash_join([], [(1,)], EquiJoin(0, 0))) == []
        assert list(hash_join([(1,)], [], EquiJoin(0, 0))) == []

    def test_builds_on_smaller_side(self):
        builds = []
        left = [(1,)] * 2
        right = [(1,)] * 5
        list(hash_join(left, right, EquiJoin(0, 0), on_build=lambda: builds.append(1)))
        assert len(builds) == 2  # the smaller (left) side was built

    def test_callbacks_counted(self):
        counts = {"build": 0, "probe": 0, "result": 0}
        left = [(1,), (2,)]
        right = [(1,), (1,), (9,)]
        out = list(
            hash_join(
                left,
                right,
                EquiJoin(0, 0),
                on_build=lambda: counts.__setitem__("build", counts["build"] + 1),
                on_probe=lambda: counts.__setitem__("probe", counts["probe"] + 1),
                on_result=lambda: counts.__setitem__("result", counts["result"] + 1),
            )
        )
        assert counts["build"] == 2
        assert counts["probe"] == 3
        assert counts["result"] == len(out) == 2

    def test_duplicate_runs_cross_product(self):
        left = [(1, "a"), (1, "b")]
        right = [(1, "x"), (1, "y")]
        got = canonical(hash_join(left, right, EquiJoin(0, 0)))
        assert got == canonical(
            [(lhs, rhs) for lhs in left for rhs in right]
        )

    def test_no_matches(self):
        left = [(1, "a"), (2, "b")]
        right = [(3, "x"), (4, "y")]
        assert list(hash_join(left, right, EquiJoin(0, 0))) == []

    def test_builds_on_right_when_right_is_smaller(self):
        counts = {"build": 0, "probe": 0}
        left = [(1,)] * 5
        right = [(1,)] * 2
        out = list(
            hash_join(
                left,
                right,
                EquiJoin(0, 0),
                on_build=lambda: counts.__setitem__("build", counts["build"] + 1),
                on_probe=lambda: counts.__setitem__("probe", counts["probe"] + 1),
            )
        )
        assert counts == {"build": 2, "probe": 5}
        # Pairs stay (left, right) whichever side was built.
        assert all(lhs in left and rhs in right for lhs, rhs in out)
        assert len(out) == 10

    def test_output_follows_probe_order(self):
        # The smaller left side is built; right rows probe in input order,
        # and matches within a key come out in build insertion order.
        left = [(1, "a"), (1, "b")]
        right = [(2, "p"), (1, "q"), (1, "r")]
        got = [(lhs[1], rhs[1]) for lhs, rhs in hash_join(left, right, EquiJoin(0, 0))]
        assert got == [("a", "q"), ("b", "q"), ("a", "r"), ("b", "r")]

    @given(rows, rows)
    @settings(max_examples=60)
    def test_matches_nested_loop(self, left, right):
        p = EquiJoin(1, 1)
        assert canonical(hash_join(left, right, p)) == canonical(
            nested_loop_join(left, right, p)
        )

    @given(rows, rows)
    @settings(max_examples=40)
    def test_callbacks_charge_each_row_once(self, left, right):
        counts = {"build": 0, "probe": 0, "result": 0}

        def bump(name):
            return lambda: counts.__setitem__(name, counts[name] + 1)

        out = list(
            hash_join(
                left, right, EquiJoin(1, 1),
                on_build=bump("build"), on_probe=bump("probe"),
                on_result=bump("result"),
            )
        )
        assert counts["build"] == min(len(left), len(right))
        assert counts["probe"] == max(len(left), len(right))
        assert counts["result"] == len(out)


class TestNestedLoop:
    def test_comparison_count_is_product(self):
        cmps = []
        list(
            nested_loop_join(
                [(1,)] * 3, [(2,)] * 4, EquiJoin(0, 0),
                on_comparison=lambda: cmps.append(1),
            )
        )
        assert len(cmps) == 12

    def test_result_callback_counts_matches(self):
        results = []
        out = list(
            nested_loop_join(
                [(1,), (2,)], [(1,), (1,), (3,)], EquiJoin(0, 0),
                on_result=lambda: results.append(1),
            )
        )
        assert out == [((1,), (1,)), ((1,), (1,))]
        assert len(results) == 2

    def test_empty_sides(self):
        cmps = []
        for left, right in (([], [(1,)]), ([(1,)], [])):
            assert list(
                nested_loop_join(
                    left, right, EquiJoin(0, 0),
                    on_comparison=lambda: cmps.append(1),
                )
            ) == []
        assert cmps == []
