"""Tests for skyline partial push-through pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import oracle_skyline_keys
from tests.sfs_reference import sfs_skyline_entries
from repro.baselines.pushthrough import (
    attribute_bounds,
    derived_preference,
    preference_scan,
    prune_source,
)
from repro.baselines.ssmj import group_level_skyline, source_level_skyline
from repro.data.workloads import SyntheticWorkload
from repro.query.expressions import Attr
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.smj import JoinCondition, SkyMapJoinQuery
from repro.skyline.bnl import bnl_skyline_entries
from repro.skyline.preferences import (
    ParetoPreference,
    all_lowest,
    highest,
    lowest,
)
from repro.storage.table import Table


def group_bnl_reference(rows, key_index, attr_indices, signs):
    """``LS(N)`` the way push-through once computed it: scalar BNL per
    join value, kept rows in source order."""
    groups: dict = {}
    for pos, row in enumerate(rows):
        vector = tuple(s * row[i] for s, i in zip(signs, attr_indices))
        groups.setdefault(row[key_index], []).append((vector, pos))
    kept = sorted(pos for group in groups.values()
                  for _, pos in bnl_skyline_entries(group))
    return [rows[pos] for pos in kept], groups


class TestLocalSkylines:
    """SSMJ's scalar local lists, over one preference scan."""

    def _table(self):
        rows = [
            ("a", "j1", 1.0, 9.0),
            ("b", "j1", 2.0, 2.0),
            ("c", "j1", 3.0, 3.0),  # dominated by b within j1
            ("d", "j2", 5.0, 5.0),  # group j2 skyline, not source skyline
        ]
        return Table.from_rows("t", ["id", "jkey", "x", "y"], rows)

    def _entries(self, table=None):
        rows, vectors, keys = preference_scan(
            table or self._table(), all_lowest(["x", "y"]), "jkey"
        )
        return list(zip(map(tuple, vectors.tolist()), rows)), keys

    def test_source_level_skyline(self):
        entries, _ = self._entries()
        kept = source_level_skyline(entries)
        assert {r[0] for r in kept} == {"a", "b"}

    def test_group_level_skyline_keeps_group_champions(self):
        kept = group_level_skyline(*self._entries())
        # d survives: it is the best of its group even though globally bad.
        assert {r[0] for r in kept} == {"a", "b", "d"}

    def test_group_skyline_superset_of_source_skyline(self):
        entries, keys = self._entries()
        ls_s = {r[0] for r in source_level_skyline(entries)}
        ls_n = {r[0] for r in group_level_skyline(entries, keys)}
        assert ls_s <= ls_n

    def test_row_order_preserved(self):
        kept = group_level_skyline(*self._entries())
        ids = [r[0] for r in kept]
        assert ids == sorted(ids, key=lambda i: "abcd".index(i))

    def test_comparison_callback(self):
        calls = []
        entries, _ = self._entries()
        source_level_skyline(entries, on_comparison=lambda: calls.append(1))
        assert calls


@st.composite
def pruning_input(draw):
    """One source's rows, join keys and preference directions."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=40))  # binding needs a row
    shape = draw(st.sampled_from(["singletons", "one-group", "few-groups"]))
    as_str = draw(st.booleans())
    # Small domain: ties and duplicates are the rule; -0.0 == 0.0.
    value = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0])
    rows = []
    for i in range(n):
        key = {"singletons": i, "one-group": 7}.get(shape)
        if key is None:
            key = draw(st.integers(min_value=0, max_value=3))
        rows.append((f"r{i}", str(key) if as_str else key,
                     *draw(st.tuples(*[value] * d))))
    lowest_dims = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return rows, lowest_dims


class TestPruneSourceIdentity:
    @given(pruning_input())
    @settings(max_examples=120, deadline=None)
    def test_kept_rows_match_per_group_bnl(self, case):
        """Same kept rows, same order, as per-group BNL; the charge is the
        scalar SFS count of each group of two or more rows."""
        rows, lowest_dims = case
        d = len(lowest_dims)
        left = Table.from_rows("R", ["id", "jkey", *[f"a{j}" for j in range(d)]], rows)
        right_rows = sorted({(f"t{row[1]}", row[1]) for row in rows})
        right = Table.from_rows(
            "T", ["id", "jkey", *[f"b{j}" for j in range(d)]],
            [(tid, key, *[0.0] * d) for tid, key in right_rows],
        )
        query = SkyMapJoinQuery(
            left_alias="R",
            right_alias="T",
            join=JoinCondition("jkey", "jkey"),
            mappings=MappingSet([
                MappingFunction(f"x{j}", Attr("R", f"a{j}") + Attr("T", f"b{j}"))
                for j in range(d)
            ]),
            preference=ParetoPreference([
                (lowest if low else highest)(f"x{j}")
                for j, low in enumerate(lowest_dims)
            ]),
        )
        bound = query.bind({"R": left, "T": right})
        tested = []
        result = prune_source(bound, "R", on_comparisons=tested.append)
        signs = [1.0 if low else -1.0 for low in lowest_dims]
        want, groups = group_bnl_reference(rows, 1, range(2, 2 + d), signs)
        assert result.kept_rows == want
        assert all(a is b for a, b in zip(result.kept_rows, want))
        assert result.original_count == len(rows)
        count = [0]
        for group in groups.values():
            if len(group) > 1:
                sfs_skyline_entries(
                    group, on_comparison=lambda: count.__setitem__(0, count[0] + 1)
                )
        assert result.comparisons == sum(tested) == count[0]
        assert len(tested) <= 1  # one bulk charge


class TestPruneSource:
    def test_prunes_dominated_group_members(self):
        bound = SyntheticWorkload(n=200, d=2, sigma=0.1, seed=8).bound()
        result = prune_source(bound, "R")
        assert result is not None
        assert result.pruned_count > 0
        assert result.comparisons > 0
        assert len(result.kept_rows) + result.pruned_count == result.original_count

    def test_unknown_alias(self):
        bound = SyntheticWorkload(n=20, d=2, seed=1).bound()
        with pytest.raises(ValueError):
            prune_source(bound, "Z")

    def test_returns_none_when_underivable(self):
        # A non-monotone mapping (product of attributes) blocks push-through.
        mappings = MappingSet(
            [MappingFunction("x", Attr("R", "a0") * Attr("T", "b0"))]
        )
        query = SkyMapJoinQuery(
            left_alias="R",
            right_alias="T",
            join=JoinCondition("jkey", "jkey"),
            mappings=mappings,
            preference=ParetoPreference([lowest("x")]),
        )
        tables = SyntheticWorkload(n=30, d=1, seed=2).tables()
        bound = query.bind(tables)
        assert derived_preference(bound, "R") is None
        assert prune_source(bound, "R") is None

    def test_safety_pruning_preserves_final_skyline(self):
        """The load-bearing property: pruning never loses a final result."""
        for seed in range(4):
            wl = SyntheticWorkload(
                distribution="anticorrelated", n=120, d=2, sigma=0.05, seed=seed
            )
            bound = wl.bound()
            oracle = oracle_skyline_keys(bound)
            left = prune_source(bound, "R")
            right = prune_source(bound, "T")
            kept_left = {id(r) for r in left.kept_rows}
            kept_right = {id(r) for r in right.kept_rows}
            for lrow, rrow in oracle:
                assert id(lrow) in kept_left, "pruned a skyline contributor"
                assert id(rrow) in kept_right, "pruned a skyline contributor"


class TestAttributeBounds:
    def test_bounds(self):
        rows = [(1.0, 5.0), (3.0, 2.0)]
        bounds = attribute_bounds(rows, ["x", "y"], [0, 1])
        assert bounds == {"x": (1.0, 3.0), "y": (2.0, 5.0)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            attribute_bounds([], ["x"], [0])
