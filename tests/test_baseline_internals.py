"""White-box tests of SSMJ and SAJ internals: threat bounds and frontiers."""

import pytest

from tests.conftest import make_bound
from repro.baselines.saj import SortedAccessJoin, _SourceState
from repro.baselines.ssmj import SkylineSortMergeJoin
from repro.runtime.clock import VirtualClock
from repro.skyline.dominance import weakly_dominates


class TestSAJSourceState:
    def _state(self):
        rows = [
            ("a", "k1", 5.0, 1.0),
            ("b", "k2", 3.0, 4.0),
            ("c", "k1", 1.0, 9.0),
        ]
        return _SourceState(
            rows,
            join_index=1,
            map_indices=(2, 3),
            map_attrs=("x", "y"),
            sort_key=lambda r: r[2] + r[3],
        )

    def test_sorted_by_key(self):
        state = self._state()
        sums = [r[2] + r[3] for r in state.rows]
        assert sums == sorted(sums)

    def test_suffix_minima_sound(self):
        state = self._state()
        n = len(state.rows)
        for i in range(n):
            suffix = state.rows[i:]
            for j, idx in enumerate(state.map_indices):
                true_min = min(r[idx] for r in suffix)
                true_max = max(r[idx] for r in suffix)
                assert state.suffix_min[i][j] == true_min
                assert state.suffix_max[i][j] == true_max

    def test_unseen_bounds_shrink_monotonically(self):
        state = self._state()
        previous = state.unseen_bounds()
        while not state.exhausted:
            state.advance()
            current = state.unseen_bounds()
            if current is None:
                break
            for attr in current:
                assert current[attr][0] >= previous[attr][0]
            previous = current

    def test_exhaustion(self):
        state = self._state()
        for _ in range(3):
            state.advance()
        assert state.exhausted
        assert state.unseen_bounds() is None

    def test_seen_index_by_join_key(self):
        state = self._state()
        state.advance()
        state.advance()
        total = sum(len(v) for v in state.seen_by_key.values())
        assert total == 2


class TestSAJThreats:
    def test_threats_bound_future_results(self):
        bound = make_bound("independent", n=60, d=2, sigma=0.1, seed=3)
        clock = VirtualClock()
        algo = SortedAccessJoin(bound, clock)
        # Drive the run manually far enough to have live threats.
        gen = algo.run()
        next(gen, None)  # force some progress (first emission or end)
        # Rebuild states the way run() does, then check threat soundness
        # directly: every actual joined vector must be >= some threat corner
        # component-wise at frontier position 0.
        left = _SourceState(
            bound.left_table.rows, bound.left_join_index,
            bound.left_map_indices, bound.left_map_attrs,
            algo._sort_key(bound.left_alias, bound.left_table,
                           bound.left_map_attrs, bound.left_map_indices),
        )
        right = _SourceState(
            bound.right_table.rows, bound.right_join_index,
            bound.right_map_indices, bound.right_map_attrs,
            algo._sort_key(bound.right_alias, bound.right_table,
                           bound.right_map_attrs, bound.right_map_indices),
        )
        threats = algo._threats(left, right)
        assert threats
        jl, jr = bound.left_join_index, bound.right_join_index
        for lrow in bound.left_table.rows[:20]:
            for rrow in bound.right_table.rows[:20]:
                if lrow[jl] != rrow[jr]:
                    continue
                vec = bound.vector_of(bound.map_pair(lrow, rrow))
                assert any(
                    all(t_i <= v_i + 1e-9 for t_i, v_i in zip(t, vec))
                    for t in threats
                ), "a joined result escaped every threat lower bound"


    def test_sort_key_signs(self):
        """Each attribute is scored with its sign in the derived source
        preference; one outside it (here ``R.a1``, read only by an output
        the preference does not name) counts as minimised."""
        from repro.query.expressions import Attr
        from repro.query.mapping import MappingFunction, MappingSet
        from repro.query.smj import JoinCondition, SkyMapJoinQuery
        from repro.skyline.preferences import ParetoPreference, highest
        from repro.storage.table import Table

        query = SkyMapJoinQuery(
            left_alias="R",
            right_alias="T",
            join=JoinCondition("jkey", "jkey"),
            mappings=MappingSet([
                MappingFunction("x0", Attr("R", "a0") + Attr("T", "b0")),
                MappingFunction("spare", Attr("R", "a1") + Attr("T", "b0")),
            ]),
            preference=ParetoPreference([highest("x0")]),
        )
        bound = query.bind({
            "R": Table.from_rows("R", ["jkey", "a0", "a1"], [("k", 1.0, 2.0)]),
            "T": Table.from_rows("T", ["jkey", "b0"], [("k", 5.0)]),
        })
        algo = SortedAccessJoin(bound, VirtualClock())
        key = algo._sort_key("R", bound.left_table, bound.left_map_attrs,
                             bound.left_map_indices)
        assert bound.left_map_attrs == ("a0", "a1")
        assert key(("k", 3.0, 7.0)) == -3.0 + 7.0


class TestSSMJInternals:
    def test_local_lists_without_derived_preference(self):
        """Non-monotone mappings collapse LS(S)=LS(N)=all rows."""
        from repro.query.expressions import Attr
        from repro.query.mapping import MappingFunction, MappingSet
        from repro.query.smj import JoinCondition, SkyMapJoinQuery
        from repro.skyline.preferences import ParetoPreference, lowest
        from repro.data.workloads import SyntheticWorkload

        tables = SyntheticWorkload(n=30, d=1, seed=4).tables()
        query = SkyMapJoinQuery(
            left_alias="R",
            right_alias="T",
            join=JoinCondition("jkey", "jkey"),
            mappings=MappingSet(
                [MappingFunction("x", Attr("R", "a0") * Attr("T", "b0"))]
            ),
            preference=ParetoPreference([lowest("x")]),
        )
        bound = query.bind(tables)
        algo = SkylineSortMergeJoin(bound, VirtualClock())
        ls_s, ls_n = algo._local_lists("R")
        assert len(ls_s) == len(bound.left_table.rows)
        assert len(ls_n) == len(bound.left_table.rows)

    def test_phase2_threats_empty_when_nothing_pruned(self):
        bound = make_bound("independent", n=40, d=2, sigma=0.2, seed=5)
        algo = SkylineSortMergeJoin(bound, VirtualClock())
        threats = algo._phase2_threats([], [], [("x",)], [("y",)])
        assert threats == []

    def test_phase2_threats_are_lower_bounds(self):
        """Every actual phase-2 style result is >= the threat corner."""
        bound = make_bound("anticorrelated", n=80, d=2, sigma=0.1, seed=6)
        algo = SkylineSortMergeJoin(bound, VirtualClock())
        ls_l, lsn_l = algo._local_lists(bound.left_alias)
        ls_r, lsn_r = algo._local_lists(bound.right_alias)
        ls_l_ids = {id(r) for r in ls_l}
        ls_r_ids = {id(r) for r in ls_r}
        ln_l = [r for r in lsn_l if id(r) not in ls_l_ids]
        ln_r = [r for r in lsn_r if id(r) not in ls_r_ids]
        threats = algo._phase2_threats(ln_l, ln_r, lsn_l, lsn_r)
        if not (threats and ln_l):
            pytest.skip("seed produced no pruned tuples to bound")
        jl, jr = bound.left_join_index, bound.right_join_index
        checked = 0
        for lrow in ln_l[:10]:
            for rrow in lsn_r[:10]:
                if lrow[jl] != rrow[jr]:
                    continue
                vec = bound.vector_of(bound.map_pair(lrow, rrow))
                assert any(weakly_dominates(t, vec) or
                           all(ti <= vi + 1e-9 for ti, vi in zip(t, vec))
                           for t in threats)
                checked += 1
        assert checked >= 0

    def test_verified_false_positive_invariant_raises(self):
        """If the threat bound were broken the engine must scream, not lie."""

        bound = make_bound("independent", n=60, d=2, sigma=0.1, seed=7)
        algo = SkylineSortMergeJoin(bound, VirtualClock(), verified=True)
        list(algo.run())  # must not raise on a healthy run
        assert not algo.false_positive_keys
