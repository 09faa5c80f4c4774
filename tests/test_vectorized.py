"""Tests for the columnar batch layer: vectorized kernels, ColumnBatch,
batched mapping/normalisation, and engine agreement with the oracle.

The per-tuple implementations are the reference for the kernels: every
property test asserts the vectorized kernels produce *identical* result
sets on randomized inputs.  Engine runs are checked against the
brute-force skyline (hash or nested-loop join plus BNL).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ProgXeEngine
from repro.core.verify import verify_results
from repro.data.workloads import SupplyChainWorkload, SyntheticWorkload
from repro.errors import SchemaError
from repro.runtime.clock import VirtualClock
from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import dominates, skyline_indices_bruteforce
from repro.skyline import vectorized
from repro.skyline.vectorized import (
    _BLOCK,
    _blocked_sweep,
    _sum_order,
    as_matrix,
    dominated_by_any,
    dominates_matrix,
    skyline_mask,
    skyline_order,
)
from repro.storage.column_batch import ColumnBatch
from repro.storage.table import Table

from tests.conftest import oracle_skyline_keys
from tests.sfs_reference import sfs_skyline_entries

# Small-domain float coordinates: collisions (ties/duplicates) are likely,
# which is exactly where dominance edge cases live.
coord = st.integers(min_value=0, max_value=6).map(float)
INF, NAN = float("inf"), float("nan")


def point_matrix(min_rows=0, max_rows=40, d=3):
    return st.lists(
        st.tuples(*[coord] * d), min_size=min_rows, max_size=max_rows
    )


def pareto_mask(points) -> np.ndarray:
    """All-pairs oracle: the rows no row dominates."""
    P = as_matrix(points)
    return ~dominates_matrix(P, P).any(axis=0)


def multiset(vectors) -> dict:
    out: dict[tuple, int] = {}
    for v in vectors:
        key = tuple(float(x) for x in v)
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# dominates_matrix
# ---------------------------------------------------------------------------
class TestDominatesMatrix:
    @given(point_matrix(1, 12), point_matrix(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_dominates_pairwise(self, us, vs):
        mat = dominates_matrix(us, vs)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert bool(mat[i, j]) == dominates(u, v)

    def test_empty_sides(self):
        assert dominates_matrix(np.empty((0, 3)), [(1.0, 2.0, 3.0)]).shape == (0, 1)
        assert dominates_matrix([(1.0, 2.0, 3.0)], np.empty((0, 3))).shape == (1, 0)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="unequal-width"):
            dominates_matrix([(1.0, 2.0)], [(1.0, 2.0, 3.0)])

    def test_equal_vectors_do_not_dominate(self):
        mat = dominates_matrix([(1.0, 2.0)], [(1.0, 2.0)])
        assert not mat.any()


# Few distinct values so ties and duplicates are the rule, plus the values
# comparisons treat specially.
edge_coord = st.sampled_from(
    [0.0, 1.0, 2.0, -1.0, 0.1 + 0.2, float("inf"), float("-inf"), float("nan")]
)


@st.composite
def two_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    rows = st.lists(st.tuples(*[edge_coord] * d), min_size=1, max_size=9)
    return draw(rows), draw(rows)


def layouts(rows):
    """The same matrix C-ordered, F-ordered, row-sliced and column-sliced."""
    base = np.array(rows, dtype=float)
    n, d = base.shape
    tall = np.zeros((2 * n, d))
    tall[::2] = base
    wide = np.zeros((n, d + 2))
    wide[:, 1 : d + 1] = base
    return [base, np.asfortranarray(base), tall[::2], wide[:, 1 : d + 1]]


class TestDominatesMatrixEdgeValues:
    @given(two_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_dominates_in_every_layout(self, pair):
        us, vs = pair
        expected = [[dominates(u, v) for v in vs] for u in us]
        for U in layouts(us):
            for V in layouts(vs):
                assert dominates_matrix(U, V).tolist() == expected


# ---------------------------------------------------------------------------
# the sweep: blocked form == per-head loop, comparisons included
# ---------------------------------------------------------------------------
# Small-domain values make duplicates and equal coordinate sums the rule;
# 1e16 swallows a +1, so dominance between *equal rounded sums* occurs too.
# Both forms must return the true skyline (``pareto_mask``).  The sweep
# needs every coordinate sum to be a number (``skyline_mask``), so no row
# holds both ``+inf`` and ``-inf``.
sweep_coord = st.sampled_from(
    [0.0, 1.0, 2.0, 3.0, 0.5, 1e16, float("inf"), float("-inf")]
)


@st.composite
def sweep_input(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=3 * _BLOCK))
    rows = draw(
        st.lists(
            st.tuples(*[sweep_coord] * d).filter(lambda row: not np.isnan(sum(row))),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(rows, dtype=float)


def per_head_sweep(S, on_comparisons):
    """The sweep one head at a time: skyline positions of the sum-sorted
    ``S``, charging each step the points the head is tested against."""
    kept = []
    pos = np.arange(S.shape[0], dtype=np.intp)
    work = S
    while pos.shape[0]:
        kept.append(int(pos[0]))
        if pos.shape[0] == 1:
            break
        on_comparisons(pos.shape[0] - 1)
        head, tail = work[:1], work[1:]
        # Survivors: strictly better somewhere, or identical to the head.
        survive = (tail < head).any(axis=1) | (tail == head).all(axis=1)
        work, pos = tail[survive], pos[1:][survive]
    return np.asarray(kept, dtype=np.intp)


def reference_sweep(P):
    """Mask and comparison total of the per-head loop, whatever ``len(P)``."""
    order = _sum_order(P)
    tested: list[int] = []
    kept = per_head_sweep(P[order], tested.append)
    mask = np.zeros(len(P), dtype=bool)
    mask[order[kept]] = True
    return mask, sum(tested)


class TestSweepForms:
    @given(sweep_input())
    @settings(max_examples=300, deadline=None)
    def test_skyline_mask_equals_the_per_head_loop_across_blocks(self, P):
        expected_mask, expected_total = reference_sweep(P)
        tested: list[int] = []
        mask = skyline_mask(P, on_comparisons=tested.append)
        assert mask.tolist() == expected_mask.tolist()
        assert mask.tolist() == pareto_mask(P).tolist()
        assert sum(tested) == expected_total
        assert (skyline_mask(P) == expected_mask).all()  # uncounted form

    @pytest.mark.parametrize("n", range(1, 2 * _BLOCK + 2))
    def test_every_size_up_to_two_blocks(self, n):
        rng = np.random.default_rng(n)
        for d in (1, 2, 4):
            for P in (
                rng.integers(0, 3, size=(n, d)).astype(float),  # ties galore
                rng.random((n, d)),
                np.ones((n, d)),  # all duplicates: everything survives
            ):
                S = P[_sum_order(P)]
                loop: list[int] = []
                flat: list[int] = []
                expected = per_head_sweep(S, loop.append)
                got = _blocked_sweep(S, flat.append)
                assert got.tolist() == expected.tolist()
                assert sum(flat) == sum(loop)

    @pytest.mark.parametrize("others", [0, 2 * _BLOCK])
    def test_equal_rounded_sums_keep_the_true_skyline(self, others):
        # (1e16, 1) and (1e16, 0) have the same float sum; whichever
        # arrives first, only the dominator survives.  ``others``
        # incomparable points push the window past the first block.
        pair = np.array([[1e16, 1.0], [1e16, 0.0]])
        steps = np.arange(1, others + 1)
        rest = np.column_stack([steps, -steps]) * 1e17
        for P in (np.vstack([pair, rest]), np.vstack([pair[::-1], rest])):
            expected = pareto_mask(P)
            assert P[:2][expected[:2]].tolist() == [[1e16, 0.0]]
            assert skyline_mask(P).tolist() == expected.tolist()
            assert reference_sweep(P)[0].tolist() == expected.tolist()
            assert sorted(P[skyline_order(P)].tolist()) == sorted(
                P[expected].tolist()
            )


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------
# The pool test's values: ties, both zeros, both infinities, and NaN (a NaN
# point is never dominated, a NaN pool row never dominates).
pool_coord = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 0.1 + 0.2, float("inf"), float("-inf"), float("nan")]
)


@st.composite
def pool_test_input(draw):
    d = draw(st.integers(min_value=1, max_value=4))

    def rows(most):
        drawn = draw(st.lists(st.tuples(*[pool_coord] * d), max_size=most))
        return np.array(drawn, dtype=float).reshape(-1, d)

    return rows(20), rows(10)


class TestMasks:
    @given(point_matrix(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_pareto_mask_matches_bruteforce(self, pts):
        mask = pareto_mask(pts)
        expected = set(skyline_indices_bruteforce(np.asarray(pts)))
        assert set(np.nonzero(mask)[0]) == expected

    @given(pool_test_input())
    @settings(max_examples=200, deadline=None)
    def test_dominated_by_any_is_the_scalar_pool_test(self, case):
        points, window = case
        mask = dominated_by_any(points, window)
        for i, p in enumerate(points.tolist()):
            if np.isnan(p).any():
                assert not mask[i]  # a NaN point is never dominated
                continue
            rows = [w for w in window.tolist() if not np.isnan(w).any()]
            assert bool(mask[i]) == any(dominates(w, p) for w in rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vectorized, "LANES", 1)
            assert dominated_by_any(points, window).tolist() == mask.tolist()

    @pytest.mark.parametrize("pool, point, expected", [
        ([[NAN, 0.0]], [2.0, 2.0], False),  # a NaN row never dominates
        ([[NAN, 0.0], [1.0, 1.0]], [2.0, 2.0], True),  # nor hides another
        ([[1.0, 1.0]], [NAN, 2.0], False),  # a NaN point never falls
        ([[-INF, -INF]], [2.0, NAN], False),
    ])
    def test_nan_compares_false_both_ways(self, pool, point, expected):
        assert dominated_by_any([point], pool).tolist() == [expected]

    def test_a_nan_point_keeps_the_others_in_reach(self):
        # The prefilter's componentwise maximum skips the NaN point.
        mask = dominated_by_any([[NAN, 5.0], [2.0, 2.0]], [[1.0, 1.0]])
        assert mask.tolist() == [False, True]

    def test_pool_test_empty_sides(self):
        assert dominated_by_any(np.empty((0, 2)), [[1.0, 1.0]]).shape == (0,)
        assert dominated_by_any([[1.0, 1.0]], np.empty((0, 2))).tolist() == [False]

    def test_skyline_mask_agrees_with_pareto_mask(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 5, size=(200, 3)).astype(float)
        assert (skyline_mask(pts) == pareto_mask(pts)).all()


# ---------------------------------------------------------------------------
# whole-input skylines vs the scalar algorithms
# ---------------------------------------------------------------------------
class TestVectorizedSkylines:
    @given(point_matrix(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_block_bnl_equals_scalar_bnl(self, pts):
        expected = multiset(bnl_skyline(pts))
        P = as_matrix(pts, dimensions=3)
        got = multiset(P[skyline_mask(P)])
        assert got == expected

    @given(point_matrix(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_sfs_equals_scalar_sfs(self, pts):
        entries = [(p, i) for i, p in enumerate(pts)]
        expected = [i for _, i in sfs_skyline_entries(entries)]
        assert skyline_order(as_matrix(pts, dimensions=3)).tolist() == expected

    def test_comparison_accounting_is_bulk(self):
        rng = np.random.default_rng(1)
        pts = rng.random((300, 3))
        counts: list[int] = []
        skyline_mask(pts, on_comparisons=counts.append)
        # Few large charges, not one per pair.
        assert len(counts) < 100
        assert sum(counts) > len(pts)

    def test_duplicates_all_survive(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        sky = pts[skyline_mask(pts)]
        assert multiset(sky) == {(1.0, 2.0): 2}

    def test_as_matrix_empty_needs_dimensions(self):
        assert as_matrix([], dimensions=4).shape == (0, 4)


# ---------------------------------------------------------------------------
# ColumnBatch
# ---------------------------------------------------------------------------
class TestColumnBatch:
    def make(self):
        rows = [(1.0, "a", 10.0), (2.0, "b", 20.0), (3.0, "a", 30.0)]
        return ColumnBatch(rows, width=3, indices=[0, 2], key_index=1), rows

    def test_round_trip(self):
        batch, rows = self.make()
        assert batch.to_rows() == rows
        assert len(batch) == 3

    def test_indexing_returns_contiguous_columns(self):
        batch, _ = self.make()
        assert np.array_equal(batch[0], [1.0, 2.0, 3.0])
        assert np.array_equal(batch[2], [10.0, 20.0, 30.0])
        assert batch[0].dtype == np.float64

    def test_unmaterialised_column_raises(self):
        batch, _ = self.make()
        with pytest.raises(SchemaError, match="not materialised"):
            batch[1]

    def test_join_keys_uncoerced(self):
        batch, _ = self.make()
        assert batch.join_keys == ["a", "b", "a"]
        assert batch.join_key_array().dtype == object

    def test_numeric_join_keys_become_float_array(self):
        batch = ColumnBatch([(5, 1.0), (7, 2.0)], width=2, key_index=0)
        assert batch.join_key_array().dtype == np.float64

    def test_numeric_looking_string_keys_keep_identity(self):
        # "01" and "1" are distinct join keys; float coercion would merge
        # them.
        batch = ColumnBatch([("01", 1.0), ("1", 2.0)], width=2, key_index=0)
        arr = batch.join_key_array()
        assert arr.dtype == object
        assert list(arr) == ["01", "1"]

    def test_missing_key_column_raises(self):
        batch = ColumnBatch([(1.0,)], width=1, indices=[0])
        with pytest.raises(SchemaError, match="join-key"):
            batch.join_keys

    def test_matrix_and_take(self):
        batch, _ = self.make()
        assert batch.matrix().shape == (3, 2)
        sub = batch.take([2, 0])
        assert sub.to_rows() == [batch.rows[2], batch.rows[0]]
        assert np.array_equal(sub[0], [3.0, 1.0])
        assert sub.join_keys == ["a", "a"]

    def test_from_table(self):
        table = Table.from_rows(
            "T", ["k", "x", "y"], [("p", 1.0, 2.0), ("q", 3.0, 4.0)]
        )
        batch = ColumnBatch.from_table(table, ["x", "y"], key_column="k")
        assert np.array_equal(batch[1], [1.0, 3.0])
        assert batch.join_keys == ["p", "q"]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(SchemaError, match="out of range"):
            ColumnBatch([(1.0,)], width=1, indices=[3])


# ---------------------------------------------------------------------------
# batched mapping and normalisation
# ---------------------------------------------------------------------------
class TestBatchedMapping:
    @pytest.fixture(scope="class")
    def bound(self):
        return SupplyChainWorkload(
            n_suppliers=60, n_transporters=60, seed=11
        ).bound()

    def test_map_rows_batch_matches_map_pair(self, bound):
        lrows = bound.left_table.rows[:25]
        rrows = bound.right_table.rows[:25]
        batch = bound.map_rows_batch(lrows, rrows)
        assert batch.shape == (25, len(bound.query.mappings.names))
        for i, (lrow, rrow) in enumerate(zip(lrows, rrows)):
            expected = bound.map_pair(lrow, rrow)
            assert batch[i] == pytest.approx(expected)

    def test_vectors_of_batch_matches_vector_of(self, bound):
        lrows = bound.left_table.rows[:25]
        rrows = bound.right_table.rows[:25]
        batch = bound.map_rows_batch(lrows, rrows)
        vectors = bound.vectors_of_batch(batch)
        for i, (lrow, rrow) in enumerate(zip(lrows, rrows)):
            expected = bound.vector_of(bound.map_pair(lrow, rrow))
            assert vectors[i] == pytest.approx(expected)

    def test_empty_chunk(self, bound):
        batch = bound.map_rows_batch([], [])
        assert batch.shape == (0, len(bound.query.mappings.names))
        assert bound.vectors_of_batch(batch).shape == (
            0, bound.skyline_dimension_count
        )


# ---------------------------------------------------------------------------
# engine vs the brute-force oracle on randomized workloads
# ---------------------------------------------------------------------------
class TestEngineAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("distribution", ["independent", "anticorrelated"])
    def test_skylines_match_the_oracle(self, distribution, seed):
        bound = SyntheticWorkload(
            distribution=distribution, n=90, d=3, sigma=0.1, seed=seed
        ).bound()
        results = list(ProgXeEngine(bound, VirtualClock()).run())
        assert {r.key() for r in results} == oracle_skyline_keys(bound)
        report = verify_results(bound, results)
        assert report.ok, report.render()

    def test_four_dimensional_run_is_verified(self):
        bound = SyntheticWorkload(
            distribution="independent", n=100, d=4, sigma=0.1, seed=9
        ).bound()
        engine = ProgXeEngine(bound, VirtualClock())
        assert verify_results(bound, list(engine.run())).ok

    def test_vectorized_charges_bulk_comparisons(self):
        bound = SyntheticWorkload(
            distribution="independent", n=80, d=2, sigma=0.1, seed=5
        ).bound()
        clock = VirtualClock()
        list(ProgXeEngine(bound, clock).run())
        assert clock.count("dominance_cmp") > 0
        assert clock.count("map") > 0
