"""Tests for interval arithmetic — soundness is what look-ahead rests on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.intervals import Interval

floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def intervals(draw):
    a = draw(floats)
    b = draw(floats)
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_with_point(draw):
    iv = draw(intervals())
    t = draw(st.floats(0, 1))
    return iv, iv.lo + t * (iv.hi - iv.lo)


class TestConstruction:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_point(self):
        p = Interval.point(3.0)
        assert p.lo == p.hi == 3.0
        assert p.width == 0.0

    def test_contains(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(3.0)

    def test_union(self):
        assert Interval(0, 1).union(Interval(2, 3)) == Interval(0, 3)

    def test_intersects(self):
        assert Interval(0, 2).intersects(Interval(1, 3))
        assert Interval(0, 1).intersects(Interval(1, 2))  # touching counts
        assert not Interval(0, 1).intersects(Interval(2, 3))


class TestArithmetic:
    def test_add(self):
        assert Interval(1, 2) + Interval(10, 20) == Interval(11, 22)

    def test_add_scalar(self):
        assert Interval(1, 2) + 5 == Interval(6, 7)
        assert 5 + Interval(1, 2) == Interval(6, 7)

    def test_sub(self):
        assert Interval(1, 2) - Interval(10, 20) == Interval(-19, -8)

    def test_rsub(self):
        assert 10 - Interval(1, 2) == Interval(8, 9)

    def test_neg(self):
        assert -Interval(1, 2) == Interval(-2, -1)

    def test_mul_positive(self):
        assert Interval(1, 2) * Interval(3, 4) == Interval(3, 8)

    def test_mul_mixed_signs(self):
        assert Interval(-2, 3) * Interval(-5, 4) == Interval(-15, 12)

    def test_mul_scalar_negative(self):
        assert Interval(1, 2) * -3 == Interval(-6, -3)

    def test_div(self):
        assert Interval(1, 4) / Interval(2, 4) == Interval(0.25, 2.0)

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)

    def test_div_scalar(self):
        assert Interval(2, 4) / 2 == Interval(1, 2)
        assert Interval(2, 4) / -2 == Interval(-2, -1)

    def test_div_scalar_zero(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / 0

    def test_rdiv(self):
        assert 8 / Interval(2, 4) == Interval(2, 4)


class TestSoundness:
    """The fundamental containment property: op over points stays inside
    the op over their intervals."""

    @given(interval_with_point(), interval_with_point())
    @settings(max_examples=100)
    def test_add_contains(self, ap, bp):
        (ia, a), (ib, b) = ap, bp
        assert (ia + ib).contains(a + b, tol=1e-6)

    @given(interval_with_point(), interval_with_point())
    @settings(max_examples=100)
    def test_sub_contains(self, ap, bp):
        (ia, a), (ib, b) = ap, bp
        assert (ia - ib).contains(a - b, tol=1e-6)

    @given(interval_with_point(), interval_with_point())
    @settings(max_examples=100)
    def test_mul_contains(self, ap, bp):
        (ia, a), (ib, b) = ap, bp
        assert (ia * ib).contains(a * b, tol=1e-4)

    @given(interval_with_point(), floats)
    @settings(max_examples=100)
    def test_scalar_ops_contain(self, ap, s):
        (ia, a) = ap
        assert (ia + s).contains(a + s, tol=1e-6)
        assert (ia * s).contains(a * s, tol=1e-4)
        assert (-ia).contains(-a, tol=1e-6)


# ----------------------------------------------------------------------
# array-valued endpoints: one interval per partition pair
# ----------------------------------------------------------------------
def scalar_outcome(op, a: Interval, b: Interval):
    """``op(a, b)`` as ``(lo, hi)``, or the exception type it raises."""
    try:
        out = op(a, b)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return out.lo, out.hi


BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

interval_lists = st.lists(intervals(), min_size=1, max_size=4)


class TestArrayEndpoints:
    """A column of left intervals against a row of right ones computes, per
    element, exactly what the scalar form computes per pair."""

    @staticmethod
    def column(ivs):
        return Interval(
            np.array([[iv.lo] for iv in ivs]), np.array([[iv.hi] for iv in ivs])
        )

    @staticmethod
    def row(ivs):
        return Interval(
            np.array([[iv.lo for iv in ivs]]), np.array([[iv.hi for iv in ivs]])
        )

    # A tiny divisor overflows to inf on both forms; only numpy warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("symbol", sorted(BINARY_OPS))
    @given(lefts=interval_lists, rights=interval_lists)
    @settings(max_examples=60, deadline=None)
    def test_binary_ops_equal_the_scalar_form_pair_by_pair(
        self, symbol, lefts, rights
    ):
        op = BINARY_OPS[symbol]
        want = [[scalar_outcome(op, a, b) for b in rights] for a in lefts]
        raised = {w for row in want for w in row if isinstance(w, type)}
        if raised:
            # The block raises exactly when some pair would, and the same way.
            with pytest.raises(tuple(raised)):
                op(self.column(lefts), self.row(rights))
            return
        got = op(self.column(lefts), self.row(rights))
        assert got.lo.shape == got.hi.shape == (len(lefts), len(rights))
        for i, row in enumerate(want):
            for j, (lo, hi) in enumerate(row):
                assert (got.lo[i, j], got.hi[i, j]) == (lo, hi)

    @given(ivs=interval_lists, constant=intervals())
    @settings(max_examples=60, deadline=None)
    def test_scalar_intervals_mix_with_array_ones(self, ivs, constant):
        """A ``Const`` evaluates to a scalar interval on either side."""
        block = self.column(ivs)
        for op in (BINARY_OPS["+"], BINARY_OPS["-"], BINARY_OPS["*"]):
            for got, pairs in (
                (op(block, constant), [(iv, constant) for iv in ivs]),
                (op(constant, block), [(constant, iv) for iv in ivs]),
            ):
                for i, (a, b) in enumerate(pairs):
                    assert (got.lo[i, 0], got.hi[i, 0]) == scalar_outcome(op, a, b)

    def test_negation_and_ordering_check(self):
        block = -self.row([Interval(1.0, 2.0), Interval(-3.0, 5.0)])
        assert block.lo.tolist() == [[-2.0, -5.0]]
        assert block.hi.tolist() == [[-1.0, 3.0]]
        with pytest.raises(ValueError):  # one bad element is enough
            Interval(np.array([0.0, 2.0]), np.array([1.0, 1.0]))

    def test_divisor_containing_zero_anywhere_raises(self):
        numerator = self.column([Interval(1.0, 2.0)])
        fine = self.row([Interval(1.0, 2.0), Interval(-4.0, -2.0)])
        assert (numerator / fine).lo.tolist() == [[0.5, -1.0]]
        with pytest.raises(ZeroDivisionError):
            numerator / self.row([Interval(1.0, 2.0), Interval(-1.0, 0.0)])
