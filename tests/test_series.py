from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.polynomials import MultiPoly
from extsq.series import (
    TruncSeries1,
    TruncSeries2,
    series2_first_difference,
    series_first_difference,
)


def const(c, nvars=0):
    return MultiPoly.constant(nvars, c)


def series_from_scalars(values, nvars=0):
    return TruncSeries1(nvars, [const(v, nvars) for v in values])


@st.composite
def unit_series(draw, order=5):
    coeffs = [1] + [
        Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))) for _ in range(order)
    ]
    return series_from_scalars(coeffs)


class TestTruncSeries1:
    def test_from_tpoly_truncates_and_pads(self):
        s = TruncSeries1.from_tpoly([MultiPoly.one(0), const(2)], 0, 4)
        assert [s.coeff(l) for l in range(5)] == [1, 2, 0, 0, 0]
        t = TruncSeries1.from_tpoly([MultiPoly.one(0), const(2), const(3)], 0, 1)
        assert t.order == 1 and t.coeff(1) == 2

    def test_geometric_inverse(self):
        # 1/(1 - 2t) = sum 2^l t^l
        s = series_from_scalars([1, -2, 0, 0, 0, 0])
        inv = s.inverse()
        assert [inv.coeff(l) for l in range(6)] == [1, 2, 4, 8, 16, 32]

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_from_scalars([2, 1]).inverse()
        with pytest.raises(ValueError):
            series_from_scalars([0, 1]).inverse()

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            series_from_scalars([1, 1]) * series_from_scalars([1, 1, 1])
        with pytest.raises(ValueError):
            series_first_difference(series_from_scalars([1, 1]), series_from_scalars([1, 1, 1]))

    def test_nvars_mismatch(self):
        a = TruncSeries1(1, [MultiPoly.one(1)] * 3)
        b = TruncSeries1(2, [MultiPoly.one(2)] * 3)
        with pytest.raises(ValueError):
            a * b

    def test_product_truncated_cauchy(self):
        a = series_from_scalars([1, 1, 0])  # 1 + t
        b = series_from_scalars([1, -1, 0])  # 1 - t
        assert a * b == series_from_scalars([1, 0, -1])

    @settings(max_examples=40)
    @given(unit_series())
    def test_inverse_roundtrip(self, s):
        assert s * s.inverse() == series_from_scalars([1] + [0] * s.order)

    @settings(max_examples=30)
    @given(unit_series(order=4), unit_series(order=4))
    def test_inverse_is_multiplicative(self, a, b):
        assert (a * b).inverse() == a.inverse() * b.inverse()


class TestFirstDifference:
    def test_equal_series(self):
        a = series_from_scalars([1, 2, 3])
        assert series_first_difference(a, a) is None

    def test_reports_lowest_order(self):
        a = series_from_scalars([1, 2, 3, 4])
        b = series_from_scalars([1, 2, 5, 9])
        l, ca, cb = series_first_difference(a, b)
        assert l == 2
        assert ca == 3 and cb == 5


class TestTruncSeries2:
    def test_unit(self):
        u = TruncSeries2.unit(1, (2, 3))
        assert u.orders == (2, 3)
        assert u.coeff(0, 0) == 1
        assert u.coeff(1, 2).is_zero

    def test_build_and_coeff(self):
        s = TruncSeries2(0, [[const(10 * i + j) for j in range(2)] for i in range(2)])
        assert s.coeff(1, 1) == 11

    def test_from_t1_from_t2(self):
        base = series_from_scalars([1, 5, 7])
        s1 = TruncSeries2.from_t1(base, 2)
        assert s1.coeff(1, 0) == 5 and s1.coeff(1, 1).is_zero
        s2 = TruncSeries2.from_t2(base, 2)
        assert s2.coeff(0, 1) == 5 and s2.coeff(1, 1).is_zero

    def test_product_separates(self):
        a = series_from_scalars([1, 2, 4])
        b = series_from_scalars([1, 3, 9])
        prod = TruncSeries2.from_t1(a, 2) * TruncSeries2.from_t2(b, 2)
        for i in range(3):
            for j in range(3):
                assert prod.coeff(i, j) == 2**i * 3**j

    def test_orders_mismatch(self):
        with pytest.raises(ValueError):
            TruncSeries2.unit(0, (1, 2)) * TruncSeries2.unit(0, (2, 1))
        with pytest.raises(ValueError):
            series2_first_difference(TruncSeries2.unit(0, (1, 2)), TruncSeries2.unit(0, (2, 1)))


class TestSeries2FirstDifference:
    def test_equal(self):
        s = TruncSeries2.unit(0, (2, 2))
        assert series2_first_difference(s, s) is None

    def test_graded_order(self):
        """The reported cell is minimal in (i+j, i) order."""
        a = TruncSeries2.unit(0, (2, 2))
        grid = [[a.coeff(i, j) for j in range(3)] for i in range(3)]
        grid[1][1] = const(4)
        grid[0][2] = const(9)
        b = TruncSeries2(0, grid)
        (i, j), ca, cb = series2_first_difference(a, b)
        assert (i, j) == (0, 2)
        assert ca == 0 and cb == 9
