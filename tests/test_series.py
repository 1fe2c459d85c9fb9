"""Series comparison in `extsq.series`, and the oracles' series arithmetic.

A one-variable series is a tuple of coefficients by power; a two-variable
series is a grid, [i][j] the coefficient of t1^i t2^j.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.polynomials import MultiPoly
from extsq.series import series2_first_difference
from oracles import (
    embed_t1,
    embed_t2,
    series2_product,
    series_inverse,
    series_pad,
    series_product,
)


def const(c, nvars=0):
    return MultiPoly.constant(nvars, c)


def series_from_scalars(values, nvars=0):
    return tuple(const(v, nvars) for v in values)


def grid_from_scalars(rows, nvars=0):
    return tuple(series_from_scalars(row, nvars) for row in rows)


def unit_grid(l1, l2):
    return grid_from_scalars([[int(i == j == 0) for j in range(l2 + 1)] for i in range(l1 + 1)])


@st.composite
def unit_series(draw, order=5):
    coeffs = [1] + [
        Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))) for _ in range(order)
    ]
    return series_from_scalars(coeffs)


class TestTruncSeries1:
    """One-variable series: the oracles' pad, product and inverse."""

    def test_from_tpoly_truncates_and_pads(self):
        assert series_pad([MultiPoly.one(0), const(2)], 0, 4) == series_from_scalars([1, 2, 0, 0, 0])
        assert series_pad([MultiPoly.one(0), const(2), const(3)], 0, 1) == series_from_scalars([1, 2])

    def test_geometric_inverse(self):
        # 1/(1 - 2t) = sum 2^l t^l
        inv = series_inverse(series_from_scalars([1, -2, 0, 0, 0, 0]))
        assert inv == series_from_scalars([1, 2, 4, 8, 16, 32])

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_inverse(series_from_scalars([2, 1]))
        with pytest.raises(ValueError):
            series_inverse(series_from_scalars([0, 1]))

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            series_product(series_from_scalars([1, 1]), series_from_scalars([1, 1, 1]))

    def test_nvars_mismatch(self):
        a = (MultiPoly.one(1),) * 3
        b = (MultiPoly.one(2),) * 3
        with pytest.raises(ValueError):
            series_product(a, b)

    def test_product_truncated_cauchy(self):
        a = series_from_scalars([1, 1, 0])  # 1 + t
        b = series_from_scalars([1, -1, 0])  # 1 - t
        assert series_product(a, b) == series_from_scalars([1, 0, -1])

    @settings(max_examples=40)
    @given(unit_series())
    def test_inverse_roundtrip(self, s):
        assert series_product(s, series_inverse(s)) == series_from_scalars([1] + [0] * (len(s) - 1))

    @settings(max_examples=30)
    @given(unit_series(order=4), unit_series(order=4))
    def test_inverse_is_multiplicative(self, a, b):
        lhs = series_inverse(series_product(a, b))
        assert lhs == series_product(series_inverse(a), series_inverse(b))


class TestTruncSeries2:
    """Two-variable grids: the oracles' embeddings and product."""

    def test_from_t1_from_t2(self):
        base = series_from_scalars([1, 5, 7])
        assert embed_t1(base, 1) == grid_from_scalars([[1, 0], [5, 0], [7, 0]])
        assert embed_t2(base, 1) == grid_from_scalars([[1, 5, 7], [0, 0, 0]])

    def test_product_separates(self):
        a = series_from_scalars([1, 2, 4])
        b = series_from_scalars([1, 3, 9])
        prod = series2_product(embed_t1(a, 2), embed_t2(b, 2))
        assert prod == grid_from_scalars([[2**i * 3**j for j in range(3)] for i in range(3)])

    def test_orders_mismatch(self):
        with pytest.raises(ValueError):
            series2_product(unit_grid(1, 2), unit_grid(2, 1))
        with pytest.raises(ValueError):
            series2_first_difference(unit_grid(1, 2), unit_grid(2, 1))
        with pytest.raises(ValueError):
            series2_first_difference(unit_grid(2, 2), unit_grid(2, 1))
        one = ((MultiPoly.one(1),),)
        with pytest.raises(ValueError):
            series2_first_difference(one, ((MultiPoly.one(2),),))


class TestSeries2FirstDifference:
    def test_equal(self):
        s = unit_grid(2, 2)
        assert series2_first_difference(s, s) is None

    def test_graded_order(self):
        """The reported cell is minimal in (i+j, i) order."""
        a = unit_grid(2, 2)
        grid = [list(row) for row in a]
        grid[1][1] = const(4)
        grid[0][2] = const(9)
        (i, j), ca, cb = series2_first_difference(a, tuple(map(tuple, grid)))
        assert (i, j) == (0, 2)
        assert ca == 0 and cb == 9

    @pytest.mark.parametrize("window", [(0, 0), (0, 3), (2, 3), (3, 1)])
    def test_difference_at_the_last_cell(self, window):
        l1, l2 = window
        a = unit_grid(l1, l2)
        grid = [list(row) for row in a]
        grid[l1][l2] = grid[l1][l2] + 1
        assert series2_first_difference(a, tuple(map(tuple, grid)))[0] == (l1, l2)
