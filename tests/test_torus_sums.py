import itertools
import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import lfactors, symmetric
from extsq.lfactors import SatakeParams, ext_sq_roots, product_series
from extsq.polynomials import MultiPoly, times_linear_factors
from extsq.series import series2_first_difference, series_first_difference
from extsq.torus_sums import (
    bf_odd_correction_probe,
    bf_product_form,
    bf_product_series,
    bf_series,
    js_series,
)
from oracles import (
    LFactor,
    alternating_sum,
    delta_half_exponent,
    dominant_series,
    embed_t1,
    embed_t2,
    even_index_sum,
    expand_m_basis,
    formal_ext_sq_L,
    schur_bialternant,
    series2_product,
    standard_L,
    substitute,
    symbolic_params,
)


def product_series2(params, l1, l2):
    """The product of the factors' inverted series, by its dominant terms."""
    std = embed_t1(standard_L(params).series(l1), l2)
    return dominant_series(series2_product(std, embed_t2(formal_ext_sq_L(params).series(l2), l1)))


def full_grid(grid):
    return tuple(tuple(map(expand_m_basis, row)) for row in grid)


class TestDeltaHalfExponent:
    def test_known_values(self):
        # GL2: delta^(1/2)(diag(pi, 1)) = q^(-1/2)
        assert delta_half_exponent((1, 0), 2) == -1
        # central elements have |det|-normalized delta = 1
        assert delta_half_exponent((1, 1), 2) == 0
        assert delta_half_exponent((1, 1, 1), 3) == 0

    def test_length_check(self):
        with pytest.raises(ValueError):
            delta_half_exponent((1, 0), 3)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_linear(self, g):
        n = len(g)
        doubled = [2 * x for x in g]
        assert delta_half_exponent(doubled, n) == 2 * delta_half_exponent(g, n)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_pair_doubling_quadruples(self, g):
        """Repeating every exponent twice (rank n -> 2n) multiplies e by 4."""
        n = len(g)
        rep = [x for x in g for _ in range(2)]
        assert delta_half_exponent(rep, 2 * n) == 4 * delta_half_exponent(g, n)


class TestJsSeries:
    @pytest.mark.parametrize("n,order", [(3, 6), (5, 5)])
    def test_odd_symbolic(self, n, order):
        p = symbolic_params(n)
        lhs = js_series(p, order).series
        rhs = dominant_series(formal_ext_sq_L(p).series(order))
        assert series_first_difference(lhs, rhs) is None

    @pytest.mark.parametrize("tokens", [["sym", "sym", "sym", "0"], ["sym", "0"], ["sym", "sym", "0", "0"]])
    def test_even_with_zero(self, tokens):
        p = SatakeParams.parse(tokens)
        lhs = js_series(p, 6).series
        rhs = dominant_series(formal_ext_sq_L(p).series(6))
        assert series_first_difference(lhs, rhs) is None

    def test_even_all_nonzero_differs_by_central_product(self):
        """For all-nonzero even rank the sum picks up the extra pair at t^m...

        Concretely at n=4 the first discrepancy sits at t^2 and equals the
        product of all four entries (the shape (1,1,1,1) the padded sum was
        built to exclude).
        """
        p = symbolic_params(4)
        lhs = js_series(p, 4).series
        rhs = dominant_series(formal_ext_sq_L(p).series(4))
        diff = series_first_difference(lhs, rhs)
        assert diff is not None
        l, ca, cb = diff
        assert l == 2
        omega = reduce(lambda a, b: a * b, p.entries)
        assert cb - ca == omega

    def test_parity_validation(self):
        """The parity of n picks the shapes: (f,f,0) for n=3, (f,f,0,0) for n=4."""
        odd = js_series(symbolic_params(3), 3).terms
        even = js_series(symbolic_params(4), 3).terms
        assert [shape for _, shape, _ in odd] == [(l, l, 0) for l in range(4)]
        assert [shape for _, shape, _ in even] == [(l, l, 0, 0) for l in range(4)]
        with pytest.raises(ValueError):
            js_series(symbolic_params(1), 3)

    def test_rational_entries(self):
        p = SatakeParams.parse(["1/2", "-3", "2/5"])
        lhs = js_series(p, 8).series
        rhs = dominant_series(formal_ext_sq_L(p).series(8))
        assert series_first_difference(lhs, rhs) is None

    def test_at_most_one_nonzero_entry_gives_unit(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randrange(2, 7)
            toks = ["0"] * n
            if rng.random() < 0.8:
                toks[rng.randrange(n)] = str(Fraction(rng.randrange(-8, 9) or 1, rng.randrange(1, 7)))
            p = SatakeParams.parse(toks)
            assert formal_ext_sq_L(p) == LFactor.one(p.nvars)
            s = js_series(p, 5).series
            assert s[0] == 1
            assert all(s[l].is_zero for l in range(1, 6))


class TestBfSeries:
    def test_even_symbolic_with_central_factor(self):
        p = symbolic_params(4)
        lhs = bf_series(p, 4, 4)
        omega = reduce(lambda a, b: a * b, p.entries)
        grid = [[MultiPoly.zero(4) for _ in range(5)] for _ in range(5)]
        grid[0][0] = MultiPoly.one(4)
        grid[0][2] = -omega
        expected = dominant_series(series2_product(grid, full_grid(product_series2(p, 4, 4))))
        assert series2_first_difference(lhs, expected) is None

    def test_even_with_zero_is_plain_product(self):
        p = SatakeParams.parse(["sym", "sym", "sym", "0"])
        assert series2_first_difference(bf_series(p, 4, 4), product_series2(p, 4, 4)) is None

    def test_odd_with_zero_is_plain_product(self):
        p = SatakeParams.parse(["sym", "sym", "0"])
        assert series2_first_difference(bf_series(p, 4, 4), product_series2(p, 4, 4)) is None

    def test_n2_small_window(self):
        p = symbolic_params(2)
        lhs = bf_series(p, 3, 3)
        omega = p.entries[0] * p.entries[1]
        grid = [[MultiPoly.zero(2) for _ in range(4)] for _ in range(4)]
        grid[0][0] = MultiPoly.one(2)
        grid[0][1] = -omega
        expected = dominant_series(series2_product(grid, full_grid(product_series2(p, 3, 3))))
        assert series2_first_difference(lhs, expected) is None

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            bf_series(SatakeParams.parse(["sym"]), 2, 2)

    def test_evaluates_only_the_window(self):
        # n = 4 at (5, 5): 91 shapes with at most 3 rows lie in the window,
        # of the 174 with at most 3 rows and weight up to 15
        shapes = []
        scaled = symmetric.SchurValues.scaled

        def counted(self, f):
            shapes.append(f)
            return scaled(self, f)

        with patch.object(symmetric.SchurValues, "scaled", counted):
            bf_series(SatakeParams.parse(["1/2", "sym", "0", "-3"]), 5, 5)
        assert len(shapes) == len(set(shapes)) == 91
        assert all(alternating_sum(f) <= 5 and even_index_sum(f) <= 5 for f in shapes)


@lru_cache(maxsize=None)
def _bialternant(shape, k):
    return schur_bialternant(shape, k)


# per rank n: symbolic, mixed and rational vectors, each without and with a
# zero, and one nonzero entry, which leaves only the one-row shapes
_BF_ORACLE_VECTORS = {
    "sym": lambda n: ["sym"] * n,
    "sym_zero": lambda n: ["sym", "0"] + ["sym"] * (n - 2),
    "mixed": lambda n: ["sym", "2/3", "-3", "sym", "1/2"][:n],
    "mixed_zero": lambda n: ["sym", "0", "-3/4", "2", "sym"][:n],
    "rational": lambda n: ["1/2", "-3", "5/7", "2", "-1"][:n],
    "rational_zero": lambda n: ["0", "3/4", "-2", "1/6", "5"][:n],
    "one_nonzero": lambda n: ["0", "sym"] + ["0"] * (n - 2),
}


class TestBfSeriesOracle:
    """bf_series against a brute-force sum over every vector in a box."""

    @staticmethod
    def brute(params, l1, l2):
        n = params.n
        nonzero = list(params.nonzero_entries)
        k = len(nonzero)
        grid = [[MultiPoly.zero(params.nvars) for _ in range(l2 + 1)] for _ in range(l1 + 1)]
        for f in itertools.product(range(l1 + l2 + 1), repeat=n - 1):
            if any(x < y for x, y in zip(f, f[1:])):
                continue
            a, b = alternating_sum(f), even_index_sum(f)
            shape = tuple(x for x in f if x)
            if a > l1 or b > l2 or len(shape) > k:
                continue
            value = substitute(_bialternant(shape, k), nonzero, nvars=params.nvars)
            grid[a][b] = grid[a][b] + value
        return dominant_series(tuple(map(tuple, grid)))

    @pytest.mark.parametrize("l1,l2", [(0, 0), (0, 3), (3, 0), (2, 5), (5, 2)])
    @pytest.mark.parametrize("kind", list(_BF_ORACLE_VECTORS))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_brute_force(self, n, kind, l1, l2):
        p = SatakeParams.parse(_BF_ORACLE_VECTORS[kind](n))
        assert bf_series(p, l1, l2) == self.brute(p, l1, l2)


class TestBfProductSeries:
    @pytest.mark.parametrize(
        "tokens",
        [
            ["sym", "sym", "sym"],
            ["sym", "sym", "0"],
            ["sym", "2/3", "-3", "1/2"],
            ["-3/4", "sym", "0", "2"],
            ["1/2", "-3", "5/7", "2"],
            ["0", "3/4", "-2", "1/6"],
            # the entries' scale D1 differs from the pair products' D2
            ["sym", "5/6", "-7/4", "2/9"],
            ["3/8", "0", "-5/12", "7/10"],
        ],
    )
    @pytest.mark.parametrize("window", [(3, 5), (5, 2), (0, 3), (2, 0)])
    def test_matches_the_series_product_oracle(self, tokens, window):
        """The outer product equals the embedded one-variable series multiplied."""
        p = SatakeParams.parse(tokens)
        assert bf_product_series(p, *window) == product_series2(p, *window)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just("sym"),
                st.just("0"),
                st.fractions(min_value=-3, max_value=3, max_denominator=5).map(str),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_counted_sides_match_the_expanded_ones(self, tokens, order, l1, l2):
        """Drawn vectors of symbols, rationals and zeros: the counted exterior-square
        series against its inverted reciprocal, and the grid against the cell products."""
        p = SatakeParams.parse(tokens)
        ext = product_series(ext_sq_roots(p), p.nvars, order)
        assert ext == dominant_series(formal_ext_sq_L(p).series(order))
        assert bf_product_series(p, l1, l2) == product_series2(p, l1, l2)

    @pytest.mark.parametrize(
        "tokens", [["sym"] * 2, ["sym"] * 3, ["sym"] * 6, ["sym", "0", "sym", "sym"], ["0", "sym"] * 3]
    )
    def test_no_pair_root_reaches_the_kernel(self, monkeypatch, tokens):
        """All-symbolic sides are counted: the kernel never sees a root x_p x_q."""
        p = SatakeParams.parse(tokens)
        x = [MultiPoly.variable(p.nvars, i) for i in range(p.nvars)]
        pairs = [a * b for a, b in itertools.combinations(x, 2)]
        seen = []

        def spy(coeffs, roots, order):
            seen.extend(roots)
            return times_linear_factors(coeffs, roots, order)

        for module in (lfactors, symmetric):
            monkeypatch.setattr(module, "times_linear_factors", spy)
        ext = product_series(ext_sq_roots(p), p.nvars, 5)
        grid = bf_product_series(p, 3, 3)
        assert not [r for r in seen if r in pairs]
        assert ext == dominant_series(formal_ext_sq_L(p).series(5))
        assert grid == product_series2(p, 3, 3)

    @pytest.mark.parametrize("tokens", [["sym", "5/6", "-7/4", "2/9"], ["3/8", "0", "-5/12", "7/10"]])
    def test_both_series_are_built_from_int_roots(self, tokens):
        p = SatakeParams.parse(tokens)
        seen = []

        def spy(coeffs, roots, order):
            seen.append([c for r in roots for c in r.coefficients()])
            return times_linear_factors(coeffs, roots, order)

        with patch.object(lfactors, "times_linear_factors", spy):
            bf_product_series(p, 3, 3)
        assert seen and all(type(c) is int for cs in seen for c in cs)


_ENTRIES = st.one_of(
    st.just("sym"), st.just("0"), st.fractions(min_value=-3, max_value=3, max_denominator=5).map(str)
)


class TestBfProductForm:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ENTRIES, min_size=2, max_size=5), st.integers(0, 3), st.integers(0, 3))
    def test_is_the_sum(self, tokens, l1, l2):
        """(1 - ω t1^(n mod 2) t2^(n // 2)) times the product of factors is the torus sum,
        for both parities, with or without a vanishing entry."""
        p = SatakeParams.parse(tokens)
        omega, grid = bf_product_form(p, l1, l2)
        assert omega == reduce(mul, p.entries)
        assert grid == bf_series(p, l1, l2)

    @pytest.mark.parametrize(
        "tokens",
        [["sym"] * 2, ["sym"] * 3, ["sym"] * 4, ["sym", "2", "-1/3", "sym", "sym"], ["1/2", "-3", "5/7", "2"]],
    )
    def test_the_factor_is_sharp(self, tokens):
        """With every entry nonzero the plain product first differs from the sum at t1^a t2^b."""
        p = SatakeParams.parse(tokens)
        b, a = divmod(p.n, 2)
        diff = series2_first_difference(bf_series(p, 3, 3), bf_product_series(p, 3, 3))
        assert diff is not None and diff[0] == (a, b)


class TestBfOddProbe:
    def test_zero_entry_correction_is_one(self):
        p = SatakeParams.parse(["sym", "sym", "0"])
        probe = bf_odd_correction_probe(p, 4, 4)
        assert probe.conductor_hypothesis
        assert probe.matches_product
        one, zero = MultiPoly.one(p.nvars), MultiPoly.zero(p.nvars)
        assert probe.correction == tuple(
            tuple(one if (i, j) == (0, 0) else zero for j in range(5)) for i in range(5)
        )

    def test_all_nonzero_reports_nontrivial_correction(self):
        p = symbolic_params(3)
        probe = bf_odd_correction_probe(p, 3, 3)
        assert not probe.conductor_hypothesis
        assert not probe.matches_product
        assert probe.correction[0][0] == 1
        omega = MultiPoly.monomial(3, (1, 1, 1))
        assert [(i, j, c) for i, row in enumerate(probe.correction) for j, c in enumerate(row) if c] == [
            (0, 0, MultiPoly.one(3)),
            (1, 1, -omega),
        ]

    @pytest.mark.parametrize("window", [(0, 3), (3, 0), (4, 1)])
    def test_window_short_of_the_factor(self, window):
        """n = 5 puts ω at t1 t2^2: a window without that cell sees the correction 1."""
        probe = bf_odd_correction_probe(SatakeParams.parse(["sym", "2", "sym", "-1/2", "sym"]), *window)
        assert probe.matches_product and not probe.conductor_hypothesis

    def test_all_symbol_probe_reaches_no_kernel(self):
        """An all-symbol probe reads counted product sides and divides nothing out."""
        calls = []

        def spy(coeffs, roots, order):
            calls.append(roots)
            return times_linear_factors(coeffs, roots, order)

        with patch.object(lfactors, "times_linear_factors", spy):
            probe = bf_odd_correction_probe(symbolic_params(5), 4, 3)
        assert calls == []
        assert probe.correction[1][2] == -MultiPoly.monomial(5, (1,) * 5)

    @pytest.mark.parametrize(
        "tokens,window",
        [
            (["sym", "sym", "sym"], (4, 4)),
            (["sym", "2/3", "-3"], (4, 3)),
            (["1/2", "-3", "5/7"], (4, 4)),
            (["sym", "-1/3", "sym", "2", "sym"], (3, 3)),
        ],
    )
    def test_correction_times_product_is_the_sum(self, tokens, window):
        p = SatakeParams.parse(tokens)
        probe = bf_odd_correction_probe(p, *window)
        assert not probe.conductor_hypothesis
        product = full_grid(bf_product_series(p, *window))
        full = series2_product(full_grid(probe.correction), product)
        assert dominant_series(full) == bf_series(p, *window)

    def test_rational_zero_entry(self):
        p = SatakeParams.parse(["3/4", "-2", "0", "1/6", "5"])
        probe = bf_odd_correction_probe(p, 3, 3)
        assert probe.conductor_hypothesis and probe.matches_product

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            bf_odd_correction_probe(symbolic_params(4), 2, 2)
