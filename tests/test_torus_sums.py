import itertools
import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import lfactors, symmetric, torus_sums
from extsq.lfactors import SatakeParams, product_grid
from extsq.polynomials import MultiPoly, times_linear_factors
from extsq.series import series2_first_difference
from extsq.tasks import ConfigError, parse_task, run_task
from extsq.torus_sums import LittlewoodIdentity
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
    monomial,
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


def torus_row(params, order):
    """The one-variable torus sum: the t1^0 row of Littlewood's sum over at most n - 1 rows."""
    return LittlewoodIdentity(params, params.n - 1, 0, order).grid[0]


def torus_grid(params, l1, l2):
    """The two-variable torus sum: the whole window over at most n - 1 rows."""
    return LittlewoodIdentity(params, params.n - 1, l1, l2).grid


def product_grid_of(params, l1, l2):
    return LittlewoodIdentity(params, params.n - 1, l1, l2).product


def ext_sq_row(params, order):
    """The exterior-square factor's series, the t2 row of `product_grid` over the window (0, order)."""
    return product_grid(params, 0, order)[0]


def probe(tokens, window):
    return run_task(parse_task({"task": "bf-odd-probe", "satake": tokens, "truncation": list(window)}))


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
    """The one-variable torus sum, the t1^0 row of the identity over at most n - 1 rows."""

    @pytest.mark.parametrize("n,order", [(3, 6), (5, 5)])
    def test_odd_symbolic(self, n, order):
        p = symbolic_params(n)
        assert torus_row(p, order) == dominant_series(formal_ext_sq_L(p).series(order))

    @pytest.mark.parametrize("tokens", [["sym", "sym", "sym", "0"], ["sym", "0"], ["sym", "sym", "0", "0"]])
    def test_even_with_zero(self, tokens):
        p = SatakeParams.parse(tokens)
        assert torus_row(p, 6) == dominant_series(formal_ext_sq_L(p).series(6))

    def test_even_all_nonzero_differs_by_central_product(self):
        """For all-nonzero even rank the sum picks up the extra pair at t^m...

        Concretely at n=4 the first discrepancy sits at t^2 and equals the
        product of all four entries (the shape (1,1,1,1) the padded sum was
        built to exclude).
        """
        p = symbolic_params(4)
        lhs = torus_row(p, 4)
        rhs = dominant_series(formal_ext_sq_L(p).series(4))
        diff = series2_first_difference((lhs,), (rhs,))
        assert diff is not None
        (i, l), ca, cb = diff
        assert (i, l) == (0, 2)
        omega = reduce(lambda a, b: a * b, p.entries)
        assert cb - ca == omega

    @pytest.mark.parametrize(
        "tokens,padded",
        [
            (["sym"] * 3, [[l, l, 0] for l in range(4)]),
            (["sym"] * 4, [[l, l, 0, 0] for l in range(4)]),
            (["sym", "0", "sym"], [[l, l, 0] for l in range(4)]),
            (["0", "sym", "2", "0"], [[l, l, 0, 0] for l in range(4)]),
        ],
    )
    def test_parity_validation(self, tokens, padded):
        """The rank n pads the shapes: (f,f,0) for n=3, (f,f,0,0) for n=4, zero entries or not."""
        r = run_task(parse_task({"task": "verify-js", "satake": tokens, "truncation": 3}))
        assert [c["shape"] for c in r.data["contributions"]] == padded
        terms = LittlewoodIdentity(SatakeParams.parse(tokens), len(tokens) - 1, 0, 3).terms
        assert [list(shape) for _, _, shape, _ in terms] == [[x for x in f if x] for f in padded]

    def test_rational_entries(self):
        p = SatakeParams.parse(["1/2", "-3", "2/5"])
        assert torus_row(p, 8) == dominant_series(formal_ext_sq_L(p).series(8))

    def test_at_most_one_nonzero_entry_gives_unit(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randrange(2, 7)
            toks = ["0"] * n
            if rng.random() < 0.8:
                toks[rng.randrange(n)] = str(Fraction(rng.randrange(-8, 9) or 1, rng.randrange(1, 7)))
            p = SatakeParams.parse(toks)
            assert formal_ext_sq_L(p) == LFactor.one(p.nvars)
            s = torus_row(p, 5)
            assert s[0] == 1
            assert all(s[l].is_zero for l in range(1, 6))


class TestBfSeries:
    def test_even_symbolic_with_central_factor(self):
        p = symbolic_params(4)
        lhs = torus_grid(p, 4, 4)
        omega = reduce(lambda a, b: a * b, p.entries)
        grid = [[MultiPoly.zero(4) for _ in range(5)] for _ in range(5)]
        grid[0][0] = MultiPoly.one(4)
        grid[0][2] = -omega
        expected = dominant_series(series2_product(grid, full_grid(product_series2(p, 4, 4))))
        assert series2_first_difference(lhs, expected) is None

    def test_even_with_zero_is_plain_product(self):
        p = SatakeParams.parse(["sym", "sym", "sym", "0"])
        assert series2_first_difference(torus_grid(p, 4, 4), product_series2(p, 4, 4)) is None

    def test_odd_with_zero_is_plain_product(self):
        p = SatakeParams.parse(["sym", "sym", "0"])
        assert series2_first_difference(torus_grid(p, 4, 4), product_series2(p, 4, 4)) is None

    def test_n2_small_window(self):
        p = symbolic_params(2)
        lhs = torus_grid(p, 3, 3)
        omega = p.entries[0] * p.entries[1]
        grid = [[MultiPoly.zero(2) for _ in range(4)] for _ in range(4)]
        grid[0][0] = MultiPoly.one(2)
        grid[0][1] = -omega
        expected = dominant_series(series2_product(grid, full_grid(product_series2(p, 3, 3))))
        assert series2_first_difference(lhs, expected) is None

    @pytest.mark.parametrize("tokens,rows", [(["sym"], -1), (["sym", "sym", "sym"], 1), (["sym", "0", "2", "sym"], 1)])
    def test_refuses_fewer_than_k_minus_one_rows(self, tokens, rows):
        """Below k - 1 rows the sum leaves out shapes of two column lengths: no product form."""
        with pytest.raises(ValueError, match="needs at least"):
            LittlewoodIdentity(SatakeParams.parse(tokens), rows, 2, 2)

    def test_evaluates_only_the_window(self):
        # n = 4 at (5, 5): 91 shapes with at most 3 rows lie in the window,
        # of the 174 with at most 3 rows and weight up to 15
        shapes = []
        scaled = symmetric.SchurValues.scaled

        def counted(self, f):
            shapes.append(f)
            return scaled(self, f)

        with patch.object(symmetric.SchurValues, "scaled", counted):
            torus_grid(SatakeParams.parse(["1/2", "sym", "0", "-3"]), 5, 5)
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
    """The two-variable torus sum against a brute-force sum over every vector in a box."""

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
        assert torus_grid(p, l1, l2) == self.brute(p, l1, l2)


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
        assert product_grid_of(p, *window) == product_series2(p, *window)

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
        ext = ext_sq_row(p, order)
        assert ext == dominant_series(formal_ext_sq_L(p).series(order))
        assert product_grid_of(p, l1, l2) == product_series2(p, l1, l2)

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
        ext = ext_sq_row(p, 5)
        grid = product_grid_of(p, 3, 3)
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
            product_grid_of(p, 3, 3)
        assert seen and all(type(c) is int for cs in seen for c in cs)


_ENTRIES = st.one_of(
    st.just("sym"), st.just("0"), st.fractions(min_value=-3, max_value=3, max_denominator=5).map(str)
)


class TestLittlewoodIdentity:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_ENTRIES, min_size=1, max_size=5), st.integers(0, 3), st.integers(0, 3), st.integers(-1, 2))
    def test_the_form_is_the_sum(self, tokens, l1, l2, extra):
        """(1 - ω t1^(k mod 2) t2^(k // 2)) times the product of factors is the sum over
        any rows >= k - 1, k the nonzero entries, for either parity, with or without zeros."""
        p = SatakeParams.parse(tokens)
        k = len(p.nonzero_entries)
        rows = max(k + extra, 0)  # above n included: no shape is longer than the vector
        identity = LittlewoodIdentity(p, rows, l1, l2)
        one = MultiPoly.one(p.nvars)
        assert identity.omega == (reduce(mul, p.nonzero_entries, one) if rows < k else 0)
        assert identity.form == identity.grid

    @pytest.mark.parametrize(
        "tokens,rows,cell",
        [
            (["sym", "sym", "sym", "0"], 2, (1, 1)),
            (["0", "sym", "sym", "0", "sym", "sym"], 3, (0, 2)),
            (["2", "0", "sym", "-1/3", "sym"], 3, (0, 2)),
            (["sym", "0", "0"], 0, (1, 0)),
        ],
    )
    def test_the_column_is_read_from_k(self, tokens, rows, cell):
        """With zeros among the entries and k - 1 rows, the factor sits at t1^(k mod 2) t2^(k // 2)."""
        p = SatakeParams.parse(tokens)
        identity = LittlewoodIdentity(p, rows, 3, 3)
        assert identity.form == identity.grid
        diff = series2_first_difference(identity.grid, identity.product)
        assert diff is not None and diff[0] == cell

    def test_the_row_bound_of_the_torus_sums_is_the_rank(self):
        """At n - 1 rows ω is the product of all entries: 0 when one vanishes."""
        for tokens in (["sym"] * 4, ["sym", "0", "sym"], ["1/2", "sym", "-3"]):
            p = SatakeParams.parse(tokens)
            assert LittlewoodIdentity(p, p.n - 1, 1, 1).omega == reduce(mul, p.entries)

    def test_rank_one_sum_is_the_unit(self):
        """One entry and no rows: the sum is 1, and so is (1 - x t1) / (1 - x t1)."""
        identity = LittlewoodIdentity(SatakeParams.parse(["sym"]), 0, 3, 2)
        one, zero = MultiPoly.one(1), MultiPoly.zero(1)
        unit = tuple(tuple(one if (i, j) == (0, 0) else zero for j in range(3)) for i in range(4))
        assert identity.grid == identity.form == unit
        assert identity.omega == MultiPoly.variable(1, 0)

    @pytest.mark.parametrize(
        "tokens",
        [["sym"] * 2, ["sym"] * 3, ["sym"] * 4, ["sym", "2", "-1/3", "sym", "sym"], ["1/2", "-3", "5/7", "2"]],
    )
    def test_the_factor_is_sharp(self, tokens):
        """With every entry nonzero the plain product first differs from the sum at t1^a t2^b."""
        p = SatakeParams.parse(tokens)
        b, a = divmod(p.n, 2)
        identity = LittlewoodIdentity(p, p.n - 1, 3, 3)
        diff = series2_first_difference(identity.grid, identity.product)
        assert diff is not None and diff[0] == (a, b)

    def test_the_product_is_built_when_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(torus_sums, "product_grid", lambda *args: calls.append(args) or product_grid(*args))
        identity = LittlewoodIdentity(symbolic_params(3), 2, 2, 2)
        assert calls == []
        assert identity.form == identity.grid and identity.product is identity.product
        assert len(calls) == 1


class TestBfOddProbe:
    """The `bf-odd-probe` task: the odd-rank sum over its product form, and the correction it reports."""

    def test_zero_entry_correction_is_one(self):
        r = probe(["sym", "sym", "0"], (4, 4))
        assert r.verdict == "pass"
        assert r.data["conductor_hypothesis"] and r.data["matches_product"]
        assert r.data["correction"] == [["1" if (i, j) == (0, 0) else "0" for j in range(5)] for i in range(5)]

    def test_all_nonzero_reports_nontrivial_correction(self):
        r = probe(["sym"] * 3, (3, 3))
        assert r.verdict == "info"
        assert not r.data["conductor_hypothesis"]
        assert not r.data["matches_product"]
        omega = monomial(3, (1, 1, 1))
        cells = [(i, j, c) for i, row in enumerate(r.data["correction"]) for j, c in enumerate(row) if c != "0"]
        assert cells == [(0, 0, "1"), (1, 1, (-omega).format_symmetric())]

    @pytest.mark.parametrize("window", [(0, 3), (3, 0), (4, 1)])
    def test_window_short_of_the_factor(self, window):
        """n = 5 puts ω at t1 t2^2: a window without that cell sees the correction 1."""
        r = probe(["sym", "2", "sym", "-1/2", "sym"], window)
        assert r.data["matches_product"] and not r.data["conductor_hypothesis"]
        assert {c for row in r.data["correction"] for c in row[1:]} <= {"0"}

    def test_all_symbol_probe_reaches_no_kernel(self):
        """An all-symbol probe reads counted product sides and divides nothing out."""
        calls = []

        def spy(coeffs, roots, order):
            calls.append(roots)
            return times_linear_factors(coeffs, roots, order)

        with patch.object(lfactors, "times_linear_factors", spy):
            r = probe(["sym"] * 5, (4, 3))
        assert calls == []
        assert r.data["correction"][1][2] == (-monomial(5, (1,) * 5)).format_symmetric()

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
        """The reported correction, multiplied out against the factors, gives the sum back."""
        p = SatakeParams.parse(tokens)
        l1, l2 = window
        identity = LittlewoodIdentity(p, p.n - 1, l1, l2)
        correction = [[MultiPoly.zero(p.nvars)] * (l2 + 1) for _ in range(l1 + 1)]
        correction[0][0] = MultiPoly.one(p.nvars)
        correction[1][p.n // 2] = -reduce(mul, p.entries)
        r = probe(tokens, window)
        assert not r.data["conductor_hypothesis"]
        assert r.data["correction"] == [[c.format_symmetric() for c in row] for row in correction]
        full = series2_product(full_grid(correction), full_grid(identity.product))
        assert dominant_series(full) == identity.grid

    def test_rational_zero_entry(self):
        r = probe(["3/4", "-2", "0", "1/6", "5"], (3, 3))
        assert r.data["conductor_hypothesis"] and r.data["matches_product"]

    def test_even_rejected(self):
        with pytest.raises(ConfigError, match="odd n >= 3"):
            parse_task({"task": "bf-odd-probe", "satake": ["sym"] * 4, "truncation": [2, 2]})
