import itertools
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import symmetric
from extsq.lfactors import SatakeParams, ext_sq_expansion, ext_sq_roots, product_series
from extsq.polynomials import MultiPoly, times_linear_factors
from extsq.series import series_first_difference
from extsq.tasks import parse_task, run_task
from extsq.torus_sums import js_series
from oracles import (
    LFactor,
    dominant_series,
    format_terms,
    formal_ext_sq_L,
    power,
    reciprocal_quotient,
    standard_L,
)


class TestSatakeParams:
    def test_parse_symbols_numbered_left_to_right(self):
        p = SatakeParams.parse(["sym", "2", "sym"])
        assert p.nvars == 2
        assert p.entries[0] == MultiPoly.variable(2, 0)
        assert p.entries[1] == MultiPoly.constant(2, 2)
        assert p.entries[2] == MultiPoly.variable(2, 1)

    def test_parse_rationals(self):
        p = SatakeParams.parse(["-2/5", "0", "3"])
        assert p.nvars == 0
        assert p.entries[0] == Fraction(-2, 5)
        assert p.entries[1] == 0
        assert p.entries[2] == 3

    @pytest.mark.parametrize("bad", ["2/0", "x", "1.5.2", "", "1e5", "2.5E-3"])
    def test_parse_malformed(self, bad):
        with pytest.raises(ValueError):
            SatakeParams.parse([bad])

    def test_parse_decimal(self):
        assert SatakeParams.parse([" 0.25 "]).entries[0] == Fraction(1, 4)

    def test_symbolic(self):
        p = SatakeParams.symbolic(3)
        assert p.n == 3 and p.nvars == 3
        assert not p.has_zero

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            SatakeParams([MultiPoly.one(1), MultiPoly.one(2)])

    def test_entries_are_single_variables_or_constants(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = SatakeParams([y, MultiPoly.constant(2, Fraction(-3, 4)), x, MultiPoly.zero(2)])
        assert p.n == 4 and p.nvars == 2
        for bad in (x * Fraction(1, 3), x + y, x * y, x + 1, x * x):
            with pytest.raises(ValueError):
                SatakeParams([y, bad])
        with pytest.raises(ValueError):
            SatakeParams([x], nvars=3)

    @pytest.mark.parametrize(
        "entries",
        [
            lambda x, y: [y, x, x],
            lambda x, y: [x, MultiPoly.constant(2, 3)],
            lambda x, y: [MultiPoly.zero(2), MultiPoly.constant(2, 3)],
            lambda x, y: [y, y, MultiPoly.one(2)],
        ],
        ids=["repeated", "missing", "none", "one_twice_one_missing"],
    )
    def test_each_symbol_exactly_once(self, entries):
        """The symbolic entries are the symbols, each once: else a sum's dominant
        terms would not fix it."""
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        with pytest.raises(ValueError, match="each exactly once"):
            SatakeParams(entries(x, y))


class TestLFactor:
    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError):
            LFactor([MultiPoly.constant(0, 2)])
        with pytest.raises(ValueError):
            LFactor([MultiPoly.zero(0)])

    def test_trailing_zero_coeffs_stripped(self):
        one = MultiPoly.one(0)
        z = MultiPoly.zero(0)
        assert LFactor([one, z, z]).degree == 0

    def test_from_linear_roots_skips_zero(self):
        x = MultiPoly.variable(1, 0)
        z = MultiPoly.zero(1)
        assert LFactor.from_linear_roots([x, z], 1) == LFactor.from_linear_roots([x], 1)

    def test_series_inverts_reciprocal(self):
        x = MultiPoly.variable(1, 0)
        f = LFactor.from_linear_roots([x], 1)
        assert f.series(4) == tuple(power(x, l) for l in range(5))


class TestStandardAndExtSq:
    def test_standard_reciprocal_n2(self):
        p = SatakeParams.symbolic(2)
        a, b = p.entries
        rec = standard_L(p).reciprocal
        assert rec[1] == -(a + b)
        assert rec[2] == a * b

    def test_ext_sq_reciprocal_n2_is_single_pair(self):
        p = SatakeParams.symbolic(2)
        a, b = p.entries
        rec = formal_ext_sq_L(p).reciprocal
        assert len(rec) == 2
        assert rec[1] == -(a * b)

    def test_ext_sq_degree_counts_nonzero_pairs(self):
        p = SatakeParams.parse(["sym", "sym", "0", "sym"])
        assert formal_ext_sq_L(p).degree == 3  # C(3,2) pairs survive

    def test_single_entry_gives_trivial_ext_sq(self):
        p = SatakeParams.parse(["sym"])
        assert formal_ext_sq_L(p) == LFactor.one(1)

    @pytest.mark.parametrize(
        "tokens",
        [
            ["sym", "sym", "sym"],
            ["sym", "0", "sym", "2/3"],
            ["1", "-1", "1/2"],
            ["0", "0", "sym"],
            ["3", "1/3", "sym", "0", "sym"],
        ],
    )
    def test_ext_sq_degree_bound(self, tokens):
        p = SatakeParams.parse(tokens)
        k = sum(1 for e in p.entries if not e.is_zero)
        assert formal_ext_sq_L(p).degree <= k * (k - 1) // 2

    def test_ordering_invariance(self):
        p = SatakeParams.parse(["sym", "0", "2/3", "sym"])
        for perm in itertools.permutations(p.entries):
            q = SatakeParams(perm)
            assert standard_L(q) == standard_L(p)
            assert formal_ext_sq_L(q) == formal_ext_sq_L(p)


@st.composite
def sparse_roots(draw):
    """(nvars, roots): up to two terms in 0-3 symbols, denominators <= 12, zeros included.

    The roots' scale D is then the lcm of several different denominators.
    """
    nvars = draw(st.integers(0, 3))
    roots = [
        MultiPoly(
            nvars,
            {
                tuple(draw(st.integers(0, 3)) for _ in range(nvars)): Fraction(
                    draw(st.integers(-9, 9)), draw(st.integers(1, 12))
                )
                for _ in range(draw(st.integers(1, 2)))
            },
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return nvars, roots


class TestRootwiseProductSide:
    """The (1 - r t)^{+-1} kernel against products and series inversion."""

    @settings(max_examples=60, deadline=None)
    @given(sparse_roots(), st.integers(0, 7))
    def test_series_matches_inverted_reciprocal(self, nvars_roots, order):
        nvars, roots = nvars_roots
        oracle = LFactor.from_linear_roots(roots, nvars).series(order)
        assert product_series(roots, nvars, order) == dominant_series(oracle)

    @settings(max_examples=60, deadline=None)
    @given(sparse_roots(), st.integers(0, 7))
    def test_kernel_gets_int_roots(self, nvars_roots, order):
        """product_series scales the roots by D before the kernel sees them."""
        nvars, roots = nvars_roots
        seen = []

        def spy(coeffs, roots, order, power):
            seen.append([c for r in roots for c in r.coefficients()])
            return times_linear_factors(coeffs, roots, order, power)

        with patch.object(symmetric, "times_linear_factors", spy):
            product_series(roots, nvars, order)
        assert len(seen) == 1 and all(type(c) is int for c in seen[0])

    @settings(max_examples=60, deadline=None)
    @given(sparse_roots())
    def test_reciprocal_matches_repeated_products(self, nvars_roots):
        nvars, roots = nvars_roots
        product = times_linear_factors([MultiPoly.one(nvars)], roots, len(roots), 1)
        assert LFactor(product, nvars) == LFactor.from_linear_roots(roots, nvars)

    @pytest.mark.parametrize("tokens", [["sym", "-3/4", "2", "sym"], ["0", "1/2", "sym", "0", "5"]])
    def test_series_reads_the_factor_roots(self, tokens):
        p = SatakeParams.parse(tokens)
        assert product_series(p.entries, p.nvars, 6) == dominant_series(standard_L(p).series(6))
        ext = formal_ext_sq_L(p).series(6)
        assert product_series(ext_sq_roots(p), p.nvars, 6) == dominant_series(ext)


class TestLfactorReport:
    """The `lfactor` report's root lists, rebuilt from the entries alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just("sym"),
                st.just(Fraction(0)),
                st.fractions(min_value=-3, max_value=3, max_denominator=5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_root_lists(self, entries):
        nsyms = entries.count("sym")
        names = [f"α{i + 1}" for i in range(nsyms)]
        symbols = iter(range(nsyms))
        values = [
            MultiPoly.variable(nsyms, next(symbols)) if e == "sym" else MultiPoly.constant(nsyms, e)
            for e in entries
        ]
        pairs = [a * b for a, b in itertools.combinations(values, 2)]
        body = {"task": "lfactor", "satake": [str(e) for e in entries], "truncation": 1}
        data = run_task(parse_task(body)).data
        assert data["standard_roots"] == sorted(format_terms(v, names) for v in values if v)
        assert data["ext_sq_roots"] == sorted(format_terms(r, names) for r in pairs if r)


class TestExtSqExpansion:
    @pytest.mark.parametrize("k,order", [(2, 6), (3, 5), (4, 4)])
    def test_symbolic_identity(self, k, order):
        p = SatakeParams.symbolic(k)
        lhs = ext_sq_expansion(p, order).series
        rhs = dominant_series(formal_ext_sq_L(p).series(order))
        assert series_first_difference(lhs, rhs) is None

    def test_zeros_anywhere(self):
        p = SatakeParams.parse(["0", "sym", "2/3", "0", "sym"])
        lhs = ext_sq_expansion(p, 5).series
        rhs = dominant_series(formal_ext_sq_L(p).series(5))
        assert series_first_difference(lhs, rhs) is None

    def test_terms_sum_to_series(self):
        p = SatakeParams.parse(["sym", "0", "2/3", "sym", "-3"])
        out = ext_sq_expansion(p, 4)
        assert [shape for power, shape, _ in out.terms if power == 2] == [(2, 2, 0, 0), (1, 1, 1, 1)]
        for l in range(5):
            total = sum((value for power, _, value in out.terms if power == l), MultiPoly.zero(p.nvars))
            assert total == out.series[l]

    def test_k_zero_and_one(self):
        for toks in (["0", "0"], ["sym", "0"]):
            p = SatakeParams.parse(toks)
            s = ext_sq_expansion(p, 4).series
            assert series_first_difference(s, dominant_series(formal_ext_sq_L(p).series(4))) is None
            assert all(s[l].is_zero for l in range(1, 5))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            min_size=2,
            max_size=4,
        )
    )
    def test_random_rational_entries(self, values):
        p = SatakeParams([MultiPoly.constant(0, v) for v in values], nvars=0)
        lhs = ext_sq_expansion(p, 5).series
        rhs = dominant_series(formal_ext_sq_L(p).series(5))
        assert series_first_difference(lhs, rhs) is None


class TestFullExpansion:
    """The doubled-shape sum carried over all n entries, which is `js_series`.

    For even n it is an identity only when some entry vanishes; verify-js
    flags the other case through its report.
    """

    def test_odd_always_asserted(self):
        p = SatakeParams.symbolic(3)
        out = js_series(p, 5)
        assert series_first_difference(out.series, dominant_series(formal_ext_sq_L(p).series(5))) is None

    def test_even_with_zero(self):
        p = SatakeParams.parse(["sym", "sym", "sym", "0"])
        out = js_series(p, 5)
        assert series_first_difference(out.series, dominant_series(formal_ext_sq_L(p).series(5))) is None

    def test_even_all_nonzero_flags_and_differs(self):
        p = SatakeParams.symbolic(4)
        out = js_series(p, 4)
        diff = series_first_difference(out.series, dominant_series(formal_ext_sq_L(p).series(4)))
        assert diff is not None
        report = run_task(parse_task({"task": "verify-js", "satake": ["sym"] * 4, "truncation": 4}))
        assert report.verdict == "info" and not report.data["positive_conductor"]

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            js_series(SatakeParams.parse(["sym"]), 3)


class TestReciprocalQuotient:
    def test_exact_division(self):
        p = SatakeParams.symbolic(3)
        num = formal_ext_sq_L(p)
        a, b, c = p.entries
        den = LFactor.from_linear_roots([a * b], 3)
        q = reciprocal_quotient(num, den)
        assert q is not None
        assert LFactor(list(q)) == LFactor.from_linear_roots([a * c, b * c], 3)

    def test_self_division_gives_one(self):
        p = SatakeParams.symbolic(2)
        f = standard_L(p)
        assert reciprocal_quotient(f, f) == (MultiPoly.one(2),)

    def test_non_divisor_returns_none(self):
        p = SatakeParams.symbolic(2)
        a, b = p.entries
        num = LFactor.from_linear_roots([a], 2)
        den = LFactor.from_linear_roots([b], 2)
        assert reciprocal_quotient(num, den) is None

    def test_degree_obstruction(self):
        p = SatakeParams.symbolic(2)
        num = LFactor.from_linear_roots([p.entries[0]], 2)
        den = standard_L(p)
        assert reciprocal_quotient(num, den) is None

    def test_rational_case(self):
        num = LFactor([MultiPoly.one(0), MultiPoly.constant(0, Fraction(-5, 6)), MultiPoly.constant(0, Fraction(1, 6))])
        den = LFactor([MultiPoly.one(0), MultiPoly.constant(0, Fraction(-1, 2))])
        q = reciprocal_quotient(num, den)
        assert q == (MultiPoly.one(0), MultiPoly.constant(0, Fraction(-1, 3)))

    def test_rational_non_divisor(self):
        # 1 - 5/6 t + 1/5 t^2 is not (1 - t/2)(1 - t/3); only the top
        # coefficient differs, so only the remainder check can tell
        num = LFactor([MultiPoly.one(0), MultiPoly.constant(0, Fraction(-5, 6)), MultiPoly.constant(0, Fraction(1, 5))])
        den = LFactor([MultiPoly.one(0), MultiPoly.constant(0, Fraction(-1, 2))])
        assert reciprocal_quotient(num, den) is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_multiplication_oracle(self, data):
        nvars = data.draw(st.integers(0, 2), label="nvars")

        def coefficient():
            terms = {}
            for _ in range(data.draw(st.integers(0, 2))):
                exps = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
                terms[exps] = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
            return MultiPoly(nvars, terms)

        def nonzero_coefficient():
            c = coefficient()
            return c if c else MultiPoly.one(nvars)

        def reciprocal(degree):
            # a nonzero top coefficient keeps the drawn degree
            coeffs = [MultiPoly.one(nvars)] + [coefficient() for _ in range(degree)]
            if degree and not coeffs[-1]:
                coeffs[-1] = MultiPoly.one(nvars)
            return coeffs

        den = LFactor(reciprocal(data.draw(st.integers(1, 3))))
        q = LFactor(reciprocal(data.draw(st.integers(0, 3))))
        num = [MultiPoly.zero(nvars)] * (den.degree + q.degree + 1)
        for i, a in enumerate(den.reciprocal):
            for j, b in enumerate(q.reciprocal):
                num[i + j] = num[i + j] + a * b
        assert reciprocal_quotient(LFactor(num), den) == q.reciprocal
        # a nonzero term above the quotient's degree leaves a remainder
        k = data.draw(st.integers(q.degree + 1, den.degree + q.degree), label="k")
        num[k] = num[k] + nonzero_coefficient()
        assert reciprocal_quotient(LFactor(num), den) is None
