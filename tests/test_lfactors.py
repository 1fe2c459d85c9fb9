import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import cli, galois_tasks, lfactors, polynomials, satake_tasks
from extsq.lfactors import SatakeParams
from extsq.polynomials import MultiPoly, times_linear_factors
from extsq.series import series2_first_difference
from extsq.tasks import ASCII_WHITESPACE, ConfigError, parse_rational, parse_task, run_task
from extsq.torus_sums import LittlewoodIdentity
from oracles import (
    LFactor,
    alternating_sum,
    coefficient,
    dominant_series,
    embed_t1,
    embed_t2,
    format_terms,
    formal_ext_sq_L,
    multigraph_count,
    partitions_bounded,
    power,
    reciprocal_quotient,
    schur_bialternant,
    series2_product,
    standard_L,
    symbolic_params,
)


def kernel_series(roots, nvars, order):
    """prod_r 1/(1 - r t) through t^order, by the kernel on its own."""
    return tuple(times_linear_factors([MultiPoly.one(nvars)], roots, order))


def expansion_row(params, order):
    """The doubled-shape expansion: the t1^0 row of Littlewood's sum over k rows, k the nonzero entries."""
    return LittlewoodIdentity(params, len(params.nonzero_entries), 0, order).grid[0]


def torus_row(params, order):
    return LittlewoodIdentity(params, params.n - 1, 0, order).grid[0]


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

    @pytest.mark.parametrize(
        "token, value",
        [("0.25", Fraction(1, 4)), ("-2/5", Fraction(-2, 5)), ("+3", 3), (".5", Fraction(1, 2)),
         ("5.", 5), (" -.5\t", Fraction(-1, 2)), ("007/014", Fraction(1, 2))],
    )
    def test_parse_every_spelling_of_the_grammar(self, token, value):
        assert SatakeParams.parse([token]).entries[0] == value

    @pytest.mark.parametrize("bad", ["1_0", "1_000/3", "\u0661\u0662", "\uff11", "1 / 3", "+-3", "3/+5"])
    def test_parse_refuses_spellings_outside_the_grammar(self, bad):
        """`Fraction` reads "1_0" as 10 and Arabic-Indic or fullwidth digits as ints."""
        with pytest.raises(ValueError, match="malformed rational"):
            SatakeParams.parse(["sym", bad])

    @pytest.mark.parametrize("bad", ["\u20033", "3\u00a0", "\u2003sym", "sym\u00a0"])
    def test_parse_strips_ascii_whitespace_only(self, bad):
        """An em space (U+2003) or a no-break space (U+00A0) is not README's whitespace."""
        with pytest.raises(ValueError, match="malformed rational"):
            SatakeParams.parse(["sym", bad])
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(bad)
        p = SatakeParams.parse([" \t3\n", "\fsym\v"])
        assert p.entries == (MultiPoly.constant(1, 3), MultiPoly.variable(1, 0))

    def test_parse_rational_lives_in_tasks(self):
        """The token grammar lives in the shared front end; every reader re-binds it, `polynomials` holds none."""
        for module in (cli, galois_tasks, lfactors, satake_tasks):
            assert module.ASCII_WHITESPACE is ASCII_WHITESPACE, module
        for module in (galois_tasks, lfactors, satake_tasks):
            assert module.parse_rational is parse_rational, module
        assert not hasattr(polynomials, "parse_rational") and not hasattr(polynomials, "ASCII_WHITESPACE")

    @pytest.mark.parametrize("bad", [0.1, 2.0, True, False, None, [1]])
    def test_parse_refuses_tokens_that_are_not_exact(self, bad):
        """A float would be read to its binary value, 0.1 as 3602879701896397/2^55."""
        with pytest.raises(ValueError, match="neither 'sym' nor an exact rational"):
            SatakeParams.parse(["2", bad])

    def test_parse_takes_ints_and_fractions(self):
        p = SatakeParams.parse([3, Fraction(-1, 2), "sym"])
        assert p.entries[:2] == (MultiPoly.constant(1, 3), MultiPoly.constant(1, Fraction(-1, 2)))

    @pytest.mark.parametrize(
        "tokens, constants, scale",
        [
            (["sym", "1/2", "0", "-2/3", "sym", "3"], [Fraction(1, 2), Fraction(-2, 3), 3], 6),
            (["3/4", "5/6", "-7/10"], [Fraction(3, 4), Fraction(5, 6), Fraction(-7, 10)], 60),
            (["sym", "0", "sym"], [], 1),
            (["0"], [], 1),
            (["4", "-2"], [4, -2], 1),
        ],
    )
    def test_constants_and_scale(self, tokens, constants, scale):
        """The one split of a vector: its nonzero constants in entry order, and D."""
        p = SatakeParams.parse(tokens)
        assert p.constants == tuple(MultiPoly.constant(p.nvars, c) for c in constants)
        assert p.scale == scale and type(p.scale) is int

    def test_symbolic(self):
        p = symbolic_params(3)
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
        p = symbolic_params(2)
        a, b = p.entries
        rec = standard_L(p).reciprocal
        assert rec[1] == -(a + b)
        assert rec[2] == a * b

    def test_ext_sq_reciprocal_n2_is_single_pair(self):
        p = symbolic_params(2)
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
        assert kernel_series(roots, nvars, order) == oracle

    @settings(max_examples=60, deadline=None)
    @given(sparse_roots(), st.integers(0, 7))
    def test_kernel_gets_int_roots(self, nvars_roots, order):
        """Roots scaled by D, the lcm of their denominators, give int coefficients,
        and coefficient k divided by D^k is the series of the roots themselves."""
        nvars, roots = nvars_roots
        scale = lcm(*(c.denominator for r in roots for c in r.coefficients()))
        scaled = kernel_series([r * scale for r in roots], nvars, order)
        assert all(type(c) is int for s in scaled for c in s.coefficients())
        oracle = LFactor.from_linear_roots(roots, nvars).series(order)
        assert tuple(c.div_int(scale**k) for k, c in enumerate(scaled)) == oracle

    @pytest.mark.parametrize(
        "tokens, kernel",
        [
            (["sym"] * 4, False),
            (["sym", "0", "sym", "0"], False),
            (["0", "0", "0"], False),
            (["sym"], False),
            (["sym", "sym", "-3/4", "sym"], True),
            (["2", "-1/3", "0", "5/7"], True),
            (["1/2"], True),
        ],
        ids=["symbols", "symbols_and_zeros", "zeros", "one_symbol", "one_constant", "constants", "one_entry"],
    )
    def test_the_route_reads_the_vector(self, tokens, kernel):
        """Symbols and zeros are counted; a vector with a nonzero constant goes to the
        kernel.  Either way the grid equals the product of the inverted factor series."""
        p = SatakeParams.parse(tokens)
        calls = []

        def spy(coeffs, roots, order):
            calls.append(list(roots))
            return times_linear_factors(coeffs, roots, order)

        with patch.object(lfactors, "times_linear_factors", spy):
            grid = lfactors.product_grid(p, 3, 4)
        assert bool(calls) is kernel
        assert all(type(c) is int for roots in calls for r in roots for c in r.coefficients())
        std = embed_t1(standard_L(p).series(3), 4)
        assert grid == dominant_series(series2_product(std, embed_t2(formal_ext_sq_L(p).series(4), 3)))

    @pytest.mark.parametrize("tokens", [["sym", "-3/4", "2", "sym"], ["0", "1/2", "sym", "0", "5"]])
    def test_series_reads_the_factor_roots(self, tokens):
        p = SatakeParams.parse(tokens)
        std = tuple(row[0] for row in lfactors.product_grid(p, 6, 0))
        assert std == dominant_series(standard_L(p).series(6))
        assert lfactors.product_grid(p, 0, 6)[0] == dominant_series(formal_ext_sq_L(p).series(6))


def kostka_sum(nu, odd_columns, n):
    """The sum of K_{lam nu}, the coefficients at x^nu of the bialternant s_lam in n
    variables, over the lam with at most n rows, |lam| = |nu| and that many odd columns."""
    padded = nu + (0,) * (n - len(nu))
    return sum(
        coefficient(schur_bialternant(lam, n), padded)
        for lam in partitions_bounded(sum(nu), n)
        if alternating_sum(lam) == odd_columns
    )


class TestMultigraphCounts:
    """M(d) behind the counted product sides, against brute force and Littlewood's identities."""

    def test_every_degree_sequence_up_to_weight_12(self):
        checked = 0
        for weight in range(13):
            for d in partitions_bounded(weight, 5):
                assert lfactors._multigraphs(d) == multigraph_count(d), d
                checked += 1
        assert checked == 197

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_even_columns_count_the_pair_graphs(self, n):
        """sum_{lam with even columns} K_{lam nu} = M(nu), the m_nu coefficient of
        prod_{p<q} 1/(1 - x_p x_q)."""
        for weight in range(0, 9, 2):
            for nu in partitions_bounded(weight, n):
                assert kostka_sum(nu, 0, n) == multigraph_count(nu), nu

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_odd_columns_add_a_vertex(self, n):
        """sum_{lam with i odd columns} K_{lam nu} = M(nu + (i,)), the m_nu t1^i
        coefficient of prod_p 1/(1 - x_p t1) prod_{p<q} 1/(1 - x_p x_q)."""
        for i in range(1, 4):
            for j in range(3):
                for nu in partitions_bounded(i + 2 * j, n):
                    degrees = tuple(sorted(nu + (i,), reverse=True))
                    assert kostka_sum(nu, i, n) == multigraph_count(degrees), (nu, i)

    def test_memo_stays_within_its_cap(self, monkeypatch):
        # the recursion goes through the module name, so it uses the small cache too
        small = lru_cache(maxsize=8)(lfactors._multigraphs.__wrapped__)
        monkeypatch.setattr(lfactors, "_multigraphs", small)
        for d in partitions_bounded(10, 5):
            assert lfactors._multigraphs(d) == multigraph_count(d), d
            assert small.cache_info().currsize <= 8
        assert small.cache_info().misses > 8

    def test_memo_stays_under_its_cap_on_16_symbols(self):
        lfactors._multigraphs.cache_clear()
        body = {"task": "lfactor", "satake": ["sym"] * 16, "truncation": 4}
        assert run_task(parse_task(body)).verdict == "info"
        info = lfactors._multigraphs.cache_info()
        # every count was stored once and none evicted
        assert 0 < info.currsize == info.misses < info.maxsize


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


    def test_all_symbol_factors_are_counted(self):
        """No root of an all-symbol vector reaches the kernel, the standard factor's included."""
        calls = []

        def spy(coeffs, roots, order):
            calls.append(roots)
            return times_linear_factors(coeffs, roots, order)

        body = {"task": "lfactor", "satake": ["sym"] * 8, "truncation": 8}
        with patch.object(lfactors, "times_linear_factors", spy):
            assert run_task(parse_task(body)).verdict == "info"
        assert calls == []


class TestExtSqExpansion:
    @pytest.mark.parametrize("k,order", [(2, 6), (3, 5), (4, 4)])
    def test_symbolic_identity(self, k, order):
        p = symbolic_params(k)
        lhs = expansion_row(p, order)
        rhs = dominant_series(formal_ext_sq_L(p).series(order))
        assert series2_first_difference((lhs,), (rhs,)) is None

    def test_zeros_anywhere(self):
        p = SatakeParams.parse(["0", "sym", "2/3", "0", "sym"])
        lhs = expansion_row(p, 5)
        rhs = dominant_series(formal_ext_sq_L(p).series(5))
        assert series2_first_difference((lhs,), (rhs,)) is None

    def test_terms_sum_to_series(self):
        tokens = ["sym", "0", "2/3", "sym", "-3"]
        p = SatakeParams.parse(tokens)
        out = LittlewoodIdentity(p, 4, 0, 4)
        assert [shape for _, b, shape, _ in out.terms if b == 2] == [(2, 2), (1, 1, 1, 1)]
        for l in range(5):
            scaled = [value for _, b, _, value in out.terms if b == l]
            total = sum(scaled, MultiPoly.zero(p.nvars)).div_int(out.scale ** (2 * l))
            assert total == out.grid[0][l]
        data = run_task(parse_task({"task": "verify-littlewood", "satake": tokens, "truncation": 4})).data
        assert [c["shape"] for c in data["contributions"] if c["power"] == 2] == [[2, 2, 0, 0], [1, 1, 1, 1]]
        assert {len(c["shape"]) for c in data["contributions"]} == {4}

    def test_k_zero_and_one(self):
        for toks in (["0", "0"], ["sym", "0"]):
            p = SatakeParams.parse(toks)
            s = expansion_row(p, 4)
            assert series2_first_difference((s,), (dominant_series(formal_ext_sq_L(p).series(4)),)) is None
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
        lhs = expansion_row(p, 5)
        rhs = dominant_series(formal_ext_sq_L(p).series(5))
        assert series2_first_difference((lhs,), (rhs,)) is None


class TestFullExpansion:
    """The doubled-shape sum over at most n - 1 rows, the one-variable torus sum.

    For even n it is an identity only when some entry vanishes; verify-js
    flags the other case through its report.
    """

    def test_odd_always_asserted(self):
        p = symbolic_params(3)
        out = torus_row(p, 5)
        assert series2_first_difference((out,), (dominant_series(formal_ext_sq_L(p).series(5)),)) is None

    def test_even_with_zero(self):
        p = SatakeParams.parse(["sym", "sym", "sym", "0"])
        out = torus_row(p, 5)
        assert series2_first_difference((out,), (dominant_series(formal_ext_sq_L(p).series(5)),)) is None

    def test_even_all_nonzero_flags_and_differs(self):
        p = symbolic_params(4)
        out = torus_row(p, 4)
        diff = series2_first_difference((out,), (dominant_series(formal_ext_sq_L(p).series(4)),))
        assert diff is not None
        report = run_task(parse_task({"task": "verify-js", "satake": ["sym"] * 4, "truncation": 4}))
        assert report.verdict == "info" and not report.data["positive_conductor"]
        # the report prints the plain product of factors, not the sum's product form
        oracle = dominant_series(formal_ext_sq_L(p).series(4))
        assert report.data["product"] == [c.format_symmetric() for c in oracle]
        assert report.data["first_difference"]["power"] == diff[0][1] == 2

    def test_rank_one_sum_is_the_unit(self):
        """One entry and no rows: the sum is 1, as the exterior-square factor of one entry is."""
        p = SatakeParams.parse(["sym"])
        assert torus_row(p, 3) == dominant_series(formal_ext_sq_L(p).series(3)) == (1, 0, 0, 0)
        with pytest.raises(ConfigError, match="n >= 2"):
            parse_task({"task": "verify-js", "satake": ["sym"]})


class TestReciprocalQuotient:
    def test_exact_division(self):
        p = symbolic_params(3)
        num = formal_ext_sq_L(p)
        a, b, c = p.entries
        den = LFactor.from_linear_roots([a * b], 3)
        q = reciprocal_quotient(num, den)
        assert q is not None
        assert LFactor(list(q)) == LFactor.from_linear_roots([a * c, b * c], 3)

    def test_self_division_gives_one(self):
        p = symbolic_params(2)
        f = standard_L(p)
        assert reciprocal_quotient(f, f) == (MultiPoly.one(2),)

    def test_non_divisor_returns_none(self):
        p = symbolic_params(2)
        a, b = p.entries
        num = LFactor.from_linear_roots([a], 2)
        den = LFactor.from_linear_roots([b], 2)
        assert reciprocal_quotient(num, den) is None

    def test_degree_obstruction(self):
        p = symbolic_params(2)
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
