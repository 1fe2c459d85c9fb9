import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from extsq import polynomials
from extsq.polynomials import MultiPoly, append_variable, times_linear_factors
from oracles import divexact_binomial, format_terms


def poly(nvars, mapping):
    return MultiPoly(nvars, mapping)


@st.composite
def multipolys(draw, nvars=3, max_exp=4, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        terms[exps] = coeff
    return MultiPoly(nvars, terms)


class TestMultiPolyBasics:
    def test_zero_and_one(self):
        z = MultiPoly.zero(2)
        o = MultiPoly.one(2)
        assert z.is_zero and not o.is_zero
        assert o.is_constant and o.constant_value() == 1
        assert z + o == o
        assert z * o == z

    def test_constant_collapses_integral_fraction(self):
        c = MultiPoly.constant(1, Fraction(4, 2))
        assert c.constant_value() == 2
        assert isinstance(c.constant_value(), int)

    def test_scalar_types(self):
        # int subclasses pass as ints; anything not int or Fraction is refused
        assert MultiPoly.constant(0, True) == 1
        with pytest.raises(TypeError):
            MultiPoly.constant(0, 1.0)
        with pytest.raises(TypeError):
            MultiPoly(1, {(0,): 0.5})

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 2)
        with pytest.raises(ValueError):
            MultiPoly.variable(2, -1)

    def test_exponent_cap(self):
        with pytest.raises(ValueError):
            MultiPoly.monomial(1, (5000,))

    def test_coefficient_lookup(self):
        p = poly(2, {(1, 0): 3, (0, 2): Fraction(1, 2)})
        assert p.coefficient((1, 0)) == 3
        assert p.coefficient((0, 2)) == Fraction(1, 2)
        assert p.coefficient((1, 1)) == 0
        with pytest.raises(ValueError):
            p.coefficient((1,))

    def test_eq_against_scalars(self):
        assert MultiPoly.constant(3, 7) == 7
        assert MultiPoly.constant(3, Fraction(1, 2)) == Fraction(1, 2)
        assert MultiPoly.zero(3) == 0
        assert MultiPoly.variable(3, 0) != 1

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(MultiPoly.one(1))


class TestMultiPolyArithmetic:
    def test_known_product(self):
        # (x + y)(x - y) = x^2 - y^2
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_power(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        cube = (x + y) ** 3
        assert cube.coefficient((2, 1)) == 3
        assert cube.coefficient((3, 0)) == 1
        with pytest.raises(ValueError):
            (x + y) ** -1

    def test_power_exponent_overflow_raises(self):
        y = MultiPoly.variable(2, 1)
        # without the guard, y**65536 carries into x1's field and reads x1
        with pytest.raises(ValueError):
            y**65536
        with pytest.raises(ValueError):
            y**32768
        assert (y**32767).terms() == [((0, 32767), 1)]

    def test_product_exponent_overflow_raises(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        # without the guard, x2^40000 * x2^40000 reads x1*x2^14464
        with pytest.raises(ValueError):
            (y**40000) * (y**40000)
        p = y**20000
        with pytest.raises(ValueError):
            p * p
        with pytest.raises(ValueError):
            (p + x) * (p + 1)
        assert (p * y**12767).terms() == [((0, 32767), 1)]

    def test_mixed_var_counts_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.one(2) + MultiPoly.one(3)

    @given(multipolys(), multipolys())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(multipolys(), multipolys())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=40)
    @given(multipolys(max_exp=3, max_terms=4), multipolys(max_exp=3, max_terms=4), multipolys(max_exp=3, max_terms=4))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(multipolys())
    def test_additive_inverse(self, a):
        assert (a - a).is_zero


nonzero_divisors = st.integers(-2520, 2520).filter(bool)


class TestDivInt:
    """`div_int`, the one division of the product sides and the Schur values."""

    @given(multipolys(), st.booleans(), nonzero_divisors)
    def test_matches_multiplying_by_the_reciprocal(self, p, integral, d):
        if integral:
            p = p * 12  # clears every denominator `multipolys` draws
            assert all(type(c) is int for c in p.coefficients())
        assert p.div_int(d) == p * Fraction(1, d)

    @given(multipolys(), st.booleans(), nonzero_divisors)
    def test_integral_coefficients_are_ints(self, p, integral, d):
        if integral:
            p = p * d  # every quotient coefficient is then p's own
        q = p.div_int(d)
        assert q.nvars == p.nvars and len(q) == len(p)
        assert all(type(c) is int for c in q.coefficients() if c.denominator == 1)
        assert all(type(c) is Fraction for c in q.coefficients() if c.denominator != 1)

    @given(multipolys())
    def test_one_returns_the_polynomial(self, p):
        assert p.div_int(1) == p
        assert p.div_int(1) is p

    @given(multipolys())
    def test_zero_raises(self, p):
        with pytest.raises(ZeroDivisionError):
            p.div_int(0)


class TestTimesLinearFactors:
    def test_known_product_and_series(self):
        x = MultiPoly.variable(1, 0)
        one = MultiPoly.one(1)
        # (1 - x t)(1 + 2 t) = 1 + (2 - x) t - 2x t^2
        assert times_linear_factors([one], [x, MultiPoly.constant(1, -2)], 2, 1) == [
            one, 2 - x, -2 * x,
        ]
        # (1 + t) / (1 - x t) = 1 + (x + 1) t + (x^2 + x) t^2
        assert times_linear_factors([one, one], [x], 2, -1) == [one, x + 1, x**2 + x]

    def test_exponent_overflow_raises_both_directions(self):
        x = MultiPoly.variable(2, 0)
        p = MultiPoly.variable(2, 1) ** 20000
        one = MultiPoly.one(2)
        with pytest.raises(ValueError):
            times_linear_factors([one], [p, p], 2, 1)
        with pytest.raises(ValueError):
            times_linear_factors([one], [p + x], 2, -1)
        # at the cap itself nothing raises
        q = MultiPoly.variable(2, 1) ** 12767
        assert times_linear_factors([one], [p, q], 2, 1)[2] == p * q

    def test_rejects_bad_arguments(self):
        one = MultiPoly.one(1)
        with pytest.raises(ValueError):
            times_linear_factors([one], [], 2, 2)
        with pytest.raises(ValueError):
            times_linear_factors([one], [MultiPoly.one(2)], 2, -1)
        with pytest.raises(ValueError):
            times_linear_factors([], [], 2, 1)


class TestSubstitute:
    def test_numeric_evaluation(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x * x + 2 * y
        two = MultiPoly.constant(0, 2)
        half = MultiPoly.constant(0, Fraction(1, 2))
        assert p.substitute([two, half]) == 5

    def test_polynomial_substitution(self):
        x = MultiPoly.variable(1, 0)
        p = x * x
        u = MultiPoly.variable(2, 0)
        v = MultiPoly.variable(2, 1)
        assert p.substitute([u + v]) == (u + v) * (u + v)

    def test_identity_substitution(self):
        p = poly(2, {(1, 2): Fraction(3, 7)})
        idty = [MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)]
        assert p.substitute(idty) == p

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            MultiPoly.one(2).substitute([MultiPoly.one(1)])


class TestFormat:
    @pytest.mark.parametrize(
        "mapping,expected",
        [
            ({}, "0"),
            ({(0, 0): 1}, "1"),
            ({(1, 0): 1}, "x1"),
            ({(1, 0): -1}, "-x1"),
            ({(2, 1): Fraction(1, 2)}, "1/2*x1^2*x2"),
            ({(1, 0): 1, (0, 1): -1}, "x1 - x2"),
            ({(0, 1): -1, (1, 0): 1}, "x1 - x2"),
        ],
    )
    def test_default_names(self, mapping, expected):
        assert poly(2, mapping).format() == expected

    def test_custom_names(self):
        p = poly(2, {(1, 1): 1})
        assert p.format(["α1", "α2"]) == "α1*α2"

    def test_graded_lex_is_deterministic(self):
        """Same terms inserted in different orders print identically."""
        a = poly(2, {(2, 0): 1, (0, 2): 1, (1, 1): 1})
        b = poly(2, {(1, 1): 1, (0, 2): 1, (2, 0): 1})
        assert a.format() == b.format() == "x1^2 + x1*x2 + x2^2"

    def test_degree_past_the_packed_modulus(self):
        """Degree 3 * 21845 = 0xFFFF is 0 modulo 0xFFFF, yet the term sorts last."""
        x1, x2, x3 = (MultiPoly.variable(3, i) for i in range(3))
        p = x1**21845 * x2**21845 * x3**21845 + x1**5
        assert p.terms() == [((5, 0, 0), 1), ((21845, 21845, 21845), 1)]
        assert p.format() == "x1^5 + x1^21845*x2^21845*x3^21845"

    @settings(max_examples=60)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.tuples(
                    # small fields collide and cancel; fields near the guard
                    # give degrees on both sides of 0xFFFF from 3 variables on
                    st.tuples(*[st.integers(0, 2) | st.integers(16384, 32767)] * n),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                ),
                max_size=8,
            ).map(lambda terms: (n, terms))
        )
    )
    def test_graded_lex_order_up_to_the_guard(self, drawn):
        """terms() and format order terms by (sum(e), tuple(-x for x in e))."""
        nvars, raw = drawn
        xs = [MultiPoly.variable(nvars, i) for i in range(nvars)]

        def term(exps, c):
            t = MultiPoly.constant(nvars, c)
            for x, e in zip(xs, exps):
                t = t * x**e
            return t

        p = MultiPoly.zero(nvars)
        expected: dict[tuple[int, ...], Fraction] = {}
        for exps, c in raw:
            p = p + term(exps, c)
            expected[exps] = expected.get(exps, 0) + c
        order = sorted(
            (e for e, c in expected.items() if c), key=lambda e: (sum(e), tuple(-x for x in e))
        )
        assert p.terms() == [(e, expected[e]) for e in order]
        text = ""
        for e in order:
            piece = term(e, expected[e]).format()
            if not text:
                text = piece
            else:
                text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        assert p.format() == (text or "0")

    @settings(max_examples=50)
    @given(
        st.lists(
            st.integers(0, 8).flatmap(
                lambda n: st.tuples(
                    st.just(n),
                    st.lists(
                        st.tuples(
                            # small fields repeat half-keys across calls; the
                            # all-zero vector is the constant term
                            st.tuples(*[st.integers(0, 2) | st.integers(4096, 32767)] * n),
                            st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
                        ),
                        max_size=6,
                    ),
                    st.booleans(),
                )
            ),
            max_size=6,
        )
    )
    def test_memo_matches_the_oracle(self, calls):
        """Interleaved name lists, two of each length, print as the oracle does."""
        for nvars, raw, y_first in calls:
            xs = [MultiPoly.variable(nvars, i) for i in range(nvars)]
            p = MultiPoly.zero(nvars)
            for exps, c in raw:
                t = MultiPoly.constant(nvars, c)
                for x, e in zip(xs, exps):
                    t = t * x**e
                p = p + t
            lists = [[f"x{i + 1}" for i in range(nvars)], [f"y{i + 1}" for i in range(nvars)]]
            for names in lists[::-1] if y_first else lists:
                assert p.format(names) == format_terms(p, names)

    def test_memo_past_its_caps(self):
        names = ("u", "v")
        polynomials._MONOMIALS.pop(names, None)
        # 2 * 3000 half-keys: the record starts over once, mid-format
        p = MultiPoly(2, {(i, i): i - 1500 for i in range(3000)})
        assert p.format(names) == format_terms(p, names)
        record = polynomials._MONOMIALS[names]
        assert 0 < len(record.high) + len(record.low) <= polynomials._MONOMIAL_CAP
        # a name list past the cap on lists starts the whole memo over
        q = MultiPoly(1, {(3,): -2})
        for i in range(polynomials._NAME_LISTS + 5):
            assert q.format([f"z{i}"]) == f"-2*z{i}^3"
        assert len(polynomials._MONOMIALS) <= polynomials._NAME_LISTS


class TestAppendVariable:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(multipolys(nvars=2), st.integers(0, 4)), max_size=4))
    def test_matches_products_with_the_new_variable(self, parts):
        """Sums that cancel or turn integral come out normalized."""
        x1, x2, y = (MultiPoly.variable(3, i) for i in range(3))
        expected = MultiPoly.zero(3)
        for p, e in parts:
            expected = expected + p.substitute([x1, x2]) * y**e
        got = append_variable(2, parts)
        assert got == expected
        assert all(
            isinstance(c, int) or c.denominator != 1 for _, c in got.terms()
        )

    def test_cancelling_and_integral_sums(self):
        x = MultiPoly.variable(1, 0)
        half = x * Fraction(1, 2)
        assert append_variable(1, [(x, 2), (-x, 2)]).is_zero
        got = append_variable(1, [(half, 1), (half, 1)])
        assert got.terms() == [((1, 1), 1)] and type(got.coefficient((1, 1))) is int

    def test_rejects_bad_exponent_and_dimension(self):
        x = MultiPoly.variable(1, 0)
        with pytest.raises(ValueError):
            append_variable(1, [(x, 4096)])
        with pytest.raises(ValueError):
            append_variable(2, [(x, 1)])


class TestDivexactBinomial:
    def test_roundtrip(self):
        x = MultiPoly.variable(3, 0)
        z = MultiPoly.variable(3, 2)
        p = (x - z) * (x + z + 1)
        assert divexact_binomial(p, 0, 2) == x + z + 1

    def test_inexact_raises(self):
        x = MultiPoly.variable(2, 0)
        with pytest.raises(ArithmeticError):
            divexact_binomial(x, 0, 1)

    @settings(max_examples=30)
    @given(multipolys(nvars=3, max_exp=3, max_terms=4))
    def test_random_roundtrip(self, q):
        x = MultiPoly.variable(3, 0)
        y = MultiPoly.variable(3, 1)
        assert divexact_binomial((x - y) * q, 0, 1) == q
