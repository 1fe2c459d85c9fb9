import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.polynomials import MultiPoly, append_variable, times_linear_factors
from oracles import (
    coefficient,
    divexact_binomial,
    dominant_part,
    expand_m_basis,
    format_m,
    format_terms,
    monomial,
    power,
    substitute,
    unscale,
)


def poly(nvars, mapping):
    return MultiPoly(nvars, mapping)


@st.composite
def multipolys(draw, nvars=3, max_exp=4, max_terms=5, ints=False):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        coeff = draw(st.integers(-6, 6)) if ints else Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
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
            monomial(1, (5000,))

    def test_coefficient_lookup(self):
        p = poly(2, {(1, 0): 3, (0, 2): Fraction(1, 2)})
        assert coefficient(p, (1, 0)) == 3
        assert coefficient(p, (0, 2)) == Fraction(1, 2)
        assert coefficient(p, (1, 1)) == 0
        with pytest.raises(ValueError):
            coefficient(p, (1,))

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
        cube = power(x + y, 3)
        assert coefficient(cube, (2, 1)) == 3
        assert coefficient(cube, (3, 0)) == 1
        with pytest.raises(ValueError):
            power(x + y, -1)

    def test_power_exponent_overflow_raises(self):
        y = MultiPoly.variable(2, 1)
        # without the guard, y^65536 carries into x1's field and reads x1
        with pytest.raises(ValueError):
            power(y, 65536)
        with pytest.raises(ValueError):
            power(y, 32768)
        assert power(y, 32767).terms() == [((0, 32767), 1)]

    def test_product_exponent_overflow_raises(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        # without the guard, x2^40000 * x2^40000 reads x1*x2^14464
        with pytest.raises(ValueError):
            power(y, 40000) * power(y, 40000)
        p = power(y, 20000)
        with pytest.raises(ValueError):
            p * p
        with pytest.raises(ValueError):
            (p + x) * (p + 1)
        assert (p * power(y, 12767)).terms() == [((0, 32767), 1)]

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


@st.composite
def scaled_polys(draw, nvars=3):
    """(p, scale): an int polynomial and a scale, its coefficients of either sign,
    multiples of the scale and ±scale among them, the scale 1 among the scales."""
    scale = draw(st.sampled_from([1, 2, 6, 12]) | st.integers(1, 10**6))
    coeff = st.one_of(
        st.integers(-(10**7), 10**7).filter(bool),
        st.sampled_from([scale, -scale]),
        st.integers(-5, 5).filter(bool).map(lambda k: k * scale),
    )
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        terms[tuple(draw(st.integers(0, 3)) for _ in range(nvars))] = draw(coeff)
    return MultiPoly(nvars, terms), scale


class TestScaledPrinter:
    """`format` and `format_symmetric` at a scale D print p / D, against the oracle
    printers of p / D in Fractions."""

    @settings(max_examples=300)
    @given(scaled_polys())
    def test_matches_the_fraction_printers(self, drawn):
        p, scale = drawn
        q = unscale(p, scale)
        for names in (["x1", "x2", "x3"], ["α1", "α2", "α3"]):
            assert p.format(names, scale) == format_terms(q, names)
        d = p.dominant()
        assert d.format_symmetric(scale) == format_m(unscale(d, scale))

    def test_known_text(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = x * x * 6 - x * y * 3 + MultiPoly.constant(2, 4) + y * 12
        assert p.format(scale=6) == "2/3 + 2*x2 + x1^2 - 1/2*x1*x2"
        assert (-p).format(scale=6) == "-2/3 - 2*x2 - x1^2 + 1/2*x1*x2"
        assert p.format(scale=1) == p.format() == "4 + 12*x2 + 6*x1^2 - 3*x1*x2"
        assert (x * x * 6 - x * y * 6).format_symmetric(6) == "m(2) - m(1,1)"
        assert MultiPoly.constant(0, -12).format_symmetric(6) == "-2"
        assert MultiPoly.constant(0, 9).format_symmetric(6) == "3/2"
        assert MultiPoly.zero(2).format(scale=6) == "0"


class TestTimesLinearFactors:
    def test_known_series(self):
        x = MultiPoly.variable(1, 0)
        one = MultiPoly.one(1)
        # (1 + t) / (1 - x t) = 1 + (x + 1) t + (x^2 + x) t^2
        assert times_linear_factors([one, one], [x], 2) == [one, x + 1, x * x + x]

    def test_exponent_overflow_raises(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = power(y, 20000)
        one = MultiPoly.one(2)
        with pytest.raises(ValueError):
            times_linear_factors([one], [p + x], 2)
        # y^16384 * y^16383 is at the cap itself, where nothing raises; y^32768 is past it
        a, b = power(y, 16384), power(y, 16383)
        assert times_linear_factors([b], [a], 1)[1] == a * b
        with pytest.raises(ValueError):
            times_linear_factors([b * y], [a], 1)
        with pytest.raises(ValueError):
            times_linear_factors([one], [a], 2)

    def test_rejects_bad_arguments(self):
        one = MultiPoly.one(1)
        with pytest.raises(ValueError):
            times_linear_factors([one], [MultiPoly.one(2)], 2)
        with pytest.raises(ValueError):
            times_linear_factors([], [], 2)


class TestSubstitute:
    def test_numeric_evaluation(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x * x + 2 * y
        two = MultiPoly.constant(0, 2)
        half = MultiPoly.constant(0, Fraction(1, 2))
        assert substitute(p, [two, half]) == 5

    def test_polynomial_substitution(self):
        x = MultiPoly.variable(1, 0)
        p = x * x
        u = MultiPoly.variable(2, 0)
        v = MultiPoly.variable(2, 1)
        assert substitute(p, [u + v]) == (u + v) * (u + v)

    def test_identity_substitution(self):
        p = poly(2, {(1, 2): Fraction(3, 7)})
        idty = [MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)]
        assert substitute(p, idty) == p

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            substitute(MultiPoly.one(2), [MultiPoly.one(1)])


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
        p = power(x1 * x2 * x3, 21845) + power(x1, 5)
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
                t = t * power(x, e)
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
                            # small and large fields; the all-zero vector is the
                            # constant term
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
    def test_format_matches_the_oracle(self, calls):
        """Interleaved name lists, two of each length, print as the oracle does."""
        for nvars, raw, y_first in calls:
            xs = [MultiPoly.variable(nvars, i) for i in range(nvars)]
            p = MultiPoly.zero(nvars)
            for exps, c in raw:
                t = MultiPoly.constant(nvars, c)
                for x, e in zip(xs, exps):
                    t = t * power(x, e)
                p = p + t
            lists = [[f"x{i + 1}" for i in range(nvars)], [f"y{i + 1}" for i in range(nvars)]]
            for names in lists[::-1] if y_first else lists:
                assert p.format(names) == format_terms(p, names)


class TestAppendVariable:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(multipolys(nvars=2, ints=True), st.integers(0, 4)), max_size=4))
    def test_matches_products_with_the_new_variable(self, parts):
        """The dominant part of the products, in ints; sums that cancel are dropped."""
        parts = [(dominant_part(p), e) for p, e in parts]
        x1, x2, y = (MultiPoly.variable(3, i) for i in range(3))
        expected = MultiPoly.zero(3)
        for p, e in parts:
            expected = expected + substitute(p, [x1, x2]) * power(y, e)
        got = append_variable(2, parts)
        assert got == dominant_part(expected)
        assert all(type(c) is int and c for _, c in got.terms())

    def test_keeps_a_term_when_the_new_exponent_is_at_most_the_last(self):
        xy = monomial(2, (3, 2))
        assert append_variable(2, [(xy, 2)]) == monomial(3, (3, 2, 2))
        assert append_variable(2, [(xy, 3)]).is_zero
        assert append_variable(0, [(MultiPoly.one(0), 5)]) == monomial(1, (5,))

    def test_cancelling_and_integral_sums(self):
        x = MultiPoly.variable(1, 0)
        assert append_variable(1, [(x, 1), (-x, 1)]).is_zero
        got = append_variable(1, [(x * 3, 1), (x * -2, 1)])
        assert got.terms() == [((1, 1), 1)] and type(coefficient(got, (1, 1))) is int

    def test_rejects_bad_exponent_and_dimension(self):
        x = MultiPoly.variable(1, 0)
        with pytest.raises(ValueError):
            append_variable(1, [(x, 4096)])
        with pytest.raises(ValueError):
            append_variable(2, [(x, 1)])


class TestDominantTerms:
    """`dominant` and `format_symmetric` against their oracles."""

    @settings(max_examples=80)
    @given(st.integers(0, 4).flatmap(lambda n: multipolys(nvars=n, max_exp=5, max_terms=8)))
    def test_projection_reads_every_field(self, p):
        assert p.dominant() == dominant_part(p)

    def test_projection_at_the_exponent_cap(self):
        """Fields up to 32767, where a borrow between fields would show."""
        keep = [(3, 3, 3), (5, 0, 0), (2, 2, 1), (0, 0, 0)]
        drop = [(0, 1, 0), (2, 3, 3), (3, 2, 3), (0, 0, 1)]
        p = MultiPoly(3, {e: 1 for e in keep + drop})
        top = power(monomial(3, (4095, 4095, 4095)), 8)  # 32760 in each field
        step = [monomial(3, e) for e in ((7, 0, 0), (0, 7, 0), (7, 7, 0), (0, 0, 7))]
        big = [top] + [top * m for m in step]
        assert [q.dominant() == q for q in big] == [True, True, False, True, False]
        assert (p + sum(big, MultiPoly.zero(3))).dominant() == p.dominant() + big[0] + big[1] + big[3]
        assert sorted(e for e, _ in p.dominant().terms()) == sorted(keep)

    @settings(max_examples=80)
    @given(st.integers(0, 4).flatmap(lambda n: multipolys(nvars=n, max_exp=5, max_terms=8)))
    def test_expansion_and_printer(self, p):
        d = p.dominant()
        full = expand_m_basis(d)
        assert full.dominant() == d
        assert d.format_symmetric() == format_m(d) == format_m(full)

    def test_printer_text(self):
        x, y, z = (MultiPoly.variable(3, i) for i in range(3))
        p = x * x * y * 3 - x * y * Fraction(1, 2) + 1 - x * y * z
        assert p.format_symmetric() == "1 - 1/2*m(1,1) + 3*m(2,1) - m(1,1,1)"
        assert (-p).format_symmetric() == "-1 + 1/2*m(1,1) - 3*m(2,1) + m(1,1,1)"
        assert MultiPoly.zero(3).format_symmetric() == "0"
        assert MultiPoly.constant(0, Fraction(-2, 5)).format_symmetric() == "-2/5"
        assert (x * x).format_symmetric() == "m(2)"


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
