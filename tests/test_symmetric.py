from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extsq import symmetric
from extsq.lfactors import SatakeParams, ext_sq_expansion
from extsq.polynomials import MultiPoly
from extsq.symmetric import (
    SchurValues,
    alternating_sum,
    check_partition,
    doubled_shape,
    even_index_sum,
    partitions_bounded,
    schur,
)
from extsq.torus_sums import js_series
from oracles import complete_homogeneous, power, schur_bialternant, substitute


def variables(n):
    return [MultiPoly.variable(n, i) for i in range(n)]


@st.composite
def partitions(draw, max_part=4, max_len=4):
    length = draw(st.integers(0, max_len))
    parts = sorted(
        (draw(st.integers(0, max_part)) for _ in range(length)), reverse=True
    )
    return tuple(parts)


@st.composite
def ambient_vectors(draw):
    """Value vectors in a ring of 1-3 variables: symbols, fractions with
    denominators up to 9, zeros, and a few general polynomials."""
    m = draw(st.integers(1, 3))
    xs = variables(m)
    u, v = xs[0], xs[-1]
    general = [u + v * Fraction(1, 3), u * v * Fraction(-2, 7) + 1, u * u - Fraction(5, 9)]
    entry = st.one_of(
        st.sampled_from(xs),
        st.fractions(min_value=-4, max_value=4, max_denominator=9).map(
            lambda c: MultiPoly.constant(m, c)
        ),
        st.just(MultiPoly.zero(m)),
        st.sampled_from(general),
    )
    return draw(st.lists(entry, min_size=1, max_size=4))


class TestCheckPartition:
    def test_strips_trailing_zeros(self):
        assert check_partition((3, 1, 0, 0)) == (3, 1)
        assert check_partition(()) == ()
        assert check_partition((0, 0)) == ()

    @pytest.mark.parametrize("bad", [(1, 2), (2, -1), (1.5,)])
    def test_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            check_partition(bad)


class TestCompleteHomogeneous:
    def test_negative_degree_is_zero(self):
        assert complete_homogeneous(-1, 3).is_zero

    def test_degree_zero_is_one(self):
        assert complete_homogeneous(0, 3) == MultiPoly.one(3)

    def test_h2_two_vars(self):
        x, y = variables(2)
        assert complete_homogeneous(2, 2) == x * x + x * y + y * y

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 3)])
    def test_term_count(self, k, n):
        """h_k in n variables has C(n+k-1, k) monomials, all coefficient 1."""
        from math import comb

        h = complete_homogeneous(k, n)
        assert len(h) == comb(n + k - 1, k)
        assert all(c == 1 for _, c in h.terms())


class TestSchur:
    def test_single_row_is_h(self):
        for k in range(4):
            assert schur((k,), 3) == complete_homogeneous(k, 3)

    def test_single_column_is_elementary(self):
        x, y, z = variables(3)
        assert schur((1, 1), 3) == x * y + x * z + y * z
        assert schur((1, 1, 1), 3) == x * y * z

    def test_rectangular_2x2(self):
        x, y = variables(2)
        assert schur((2, 2), 2) == power(x * y, 2)

    def test_hook_2_1(self):
        x, y, z = variables(3)
        e1 = x + y + z
        e2 = x * y + x * z + y * z
        e3 = x * y * z
        # s_(2,1) = e1*e2 - e3
        assert schur((2, 1), 3) == e1 * e2 - e3

    def test_too_many_rows(self):
        with pytest.raises(ValueError):
            schur((1, 1, 1), 2)

    def test_part_past_exponent_cap_raises(self):
        with pytest.raises(ValueError):
            schur((5000,), 2)
        with pytest.raises(ValueError):
            SchurValues(variables(2), 5000).value((5000,))

    def test_trailing_zeros_ignored(self):
        assert schur((2, 1, 0), 3) == schur((2, 1), 3)

    def test_symmetry_under_variable_swap(self):
        p = schur((3, 1), 3)
        x, y, z = variables(3)
        assert substitute(p, [y, x, z]) == p
        assert substitute(p, [z, y, x]) == p

    @pytest.mark.parametrize(
        "f, n", [((3, 1), 3), ((2, 2, 1), 3), ((4,), 2), ((2, 1), 4)]
    )
    def test_homogeneous_of_degree_weight(self, f, n):
        for exps, coeff in schur(f, n).terms():
            assert coeff != 0
            assert sum(exps) == sum(f)

    @pytest.mark.parametrize("f, n", [((2, 1), 3), ((3, 2), 3), ((2, 2, 1), 4)])
    def test_stability_last_variable_zero(self, f, n):
        # setting the last variable to 0 recovers the Schur polynomial in one
        # fewer variable, symbolically, whenever the shape fits
        vals = [MultiPoly.variable(n - 1, i) for i in range(n - 1)]
        vals.append(MultiPoly.zero(n - 1))
        assert substitute(schur(f, n), vals) == schur(f, n - 1)

    @pytest.mark.parametrize("f, n", [((1, 1, 1), 3), ((2, 2, 2), 3), ((3, 1, 1, 1), 4)])
    def test_vanishes_when_shape_needs_last_variable(self, f, n):
        vals = [MultiPoly.variable(n - 1, i) for i in range(n - 1)]
        vals.append(MultiPoly.zero(n - 1))
        assert substitute(schur(f, n), vals).is_zero


class TestSchurOracle:
    """The branching-rule construction against the alternant quotient."""

    def test_empty_shape_is_one(self):
        for n in range(4):
            assert schur((), n) == MultiPoly.one(n) == schur_bialternant((), n)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_one_variable(self, k):
        assert schur((k,), 1) == MultiPoly.monomial(1, (k,)) == schur_bialternant((k,), 1)

    @pytest.mark.parametrize("f", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (4, 2, 2)])
    def test_exactly_n_parts(self, f):
        assert schur(f, 3) == schur_bialternant(f, 3), f

    @pytest.mark.parametrize("n", [5, 6])
    def test_doubled_shapes_of_the_torus_sums(self, n):
        params = SatakeParams.symbolic(n)
        shapes = {
            shape
            for expansion in (ext_sq_expansion(params, 4), js_series(params, 4))
            for _, shape, _ in expansion.terms
        }
        for shape in sorted(shapes):
            assert schur(shape, n) == schur_bialternant(shape, n), shape

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        for weight in range(6):
            for f in partitions_bounded(weight, n):
                assert schur(f, n) == schur_bialternant(f, n), (f, n)

    @settings(max_examples=25, deadline=None)
    @given(partitions(max_part=4, max_len=3), st.integers(3, 4))
    def test_random(self, f, n):
        assert schur(f, n) == schur_bialternant(f, n)


class TestSchurEvalPadded:
    """One shape at a vector that may hold zeros: `SchurValues(values, |f|).value(f)`."""

    def test_empty_values(self):
        assert SchurValues([], 0).value(()) == 1

    def test_shape_longer_than_values(self):
        with pytest.raises(ValueError):
            SchurValues([MultiPoly.one(0)], 2).value((1, 1))

    def test_shape_dies_on_zeros(self):
        vals = [MultiPoly.constant(0, 2), MultiPoly.zero(0)]
        assert SchurValues(vals, 2).value((1, 1)).is_zero

    def test_zero_positions_do_not_matter(self):
        x, y = variables(2)
        z = MultiPoly.zero(2)
        a = SchurValues([x, y, z], 3).value((2, 1))
        b = SchurValues([x, z, y], 3).value((2, 1))
        c = SchurValues([z, x, y], 3).value((2, 1))
        assert a == b == c == substitute(schur((2, 1), 2), [x, y], nvars=2)

    @settings(max_examples=40, deadline=None)
    @given(
        partitions(max_part=3, max_len=3),
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5)),
            min_size=3,
            max_size=4,
        ),
    )
    def test_matches_full_substitution(self, f, values):
        """Padding shortcut == evaluating s_f in all len(values) variables."""
        if len(f) > len(values):
            return
        n = len(values)
        vals = [MultiPoly.constant(0, v) for v in values]
        direct = substitute(schur(f, n), vals)
        assert SchurValues(vals, sum(f)).value(f) == direct

    @settings(max_examples=60, deadline=None)
    @given(partitions(max_part=3, max_len=3), ambient_vectors())
    def test_matches_bialternant_oracle_in_polynomial_rings(self, f, vals):
        assume(len(f) <= len(vals))
        oracle = substitute(schur_bialternant(f, len(vals)), vals)
        assert SchurValues(vals, sum(f)).value(f) == oracle

    def test_only_variable_vectors_fill_the_caches(self, monkeypatch):
        """Only vectors holding every ring variable once reach `_SCHUR_CACHE`."""
        monkeypatch.setattr(symmetric, "_SCHUR_CACHE", {})
        x, y = variables(2)
        zero = MultiPoly.zero(2)
        half = MultiPoly.constant(2, Fraction(1, 2))
        numeric = [MultiPoly.constant(0, c) for c in (Fraction(2, 3), 0, -3)]
        SchurValues(numeric, 3).value((2, 1))
        SchurValues([x, MultiPoly.constant(2, 3), half], 3).value((2, 1))  # y missing
        SchurValues([x, y, x], 3).value((2, 1))  # x twice
        SchurValues([x, x + y * Fraction(1, 3), half], 3).value((2, 1))  # y inside a polynomial
        assert not symmetric._SCHUR_CACHE
        SchurValues([y, x], 3).value((2, 1))  # the variables, out of order
        assert not {((2,), 2), ((1, 1), 2)} & set(symmetric._SCHUR_CACHE)
        SchurValues([x, half, zero, y], 3).value((2, 1))  # mixed
        # the mixed vector's coproduct reaches sub-shapes at the ring's rank
        assert {((2,), 2), ((1, 1), 2)} <= set(symmetric._SCHUR_CACHE)
        SchurValues(variables(3), 2).value((1, 1))
        requested = {((2, 1), 2), ((1, 1), 3)}
        assert requested <= set(symmetric._SCHUR_CACHE)
        # the rest are sub-shapes in fewer variables, reached by branching
        for mu, m in symmetric._SCHUR_CACHE:
            assert any(
                m <= n and len(mu) <= len(f) and all(a <= b for a, b in zip(mu, f))
                for f, n in requested
            ), (mu, m)


class TestSchurValues:
    """Each split of a vector into the core (the ring's variables, once each)
    and the peeled entries, against the bialternant oracle."""

    @pytest.mark.parametrize(
        "case,core,peeled",
        [
            ("out_of_order_among_fractions", 2, 2),
            ("repeated_variable", 0, 3),
            ("missing_variable", 0, 2),
            ("polynomial_beside_full_core", 2, 1),
            ("constants_in_a_ring", 0, 3),
            ("all_symbolic_with_zero", 3, 0),
        ],
    )
    def test_every_shape_up_to_weight_6(self, case, core, peeled):
        x, y, z = variables(3)

        def c(n, v):
            return MultiPoly.constant(n, Fraction(v))

        x2, y2 = variables(2)
        (x1,) = variables(1)
        values = {
            "out_of_order_among_fractions": [y2, c(2, "2/3"), x2, c(2, "-5/4")],
            "repeated_variable": [x1, x1, c(1, "1/2")],
            "missing_variable": [x2, c(2, 0), c(2, 3)],
            "polynomial_beside_full_core": [x2, y2, x2 + y2 * Fraction(1, 3)],
            "constants_in_a_ring": [c(2, "3/2"), c(2, 0), c(2, -2), c(2, "1/3")],
            "all_symbolic_with_zero": [z, c(3, 0), x, y],
        }[case]
        evaluator = SchurValues(values, 6)
        assert (evaluator.m, evaluator.r) == (core, peeled)
        n = len(values)
        for weight in range(7):
            for f in partitions_bounded(weight, n):
                oracle = substitute(schur_bialternant(f, n), values)
                assert evaluator.value(f) == oracle, (case, f)

    def test_all_symbolic_returns_the_cached_polynomial(self):
        x, y = variables(2)
        values = SchurValues([y, MultiPoly.zero(2), x], 4)
        assert values.value((2, 1)) is schur((2, 1), 2)

    def test_rejects_shapes_above_the_weight_bound(self):
        values = SchurValues([MultiPoly.constant(0, 2), MultiPoly.constant(0, 3)], 3)
        assert values.value((2, 1)) == substitute(
            schur_bialternant((2, 1), 2), [MultiPoly.constant(0, 2), MultiPoly.constant(0, 3)]
        )
        with pytest.raises(ValueError):
            values.value((2, 2))
        with pytest.raises(ValueError):
            SchurValues([MultiPoly.one(0)], -1)


class TestPartitionsBounded:
    def test_weight_zero(self):
        assert partitions_bounded(0, 3) == [()]
        assert partitions_bounded(0, 0) == [()]

    def test_no_room(self):
        assert partitions_bounded(3, 0) == []

    def test_known_enumeration(self):
        assert partitions_bounded(4, 2) == [(4,), (3, 1), (2, 2)]
        assert partitions_bounded(3, 3) == [(3,), (2, 1), (1, 1, 1)]

    @pytest.mark.parametrize("weight,max_parts,count", [(5, 5, 7), (6, 2, 4), (6, 6, 11)])
    def test_counts(self, weight, max_parts, count):
        assert len(partitions_bounded(weight, max_parts)) == count

    def test_all_valid_and_unique(self):
        out = partitions_bounded(7, 3)
        assert len(set(out)) == len(out)
        for f in out:
            assert sum(f) == 7 and len(f) <= 3
            assert all(f[i] >= f[i + 1] for i in range(len(f) - 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partitions_bounded(-1, 2)


class TestTorusExponents:
    def test_alternating_sum(self):
        assert alternating_sum((5, 2, 1)) == 4
        assert alternating_sum(()) == 0

    def test_even_index_sum(self):
        assert even_index_sum((5, 2, 1)) == 2
        assert even_index_sum((5, 2, 1, 7)) == 9


class TestDoubledShape:
    def test_basic(self):
        assert doubled_shape((3, 1), 2, 0) == (3, 3, 1, 1)
        assert doubled_shape((2,), 2, 1) == (2, 2, 0, 0, 0)
        assert doubled_shape((), 0, 2) == (0, 0)

    def test_too_long(self):
        with pytest.raises(ValueError):
            doubled_shape((1, 1, 1), 2, 0)
