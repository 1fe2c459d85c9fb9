from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extsq import symmetric
from extsq.lfactors import SatakeParams
from extsq.polynomials import MultiPoly
from extsq.symmetric import SchurValues, check_partition, littlewood_sum, schur, window_partitions
from extsq.torus_sums import LittlewoodIdentity
from oracles import (
    alternating_sum,
    complete_homogeneous,
    dominant_part,
    doubled_shape,
    even_index_sum,
    expand_m_basis,
    inner_shapes_by_filter,
    leibniz_det,
    monomial,
    partitions_bounded,
    power,
    schur_bialternant,
    schur_value,
    substitute,
    symbolic_params,
    unscale_grid,
)


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
    """Value vectors in a ring of 0-3 variables: each variable once, in a drawn
    order, among fractions with denominators up to 9 and zeros."""
    m = draw(st.integers(0, 3))
    constants = draw(
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=9)),
            min_size=0 if m else 1,
            max_size=4 - m,
        )
    )
    values = draw(st.permutations(variables(m) + [MultiPoly.constant(m, c) for c in constants]))
    return list(values)


@st.composite
def other_vectors(draw):
    """Value vectors in a ring of 1-3 variables that miss or repeat a variable,
    or hold a general polynomial."""
    m = draw(st.integers(1, 3))
    xs = variables(m)
    u, v = xs[0], xs[-1]
    general = [u + v * Fraction(1, 3), u * v * Fraction(-2, 7) + 1, u * u - Fraction(5, 9), u * 2]
    entry = st.one_of(
        st.sampled_from(xs),
        st.fractions(min_value=-4, max_value=4, max_denominator=9).map(
            lambda c: MultiPoly.constant(m, c)
        ),
        st.sampled_from(general),
    )
    values = draw(st.lists(entry, min_size=1, max_size=4))
    variable_entries = [x for x in values if not x.is_constant]
    assume(len(variable_entries) != m or any(x not in variable_entries for x in xs))
    return values


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
            assert schur((k,), 3) == dominant_part(complete_homogeneous(k, 3))
            assert expand_m_basis(schur((k,), 3)) == complete_homogeneous(k, 3)

    def test_single_column_is_elementary(self):
        x, y, z = variables(3)
        assert expand_m_basis(schur((1, 1), 3)) == x * y + x * z + y * z
        assert schur((1, 1), 3) == x * y
        assert schur((1, 1, 1), 3) == x * y * z

    def test_rectangular_2x2(self):
        x, y = variables(2)
        assert schur((2, 2), 2) == power(x * y, 2)

    def test_hook_2_1(self):
        x, y, z = variables(3)
        e1 = x + y + z
        e2 = x * y + x * z + y * z
        e3 = x * y * z
        # s_(2,1) = e1*e2 - e3, m_(2,1) + 2 m_(1,1,1)
        assert schur((2, 1), 3) == dominant_part(e1 * e2 - e3) == x * x * y + 2 * e3

    def test_too_many_rows(self):
        with pytest.raises(ValueError):
            schur((1, 1, 1), 2)

    def test_cache_stays_within_its_cap(self, monkeypatch):
        # sub-shapes recurse through the module name, so they use the small cache too
        small = lru_cache(maxsize=5)(symmetric._schur.__wrapped__)
        monkeypatch.setattr(symmetric, "_schur", small)
        for f in [(3, 2, 1), (4, 2), (2, 2, 1, 1), (3, 3, 2), (3, 2, 1)]:
            assert schur(f, 4) == dominant_part(schur_bialternant(f, 4))
            assert small.cache_info().currsize <= 5
        assert small.cache_info().misses > 5

    def test_part_past_exponent_cap_raises(self):
        with pytest.raises(ValueError):
            schur((5000,), 2)
        with pytest.raises(ValueError):
            schur_value(SchurValues(SatakeParams(variables(2)), 5000), (5000,))

    def test_trailing_zeros_ignored(self):
        assert schur((2, 1, 0), 3) == schur((2, 1), 3)

    def test_symmetry_under_variable_swap(self):
        p = expand_m_basis(schur((3, 1), 3))
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


@st.composite
def int_matrices(draw):
    """Square int matrices up to 7 x 7, 0 to 100% of the entries forced to zero."""
    n = draw(st.integers(0, 7))
    zero_quarters = draw(st.integers(0, 4))
    entry = st.tuples(st.integers(0, 3), st.integers(-40, 40)).map(
        lambda pair: 0 if pair[0] < zero_quarters else pair[1]
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


class TestDet:
    """`_det`, fraction-free elimination, against the Leibniz sum."""

    @pytest.mark.parametrize(
        "rows, det",
        [
            ([], 1),
            ([[5]], 5),
            ([[0, 1], [1, 0]], -1),  # a zero leading pivot
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
            ([[1, 2, 3], [2, 4, 5], [1, 3, 0]], 1),  # a zero pivot after one step
            ([[1, 2, 3], [2, 4, 6], [1, 2, 0]], 0),  # no row to swap in
            ([[2, 3, 1], [4, 1, 5], [6, 7, 3]], 12),  # pivots other than 1
        ],
    )
    def test_known(self, rows, det):
        assert leibniz_det(rows) == det
        assert symmetric._det(rows) == det

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_matches_leibniz(self, rows):
        expected = leibniz_det(rows)
        assert symmetric._det([row[:] for row in rows]) == expected


class TestSchurOracle:
    """The branching-rule construction against the alternant quotient."""

    def test_empty_shape_is_one(self):
        for n in range(4):
            assert schur((), n) == MultiPoly.one(n) == schur_bialternant((), n)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_one_variable(self, k):
        assert schur((k,), 1) == monomial(1, (k,)) == schur_bialternant((k,), 1)

    @pytest.mark.parametrize("f", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (4, 2, 2)])
    def test_exactly_n_parts(self, f):
        assert schur(f, 3) == dominant_part(schur_bialternant(f, 3)), f

    @pytest.mark.parametrize("n", [5, 6])
    def test_doubled_shapes_of_the_torus_sums(self, n):
        params = symbolic_params(n)
        shapes = {
            shape
            for rows in (n, n - 1)  # the expansion's row bound k = n, and the torus sum's
            for _, _, shape, _ in LittlewoodIdentity(params, rows, 0, 4).terms
        }
        for shape in sorted(shapes):
            assert schur(shape, n) == dominant_part(schur_bialternant(shape, n)), shape

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        for weight in range(6):
            for f in partitions_bounded(weight, n):
                assert schur(f, n) == dominant_part(schur_bialternant(f, n)), (f, n)

    @settings(max_examples=25, deadline=None)
    @given(partitions(max_part=4, max_len=3), st.integers(3, 4))
    def test_random(self, f, n):
        assert schur(f, n) == dominant_part(schur_bialternant(f, n))
        assert expand_m_basis(schur(f, n)) == schur_bialternant(f, n)


class TestSchurEvalPadded:
    """One shape at a vector that may hold zeros: `schur_value(SchurValues(params, |f|), f)`."""

    def test_empty_values(self):
        assert schur_value(SchurValues(SatakeParams([]), 0), ()) == 1

    def test_shape_longer_than_values(self):
        with pytest.raises(ValueError):
            schur_value(SchurValues(SatakeParams([MultiPoly.one(0)]), 2), (1, 1))

    def test_shape_dies_on_zeros(self):
        vals = [MultiPoly.constant(0, 2), MultiPoly.zero(0)]
        assert schur_value(SchurValues(SatakeParams(vals), 2), (1, 1)).is_zero

    def test_zero_positions_do_not_matter(self):
        x, y = variables(2)
        z = MultiPoly.zero(2)
        a = schur_value(SchurValues(SatakeParams([x, y, z]), 3), (2, 1))
        b = schur_value(SchurValues(SatakeParams([x, z, y]), 3), (2, 1))
        c = schur_value(SchurValues(SatakeParams([z, x, y]), 3), (2, 1))
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
        direct = substitute(expand_m_basis(schur(f, n)), vals)
        assert schur_value(SchurValues(SatakeParams(vals), sum(f)), f) == direct

    @settings(max_examples=60, deadline=None)
    @given(partitions(max_part=3, max_len=3), ambient_vectors())
    def test_matches_bialternant_oracle_in_polynomial_rings(self, f, vals):
        assume(len(f) <= len(vals))
        oracle = substitute(schur_bialternant(f, len(vals)), vals, nvars=vals[0].nvars)
        assert schur_value(SchurValues(SatakeParams(vals), sum(f)), f) == dominant_part(oracle)

    @settings(max_examples=40, deadline=None)
    @given(other_vectors())
    def test_refuses_vectors_that_are_not_symmetric(self, vals):
        """Values by dominant terms need every ring variable exactly once; the
        vector that would hold any other is refused."""
        with pytest.raises(ValueError, match="each exactly once|neither a constant nor a single variable"):
            SatakeParams(vals)

    def test_only_variable_vectors_fill_the_caches(self, monkeypatch):
        """Only vectors holding every ring variable once reach the cached `_schur`;
        the others are refused before any value is built."""
        built = []

        def record(shape, n):
            built.append((shape, n))
            return schur_body(shape, n)

        schur_body = symmetric._schur.__wrapped__
        monkeypatch.setattr(symmetric, "_schur", lru_cache(maxsize=None)(record))
        x, y = variables(2)
        zero = MultiPoly.zero(2)
        half = MultiPoly.constant(2, Fraction(1, 2))
        numeric = [MultiPoly.constant(0, c) for c in (Fraction(2, 3), 0, -3)]
        schur_value(SchurValues(SatakeParams(numeric), 3), (2, 1))
        refused = [
            ([x, MultiPoly.constant(2, 3), half], "each exactly once"),  # y missing
            ([x, y, x], "each exactly once"),  # x twice
            ([x, x + y * Fraction(1, 3), half], "neither a constant nor a single variable"),  # y inside a polynomial
        ]
        for vals, message in refused:
            with pytest.raises(ValueError, match=message):
                SatakeParams(vals)
        assert not built
        schur_value(SchurValues(SatakeParams([y, x]), 3), (2, 1))  # the variables, out of order
        assert not {((2,), 2), ((1, 1), 2)} & set(built)
        schur_value(SchurValues(SatakeParams([x, half, zero, y]), 3), (2, 1))  # mixed
        # the mixed vector's coproduct reaches sub-shapes at the ring's rank
        assert {((2,), 2), ((1, 1), 2)} <= set(built)
        schur_value(SchurValues(SatakeParams(variables(3)), 2), (1, 1))
        requested = {((2, 1), 2), ((1, 1), 3)}
        assert requested <= set(built)
        # the rest are sub-shapes in fewer variables, reached by branching
        for mu, m in built:
            assert any(
                m <= n and len(mu) <= len(f) and all(a <= b for a, b in zip(mu, f))
                for f, n in requested
            ), (mu, m)


class TestSchurValues:
    """Each split of a vector into the ring's variables, once each, and the
    nonzero constants, against the bialternant oracle; `SatakeParams`
    refuses other vectors."""

    @staticmethod
    def values(case):
        x, y, z = variables(3)
        x2, y2 = variables(2)
        (x1,) = variables(1)

        def c(n, v):
            return MultiPoly.constant(n, Fraction(v))

        return {
            "out_of_order_among_fractions": [y2, c(2, "2/3"), x2, c(2, "-5/4")],
            "all_symbolic_with_zero": [z, c(3, 0), x, y],
            "numeric_with_zero": [c(0, "3/2"), c(0, 0), c(0, -2), c(0, "1/3")],
            "repeated_variable": [x1, x1, c(1, "1/2")],
            "missing_variable": [x2, c(2, 0), c(2, 3)],
            "polynomial_beside_full_core": [x2, y2, x2 + y2 * Fraction(1, 3)],
            "constants_in_a_ring": [c(2, "3/2"), c(2, 0), c(2, -2), c(2, "1/3")],
            "scaled_variable": [x2 * 2, y2, c(2, 1)],
        }[case]

    @pytest.mark.parametrize(
        "case,core,peeled",
        [
            ("out_of_order_among_fractions", 2, 2),
            ("all_symbolic_with_zero", 3, 0),
            ("numeric_with_zero", 0, 3),
        ],
    )
    def test_every_shape_up_to_weight_6(self, case, core, peeled):
        values = self.values(case)
        evaluator = SchurValues(SatakeParams(values), 6)
        assert (evaluator.m, evaluator.r) == (core, peeled)
        n = len(values)
        for weight in range(7):
            for f in partitions_bounded(weight, n):
                oracle = substitute(schur_bialternant(f, n), values)
                assert schur_value(evaluator, f) == dominant_part(oracle), (case, f)

    @pytest.mark.parametrize(
        "case, message",
        [
            pytest.param(case, message, id=case)
            for case, message in [
                ("repeated_variable", "each exactly once"),
                ("missing_variable", "each exactly once"),
                ("polynomial_beside_full_core", "neither a constant nor a single variable"),
                ("constants_in_a_ring", "each exactly once"),
                ("scaled_variable", "neither a constant nor a single variable"),
            ]
        ],
    )
    def test_refuses_a_vector_that_is_not_the_ring_variables_once_each(self, case, message):
        """These vectors' Schur values are not symmetric in the ring's
        variables, so they have no dominant-term form: `SatakeParams`
        refuses them before any value is taken."""
        with pytest.raises(ValueError, match=message):
            SatakeParams(self.values(case))

    def test_all_symbolic_returns_the_cached_polynomial(self):
        x, y = variables(2)
        values = SchurValues(SatakeParams([y, MultiPoly.zero(2), x]), 4)
        assert values.scaled((2, 1)) is schur((2, 1), 2)

    def test_rejects_shapes_above_the_weight_bound(self):
        values = SchurValues(SatakeParams([MultiPoly.constant(0, 2), MultiPoly.constant(0, 3)]), 3)
        assert schur_value(values, (2, 1)) == substitute(
            schur_bialternant((2, 1), 2), [MultiPoly.constant(0, 2), MultiPoly.constant(0, 3)]
        )
        with pytest.raises(ValueError):
            schur_value(values, (2, 2))
        with pytest.raises(ValueError):
            SchurValues(SatakeParams([MultiPoly.one(0)]), -1)


class TestInnerShapes:
    """`_inner_shapes` against the filtered box, order included."""

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("r", range(4))
    def test_matches_the_filter(self, m, r):
        for weight in range(9):
            for f in partitions_bounded(weight, m + r):
                padded = f + (0,) * (m + r - len(f))
                assert symmetric._inner_shapes(padded, m, r) == inner_shapes_by_filter(padded, m, r), f

    def test_known_shapes(self):
        # f = (3, 2, 1), two variables, one constant: 3 >= mu1 >= 2 >= mu2 >= 1
        assert symmetric._inner_shapes((3, 2, 1), 2, 1) == [(3, 2), (3, 1), (2, 2), (2, 1)]
        assert symmetric._inner_shapes((2, 2, 0), 2, 1) == [(2, 2), (2, 1), (2, 0)]
        assert symmetric._inner_shapes((3, 1), 0, 2) == [()]


@lru_cache(maxsize=None)
def _bialternant(shape, n):
    return schur_bialternant(shape, n)


@st.composite
def scaled_vectors(draw):
    """Vectors of 1-2 variables, 1-2 constants of which one has a denominator
    above 1 (so D > 1), and at most one zero, in a drawn order."""
    m = draw(st.integers(1, 2))
    fraction = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    constants = [draw(fraction.filter(lambda c: c.denominator > 1))]
    constants += draw(st.lists(fraction.filter(bool), max_size=2 - m))
    zeros = [Fraction(0)] * draw(st.integers(0, 1))
    ring = variables(m) + [MultiPoly.constant(m, c) for c in constants + zeros]
    return list(draw(st.permutations(ring)))


class TestLittlewoodSum:
    """Each cell, summed in ints at D^(a + 2b), against the oracle values."""

    @settings(max_examples=40, deadline=None)
    @given(scaled_vectors(), st.integers(0, 3), st.integers(0, 2), st.data())
    def test_cells_sum_the_oracle_values(self, vals, l1, l2, data):
        n, nvars = len(vals), vals[0].nvars
        rows = data.draw(st.integers(0, n))
        params = SatakeParams(vals)
        grid, terms = littlewood_sum(params, rows, l1, l2)
        scale = params.scale
        assert scale > 1
        oracle = {
            f: dominant_part(substitute(_bialternant(f, n), vals, nvars=nvars))
            for w in range(l1 + 2 * l2 + 1)
            for f in partitions_bounded(w, rows)
            if alternating_sum(f) <= l1 and even_index_sum(f) <= l2
        }
        expected = [[MultiPoly.zero(nvars)] * (l2 + 1) for _ in range(l1 + 1)]
        for f, value in oracle.items():
            a, b = alternating_sum(f), even_index_sum(f)
            expected[a][b] = expected[a][b] + value
        assert [list(row) for row in unscale_grid(grid, scale)] == expected
        assert all(isinstance(c, int) for row in grid for cell in row for c in cell.coefficients())
        # each term is D^|f| s_f, in ints
        assert [f for _, _, f, _ in terms] == list(oracle)
        for a, b, f, value in terms:
            assert (a, b) == (alternating_sum(f), even_index_sum(f))
            assert value == oracle[f] * scale ** sum(f), f
            assert all(isinstance(c, int) for c in value.coefficients()), f

    @pytest.mark.parametrize("window", [(0, 0), (0, 1), (2, 2)])
    def test_rows_above_the_vector_read_as_its_length(self, window):
        """No shape is longer than the vector it is evaluated at: rows above n give
        the sum over n rows, in every window."""
        params = SatakeParams.parse(["sym"])
        assert littlewood_sum(params, 2, *window) == littlewood_sum(params, 1, *window)

    def test_shapes_run_to_the_vector_length(self):
        """Rows are capped at n, not at k: `verify-js` prints the zero values of the
        shapes longer than the nonzero entries."""
        _, terms = littlewood_sum(SatakeParams.parse(["sym", "0", "0"]), 5, 0, 2)
        assert [f for _, _, f, _ in terms] == [(), (1, 1), (2, 2)]
        assert [value.is_zero for *_, value in terms] == [False, True, True]


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


class TestWindowPartitions:
    """`window_partitions` against enumerate-then-filter, order included."""

    @staticmethod
    def filtered(rows, l1, l2):
        return [
            f
            for w in range(l1 + 2 * l2 + 1)
            for f in partitions_bounded(w, rows)
            if alternating_sum(f) <= l1 and even_index_sum(f) <= l2
        ]

    @pytest.mark.parametrize("rows", range(8))
    def test_matches_the_filter(self, rows):
        for l1 in range(7):
            for l2 in range(7):
                assert window_partitions(rows, l1, l2) == self.filtered(rows, l1, l2), (rows, l1, l2)

    def test_edges_of_the_window(self):
        assert window_partitions(3, 0, 0) == [()]
        assert window_partitions(0, 4, 4) == [()]
        assert window_partitions(1, 3, 0) == [(), (1,), (2,), (3,)]
        assert window_partitions(2, 0, 2) == [(), (1, 1), (2, 2)]
        assert window_partitions(3, 2, 1) == [
            (), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 1, 1)
        ]

    @pytest.mark.parametrize("args", [(-1, 2, 2), (2, -1, 2), (2, 2, -1)])
    def test_rejects_negative(self, args):
        with pytest.raises(ValueError):
            window_partitions(*args)


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
