import hashlib
import importlib
import itertools
import json
import math
import pkgutil
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extsq
from extsq import lfactors, polynomials, satake_tasks, symmetric, weil_deligne
from extsq.polynomials import MultiPoly
from extsq.galois_tasks import _describe_rep
from extsq.tasks import parse_task, run_task
from extsq.weil_deligne import (
    FiniteAbelianGroup,
    DivisibilityVerdict,
    PropHResult,
    WDRep,
    _RootComparison,
    _first_opposite_pair,
    divisibility_check,
    ext_sq_root_indices,
    prop_H_equality,
    random_group,
    random_k1_rep,
    random_wdrep,
)
from oracles import (
    LFactor,
    _ladders,
    _randrange_group,
    alphas,
    blocks,
    ext_sq,
    ext_sq_lfactor,
    ext_sq_lfactor_by_elimination,
    formal_ext_sq_L,
    key_roots,
    randrange_k1_rep,
    randrange_wdrep,
    reciprocal_quotient,
    root_multiset_differences,
    standard_L,
    standard_satake,
    wd_lfactor,
)

TRIVIAL = FiniteAbelianGroup((1,))
Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


def is_zero(group, grade):
    """Whether a grade, reduced or not, is the group's zero."""
    return all(x % m == 0 for x, m in zip(grade, group.orders))


def rep_of(q, group, *triples):
    return WDRep(q, group, triples)


def roots_of(rep, indices):
    """The roots a_i a_j q^-e of index triples (i, j, e), as polynomials."""
    a = alphas(rep)
    return [a[i] * a[j] * Fraction(1, rep.q**e) for i, j, e in indices]


def recip_of_roots(nvars, *roots):
    return LFactor.from_linear_roots([MultiPoly.constant(nvars, r) for r in roots], nvars)


def factor(comparison, keys, nvars):
    """prod (1 - r t) over the roots of a comparison's keys (`key_roots`), multiplied out; None stays None."""
    roots = key_roots(keys, comparison.scale, nvars)
    return None if roots is None else LFactor.from_linear_roots(roots, nvars)


def random_symbolic_k1_rep(rng, max_dim=7):
    """Length-1 blocks whose scalars mix repeated symbols and rationals.

    Grades are drawn with no pairing hypothesis, so opposite ramified pairs
    and self-paired order-2 grades both occur.
    """
    group = FiniteAbelianGroup(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 2))))
    triples = []
    for _ in range(rng.randint(1, max_dim)):
        grade = tuple(rng.randrange(m) for m in group.orders)
        if rng.random() < 0.6:
            scalar = rng.choice("abcd")
        else:
            scalar = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        triples.append((grade, 1, scalar))
    return WDRep(rng.choice((2, 3, 5)), group, triples)


class TestFiniteAbelianGroup:
    def test_reduce(self):
        g = FiniteAbelianGroup((2, 3))
        assert g.reduce((3, -1)) == (1, 2)
        assert g.zero() == (0, 0)

    def test_add_neg(self):
        g = FiniteAbelianGroup((4, 6))
        for a in [(3, 2), (1, -7), (0, 0), (-9, 13)]:
            neg = g.neg(a)
            assert neg == g.reduce(neg)
            assert is_zero(g, [x + y for x, y in zip(a, neg)])
        with pytest.raises(ValueError):
            g.neg((1,))

    @pytest.mark.parametrize("orders", [(1,), (6, 6), (64,), (65,), (5, 13), (8, 9)])
    def test_neg_with_and_without_a_table(self, orders):
        """Tabled (at most 64 elements) or not, neg reduces any int sequence of the right rank."""
        g = FiniteAbelianGroup(orders)
        assert len(g._negs) == (math.prod(orders) if math.prod(orders) <= 64 else 0)
        for a in itertools.product(*[range(-m, 2 * m) for m in orders]):
            expected = tuple(-x % m for x, m in zip(a, orders))
            assert g.neg(a) == g.neg(list(a)) == expected
        for bad in [(), (0,) * (len(orders) + 1), [0] * (len(orders) + 1)]:
            with pytest.raises(ValueError):
                g.neg(bad)

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((2,)).reduce((1, 1))

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))

    def test_bool_order_refused(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((True, 2))


class TestWDRepValidation:
    def test_q_must_be_int_at_least_two(self):
        for bad_q in (1, 0, -3, 2.0):
            with pytest.raises(ValueError):
                rep_of(bad_q, TRIVIAL, ((0,), 1, Fraction(1)))

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            rep_of(5, TRIVIAL, ((0,), 1, 0))

    def test_mixed_symbolic_steinberg_rejected(self):
        with pytest.raises(ValueError):
            rep_of(5, TRIVIAL, ((0,), 2, "a"), ((0,), 1, Fraction(2)))
        with pytest.raises(ValueError):
            rep_of(5, TRIVIAL, ((0,), 1, "a"), ((0,), 2, Fraction(2)))

    def test_float_scalar_refused(self):
        """0.1 would be read as 3602879701896397/36028797018963968, a root nobody wrote."""
        with pytest.raises(ValueError, match="exact rational"):
            rep_of(2, TRIVIAL, ((0,), 1, 0.1))

    def test_bool_scalar_refused(self):
        with pytest.raises(ValueError, match="exact rational"):
            rep_of(2, TRIVIAL, ((0,), 1, True))

    def test_bool_length_refused(self):
        with pytest.raises(ValueError, match="Steinberg length"):
            rep_of(2, TRIVIAL, ((0,), True, Fraction(2)))

    def test_float_grades_refused(self):
        """In Z/2, the grades 0.5 and 1.5 would sum to zero and pair into the root 6."""
        with pytest.raises(ValueError, match="int entries"):
            rep_of(2, Z2, ((0.5,), 1, Fraction(2)), ((1.5,), 1, Fraction(3)))
        with pytest.raises(ValueError, match="int entries"):
            Z2.reduce((True,))

    def test_needs_blocks(self):
        with pytest.raises(ValueError):
            WDRep(5, TRIVIAL, [])

    def test_grade_reduced_mod_group(self):
        r = rep_of(5, Z2, ((3,), 1, Fraction(1)))
        assert r.grades[0] == (1,)

    def test_repeated_symbol_shares_variable(self):
        r = rep_of(5, TRIVIAL, ((0,), 1, "a"), ((0,), 1, "a"), ((0,), 1, "b"))
        assert r.symbols == ("a", "b")
        a = alphas(r)
        assert a[0] == a[1] != a[2]

    def test_dim_and_phi_ladder(self):
        r = rep_of(5, TRIVIAL, ((0,), 3, Fraction(2)))
        assert sum(r.lengths) == 3
        assert alphas(r) == (MultiPoly.constant(0, 2),)
        target, grades, phi = _ladders(r)
        assert target == [1, 2, None] and grades == [(0,)] * 3
        assert [str(p.constant_value()) for p in phi] == ["2", "2/5", "2/25"]


class TestStandardLFactor:
    def test_unramified_line(self):
        r = rep_of(5, TRIVIAL, ((0,), 1, Fraction(3, 2)))
        assert wd_lfactor(r) == recip_of_roots(0, Fraction(3, 2))

    def test_steinberg_length_two(self):
        """Only the bottom of the monodromy ladder survives: root a/q."""
        r = rep_of(5, TRIVIAL, ((0,), 2, Fraction(3, 2)))
        assert wd_lfactor(r) == recip_of_roots(0, Fraction(3, 10))

    def test_ramified_block_contributes_nothing(self):
        r = rep_of(5, Z2, ((1,), 1, Fraction(7)))
        assert wd_lfactor(r) == LFactor.one(0)

    def test_direct_sum_multiplies(self):
        r = rep_of(3, Z2, ((0,), 1, Fraction(2)), ((1,), 1, Fraction(5)), ((0,), 2, Fraction(1)))
        assert wd_lfactor(r) == recip_of_roots(0, Fraction(2), Fraction(1, 3))

    def test_symbolic(self):
        r = rep_of(5, TRIVIAL, ((0,), 1, "a"), ((0,), 1, "b"))
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert wd_lfactor(r) == LFactor.from_linear_roots([x, y], 2)


class TestExtSquareStructure:
    def test_wedge_dimension(self):
        r = rep_of(5, TRIVIAL, ((0,), 3, Fraction(2)), ((0,), 2, Fraction(3)))
        data = ext_sq(r)
        assert len(data.pairs) == 10  # C(5,2)

    def test_commutation_inherited(self):
        """Phi N = q^-1 N Phi carries over to the wedge data."""
        r = rep_of(3, Z2, ((0,), 2, Fraction(2)), ((1,), 3, Fraction(-1, 2)))
        data = ext_sq(r)
        qinv = Fraction(1, r.q)
        for dst, row in enumerate(data.nmatrix):
            for src, c in enumerate(row):
                if c:
                    assert data.phi_diag[dst] == data.phi_diag[src] * qinv

    def test_grades_add(self):
        r = rep_of(5, Z3, ((1,), 1, Fraction(1)), ((2,), 1, Fraction(2)), ((1,), 1, Fraction(3)))
        data = ext_sq(r)
        assert data.grades == ((0,), (2,), (0,))


class TestExtSquareLFactor:
    def test_two_unramified_lines(self):
        r = rep_of(5, TRIVIAL, ((0,), 1, Fraction(2)), ((0,), 1, Fraction(-3)))
        assert ext_sq_lfactor(r) == recip_of_roots(0, Fraction(-6))

    def test_single_steinberg_two(self):
        r = rep_of(5, TRIVIAL, ((0,), 2, Fraction(3, 2)))
        assert ext_sq_lfactor(r) == recip_of_roots(0, Fraction(9, 20))

    def test_single_steinberg_three(self):
        # wedge of one ladder of length 3 is again a single ladder; only
        # its bottom a^2/q^3 survives in ker N
        r = rep_of(2, TRIVIAL, ((0,), 3, Fraction(3)))
        assert ext_sq_lfactor(r) == recip_of_roots(0, Fraction(9, 8))

    def test_two_steinberg_blocks(self):
        """J2 + J2: kernel picks a^2/q, b^2/q, ab/q and the cross term ab/q^2."""
        a, b, q = Fraction(2), Fraction(-3), 5
        r = rep_of(q, TRIVIAL, ((0,), 2, a), ((0,), 2, b))
        expected = recip_of_roots(
            0,
            a * a / q,
            b * b / q,
            a * b / q,
            a * b / (q * q),
        )
        assert ext_sq_lfactor(r) == expected

    def test_steinberg_plus_line(self):
        a, b, q = Fraction(3), Fraction(7), 2
        r = rep_of(q, TRIVIAL, ((0,), 2, a), ((0,), 1, b))
        expected = recip_of_roots(0, a * a / q, a * b / q)
        assert ext_sq_lfactor(r) == expected

    def test_opposite_ramified_pair(self):
        """Two ramified lines in opposite grades wedge into grade zero."""
        r = rep_of(5, Z3, ((1,), 1, "b1"), ((2,), 1, "b2"))
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert ext_sq_lfactor(r) == LFactor.from_linear_roots([x * y], 2)
        assert wd_lfactor(r) == LFactor.one(2)

    def test_pairwise_rule_on_random_semisimple_reps(self):
        # with every block a line, the wedge factor is the product over pairs
        # whose grades cancel, regardless of any hypothesis on the grades
        rng = random.Random(44)
        for _ in range(25):
            rep = random_k1_rep(rng, require_hypothesis=False)
            roots = [
                a1 * a2
                for (g1, _, a1), (g2, _, a2) in itertools.combinations(blocks(rep), 2)
                if is_zero(rep.group, [x + y for x, y in zip(g1, g2)])
            ]
            assert ext_sq_lfactor(rep) == recip_of_roots(0, *roots)

    def test_formal_factor_is_wedge_of_kernel_lines(self):
        # the formal exterior-square factor of the extracted parameters must
        # agree with pairing up the surviving kernel eigenvalues directly
        rng = random.Random(33)
        for _ in range(20):
            rep = random_wdrep(rng)
            evals = [
                a / rep.q ** (k - 1)
                for g, k, a in blocks(rep)
                if is_zero(rep.group, g)
            ]
            roots = [s1 * s2 for s1, s2 in itertools.combinations(evals, 2)]
            formal = formal_ext_sq_L(standard_satake(rep))
            assert formal == recip_of_roots(0, *roots)


class TestExtSquareClosedForm:
    """`ext_sq_lfactor` (Clebsch-Gordan over blocks) against elimination."""

    def test_single_steinberg_four(self):
        # wedge^2 Sp(4) keeps the chains of index 1 and 3: a^2/q^5, a^2/q^3
        a, q = Fraction(-2, 3), 3
        r = rep_of(q, TRIVIAL, ((0,), 4, a))
        expected = recip_of_roots(0, a * a / q**5, a * a / q**3)
        assert ext_sq_lfactor(r) == expected
        assert ext_sq_lfactor_by_elimination(r) == expected

    def test_steinberg_three_times_two(self):
        # Sp(3) (x) Sp(2) = Sp(4) + Sp(2): ab/q^3 and ab/q^2; each block's
        # own wedge adds a^2/q^3 and b^2/q
        a, b, q = Fraction(5), Fraction(1, 2), 2
        r = rep_of(q, Z2, ((1,), 3, a), ((1,), 2, b))
        expected = recip_of_roots(
            0, a * b / q**3, a * b / q**2, a * a / q**3, b * b / q
        )
        assert ext_sq_lfactor(r) == expected
        assert ext_sq_lfactor_by_elimination(r) == expected

    def test_cross_pair_alone(self):
        # grades 1 and 2 in Z/3: only Sp(3) (x) Sp(2) lands in grade zero
        a, b, q = Fraction(5), Fraction(1, 2), 2
        r = rep_of(q, Z3, ((1,), 3, a), ((2,), 2, b))
        expected = recip_of_roots(0, a * b / q**3, a * b / q**2)
        assert ext_sq_lfactor(r) == expected
        assert ext_sq_lfactor_by_elimination(r) == expected

    def test_order_two_grade_wedges_to_zero(self):
        a, q = Fraction(3), 5
        r = rep_of(q, Z2, ((1,), 3, a))
        assert ext_sq_lfactor(r) == recip_of_roots(0, a * a / q**3)
        assert ext_sq_lfactor_by_elimination(r) == recip_of_roots(0, a * a / q**3)

    def test_order_three_grade_wedges_away(self):
        r = rep_of(5, Z3, ((1,), 3, Fraction(3)), ((1,), 4, Fraction(2)))
        assert ext_sq_lfactor(r) == LFactor.one(0)
        assert ext_sq_lfactor_by_elimination(r) == LFactor.one(0)

    def test_random_rational_reps(self):
        rng = random.Random(71)
        for _ in range(120):
            rep = random_wdrep(
                rng, max_dim=rng.randint(6, 10), max_blocks=5, max_length=5
            )
            assert ext_sq_lfactor(rep) == ext_sq_lfactor_by_elimination(rep), blocks(rep)

    def test_random_symbolic_k1_reps(self):
        rng = random.Random(72)
        broken = 0
        for _ in range(60):
            rep = random_symbolic_k1_rep(rng)
            broken += _first_opposite_pair(rep.group, rep.grades) is not None
            assert ext_sq_lfactor(rep) == ext_sq_lfactor_by_elimination(rep), blocks(rep)
        assert broken >= 10

    def test_random_k1_reps_breaking_the_hypothesis(self):
        rng = random.Random(73)
        broken = 0
        for _ in range(60):
            rep = random_k1_rep(rng, max_dim=8, require_hypothesis=False)
            broken += _first_opposite_pair(rep.group, rep.grades) is not None
            assert ext_sq_lfactor(rep) == ext_sq_lfactor_by_elimination(rep), blocks(rep)
        assert broken >= 10


class TestStandardSatake:
    def test_padding_and_order(self):
        r = rep_of(5, Z2, ((0,), 2, Fraction(2)), ((1,), 1, Fraction(3)), ((0,), 1, Fraction(7)))
        p = standard_satake(r)
        assert p.n == sum(r.lengths) == 4
        assert p.entries[0] == Fraction(2, 5)
        assert p.entries[1] == Fraction(7)
        assert p.entries[2] == 0 and p.entries[3] == 0

    def test_standard_factor_matches_elimination(self):
        rng = random.Random(74)
        reps = [random_wdrep(rng, max_dim=8, max_length=4) for _ in range(30)]
        reps += [random_symbolic_k1_rep(rng) for _ in range(30)]
        for rep in reps:
            assert standard_L(standard_satake(rep)) == wd_lfactor(rep), blocks(rep)


class TestDivisibility:
    def test_steinberg_two_strict(self):
        v = divisibility_check(rep_of(5, TRIVIAL, ((0,), 2, Fraction(3, 2))))
        assert v.divides and v.strict
        assert factor(v, v.formal_keys, 0) == LFactor.one(0)
        assert factor(v, v.quotient_keys, 0) == factor(v, v.ext_sq_keys, 0)

    def test_ramified_pair_strict(self):
        v = divisibility_check(rep_of(5, Z2, ((1,), 1, "b1"), ((1,), 1, "b2")))
        assert v.divides and v.strict
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert factor(v, v.ext_sq_keys, 2) == LFactor.from_linear_roots([x * y], 2)

    def test_unramified_semisimple_equality(self):
        v = divisibility_check(
            rep_of(5, TRIVIAL, ((0,), 1, Fraction(2)), ((0,), 1, Fraction(3)))
        )
        assert v.divides and not v.strict
        assert factor(v, v.quotient_keys, 0) == LFactor.one(0)

    def test_quotient_verifies(self):
        rng = random.Random(40)
        for _ in range(20):
            rep = random_wdrep(rng)
            v = divisibility_check(rep)
            assert v.divides, blocks(rep)
            quotient = factor(v, v.quotient_keys, len(rep.symbols)).reciprocal
            formal = factor(v, v.formal_keys, len(rep.symbols)).reciprocal
            full = factor(v, v.ext_sq_keys, len(rep.symbols)).reciprocal
            # quotient times denominator reproduces the numerator
            prod = [MultiPoly.zero(len(rep.symbols))] * (len(quotient) + len(formal) - 1)
            for i, qc in enumerate(quotient):
                for j, dc in enumerate(formal):
                    prod[i + j] = prod[i + j] + qc * dc
            assert prod == list(full) + [MultiPoly.zero(len(rep.symbols))] * (len(prod) - len(full))


class TestRootMultisets:
    """Verdicts and root lists against `reciprocal_quotient`, `LFactor ==` and elimination."""

    def check(self, rep, full):
        """Compare both verdicts on `rep` with the oracles, given its true factor."""
        n = len(rep.symbols)
        formal = formal_ext_sq_L(standard_satake(rep))
        quotient = reciprocal_quotient(full, formal)
        v = divisibility_check(rep)
        assert v.divides == (quotient is not None), blocks(rep)
        assert v.strict == (quotient is not None and len(quotient) > 1), blocks(rep)
        got = factor(v, v.quotient_keys, n)
        assert (None if got is None else got.reciprocal) == quotient, blocks(rep)
        assert (factor(v, v.formal_keys, n), factor(v, v.ext_sq_keys, n)) == (formal, full), blocks(rep)
        # PropHResult without the pairing precondition: equality is decided too
        h = PropHResult(rep)
        assert h.equal == (formal == full), blocks(rep)
        assert (factor(h, h.formal_keys, n), factor(h, h.ext_sq_keys, n)) == (formal, full), blocks(rep)
        return v

    def check_all(self, reps):
        verdicts = [self.check(rep, ext_sq_lfactor_by_elimination(rep)) for rep in reps]
        return sum(v.strict for v in verdicts), sum(not v.strict for v in verdicts)

    def test_random_rational_reps(self):
        rng = random.Random(81)
        reps = [random_wdrep(rng, max_dim=rng.randint(4, 8), max_length=4) for _ in range(120)]
        strict, equal = self.check_all(reps)
        assert strict >= 20 and equal >= 20

    def test_random_k1_reps(self):
        rng = random.Random(82)
        reps = [random_k1_rep(rng, require_hypothesis=rng.random() < 0.5) for _ in range(120)]
        strict, equal = self.check_all(reps)
        assert strict >= 20 and equal >= 20

    def test_random_symbolic_k1_reps(self):
        rng = random.Random(83)
        strict, equal = self.check_all([random_symbolic_k1_rep(rng) for _ in range(80)])
        assert strict >= 10 and equal >= 10

    def test_witnesses(self):
        steinberg = rep_of(5, TRIVIAL, ((0,), 2, Fraction(3, 2)))
        ramified = rep_of(5, Z2, ((1,), 1, "b1"), ((1,), 1, "b2"))
        opposite = rep_of(5, Z3, ((1,), 1, "a"), ((2,), 1, "b"), ((0,), 1, "c"))
        unramified = rep_of(5, TRIVIAL, ((0,), 1, Fraction(2)), ((0,), 1, Fraction(3)))
        for rep in (steinberg, ramified, opposite):
            v = self.check(rep, ext_sq_lfactor_by_elimination(rep))
            assert v.divides and v.strict and not PropHResult(rep).equal
            # a formal factor of 1: the quotient is the exterior-square factor
            assert v.formal_keys == []
            assert factor(v, v.quotient_keys, len(rep.symbols)) == factor(v, v.ext_sq_keys, len(rep.symbols))
        v = self.check(unramified, ext_sq_lfactor_by_elimination(unramified))
        assert v.divides and not v.strict and v.quotient_keys == []

    def test_repeated_roots(self):
        # three grade-0 lines with one scalar: the root 4 three times on each side
        a = Fraction(2)
        same = rep_of(3, TRIVIAL, ((0,), 1, a), ((0,), 1, a), ((0,), 1, a))
        v = self.check(same, ext_sq_lfactor_by_elimination(same))
        assert v.divides and not v.strict and PropHResult(same).equal
        # an opposite ramified pair adds a^2 once more: only a multiset sees it
        more = rep_of(3, Z3, ((0,), 1, a), ((0,), 1, a), ((1,), 1, a), ((2,), 1, a))
        v = self.check(more, ext_sq_lfactor_by_elimination(more))
        assert v.divides and v.strict and not PropHResult(more).equal
        assert factor(v, v.quotient_keys, 0) == recip_of_roots(0, a * a)
        x = rep_of(3, Z3, ((0,), 1, "x"), ((0,), 1, "x"), ((1,), 1, "x"), ((2,), 1, "x"))
        v = self.check(x, ext_sq_lfactor_by_elimination(x))
        assert v.strict and factor(v, v.quotient_keys, len(x.symbols)).degree == 1

    def test_integer_keys_at_one_scale(self):
        """Every key coefficient is an exact int, and the verdicts match the oracles.

        Integer scalars on Steinberg blocks give roots a_i a_j / q^e that are
        not integral; symbolic lines with rational scalars need the lcm of
        the denominators.
        """
        rng = random.Random(86)
        reps = []
        for q in (2, 3, 5):
            for _ in range(20):
                group = FiniteAbelianGroup((rng.randint(1, 3),))
                triples = [
                    ((rng.randrange(group.orders[0]),), k, rng.choice([-3, -1, 1, 2, 7]))
                    for k in rng.choices([2, 3, 4], k=rng.randint(1, 3))
                ]
                reps.append(WDRep(q, group, triples))
        reps += [random_symbolic_k1_rep(rng) for _ in range(40)]
        reps += [random_wdrep(rng, max_length=4) for _ in range(40)]
        nonintegral = 0
        for rep in reps:
            comparison = weil_deligne._RootComparison(rep)
            coefficients = [c for _, c in comparison.formal_keys + comparison.ext_sq_keys]
            assert all(type(c) is int for c in coefficients), blocks(rep)
            nonintegral += any(Fraction(c, comparison.scale).denominator > 1 for c in coefficients)
            self.check(rep, ext_sq_lfactor_by_elimination(rep))
        assert nonintegral >= 60

    def test_dropped_root_breaks_divisibility(self, monkeypatch):
        """With one exterior-square root left out, the formal side may no longer fit."""
        rng = random.Random(84)
        reps = [random_wdrep(rng, max_dim=6) for _ in range(60)]
        reps += [random_symbolic_k1_rep(rng) for _ in range(40)]

        def dropped(rep):
            return ext_sq_root_indices(rep)[1:]

        monkeypatch.setattr(weil_deligne, "ext_sq_root_indices", dropped)
        failing = 0
        for rep in reps:
            full = LFactor.from_linear_roots(roots_of(rep, dropped(rep)), len(rep.symbols))
            v = self.check(rep, full)
            failing += not v.divides
        assert failing >= 10

    def test_verdicts_build_no_factor(self, monkeypatch):
        """Neither a verdict nor an explicit report multiplies roots out.

        A random suite reads only the verdict; an explicit report prints
        root lists.  `LFactor` lives in the test oracles, out of the
        package's reach, and no verdict or report needs a product of
        polynomials: `MultiPoly.__mul__`, and `times_linear_factors` in
        every module that binds it, fail the test.
        """

        def no_product(*args, **kwargs):
            raise AssertionError("polynomials multiplied for a verdict or a report")

        monkeypatch.setattr(MultiPoly, "__mul__", no_product)
        monkeypatch.setattr(MultiPoly, "__rmul__", no_product)
        binders = [
            module
            for info in pkgutil.iter_modules(extsq.__path__)
            if hasattr(module := importlib.import_module(f"extsq.{info.name}"), "times_linear_factors")
        ]
        assert {polynomials, symmetric, lfactors} <= set(binders)
        for module in binders:
            monkeypatch.setattr(module, "times_linear_factors", no_product)
        rng = random.Random(85)
        symbolic = random.Random(88)
        strict = 0
        for _ in range(40):
            rep = random_wdrep(rng)
            v = divisibility_check(rep)
            assert v.divides
            strict += v.strict
            k1 = random_k1_rep(rng)
            assert prop_H_equality(k1).equal
            explicit = [("galois-divisibility", rep), ("galois-H", k1)]
            explicit.append(("galois-divisibility", random_symbolic_k1_rep(symbolic)))
            for task, r in explicit:
                report = run_task(parse_task({"task": task, **_describe_rep(r)}))
                assert report.verdict == "pass", report.summary
        assert strict >= 5


class TestRootComparison:
    """The one-pass comparison against the `Counter` differences of `root_multiset_differences`."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["rational", "k1", "symbolic"]),
        st.integers(0, 2**32),
        st.none() | st.integers(0, 99),
    )
    def test_verdicts_match_counter_differences(self, kind, seed, drop):
        rng = random.Random(seed)
        if kind == "rational":
            rep = random_wdrep(rng, max_dim=8, max_length=4)
        elif kind == "k1":
            rep = random_k1_rep(rng, require_hypothesis=rng.random() < 0.5)
        else:
            rep = random_symbolic_k1_rep(rng)
        indices = ext_sq_root_indices(rep)
        if drop is not None and indices:
            del indices[drop % len(indices)]
        # the formal roots from the grade-0 kernel eigenvalues, the others from
        # alphas and Fraction arithmetic; neither from the integer keys
        formal = [r for r in lfactors.ext_sq_roots(standard_satake(rep)) if not r.is_zero]
        missing, leftover = root_multiset_differences(formal, roots_of(rep, indices))
        with patch.object(weil_deligne, "ext_sq_root_indices", lambda rep: list(indices)):
            v, h = DivisibilityVerdict(rep), PropHResult(rep)
        assert v.divides == (not missing), blocks(rep)
        assert v.strict == (not missing and bool(leftover)), blocks(rep)
        assert h.equal == (not missing and not leftover), blocks(rep)
        quotient = key_roots(v.quotient_keys, v.scale, len(rep.symbols))
        if missing:
            assert quotient is None, blocks(rep)
        else:
            assert root_multiset_differences(quotient, [])[0] == leftover, blocks(rep)


@st.composite
def root_keys(draw):
    """(nvars, scale, keys): 0-4 symbols with fields 0-3, coefficients c / scale of either sign,
    integral or not, with ±1 among them."""
    nvars = draw(st.integers(0, 4))
    scale = draw(st.integers(1, 10**6))
    keys = []
    for _ in range(draw(st.integers(0, 6))):
        m = sum(draw(st.integers(0, 3)) << 2 * s for s in range(nvars))
        num = draw(st.sampled_from([1, -1]) | st.integers(-(10**9), 10**9).filter(bool))
        keys.append((m, num * scale if draw(st.booleans()) else num))
    return nvars, scale, keys


class TestPrintedRoots:
    """The root lists explicit reports print, rebuilt by an independent route.

    The expected strings come from `alphas` and Fraction arithmetic
    (`roots_of`, `standard_satake`), never from the integer keys and the
    common scale that the reports print from.  The printer itself is
    checked on arbitrary keys against `MultiPoly.format` of `key_roots`.
    """

    @settings(max_examples=300, deadline=None)
    @given(root_keys())
    def test_printer_matches_format(self, drawn):
        """`root_strings` prints each key as `MultiPoly.format` prints its decoded monomial."""
        nvars, scale, keys = drawn
        names = [f"α{i + 1}" for i in range(nvars)]
        print_keys = partial(_RootComparison.root_strings, SimpleNamespace(scale=scale))
        roots = key_roots(keys, scale, nvars)
        assert [print_keys([key], names)[0] for key in keys] == [r.format(names) for r in roots]
        assert print_keys(keys, names) == satake_tasks._root_strings(roots, names)

    def test_reports_print_the_oracle_roots(self, monkeypatch):
        rng = random.Random(87)
        reps = [random_wdrep(rng) for _ in range(30)]
        reps += [random_symbolic_k1_rep(rng) for _ in range(30)]
        real = ext_sq_root_indices

        def dropped(rep):
            return real(rep)[1:]

        seen = Counter()
        for indices in (real, dropped):
            # a dropped root makes some formal sides no longer fit
            monkeypatch.setattr(weil_deligne, "ext_sq_root_indices", indices)
            for rep in reps:
                names = [f"α{i + 1}" for i in range(len(rep.symbols))]
                pairs = lfactors.ext_sq_roots(standard_satake(rep))
                formal = sorted(r.format(names) for r in pairs if not r.is_zero)
                roots = roots_of(rep, indices(rep))
                if indices is real:
                    full = LFactor.from_linear_roots(roots, len(rep.symbols))
                    assert full == ext_sq_lfactor_by_elimination(rep), blocks(rep)
                ext = sorted(r.format(names) for r in roots)
                fits = not Counter(formal) - Counter(ext)
                quotient = sorted((Counter(ext) - Counter(formal)).elements()) if fits else None
                body = _describe_rep(rep)
                data = run_task(parse_task({"task": "galois-divisibility", **body})).data
                assert data == {
                    "formal_roots": formal,
                    "ext_sq_roots": ext,
                    "divides": fits,
                    "strict": bool(quotient),
                    "quotient_roots": quotient,
                }, blocks(rep)
                seen["strict" if quotient else "equal" if fits else "no fit"] += 1
                seen["repeated"] += len(set(ext)) < len(ext)
                k1 = all(k == 1 for k in rep.lengths)
                if k1 and _first_opposite_pair(rep.group, rep.grades) is None:
                    data = run_task(parse_task({"task": "galois-H", **body})).data
                    assert data == {
                        "formal_roots": formal,
                        "ext_sq_roots": ext,
                        "equal": formal == ext,
                    }, blocks(rep)
                    seen["galois-H"] += 1
        assert min(seen.values()) >= 10, seen


class TestHypothesisH:
    """`_first_opposite_pair`, the pairing hypothesis on reduced grades."""

    def test_violation_found(self):
        assert _first_opposite_pair(Z3, [(1,), (2,), (0,)]) == (0, 1)

    def test_no_violation(self):
        assert _first_opposite_pair(Z3, [(1,), (1,), (0,)]) is None

    def test_unramified_grades_ignored(self):
        assert _first_opposite_pair(Z2, [(0,), (0,), (0,)]) is None

    def test_self_paired_grade(self):
        # order-2 grade pairs with itself across two blocks
        assert _first_opposite_pair(Z2, [(1,), (1,)]) == (0, 1)

    def test_first_violation_matches_pairwise_search(self):
        # reduced grades, compared with the first pair in (i, j) order
        rng = random.Random(8)
        for _ in range(200):
            group = FiniteAbelianGroup(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 2))))
            grades = [
                tuple(rng.randrange(m) for m in group.orders)
                for _ in range(rng.randint(0, 6))
            ]
            expected = next(
                (
                    (i, j)
                    for i, j in itertools.combinations(range(len(grades)), 2)
                    if not is_zero(group, grades[i])
                    and not is_zero(group, grades[j])
                    and is_zero(group, [x + y for x, y in zip(grades[i], grades[j])])
                ),
                None,
            )
            assert _first_opposite_pair(group, grades) == expected


class TestPropHEquality:
    def test_semisimple_unramified(self):
        res = prop_H_equality(rep_of(5, TRIVIAL, ((0,), 1, "a"), ((0,), 1, "b")))
        assert res.equal
        assert factor(res, res.formal_keys, 2) == factor(res, res.ext_sq_keys, 2)

    def test_mixed_grades_under_h(self):
        res = prop_H_equality(
            rep_of(5, Z3, ((0,), 1, "c1"), ((0,), 1, "c2"), ((1,), 1, "c3"))
        )
        assert res.equal

    def test_refuses_steinberg(self):
        with pytest.raises(ValueError):
            prop_H_equality(rep_of(5, TRIVIAL, ((0,), 2, Fraction(2))))

    def test_refuses_h_violation_with_names(self):
        with pytest.raises(ValueError) as err:
            prop_H_equality(rep_of(5, Z3, ((1,), 1, "a"), ((2,), 1, "b")))
        msg = str(err.value)
        assert "block 0" in msg and "block 1" in msg and "sum to zero" in msg

    def test_equality_fails_without_h(self):
        """The hypothesis is sharp: opposite ramified grades break equality."""
        rep = rep_of(5, Z3, ((1,), 1, "a"), ((2,), 1, "b"))
        formal = formal_ext_sq_L(standard_satake(rep))
        assert formal == LFactor.one(2)
        assert ext_sq_lfactor(rep) != formal

    def test_random_under_h(self):
        rng = random.Random(13)
        for _ in range(25):
            rep = random_k1_rep(rng, require_hypothesis=True)
            assert prop_H_equality(rep).equal, blocks(rep)


class _BoundedRandom(random.Random):
    """A Random whose getrandbits raises AssertionError after `limit` calls."""

    def __init__(self, seed: int, limit: int):
        super().__init__(seed)
        self.calls_left = limit

    def getrandbits(self, k: int) -> int:
        self.calls_left -= 1
        assert self.calls_left >= 0, "the drawer kept drawing"
        return super().getrandbits(k)


class TestRandomGenerators:
    def test_wdrep_respects_bounds(self):
        rng = random.Random(5)
        for _ in range(40):
            rep = random_wdrep(rng, q_choices=(2, 3), max_dim=4, max_blocks=3, max_length=2)
            assert rep.q in (2, 3)
            assert 1 <= sum(rep.lengths) <= 4
            assert len(rep.lengths) <= 3
            assert all(k <= 2 for k in rep.lengths)

    def test_k1_rep_is_semisimple_and_satisfies_h(self):
        rng = random.Random(6)
        for _ in range(40):
            rep = random_k1_rep(rng, require_hypothesis=True)
            assert all(k == 1 for k in rep.lengths)
            assert _first_opposite_pair(rep.group, rep.grades) is None

    def test_stream_is_pinned(self):
        """The first 200 reps of each drawer from a fixed seed, hashed as suites print them.

        A random suite reports each failure by its index in the stream, so a
        change to a drawer must leave every draw where it was.
        """

        def digest(draw, seed):
            rng = random.Random(seed)
            reps = [_describe_rep(draw(rng)) for _ in range(200)]
            return hashlib.sha256(json.dumps(reps).encode()).hexdigest()

        assert digest(random_wdrep, 2024) == (
            "90f91e10b9859e45867073662bf788c63be265bf681d3fab998b4f43675c3515"
        )
        assert digest(partial(random_k1_rep, require_hypothesis=True), 2025) == (
            "b6b0dff4bf30eaa073fbba97ea8a75c2f1504600cf5eaa8cd82be13a756cb6de"
        )

    @pytest.mark.parametrize("n", range(1, 19))
    def test_every_bound_draws_randrange(self, n):
        """Each bounded draw on a parameter is randrange(n)'s, for n = 1..18.

        The bounds n here are the group's rank and orders, the number of q
        choices, the block count, the lengths and the k = 1 dimension; the
        scalar bounds 18 and 9 are in every draw.
        """
        ours, theirs = random.Random(n), random.Random(n)
        q_choices = tuple(range(2, 2 + n))
        wd = {"q_choices": q_choices, "max_dim": n, "max_blocks": n, "max_length": n}
        k1 = {"q_choices": q_choices, "max_dim": n}

        def fields(rep):
            return rep.q, rep.group.orders, blocks(rep)

        for _ in range(1000):
            assert random_group(ours, n, n).orders == _randrange_group(theirs, n, n).orders
            assert fields(random_wdrep(ours, **wd)) == fields(randrange_wdrep(theirs, **wd))
            assert fields(random_k1_rep(ours, **k1)) == fields(randrange_k1_rep(theirs, **k1))
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "draw, oracle, seed, params",
        [
            (random_wdrep, randrange_wdrep, 1, {}),
            (random_wdrep, randrange_wdrep, 2, {"max_dim": 8, "max_length": 4, "q_choices": (7, 11)}),
            (random_wdrep, randrange_wdrep, 3, {"max_dim": 10, "max_blocks": 6, "max_length": 5}),
            (random_k1_rep, randrange_k1_rep, 1, {}),
            (random_k1_rep, randrange_k1_rep, 2, {"require_hypothesis": False, "max_dim": 10}),
            (random_k1_rep, randrange_k1_rep, 3, {"max_dim": 8, "q_choices": [4, 9, 25, 49]}),
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_drawers_draw_the_randrange_stream(self, draw, oracle, seed, params):
        """20k reps equal those of the drawers written on randint, randrange and choice.

        Each drawn rep, built without the public constructor's checks, must
        also pass them unchanged: `WDRep(q, group, blocks)` gives the same rep.
        """
        ours, theirs = random.Random(seed), random.Random(seed)

        def fields(rep):
            return rep.q, rep.group.orders, blocks(rep)

        def all_fields(rep):
            return rep.q, rep.group, rep.grades, rep.lengths, rep.scalars, rep.symbols

        for i in range(20_000):
            rep = draw(ours, **params)
            assert fields(rep) == fields(oracle(theirs, **params)), i
            assert all_fields(WDRep(rep.q, rep.group, blocks(rep))) == all_fields(rep), i
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "draws, oracle, params",
        [
            (weil_deligne._wdrep_draws, randrange_wdrep, {"max_dim": 8, "max_length": 4}),
            (weil_deligne._k1_draws, randrange_k1_rep, {"require_hypothesis": False, "max_dim": 8}),
        ],
        ids=["wdrep", "k1"],
    )
    def test_records_hold_the_oracle_fields(self, draws, oracle, params):
        """A drawn rep holds the oracle rep's six fields, its scalars n/d as reduced pairs and no
        symbols, and it compares as `WDRep(q, group, blocks(rep))`: the same keys on both sides
        and the same scale."""
        ours, theirs = random.Random(12), random.Random(12)

        def fields(rep):
            return rep.q, rep.group.orders, rep.grades, rep.lengths, rep.scalars, rep.symbols

        def compared(rep):
            c = _RootComparison(rep)
            return c.formal_keys, c.ext_sq_keys, c.quotient_keys, c.scale

        for drawn in draws(ours, 3000, **params):
            rep = oracle(theirs, **params)
            assert fields(drawn) == fields(rep)
            assert all(type(k) is int for k in drawn.lengths)
            assert all(math.gcd(n, d) == 1 and d >= 1 for n, d in drawn.scalars)
            rebuilt = WDRep(drawn.q, drawn.group, blocks(drawn))
            assert compared(drawn) == compared(rebuilt) == compared(rep)
        assert ours.getstate() == theirs.getstate()

    def test_resampling_falls_back_to_one_grade(self):
        """Past 200 draws of grades that break the hypothesis, one grade is drawn and
        n - 1 are zero, in the oracle's stream too.  With 31-40 blocks and the
        group Z/2, no draw of grades keeps the hypothesis in practice."""
        ours, theirs = random.Random(13), random.Random(13)
        fallbacks = 0
        for _ in range(200):
            rep = random_k1_rep(ours, max_dim=40)
            assert blocks(rep) == blocks(randrange_k1_rep(theirs, max_dim=40))
            fallbacks += rep.group.orders == (2,) and sum(rep.lengths) > 30
        assert fallbacks >= 2
        assert ours.getstate() == theirs.getstate()

    def test_random_group_draws_the_randrange_stream(self):
        ours, theirs = random.Random(7), random.Random(7)
        for params in [{}, {"max_rank": 3, "max_order": 70}, {"max_rank": 1, "max_order": 1}]:
            for _ in range(2000):
                assert random_group(ours, **params).orders == _randrange_group(theirs, **params).orders
        assert ours.getstate() == theirs.getstate()

    def test_drawn_groups_are_shared(self):
        rng = random.Random(8)
        groups = {}
        for _ in range(500):
            g = random_group(rng)
            assert groups.setdefault(g.orders, g) is g
        assert len(groups) == 42  # every order tuple of rank 1 or 2 with orders up to 6
        assert weil_deligne._group.cache_info().maxsize == 64

    @pytest.mark.parametrize(
        "draw, params",
        [
            (random_group, {"max_rank": 0}),
            (random_group, {"max_order": 0}),
            (random_group, {"max_order": -3}),
            (random_wdrep, {"max_dim": 0}),
            (random_wdrep, {"max_blocks": 0}),
            (random_wdrep, {"max_length": 0}),
            (random_wdrep, {"max_length": -1}),
            (random_wdrep, {"q_choices": ()}),
            (random_k1_rep, {"max_dim": 0}),
            (random_k1_rep, {"q_choices": []}),
        ]
        + [
            (draw, {"q_choices": (2, bad)})
            for draw in (random_wdrep, random_k1_rep)
            for bad in (1, 0, 2.0, "3")
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_bounds_that_would_spin_are_refused(self, draw, params):
        """A bound below 1 would ask for getrandbits(0), which never exceeds it.

        Without its check a drawer spins, so the generator fails the test
        after 10 000 draws rather than letting it hang.  A q choice that is
        not an exact int >= 2 is refused before any draw too, since the
        drawers build their reps without the public constructor's checks.
        """
        rng = _BoundedRandom(9, 10_000)
        state = rng.getstate()
        with pytest.raises(ValueError):
            draw(rng, **params)
        assert rng.getstate() == state

    def test_determinism(self):
        a = random_wdrep(random.Random(99))
        b = random_wdrep(random.Random(99))
        assert a.q == b.q and blocks(a) == blocks(b) and a.group.orders == b.group.orders
