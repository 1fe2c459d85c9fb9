"""Schur polynomials and partition enumeration, exactly, by dominant terms.

Every value here is a symmetric polynomial in the ring's variables, held by
its dominant terms (see `polynomials`): the coefficient of x^nu, nu weakly
decreasing, is its coefficient at the monomial symmetric polynomial m_nu.
Production code has one route each for Schur polynomials, Schur values and
Schur sums:

* `schur` -- the Schur polynomial in n variables, sum_nu K_{f nu} m_nu with
  the Kostka numbers K_{f nu} (Macdonald, *Symmetric Functions and Hall
  Polynomials*, I (5.11) and I.6).  It is built by the branching rule
  restricted to dominant exponents, which moves packed exponent keys and
  multiplies no polynomials, and cached in `_SCHUR_CACHE` together with the
  smaller-rank polynomials of the sub-shapes it recurses through.  The
  cache starts over once it holds `_SCHUR_CAP` (4096) entries;
* `SchurValues` -- s_f at one value vector, for every shape f up to a
  weight bound.  `littlewood_sum` builds one per vector and calls `value`
  for each shape; one shape f is `SchurValues(values, |f|).value(f)`;
* `littlewood_sum` -- Littlewood's Schur sum graded by odd columns
  (Macdonald, I.5 Ex. 5) over the shapes of one window, which
  `window_partitions` builds column by column.  Its t1^0 row holds the
  doubled shapes.  Every sum of the package reads it, and they differ only
  in the row bound: n - 1 for both torus sums, k (the nonzero entries) for
  the exterior-square expansion.

A value vector holds every variable of the m-variable ring exactly once, in
any order, and constants; `SchurValues` refuses any other vector, so no
value is held by dominant terms unless it is symmetric.  Zeros are dropped:
the value is zero unless the shape fits inside the nonzero entries.  These
split into the variables x and the r nonzero constants c.  By the coproduct
s_f(x, c) = sum_mu s_mu(x) s_{f/mu}(c) (I.5.9), where s_mu(x) = 0 unless mu
has at most m rows and s_{f/mu}(c) = 0 unless f_{i+r} <= mu_i <= f_i, and
the skew Jacobi-Trudi formula s_{f/mu} = det[h_{f_i - mu_j - i + j}] (I.5.4),

    s_f(x, c) = D^-|f| sum_mu det[h_{f_i - mu_j - i + j}(D c)] D^|mu| schur(mu, m),

with D the lcm of the constants' denominators.  h_0..h_N of the D c_i, the
coefficients of prod_i 1/(1 - D c_i t) (I.2), are ints built once per vector
by `_scaled_h` (the kernel `polynomials.times_linear_factors`, which also
multiplies out the product sides of `lfactors` that are not counted).
s_{f/mu} has degree |f| - |mu| in the constants: hence D^|mu| beside the
one division by D^|f|, one Fraction per term (`MultiPoly.div_int`).  Each
value is linear in the s_mu(x), so the dominant terms of the cached Schur
polynomials, summed into one dict (`polynomials.weighted_sum`), give the
value's.  All-symbolic vectors (r = 0) are the one term mu = f, the cached
`schur(f, m)` with no determinant; numeric ones (m = 0) the one term mu =
(), an integer Jacobi-Trudi determinant, which `_det` expands along rows
with memoized minors.

The independent oracle of both routes, the alternant divided exactly by the
Vandermonde determinant, lives in `tests/oracles.py` with the other oracles,
and so do `substitute`, with which the test suite evaluates it at a vector,
and `dominant_part`, with which it projects the result onto dominant terms
to compare.  All enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .polynomials import MultiPoly, append_variable, times_linear_factors, weighted_sum

# Schur polynomials by (shape, rank); starts over at _SCHUR_CAP entries.
_SCHUR_CAP = 4096
_SCHUR_CACHE: dict[tuple[tuple[int, ...], int], MultiPoly] = {}


def check_partition(f: Sequence[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing tuple of nonnegative ints; return it stripped."""
    f = tuple(f)
    for a, b in zip(f, f[1:]):
        if a < b:
            raise ValueError(f"{f} is not weakly decreasing")
    if f and (f[-1] < 0 or not all(isinstance(a, int) for a in f)):
        raise ValueError(f"{f} has negative or non-integer parts")
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def schur(f: Sequence[int], n: int) -> MultiPoly:
    """The Schur polynomial s_f in n variables, by its dominant terms; cached.

    The branching rule s_f(x1..xn) = sum_mu x_n^{|f|-|mu|} s_mu(x1..x_{n-1}),
    over the mu with f1 >= mu1 >= f2 >= ... >= mu_{n-1} >= f_n (f/mu a
    horizontal strip; Macdonald, *Symmetric Functions and Hall
    Polynomials*, I (5.11)), restricted to dominant exponents: the prefix of
    a dominant nu is dominant, so the x^nu term with nu_n = |f| - |mu| comes
    from the x^(nu1..nu_{n-1}) term of s_mu, which `append_variable` keeps
    when nu_n <= nu_{n-1}.  The coefficients are the Kostka numbers
    K_{f nu}, positive ints, and no polynomial is multiplied.  A mu with
    (n - 1) nu_n > |mu| has no such term, so it is skipped before its
    Schur polynomial is built.  Sub-shapes go through this function and
    share `_SCHUR_CACHE`.  No exponent exceeds f1, and `append_variable`
    checks each one against the constructor cap, so a part of 4096 or more
    raises ValueError.
    """
    shape = check_partition(f)
    if len(shape) > n:
        raise ValueError(f"shape {tuple(f)} has more than {n} parts")
    key = (shape, n)
    cached = _SCHUR_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 0:
        p = MultiPoly.one(0)
    else:
        padded = shape + (0,) * (n - len(shape))
        weight = sum(shape)
        ranges = [range(padded[i], padded[i + 1] - 1, -1) for i in range(n - 1)]
        parts = []
        for mu in itertools.product(*ranges):
            rest = sum(mu)
            if (weight - rest) * (n - 1) <= rest:
                # mu is weakly decreasing, so its zeros trail
                sub = _SCHUR_CACHE.get((mu[: len(mu) - mu.count(0)], n - 1)) or schur(mu, n - 1)
                parts.append((sub, weight - rest))
        p = append_variable(n - 1, parts)
    if len(_SCHUR_CACHE) >= _SCHUR_CAP:
        _SCHUR_CACHE.clear()
    _SCHUR_CACHE[key] = p
    return p


def _det(rows: list[list[int]]) -> int:
    """Determinant of an int matrix, expanded along rows with memoized minors.

    The minor of a column mask is on the top popcount(mask) rows; expanding
    along its last row, the sign is + at the highest column and alternates.
    """
    memo = {0: 1}

    def minor(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        row = rows[mask.bit_count() - 1]
        acc = 0
        sign = 1
        rest = mask
        while rest:
            bit = 1 << (rest.bit_length() - 1)
            rest ^= bit
            entry = row[bit.bit_length() - 1]
            if entry:
                acc += sign * entry * minor(mask ^ bit)
            sign = -sign
        memo[mask] = acc
        return acc

    return minor((1 << len(rows)) - 1)


def _scaled_h(values: Sequence[MultiPoly], nvars: int, order: int) -> tuple[int, list]:
    """(D, [h_0..h_order of the D v]), D the lcm of the values' coefficient denominators.

    h_k is the t^k coefficient of prod_v 1/(1 - D v t), and h_k(D v) = D^k h_k(v)
    has int coefficients.
    """
    scale = math.lcm(*(c.denominator for v in values for c in v.coefficients()))
    scaled = [v * scale for v in values]
    return scale, times_linear_factors([MultiPoly.one(nvars)], scaled, order)


class SchurValues:
    """The Schur values s_f(values) of one value vector, for |f| <= max_weight, by dominant terms.

    The vector must hold each variable of its ring exactly once, in any
    order, and constants (zeros allowed); any other vector raises
    ValueError, so every value is a symmetric polynomial.  The split into
    the variables and the constants, the scale D and h_0..h_max_weight of
    the scaled constants, as ints, are built once, here; `value` evaluates
    one shape (see the module docstring).
    """

    __slots__ = ("length", "nvars", "max_weight", "m", "r", "scale", "hs")

    def __init__(self, values: Sequence[MultiPoly], max_weight: int):
        values = list(values)
        nvars = values[0].nvars if values else 0
        if any(v.nvars != nvars for v in values):
            raise ValueError("values live in different variable counts")
        peeled = [v for v in values if v.is_constant and not v.is_zero]
        variables = [v for v in values if not v.is_constant]
        ring = [MultiPoly.variable(nvars, i) for i in range(nvars)]
        if len(variables) != nvars or any(x not in variables for x in ring):
            raise ValueError("the symbolic values must be the ring's variables, each exactly once")
        self.length, self.nvars, self.max_weight = len(values), nvars, max_weight
        self.m, self.r = nvars, len(peeled)
        self.scale, hs = _scaled_h(peeled, nvars, max_weight)
        self.hs = [h.constant_value() for h in hs]

    def value(self, f: Sequence[int]) -> MultiPoly:
        """s_f at the value vector, by its dominant terms; requires len(f) <= len(values)."""
        shape = check_partition(f)
        if len(shape) > self.length:
            raise ValueError("shape longer than value vector")
        weight = sum(shape)
        if weight > self.max_weight:
            raise ValueError(f"shape {shape} weighs more than {self.max_weight}")
        m, r, hs = self.m, self.r, self.hs
        if len(shape) > m + r:
            return MultiPoly.zero(self.nvars)
        if not shape:
            return MultiPoly.one(self.nvars)
        if not r:
            return schur(shape, m)
        # mu runs over the partitions with f_{i+r} <= mu_i <= f_i, i < m
        padded = shape + (0,) * (m + r - len(shape))
        ranges = [range(padded[i], padded[i + r] - 1, -1) for i in range(m)]
        parts = []
        for mu in itertools.product(*ranges):
            if any(a < b for a, b in zip(mu, mu[1:])):
                continue
            cols = (mu + (0,) * len(shape))[: len(shape)]
            # skew Jacobi-Trudi: det[h_{f_i - mu_j - i + j}], with h_k = 0 for k < 0
            rows = [
                [hs[k] if (k := a - b - i + j) >= 0 else 0 for j, b in enumerate(cols)]
                for i, a in enumerate(shape)
            ]
            det = _det(rows)
            if det:
                parts.append((schur(mu, m) if m else MultiPoly.one(0), det * self.scale ** sum(mu)))
        return weighted_sum(self.nvars, parts).div_int(self.scale**weight)


def window_partitions(rows: int, l1: int, l2: int) -> list[tuple[int, ...]]:
    """The partitions with at most `rows` rows, a <= l1 and b <= l2; by weight, then descending.

    a = lam1 - lam2 + lam3 - ... counts the odd columns and b = lam2 + lam4 +
    ... sums the halved column lengths, so each shape weighs a + 2b.  Shapes
    grow one column at a time, longest first, from what is left of a and b,
    so none outside the window is built.
    """
    if min(rows, l1, l2) < 0:
        raise ValueError("rows and window must be nonnegative")
    out: list[tuple[int, ...]] = []
    # each stack entry is (shape, cap on the next column, a left, b left)
    stack: list[tuple[tuple[int, ...], int, int, int]] = [((), rows, l1, l2)]
    while stack:
        shape, cap, a, b = stack.pop()
        out.append(shape)
        for c in range(1, cap + 1):
            if c % 2 <= a and c // 2 <= b:
                grown = tuple(x + 1 for x in shape[:c]) + shape[c:] if shape else (1,) * c
                stack.append((grown, c, a - c % 2, b - c // 2))
    out.sort(reverse=True)
    out.sort(key=sum)
    return out


def littlewood_sum(
    values: Sequence[MultiPoly], rows: int, l1: int, l2: int
) -> tuple[tuple[tuple[MultiPoly, ...], ...], list[tuple[int, int, tuple[int, ...], MultiPoly]]]:
    """Littlewood's sum graded by odd columns, in the window (l1, l2).

    Returns the grid whose [a][b] cell sums s_lam(values) over the
    `window_partitions(rows, l1, l2)` with a odd columns and b = lam2 + lam4
    + ..., and one (a, b, lam, s_lam(values)) term per shape, in their order.
    """
    evaluator = SchurValues(values, l1 + 2 * l2)
    grid = [[MultiPoly.zero(evaluator.nvars)] * (l2 + 1) for _ in range(l1 + 1)]
    terms = []
    for shape in window_partitions(rows, l1, l2):
        b = sum(shape[1::2])
        a = sum(shape) - 2 * b
        value = evaluator.value(shape)
        grid[a][b] = grid[a][b] + value
        terms.append((a, b, shape, value))
    return tuple(map(tuple, grid)), terms
