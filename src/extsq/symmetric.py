"""Schur polynomials and partition enumeration, exactly.

Production code has one route for each kind of value vector:

* `schur` -- the Schur polynomial in n variables, used for all-symbolic
  vectors.  It is built by the branching rule s_f(x1..xn) =
  sum_mu x_n^{|f/mu|} s_mu(x1..x_{n-1}) over horizontal strips f/mu
  (Macdonald, *Symmetric Functions and Hall Polynomials*, I.5.11), which
  moves packed exponent keys and multiplies no polynomials.  It is cached
  in `_SCHUR_CACHE`, together with the smaller-rank polynomials of the
  sub-shapes it recurses through;
* `schur_eval_padded` -- s_f at a value vector that may contain zeros.
  Zeros are dropped (Schur polynomials are symmetric, and the value is zero
  unless the shape fits inside the nonzero entries).  When the nonzero
  entries are exactly the variables x1..xk of a k-variable ring, in order,
  the value is the cached `schur(f, k)`.  Every other vector (numeric or
  mixed) is evaluated directly in its own ring: the entries are scaled by
  the common denominator D of their coefficients, h_0..h_N of the scaled
  entries are the coefficients of prod_i 1/(1 - D a_i t) (Macdonald, I.2),
  built by the product-side kernel `polynomials.times_linear_factors`, the
  Jacobi-Trudi determinant det[h_{f_i - i + j}] (I.3) is expanded sparsely
  with memoized minors (`_det_sparse`) over integer coefficients, and the
  result is divided once by D^|f|, since s_f(D a) = D^|f| s_f(a).  No
  symbolic Schur polynomial is built for such vectors, and the cache stays
  untouched.

The independent oracle of both routes is `schur_bialternant` (alternant
divided exactly by the Vandermonde determinant); the test suite evaluates
it at a vector with `MultiPoly.substitute` and compares.  All enumeration
orders are deterministic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .polynomials import MultiPoly, append_variable, divexact_binomial, times_linear_factors

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


def complete_homogeneous(k: int, n: int) -> MultiPoly:
    """Sum of all degree-k monomials in n variables (h_k); zero for k < 0."""
    if k < 0:
        return MultiPoly.zero(n)
    terms: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations_with_replacement(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def _det_sparse(rows: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    """Determinant by minor expansion, sparsest rows first, minors memoized."""
    n = len(rows)
    if n == 0:
        return MultiPoly.one(nvars)
    order = sorted(range(n), key=lambda i: (sum(1 for e in rows[i] if e), i))
    # parity of the row permutation
    sign = 1
    seen = list(order)
    for i in range(n):
        for j in range(i + 1, n):
            if seen[i] > seen[j]:
                sign = -sign
    rows = [rows[i] for i in order]
    full_mask = (1 << n) - 1
    memo: dict[int, MultiPoly] = {}

    def minor(i: int, mask: int) -> MultiPoly:
        if mask == 0:
            return MultiPoly.one(nvars)
        got = memo.get(mask)
        if got is not None:
            return got
        acc = MultiPoly.zero(nvars)
        sgn = 1
        m = mask
        while m:
            low = m & -m
            j = low.bit_length() - 1
            entry = rows[i][j]
            if entry:
                sub = minor(i + 1, mask ^ low)
                if not sub.is_zero:
                    contrib = sub if entry == 1 else entry * sub
                    acc = acc + (contrib if sgn > 0 else -contrib)
            sgn = -sgn
            m ^= low
        memo[mask] = acc
        return acc

    det = minor(0, full_mask)
    return det if sign > 0 else -det


def schur(f: Sequence[int], n: int) -> MultiPoly:
    """Schur polynomial s_f in n variables by the branching rule; cached.

    s_f(x1..xn) is the sum, over the mu with f1 >= mu1 >= f2 >= ... >=
    mu_{n-1} >= f_n (f/mu a horizontal strip), of x_n^{|f|-|mu|} times
    s_mu(x1..x_{n-1}) (Macdonald, *Symmetric Functions and Hall Polynomials*,
    I.5.11).  Each summand only moves packed keys (`append_variable`), so no
    polynomial is multiplied; the coefficients are Kostka numbers, positive
    ints.  Sub-shapes go through this function and share `_SCHUR_CACHE`.
    No exponent exceeds f1, and `append_variable` checks each one against
    the constructor cap, so a part of 4096 or more raises ValueError.
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
        p = append_variable(
            n - 1,
            [(schur(mu, n - 1), weight - sum(mu)) for mu in itertools.product(*ranges)],
        )
    _SCHUR_CACHE[key] = p
    return p


def schur_bialternant(f: Sequence[int], n: int) -> MultiPoly:
    """Schur polynomial as alternant / Vandermonde, with exact division.

    Independent of `schur`: the numerator determinant is a signed sum of
    monomials over permutations, and the Vandermonde division proceeds one
    binomial (x_i - x_j) at a time by synthetic division.
    """
    shape = check_partition(f)
    if len(shape) > n:
        raise ValueError(f"shape {tuple(f)} has more than {n} parts")
    if n == 0:
        return MultiPoly.one(0)
    padded = list(shape) + [0] * (n - len(shape))
    exps = [padded[i] + n - 1 - i for i in range(n)]  # strictly decreasing
    terms: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        vec = [0] * n
        for i, pos in enumerate(perm):
            vec[pos] = exps[i]
        terms[tuple(vec)] = sign
    p = MultiPoly(n, terms)
    for i in range(n):
        for j in range(i + 1, n):
            p = divexact_binomial(p, i, j)
    return p


def schur_eval_padded(f: Sequence[int], values: Sequence[MultiPoly]) -> MultiPoly:
    """Evaluate s_f at a value vector that may contain zeros.

    Requires len(f) <= len(values).  Returns a polynomial in the common
    variable count of `values`.  Values beyond the shape length count as
    extra variables set to the given entries (zeros kill the value whenever
    the shape sticks out past the nonzero entries).
    """
    shape = check_partition(f)
    values = list(values)
    if len(shape) > len(values):
        raise ValueError("shape longer than value vector")
    if not values:
        return MultiPoly.one(0)
    ambient = values[0].nvars
    for v in values:
        if v.nvars != ambient:
            raise ValueError("values live in different variable counts")
    nonzero = [v for v in values if not v.is_zero]
    k = len(nonzero)
    if len(shape) > k:
        return MultiPoly.zero(ambient)
    if not shape:
        return MultiPoly.one(ambient)
    if ambient == k and all(v == MultiPoly.variable(k, i) for i, v in enumerate(nonzero)):
        return schur(shape, k)
    # s_f(D a) = D^|f| s_f(a): work on the integral entries D a_i and divide once
    scale = math.lcm(*(c.denominator for v in nonzero for c in v.coefficients()))
    top = shape[0] + len(shape) - 1
    # h_0..h_top of the scaled entries: coefficients of prod_i 1/(1 - D a_i t)
    hs = times_linear_factors([MultiPoly.one(ambient)], [v * scale for v in nonzero], top, -1)
    zero = MultiPoly.zero(ambient)
    # Jacobi-Trudi: det[h_{f_i - i + j}], with h_j = 0 for j < 0
    rows = [
        [hs[f - i + j] if f - i + j >= 0 else zero for j in range(len(shape))]
        for i, f in enumerate(shape)
    ]
    value = _det_sparse(rows, ambient)
    return value if scale == 1 else value * Fraction(1, scale ** sum(shape))


def partitions_bounded(weight: int, max_parts: int) -> list[tuple[int, ...]]:
    """All partitions of `weight` into at most `max_parts` parts.

    Tuples carry no trailing zeros; the order is deterministic (first part
    descending, then recursively the same).  weight 0 yields the empty shape.
    """
    if weight < 0 or max_parts < 0:
        raise ValueError("weight and max_parts must be nonnegative")
    out: list[tuple[int, ...]] = []
    # iterative DFS; each stack entry is (prefix, remaining, cap on next part)
    stack: list[tuple[tuple[int, ...], int, int]] = [((), weight, weight)]
    while stack:
        prefix, rem, cap = stack.pop()
        if rem == 0:
            out.append(prefix)
            continue
        if len(prefix) == max_parts:
            continue
        # push ascending so larger next-parts pop first
        for part in range(1, min(rem, cap) + 1):
            stack.append((prefix + (part,), rem - part, part))
    out.sort(reverse=True)
    return out


def alternating_sum(f: Sequence[int]) -> int:
    """f1 - f2 + f3 - ... (the t1-exponent of a torus vector)."""
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(f))


def even_index_sum(f: Sequence[int]) -> int:
    """f2 + f4 + ... (the t2-exponent of a torus vector)."""
    return sum(f[1::2])


def doubled_shape(f: Sequence[int], pairs: int, extra_zeros: int) -> tuple[int, ...]:
    """(f1, f1, f2, f2, ..., f_pairs, f_pairs) followed by extra zeros."""
    padded = list(f) + [0] * (pairs - len(f))
    if len(padded) != pairs:
        raise ValueError("shape has more parts than requested pairs")
    out: list[int] = []
    for part in padded:
        out.extend((part, part))
    out.extend([0] * extra_zeros)
    return tuple(out)
