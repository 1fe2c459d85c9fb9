"""Schur polynomials and partition enumeration, exactly.

Production code has one route for Schur polynomials and one for Schur values:

* `schur` -- the Schur polynomial in n variables.  It is built by the
  branching rule s_f(x1..xn) = sum_mu x_n^{|f/mu|} s_mu(x1..x_{n-1}) over
  horizontal strips f/mu (Macdonald, *Symmetric Functions and Hall
  Polynomials*, I.5.11), which moves packed exponent keys and multiplies no
  polynomials.  It is cached in `_SCHUR_CACHE`, together with the
  smaller-rank polynomials of the sub-shapes it recurses through;
* `SchurValues` -- s_f at one value vector, for every shape f up to a
  weight bound.  The torus sums build one per vector and call `value` for
  each shape; one shape f is `SchurValues(values, |f|).value(f)`.

Zeros are dropped: the value is zero unless the shape fits inside the
nonzero entries.  These split into the core x, every variable of the
m-variable ring once, in any order, and the r peeled entries c, the others;
if the variable entries are not the ring's variables once each, the core is
empty (m = 0).  By the coproduct s_f(x, c) = sum_mu s_mu(x) s_{f/mu}(c)
(I.5.9), where s_mu(x) = 0 unless mu has at most m rows and s_{f/mu}(c) = 0
unless f_{i+r} <= mu_i <= f_i, and the skew Jacobi-Trudi formula s_{f/mu} =
det[h_{f_i - mu_j - i + j}] (I.5.4),

    s_f(x, c) = D^-|f| sum_mu det[h_{f_i - mu_j - i + j}(D c)] D^|mu| schur(mu, m),

with D the lcm of the peeled entries' coefficient denominators.  h_0..h_N of
the D c_i, the coefficients of prod_i 1/(1 - D c_i t) (I.2), are built once
per vector by `_scaled_h` (the kernel `polynomials.times_linear_factors`,
shared with the product sides of `lfactors` and `torus_sums`), as plain
ints when every c_i is a constant.  Only the peeled entries are scaled, and
s_{f/mu} has degree |f| - |mu| in them: hence D^|mu| beside the one
division by D^|f|, one Fraction per term (`MultiPoly.div_int`).
All-symbolic vectors (r = 0) are the one term mu = f, the cached
`schur(f, m)` with no determinant; numeric ones (m = 0) the one term mu =
(), an integer Jacobi-Trudi determinant.  Mixed ones multiply cached Schur
polynomials by integers only, and fill `_SCHUR_CACHE` as all-symbolic ones
do.  `_det` expands along rows with memoized minors, over ints or
`MultiPoly` alike.

The independent oracle of both routes, the alternant divided exactly by the
Vandermonde determinant, lives in `tests/oracles.py` with the other oracles,
and so does `substitute`, with which the test suite evaluates it at a
vector and compares.  All enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .polynomials import MultiPoly, append_variable, times_linear_factors

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


def _det(rows: list[list], one):
    """Determinant over ints or MultiPoly (`one` is the ring's 1), memoized.

    The minor of a column mask is on the top popcount(mask) rows; expanding
    along its last row, the sign is + at the highest column and alternates.
    """
    memo = {0: one}
    zero = one * 0

    def minor(mask: int):
        got = memo.get(mask)
        if got is not None:
            return got
        row = rows[mask.bit_count() - 1]
        acc = zero
        sign = 1
        rest = mask
        while rest:
            bit = 1 << (rest.bit_length() - 1)
            rest ^= bit
            entry = row[bit.bit_length() - 1]
            if entry:
                sub = minor(mask ^ bit)
                if sub:
                    acc = acc + entry * sub if sign > 0 else acc - entry * sub
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
    return scale, times_linear_factors([MultiPoly.one(nvars)], scaled, order, -1)


class SchurValues:
    """The Schur values s_f(values) of one value vector, for |f| <= max_weight.

    The split into the core and the peeled entries, the scale D and
    h_0..h_max_weight of the scaled peeled entries are built once, here;
    `value` evaluates one shape (see the module docstring).
    """

    __slots__ = ("length", "nvars", "max_weight", "m", "r", "scale", "hs")

    def __init__(self, values: Sequence[MultiPoly], max_weight: int):
        values = list(values)
        nvars = values[0].nvars if values else 0
        if any(v.nvars != nvars for v in values):
            raise ValueError("values live in different variable counts")
        nonzero = [v for v in values if not v.is_zero]
        ring = [MultiPoly.variable(nvars, i) for i in range(nvars)]
        peeled = [v for v in nonzero if v not in ring]
        if len(nonzero) - len(peeled) != nvars or any(x not in nonzero for x in ring):
            peeled = nonzero  # the variable entries are not the ring's, once each
        self.length, self.nvars, self.max_weight = len(values), nvars, max_weight
        self.m, self.r = len(nonzero) - len(peeled), len(peeled)
        self.scale, self.hs = _scaled_h(peeled, nvars, max_weight)
        if all(v.is_constant for v in peeled):
            self.hs = [h.constant_value() for h in self.hs]  # plain ints

    def value(self, f: Sequence[int]) -> MultiPoly:
        """s_f at the value vector, in its ring; requires len(f) <= len(values)."""
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
        acc = MultiPoly.zero(self.nvars)
        for mu in itertools.product(*ranges):
            if any(a < b for a, b in zip(mu, mu[1:])):
                continue
            cols = (mu + (0,) * len(shape))[: len(shape)]
            # skew Jacobi-Trudi: det[h_{f_i - mu_j - i + j}], with h_k = 0 for k < 0
            rows = [
                [hs[k] if (k := a - b - i + j) >= 0 else 0 for j, b in enumerate(cols)]
                for i, a in enumerate(shape)
            ]
            det = _det(rows, hs[0])
            if det:
                base = schur(mu, m) if m else MultiPoly.one(self.nvars)
                acc = acc + base * (det * self.scale ** sum(mu))
        return acc.div_int(self.scale**weight)


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
