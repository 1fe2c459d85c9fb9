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
  multiplies no polynomials.  Its body `_schur` is an `lru_cache` of 4096
  entries, keyed on (shape, rank), and holds the smaller-rank polynomials
  of the sub-shapes it recurses through too (`_schur.cache_info()`);
* `SchurValues` -- s_f at one Satake vector, for every shape f up to a
  weight bound.  `scaled` gives D^|f| s_f in ints, and `value` divides it:
  one shape f is `SchurValues(params, |f|).value(f)`.  `littlewood_sum`
  builds one per vector and calls `scaled` for each shape;
* `littlewood_sum` -- Littlewood's Schur sum graded by odd columns
  (Macdonald, I.5 Ex. 5) over the shapes of one window, which
  `window_partitions` builds column by column.  Its t1^0 row holds the
  doubled shapes.  Every identity of the package reads it, through
  `torus_sums.LittlewoodIdentity`, and they differ only in the row bound
  and the window: n - 1 rows for both torus sums, k (the nonzero entries)
  for the exterior-square expansion.

Every value is taken at a `lfactors.SatakeParams`, which holds every
variable of the m-variable ring exactly once, in any order, and constants,
and refuses any other vector, so no value is held by dominant terms unless
it is symmetric.  Zeros are dropped: the value is zero unless the shape
fits inside the nonzero entries.  These split into the variables x and the
r nonzero constants c (`SatakeParams.constants`).  By the coproduct
s_f(x, c) = sum_mu s_mu(x) s_{f/mu}(c) (I.5.9), where s_mu(x) = 0 unless mu
has at most m rows and s_{f/mu}(c) = 0 unless f_{i+r} <= mu_i <= f_i, and
the skew Jacobi-Trudi formula s_{f/mu} = det[h_{f_i - mu_j - i + j}] (I.5.4),

    s_f(x, c) = D^-|f| sum_mu det[h_{f_i - mu_j - i + j}(D c)] D^|mu| schur(mu, m),

with D the lcm of the constants' denominators (`SatakeParams.scale`).
h_0..h_N of the D c_i, the coefficients of prod_i 1/(1 - D c_i t) (I.2),
are ints built once per vector by the kernel
`polynomials.times_linear_factors`, which also multiplies out the product
sides of `lfactors` that are not counted.
s_{f/mu} has degree |f| - |mu| in the constants: hence D^|mu|, and the
sum is D^|f| s_f with int coefficients, which `scaled` returns.  `_inner_shapes`
builds only the weakly decreasing mu in that box, one part at a time.
Each value is linear in the s_mu(x), so the dominant terms of the cached
Schur polynomials, summed into one dict (`polynomials.weighted_sum`), give
the value's.  All-symbolic vectors (r = 0) are the one term mu = f, the
cached `schur(f, m)` with no determinant; numeric ones (m = 0) the one term
mu = (), an integer Jacobi-Trudi determinant, which `_det` computes by
fraction-free elimination, with no memo.

The division by D^|f|, one Fraction per term (`MultiPoly.div_int`), comes
once per printed polynomial: the shapes of a `littlewood_sum` cell all
weigh the same, so each cell is divided once, and only the contributions
that the one-variable reports print are divided shape by shape.

The independent oracle of both routes, the alternant divided exactly by the
Vandermonde determinant, lives in `tests/oracles.py` with the other oracles,
and so do `substitute`, with which the test suite evaluates it at a vector,
and `dominant_part`, with which it projects the result onto dominant terms
to compare.  All enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .polynomials import MultiPoly, append_variable, times_linear_factors, weighted_sum

if TYPE_CHECKING:
    from .lfactors import SatakeParams


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
    """The Schur polynomial s_f in n variables, by its dominant terms; cached (`_schur`)."""
    shape = check_partition(f)
    if len(shape) > n:
        raise ValueError(f"shape {tuple(f)} has more than {n} parts")
    return _schur(shape, n)


@lru_cache(maxsize=4096)
def _schur(shape: tuple[int, ...], n: int) -> MultiPoly:
    """s_shape in n variables for a checked shape of at most n parts.

    The branching rule s_f(x1..xn) = sum_mu x_n^{|f|-|mu|} s_mu(x1..x_{n-1}),
    over the mu with f1 >= mu1 >= f2 >= ... >= mu_{n-1} >= f_n (f/mu a
    horizontal strip; Macdonald, *Symmetric Functions and Hall
    Polynomials*, I (5.11)), restricted to dominant exponents: the prefix of
    a dominant nu is dominant, so the x^nu term with nu_n = |f| - |mu| comes
    from the x^(nu1..nu_{n-1}) term of s_mu, which `append_variable` keeps
    when nu_n <= nu_{n-1}.  The coefficients are the Kostka numbers
    K_{f nu}, positive ints, and no polynomial is multiplied.  A mu with
    (n - 1) nu_n > |mu| has no such term, so it is skipped before its
    Schur polynomial is built.  Sub-shapes recurse through this function
    and share its cache.  No exponent exceeds f1, and `append_variable`
    checks each one against the constructor cap, so a part of 4096 or more
    raises ValueError.
    """
    if n == 0:
        return MultiPoly.one(0)
    padded = shape + (0,) * (n - len(shape))
    weight = sum(shape)
    ranges = [range(padded[i], padded[i + 1] - 1, -1) for i in range(n - 1)]
    parts = []
    for mu in itertools.product(*ranges):
        rest = sum(mu)
        if (weight - rest) * (n - 1) <= rest:
            # mu is weakly decreasing, so its zeros trail
            parts.append((_schur(mu[: len(mu) - mu.count(0)], n - 1), weight - rest))
    return append_variable(n - 1, parts)


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square int matrix by fraction-free elimination; `rows` is overwritten.

    Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", *Math. Comp.* 22 (1968): after step k every
    entry below row k is a (k+1)-minor, so the division by the previous
    pivot is exact.  A zero pivot swaps in a lower row, flipping the sign;
    with none nonzero in its column the determinant is 0.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        for i in range(k + 1, n):
            row, lead = rows[i], rows[i][k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def _inner_shapes(padded: tuple[int, ...], m: int, r: int) -> list[tuple[int, ...]]:
    """The weakly decreasing mu of m parts with padded[i + r] <= mu_i <= padded[i], descending.

    `padded` is a partition padded with zeros to m + r parts.  mu grows one
    part at a time: mu_i runs from min(mu_{i-1}, padded[i]) down to
    padded[i + r], which is at most both bounds, so every prefix extends.
    """
    if not m:
        return [()]
    shapes = [(x,) for x in range(padded[0], padded[r] - 1, -1)]
    for i in range(1, m):
        top, low = padded[i], padded[i + r] - 1
        shapes = [mu + (x,) for mu in shapes for x in range(min(mu[-1], top), low, -1)]
    return shapes


class SchurValues:
    """The Schur values s_f of one Satake vector, for |f| <= max_weight, by dominant terms.

    `SatakeParams` has split the vector into its variables, each once, and
    its nonzero constants, with their scale D; h_0..h_max_weight of the
    scaled constants, as ints, are built once, here; `value` evaluates one
    shape (see the module docstring).
    """

    __slots__ = ("n", "m", "r", "scale", "max_weight", "hs")

    def __init__(self, params: SatakeParams, max_weight: int):
        self.n, self.m, self.r = params.n, params.nvars, len(params.constants)
        self.scale, self.max_weight = params.scale, max_weight
        hs = times_linear_factors([MultiPoly.one(self.m)], [c * self.scale for c in params.constants], max_weight)
        self.hs = [h.constant_value() for h in hs]

    def value(self, f: Sequence[int]) -> MultiPoly:
        """s_f at the vector, by its dominant terms; requires len(f) <= n."""
        shape = check_partition(f)
        if len(shape) > self.n:
            raise ValueError("shape longer than value vector")
        weight = sum(shape)
        if weight > self.max_weight:
            raise ValueError(f"shape {shape} weighs more than {self.max_weight}")
        return self.scaled(shape).div_int(self.scale**weight)

    def scaled(self, shape: tuple[int, ...]) -> MultiPoly:
        """D^|shape| s_shape at the vector, with int coefficients, for a checked shape.

        The shape must be stripped of zeros, no longer than the vector and
        no heavier than max_weight, as `value` checks.
        """
        m, r, hs = self.m, self.r, self.hs
        length = len(shape)
        if length > m + r:
            return MultiPoly.zero(m)
        if not shape:
            return MultiPoly.one(m)
        if not r:
            return schur(shape, m)
        # skew Jacobi-Trudi: det[h_{(f_i - i) - (mu_j - j)}], with h_k = 0 for k < 0;
        # mu_j = 0 for j >= len(f), since mu lies inside f
        row_offsets = [a - i for i, a in enumerate(shape)]
        zero_cols = [-j for j in range(m, length)]
        parts = []
        for mu in _inner_shapes(shape + (0,) * (m + r - length), m, r):
            cols = [b - j for j, b in enumerate(mu[:length])] + zero_cols
            det = _det([[hs[k] if (k := a - b) >= 0 else 0 for b in cols] for a in row_offsets])
            if det:
                # mu is weakly decreasing, so its zeros trail
                mu_schur = _schur(mu[: len(mu) - mu.count(0)], m) if m else MultiPoly.one(0)
                parts.append((mu_schur, det * self.scale ** sum(mu)))
        return weighted_sum(m, parts)


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
    params: SatakeParams, rows: int, l1: int, l2: int
) -> tuple[tuple[tuple[MultiPoly, ...], ...], list[tuple[int, int, tuple[int, ...], MultiPoly]]]:
    """Littlewood's sum graded by odd columns at the vector, in the window (l1, l2).

    Returns (grid, terms): the grid whose [a][b] cell sums s_lam over the
    partitions lam with at most `rows` rows, a odd columns and b = lam2 +
    lam4 + ..., and one (a, b, lam, D^|lam| s_lam) term per shape, in the
    order of `window_partitions`, with int coefficients and D the vector's
    scale.  A shape longer than the vector has Schur value 0, so the shapes
    are those of `window_partitions(min(rows, n), l1, l2)`.  Every shape of
    cell [a][b] weighs a + 2b, so the cell adds the scaled values in ints
    and is divided once, by D^(a + 2b); a caller that prints a shape's
    value divides its term.
    """
    evaluator = SchurValues(params, l1 + 2 * l2)
    nvars, scale = params.nvars, params.scale
    cells: list[list[list[MultiPoly]]] = [[[] for _ in range(l2 + 1)] for _ in range(l1 + 1)]
    terms = []
    for shape in window_partitions(min(rows, params.n), l1, l2):
        b = sum(shape[1::2])
        a = sum(shape) - 2 * b
        value = evaluator.scaled(shape)
        cells[a][b].append(value)
        terms.append((a, b, shape, value))
    grid = tuple(
        tuple(
            # a one-shape cell is its value, not a copy of it
            (cell[0] if len(cell) == 1 else weighted_sum(nvars, ((v, 1) for v in cell))).div_int(
                scale ** (a + 2 * b)
            )
            for b, cell in enumerate(row)
        )
        for a, row in enumerate(cells)
    )
    return grid, terms
