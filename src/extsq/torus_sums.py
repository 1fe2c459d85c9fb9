"""Torus sums realizing the local zeta integrals on their support.

On the diagonal torus a spherical Whittaker function is supported on
dominant exponent vectors, where it equals a half-density factor q^(e/2),
e an integer linear in the vector, times a Schur polynomial in the
parameter entries.  Unipotent integration is already folded in, so each
zeta integral collapses to a sum over the torus lattice, and on every
summed vector the half-density exponent cancels against the measure: each
term is a Schur value alone.

Both sums read one Schur sum, `symmetric.littlewood_sum`: Littlewood's sum
graded by odd columns (Macdonald, *Symmetric Functions*, I.5 Ex. 5), whose
t1^a t2^b coefficient sums s_lam over the partitions lam with at most n-1
rows, a = c_odd(lam) odd columns and |lam| = a + 2b.  `bf_series` is its
whole window and `js_series` its t1^0 row, the doubled shapes, for either
parity of n; `lfactors.ext_sq_expansion` reads the same row with k rows.

Every sum and product here is symmetric in the symbols and held by its
dominant terms (`polynomials`).  When the entries are the symbols and
zeros, the product side the two-variable sum is compared with is counted,
not multiplied (`lfactors.product_grid`): on the m symbols, the t1^i t2^j
coefficient of prod_p (1 - x_p t1)^{-1} prod_{p<q} (1 - x_p x_q t2)^{-1}
is sum_nu M(nu + (i,)) m_nu, |nu| = i + 2j, M(d) the number of loopless
multigraphs with degrees d: the edges x_p x_q join symbols and one extra
vertex of degree i carries the edges x_p t1 (Stanley, *Enumerative
Combinatorics 2*, 7.13).  By the same Littlewood identity it equals the
sum of K_{lam nu} over the lam of that window, so the grid and `bf_series`
meet without sharing code.  With a nonzero constant among the entries both
factors are multiplied out whole over the integers instead, and the oracle
multiplies the inverted factor series.

The sum and the product of factors differ by one factor, which
`bf_product_form` applies.  Over n entries the sum over at most n rows is
all of Littlewood's sum, the product L(t1) * ext-sq L(t2).  Going from
n-1 rows to n adds the shapes lam + (1^n), and s_{lam+(1^n)} = e_n s_lam,
so that product is the torus sum divided by (1 - omega w), w the grading
of one column of length n: t2^m for n = 2m, t1 t2^m for n = 2m+1.  Hence

    bf_series = (1 - omega t1^(n mod 2) t2^(n // 2)) * L(t1) * ext-sq L(t2),

omega = e_n the product of all entries, 0 when one vanishes.  Both
`verify-bf` and `bf_odd_correction_probe` read that one grid, and no
routine here multiplies two-variable series.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .polynomials import MultiPoly
from .lfactors import DoubledShapeSum, SatakeParams, _doubled_shape_sum, ext_sq_roots, product_grid
from .series import series2_first_difference
from .symmetric import littlewood_sum


def js_series(params: SatakeParams, order: int) -> DoubledShapeSum:
    """Torus sum for the rank-n exterior-square integral, truncated.

    The t1^0 row of `littlewood_sum` over at most n-1 rows, graded by |f|:
    the doubled dominant vectors (f1,f1,...,f_{m-1},f_{m-1},0,0) for n = 2m
    and (f1,f1,...,f_m,f_m,0) for n = 2m+1, on which the half-density
    exponent cancels the measure.  For even n the identity with the
    exterior-square factor holds exactly when some entry vanishes; whether
    it is asserted is the caller's concern.
    """
    if params.n < 2:
        raise ValueError("torus sum needs n >= 2")
    return _doubled_shape_sum(params, params.n - 1, params.n, order)


def bf_series(params: SatakeParams, l1: int, l2: int) -> tuple[tuple[MultiPoly, ...], ...]:
    """Two-variable torus sum pairing the standard and exterior-square factors.

    The whole window (l1, l2) of `littlewood_sum` over at most n-1 rows:
    s_lam(params) t1^a t2^b, a odd columns and b = lam2+lam4+...  Row i of
    the grid holds the t1^i coefficients.
    """
    if params.n < 2:
        raise ValueError("need n >= 2")
    return littlewood_sum(params.entries, params.n - 1, l1, l2)[0]


def bf_product_series(params: SatakeParams, l1: int, l2: int) -> tuple[tuple[MultiPoly, ...], ...]:
    """Standard factor in t1 times exterior-square factor in t2, truncated, by dominant terms.

    The t1^i t2^j cell counts M(nu + (i,)) at m_nu when the entries are the
    symbols and zeros; otherwise both factors are multiplied out
    (`lfactors.product_grid`).
    """
    return product_grid(params.entries, ext_sq_roots(params), params.nvars, l1, l2)


def bf_product_form(
    params: SatakeParams, l1: int, l2: int
) -> tuple[MultiPoly, tuple[tuple[MultiPoly, ...], ...]]:
    """(omega, grid): the product form of `bf_series`, by dominant terms (module docstring).

    grid is `bf_product_series` times (1 - omega t1^a t2^b), a = n mod 2 and
    b = n // 2: cell [i][j] is c - omega P[i-a][j-b].  omega = c x1...xk
    adds 1 to every exponent, so omega times dominant terms stays dominant.
    """
    b, a = divmod(params.n, 2)
    omega = reduce(mul, params.entries, MultiPoly.one(params.nvars))
    grid = bf_product_series(params, l1, l2)
    if omega:
        grid = tuple(
            tuple(c - omega * grid[i - a][j - b] if i >= a and j >= b else c for j, c in enumerate(row))
            for i, row in enumerate(grid)
        )
    return omega, grid


class BFProbeResult:
    """Outcome of dividing the odd-rank two-variable sum by the product of its factors.

    `correction` is sum / (standard factor in t1 * exterior-square factor in
    t2), a grid like `bf_series`: 1 - omega t1 t2^m within the window.  It
    is 1 (`matches_product` True) when some entry vanishes, and also when
    the window stops short of t1 t2^m; `conductor_hypothesis` says whether
    an entry vanishes.
    """

    __slots__ = ("correction", "conductor_hypothesis", "matches_product")

    def __init__(
        self,
        correction: tuple[tuple[MultiPoly, ...], ...],
        conductor_hypothesis: bool,
        matches_product: bool,
    ):
        self.correction = correction
        self.conductor_hypothesis = conductor_hypothesis
        self.matches_product = matches_product


def bf_odd_correction_probe(params: SatakeParams, l1: int, l2: int) -> BFProbeResult:
    """Compare the odd-rank two-variable sum against the product of its factors.

    The sum is checked against `bf_product_form` cell by cell, and an
    ArithmeticError names the first cell that differs.  The product grid's
    constant term is 1, so the correction is then exactly (1 - omega t1
    t2^m) truncated to the window, n = 2m+1.
    """
    n = params.n
    if n < 3 or n % 2 == 0:
        raise ValueError("probe applies to odd n >= 3")
    m = n // 2
    omega, expected = bf_product_form(params, l1, l2)
    diff = series2_first_difference(bf_series(params, l1, l2), expected)
    if diff is not None:
        (i, j), _, _ = diff
        raise ArithmeticError(
            f"two-variable torus sum differs from (1 - ω t1 t2^{m}) times the product of factors"
            f" at t1^{i} t2^{j}"
        )
    correction = [[MultiPoly.zero(params.nvars)] * (l2 + 1) for _ in range(l1 + 1)]
    correction[0][0] = MultiPoly.one(params.nvars)
    matches = not omega or l1 < 1 or l2 < m
    if not matches:
        correction[1][m] = -omega
    return BFProbeResult(tuple(map(tuple, correction)), params.has_zero, matches)
