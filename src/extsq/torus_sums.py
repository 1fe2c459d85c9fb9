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
dominant terms (`polynomials`).  The product sides these sums are compared
with are built from their linear roots: `bf_product_series` is the outer
product of the two factors' integer series, built as in
`lfactors.product_series` (whose oracle inverts the multiplied-out
reciprocal), each cell multiplied in full and then projected onto its
dominant terms and divided once by its scale.  `bf_odd_correction_probe`
expands the sum's cells by orbit sums (`MultiPoly.orbit_sum`), multiplies
them by each factor (1 - r t1) and (1 - r t2) rather than dividing by the
product series, and projects the correction.  Neither multiplies
two-variable series.
"""

from __future__ import annotations

from .polynomials import MultiPoly, times_linear_factors
from .lfactors import DoubledShapeSum, SatakeParams, _doubled_shape_sum, ext_sq_roots
from .symmetric import _scaled_h, littlewood_sum


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
    """Standard factor in t1 times exterior-square factor in t2, truncated.

    The factors are in different variables: the t1^i t2^j term is std_i * ext_j.
    Both series are integer, from the entries scaled by D1 and the pair
    products by D2, so each cell multiplies std_i * ext_j in full and
    divides its dominant terms once, by D1^i D2^j.
    """
    nvars = params.nvars
    d1, std = _scaled_h(params.entries, nvars, l1)
    d2, ext = _scaled_h(ext_sq_roots(params), nvars, l2)
    return tuple(
        tuple((a * b).dominant().div_int(d1**i * d2**j) for j, b in enumerate(ext))
        for i, a in enumerate(std)
    )


class BFProbeResult:
    """Outcome of dividing the odd-rank two-variable sum by its product form.

    `correction` is sum / (standard factor in t1 * exterior-square factor in
    t2), a grid like `bf_series`.  When some entry vanishes the correction
    is asserted to be exactly 1 (`matches_product` True); with all entries
    nonzero no identity is asserted and the correction is purely empirical.
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
    """Compare the odd-rank two-variable sum against the pure product form."""
    n = params.n
    if n < 3 or n % 2 == 0:
        raise ValueError("probe applies to odd n >= 3")
    # the factors multiply full polynomials, not dominant terms: expand each cell
    lhs = [[c.orbit_sum() for c in row] for row in bf_series(params, l1, l2)]
    # the inverse of the product form is prod (1 - a_i t1) prod (1 - a_i a_j t2):
    # multiply it into lhs, column by column in t1, then row by row in t2
    columns = [
        times_linear_factors([row[j] for row in lhs], params.entries, l1, 1)
        for j in range(l2 + 1)
    ]
    roots = ext_sq_roots(params)
    correction = tuple(
        tuple(c.dominant() for c in times_linear_factors([col[i] for col in columns], roots, l2, 1))
        for i in range(l1 + 1)
    )
    matches = correction[0][0] == 1 and all(
        c.is_zero for i, row in enumerate(correction) for j, c in enumerate(row) if i or j
    )
    if params.has_zero and not matches:
        raise ArithmeticError(
            "vanishing-entry hypothesis holds but the product identity failed"
        )
    return BFProbeResult(correction, params.has_zero, matches)
