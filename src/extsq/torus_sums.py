"""Torus sums realizing the local zeta integrals on their support.

On the diagonal torus a spherical Whittaker function is supported on
dominant exponent vectors, where it equals a half-density factor times a
Schur polynomial in the parameter entries.  Unipotent integration is
already folded in, so each zeta integral collapses to a sum over the torus
lattice, where the half-density exponents cancel against the measure.

Exponents of the residue-field size q are carried as integer half-powers
(q^{e/2} is stored as e), never as radicals.

The product sides these sums are compared with are built from their linear
roots: `bf_product_series` is the outer product of the two factors' series
from `lfactors.product_series` (whose oracle is `LFactor.series`), and
`bf_odd_correction_probe` multiplies the sum by each factor (1 - r t1) and
(1 - r t2) rather than dividing by the product series.  Neither multiplies
two-variable series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .polynomials import MultiPoly, times_linear_factors
from .lfactors import (
    DoubledShapeSum,
    SatakeParams,
    doubled_shape_sum,
    ext_sq_roots,
    product_series,
)
from .series import TruncSeries2
from .symmetric import alternating_sum, dominant_vectors, even_index_sum, schur_eval_padded


def delta_half_exponent(g: Sequence[int], n: int) -> int:
    """Exponent e with delta_B^(1/2)(diag(pi^g)) = q^(e/2): e = -sum (n-2i+1) g_i."""
    if len(g) != n:
        raise ValueError(f"vector of length {len(g)} does not fit GL_{n}")
    return -sum((n - 2 * (i + 1) + 1) * gi for i, gi in enumerate(g))


@dataclass(frozen=True)
class WhittakerValue:
    """A Whittaker function value q^(q_half_exponent/2) * coefficient."""

    q_half_exponent: int
    coefficient: MultiPoly

    @property
    def is_zero(self) -> bool:
        return self.coefficient.is_zero


def whittaker_value(g: Sequence[int], params: SatakeParams) -> WhittakerValue:
    """Normalized spherical Whittaker value at the torus exponent vector g.

    Zero off the dominant cone; on it, the half-density exponent together
    with the Schur polynomial of the shape g at the parameter entries.
    The last exponent must be nonnegative (central reduction); g_n < 0 is a
    usage error, not a zero.
    """
    g = tuple(g)
    n = params.n
    if len(g) != n:
        raise ValueError(f"exponent vector of length {len(g)} does not match n={n}")
    if g and g[-1] < 0:
        raise ValueError("last torus exponent must be nonnegative")
    if any(a < b for a, b in zip(g, g[1:])):
        return WhittakerValue(0, MultiPoly.zero(params.nvars))
    return WhittakerValue(
        delta_half_exponent(g, n),
        schur_eval_padded(g, params.entries),
    )


def js_series(params: SatakeParams, order: int) -> DoubledShapeSum:
    """Torus sum for the rank-n exterior-square integral, truncated.

    Sums the Whittaker values at the doubled dominant vectors, graded by
    |f|: for n = 2m the vectors (f1,f1,...,f_{m-1},f_{m-1},0,0), for
    n = 2m+1 the vectors (f1,f1,...,f_m,f_m,0).  On them the half-density
    exponent cancels the measure, so each term is the Schur value alone.
    For even n the identity with the exterior-square factor holds exactly
    when some entry vanishes; whether it is asserted is the caller's concern.
    """
    n = params.n
    if n < 2:
        raise ValueError("torus sum needs n >= 2")
    if n % 2 == 0:
        return doubled_shape_sum(params, n // 2 - 1, 2, order)
    return doubled_shape_sum(params, (n - 1) // 2, 1, order)


def bf_series(params: SatakeParams, l1: int, l2: int) -> TruncSeries2:
    """Two-variable torus sum pairing the standard and exterior-square factors.

    Sums s_(f,0)(params) t1^(f1-f2+f3-...) t2^(f2+f4+...) over weakly
    decreasing nonnegative f in Z^(n-1) inside the truncation window.
    """
    n = params.n
    if n < 2:
        raise ValueError("need n >= 2")
    zero = MultiPoly.zero(params.nvars)
    grid = [[zero for _ in range(l2 + 1)] for _ in range(l1 + 1)]
    for f in dominant_vectors(n - 1, l1, l2):
        coeff = whittaker_value(f + (0,), params).coefficient
        if coeff.is_zero:
            continue
        a = alternating_sum(f)
        b = even_index_sum(f)
        grid[a][b] = grid[a][b] + coeff
    return TruncSeries2(params.nvars, grid)


def bf_product_series(params: SatakeParams, l1: int, l2: int) -> TruncSeries2:
    """Standard factor in t1 times exterior-square factor in t2, truncated.

    The factors are in different variables: the t1^i t2^j term is std_i * ext_j.
    """
    std = product_series(params.entries, params.nvars, l1).coeffs
    ext = product_series(ext_sq_roots(params), params.nvars, l2).coeffs
    return TruncSeries2(params.nvars, [[a * b for b in ext] for a in std])


@dataclass(frozen=True)
class BFProbeResult:
    """Outcome of dividing the odd-rank two-variable sum by its product form.

    `correction` is sum / (standard factor in t1 * exterior-square factor in
    t2) as a truncated series.  When some entry vanishes the correction is
    asserted to be exactly 1 (`matches_product` True); with all entries
    nonzero no identity is asserted and the correction is purely empirical.
    """

    correction: TruncSeries2
    conductor_hypothesis: bool
    matches_product: bool


def bf_odd_correction_probe(params: SatakeParams, l1: int, l2: int) -> BFProbeResult:
    """Compare the odd-rank two-variable sum against the pure product form."""
    n = params.n
    if n < 3 or n % 2 == 0:
        raise ValueError("probe applies to odd n >= 3")
    lhs = bf_series(params, l1, l2)
    # the inverse of the product form is prod (1 - a_i t1) prod (1 - a_i a_j t2):
    # multiply it into lhs, column by column in t1, then row by row in t2
    columns = [
        times_linear_factors([row[j] for row in lhs.coeffs], params.entries, l1, 1)
        for j in range(l2 + 1)
    ]
    roots = ext_sq_roots(params)
    correction = TruncSeries2(
        params.nvars,
        [times_linear_factors([col[i] for col in columns], roots, l2, 1) for i in range(l1 + 1)],
    )
    matches = correction == TruncSeries2.unit(params.nvars, (l1, l2))
    if params.has_zero and not matches:
        raise ArithmeticError(
            "vanishing-entry hypothesis holds but the product identity failed"
        )
    return BFProbeResult(correction, params.has_zero, matches)
