"""The local identities as one object: Littlewood's sum and its product form.

On the diagonal torus a spherical Whittaker function is supported on
dominant exponent vectors, where it equals a half-density factor q^(e/2),
e an integer linear in the vector, times a Schur polynomial in the
parameter entries.  Unipotent integration is already folded in, so each
zeta integral collapses to a sum over the torus lattice, and on every
summed vector the half-density exponent cancels against the measure: each
term is a Schur value alone.

Every identity of the package is a row or a window of one Schur sum,
`symmetric.littlewood_sum`: Littlewood's sum graded by odd columns
(Macdonald, *Symmetric Functions*, I.5 Ex. 5), whose t1^a t2^b coefficient
sums s_lam over the partitions lam with at most `rows` rows, a = c_odd(lam)
odd columns and |lam| = a + 2b.  `LittlewoodIdentity` holds that sum and
its product side, and the task runners read nothing else: the
doubled-shape expansion is its t1^0 row over k rows (k the nonzero
entries), the Jacquet-Shalika torus sum its t1^0 row over n - 1 rows, and
the two-variable sum its whole window over n - 1 rows.

Over the entries the sum over all partitions is the product of factors
P = L(t1) * ext-sq L(t2), and a shape with more than k rows has Schur
value 0, so any rows >= k give P, rows above n included.  Going from
k - 1 rows to k adds the shapes lam + (1^k), and s_{lam+(1^k)} = e_k s_lam
over the nonzero entries, so with w = t1^(k mod 2) t2^(k // 2), the
grading of one column of length k,

    the sum over at most `rows` rows = (1 - omega w) * P,

omega = e_k, the product of the nonzero entries, when rows = k - 1 and
omega = 0 when rows >= k.  Fewer rows leave out more than one column
length, and the identity refuses them.

Every sum and product here is symmetric in the symbols and held by its
dominant terms (`polynomials`).  When the entries are the symbols and
zeros, P is counted, not multiplied (`lfactors.product_grid`): on the m
symbols, the t1^i t2^j coefficient of prod_p (1 - x_p t1)^{-1}
prod_{p<q} (1 - x_p x_q t2)^{-1} is sum_nu M(nu + (i,)) m_nu, |nu| = i +
2j, M(d) the number of loopless multigraphs with degrees d: the edges
x_p x_q join symbols and one extra vertex of degree i carries the edges
x_p t1 (Stanley, *Enumerative Combinatorics 2*, 7.13).  By the same
Littlewood identity it equals the sum of K_{lam nu} over the lam of that
window, so the grid and the sum meet without sharing code.  With a
nonzero constant among the entries (`SatakeParams.constants`) both
factors are multiplied out whole over the integers instead, and the
oracle multiplies the inverted factor series.  Both sides take the
vector itself, split once by `SatakeParams`.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import mul

from .lfactors import SatakeParams, product_grid
from .polynomials import MultiPoly
from .symmetric import littlewood_sum


class LittlewoodIdentity:
    """Littlewood's sum over at most `rows` rows in the window (l1, l2), and its product form.

    `grid` and `terms` are those of `littlewood_sum` at the vector, and
    `scale` is its D (`SatakeParams.scale`).  Built when first read:
    `omega`; `product`, the grid P of the standard factor in t1 times the
    exterior-square factor in t2; and `form`, P times (1 - omega t1^(k mod
    2) t2^(k // 2)), k the nonzero entries, which equals `grid`.  Raises
    ValueError when rows < k - 1.
    """

    def __init__(self, params: SatakeParams, rows: int, l1: int, l2: int):
        k = len(params.nonzero_entries)
        if rows < k - 1:
            raise ValueError(f"Littlewood's sum over {k} nonzero entries needs at least {k - 1} rows, got {rows}")
        self.params, self.rows, self.window = params, rows, (l1, l2)
        self.scale = params.scale
        self.grid, self.terms = littlewood_sum(params, rows, l1, l2)

    @cached_property
    def omega(self) -> MultiPoly:
        """e_k, the product of the k nonzero entries, at rows = k - 1; 0 at rows >= k."""
        nonzero, nvars = self.params.nonzero_entries, self.params.nvars
        return reduce(mul, nonzero, MultiPoly.one(nvars)) if self.rows < len(nonzero) else MultiPoly.zero(nvars)

    @cached_property
    def product(self) -> tuple[tuple[MultiPoly, ...], ...]:
        return product_grid(self.params, *self.window)

    @cached_property
    def form(self) -> tuple[tuple[MultiPoly, ...], ...]:
        """P times (1 - omega t1^a t2^b): cell [i][j] is c - omega P[i-a][j-b].

        omega = c x1...xm, m the symbols, adds 1 to every exponent, so
        omega times dominant terms stays dominant.
        """
        omega, grid = self.omega, self.product
        if not omega:
            return grid
        b, a = divmod(len(self.params.nonzero_entries), 2)
        return tuple(
            tuple(c - omega * grid[i - a][j - b] if i >= a and j >= b else c for j, c in enumerate(row))
            for i, row in enumerate(grid)
        )
