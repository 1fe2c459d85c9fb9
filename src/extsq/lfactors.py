"""Local L-factors built from parameter vectors, and their expansions.

A parameter vector (`SatakeParams`) models the semisimple data of an
unramified-type local representation: n entries, each either an exact
rational number or a distinguished indeterminate ("symbolic"), with zeros
recording directions lost to ramification.  One mechanism covers both uses,
since a rational entry is just a degree-zero polynomial.

A local factor prod_r (1 - r t)^{-1}, t = q^{-s}, is determined by its
roots r, and production never multiplies the linear factors out.  The
`lfactor` report prints the sorted nonzero roots; the truncated series of a
factor is built from the same list (`product_series`), and no series is
inverted.  The standard factor's roots are the entries, the
exterior-square factor's the pair products `ext_sq_roots`; zero roots are
factors 1.  The expanded reciprocals and their series inverse are the
tests' oracles of this route, in `tests/oracles.py`.

A vector's factors are symmetric in its symbols, since `SatakeParams` holds
each symbol exactly once, and are held by their dominant terms, as the
Schur sums are, so the two sides of an identity compare exactly.  On the m
symbols the pair roots are counted, not multiplied: a monomial of
prod_{p<q} (1 - x_p x_q t)^{-1} is a multiset of edges pq, so its
coefficient at m_nu t^K is M(nu), the number of loopless multigraphs on
labelled vertices with degrees nu, |nu| = 2K (symmetric RSK; Stanley, *EC2*
7.13).  One more vertex, of degree i, carries the edges x_p t1 of the
standard factor: the t1^i t2^j coefficient of prod_p (1 - x_p t1)^{-1}
prod_{p<q} (1 - x_p x_q t2)^{-1} is sum_nu M(nu + (i,)) m_nu.  Against the
Schur sums these are Littlewood's identities (Macdonald, *Symmetric
Functions*, I.5 Ex. 5): the Kostka numbers K_{lam nu} summed over the lam
with even columns give M(nu), over those with i odd columns and |lam| = i +
2j M(nu + (i,)); the two sides share no code.  M is memoised on sorted
degrees by the `lru_cache` `_multigraphs` (16384 entries), the partitions
by `_partitions` (4096); `cache_info()` reads either's hits and misses.
Both root lists are counted or neither is: a list counts when its nonzero
roots are exactly the x_p (t1) or the x_p x_q (t2), each once, or it has
none.  Any other pair of lists (for a vector's factors: a nonzero
constant among its entries) is multiplied out whole by the kernel
`polynomials.times_linear_factors`, over the integers: each cell is
homogeneous, so each list is scaled once by D, the lcm of its
denominators, the pairs go in one row pass and the nonzero linear roots in
one pass per column, and each t1^i t2^j cell is projected
(`MultiPoly.dominant`) and divided once, by D1^i D2^j (`MultiPoly.div_int`).

The exterior-square factor pairs the entries; its truncated series admits
an expansion into Schur polynomials over doubled shapes, the shapes whose
columns all have even length.  They are the t1^0 row of Littlewood's sum
graded by odd columns, `symmetric.littlewood_sum`, the one Schur sum behind
`ext_sq_expansion` here (rows bounded by k, the number of nonzero entries)
and the torus sums of `torus_sums` (rows bounded by n - 1), so each
identity can be verified coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Sequence

from .polynomials import MultiPoly, times_linear_factors
from .symmetric import littlewood_sum
from .tasks import ASCII_WHITESPACE, parse_rational


class SatakeParams:
    """A vector of exact-or-symbolic parameter entries.

    Entries are MultiPoly values in a shared symbol space: the symbolic
    entries are the space's variables, each exactly once, in any order, and
    the numeric entries are constants (possibly zero).  Any other vector
    raises ValueError: every sum and factor of the vector is then symmetric
    in the variables, and held by its dominant terms.
    """

    __slots__ = ("n", "nvars", "entries")
    __hash__ = None

    def __init__(self, entries: Sequence[MultiPoly], nvars: int | None = None):
        entries = tuple(entries)
        if nvars is None:
            nvars = entries[0].nvars if entries else 0
        ring = [MultiPoly.variable(nvars, i) for i in range(nvars)]
        for e in entries:
            if e.nvars != nvars:
                raise ValueError(f"entry {e.format()} lives outside the {nvars}-symbol space")
            if not (e.is_constant or e in ring):
                raise ValueError(f"entry {e.format()} is neither a constant nor a single variable")
        if sum(not e.is_constant for e in entries) != nvars or any(x not in entries for x in ring):
            raise ValueError(f"the symbolic entries must be the {nvars} symbols, each exactly once")
        self.n = len(entries)
        self.nvars = nvars
        self.entries = entries

    @classmethod
    def parse(cls, tokens: Sequence[str | int | Fraction]) -> "SatakeParams":
        """Build from tokens: "sym" for a fresh symbol, otherwise a rational.

        Symbols are numbered left to right; rationals are read by
        `parse_rational`.  Any other token, a float or a bool among them,
        raises ValueError.  A string token may carry ASCII whitespace only.
        """
        syms = [isinstance(tok, str) and tok.strip(ASCII_WHITESPACE) == "sym" for tok in tokens]
        nsyms = sum(syms)
        entries: list[MultiPoly] = []
        next_sym = 0
        for tok, sym in zip(tokens, syms):
            if sym:
                entries.append(MultiPoly.variable(nsyms, next_sym))
                next_sym += 1
            elif isinstance(tok, str):
                entries.append(MultiPoly.constant(nsyms, parse_rational(tok)))
            elif isinstance(tok, (int, Fraction)) and not isinstance(tok, bool):
                entries.append(MultiPoly.constant(nsyms, tok))
            else:
                raise ValueError(f"entry {tok!r} is neither 'sym' nor an exact rational")
        return cls(entries, nvars=nsyms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SatakeParams):
            return self.nvars == other.nvars and self.entries == other.entries
        return NotImplemented

    @property
    def nonzero_entries(self) -> tuple[MultiPoly, ...]:
        return tuple(e for e in self.entries if not e.is_zero)

    @property
    def has_zero(self) -> bool:
        return any(e.is_zero for e in self.entries)

    def __repr__(self) -> str:
        return f"SatakeParams([{', '.join(e.format() for e in self.entries)}])"


def ext_sq_roots(params: SatakeParams) -> list[MultiPoly]:
    """The roots a_i a_j, i < j, of the exterior-square factor."""
    n = params.n
    return [
        params.entries[i] * params.entries[j]
        for i in range(n)
        for j in range(i + 1, n)
    ]


def product_series(roots: Sequence[MultiPoly], nvars: int, order: int) -> tuple[MultiPoly, ...]:
    """prod_r 1/(1 - r t) through t^order, by its dominant terms: the t2 row of `product_grid`.

    Pass `ext_sq_roots(params)` for the exterior-square factor's series;
    the standard factor's is the t1 column of
    `product_grid(params.entries, (), nvars, order, 0)`, counted on the
    symbols.  The tests' oracle multiplies the reciprocal out and inverts
    it as a series.
    """
    return product_grid((), roots, nvars, 0, order)[0]


@lru_cache(maxsize=1 << 14)
def _multigraphs(degrees: tuple[int, ...]) -> int:
    """M(d), the loopless multigraphs on labelled vertices of degrees d (sorted, positive)."""
    total = sum(degrees)
    if total % 2 or (degrees and 2 * degrees[0] > total):
        return 0
    if len(degrees) <= 3:
        # one solution: (a + b - c) / 2 edges join the vertices of degrees a and b
        return 1
    # the s edges of the last vertex, of least degree, go to any multiset of the others
    *rest, s = degrees
    count = 0
    for picks in combinations_with_replacement(range(len(rest)), s):
        left = rest.copy()
        for p in picks:
            left[p] -= 1
        left.sort(reverse=True)
        count += _multigraphs(tuple(filter(None, left)))
    return count


@lru_cache(maxsize=4096)
def _partitions(weight: int, parts: int, top: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of `weight` into at most `parts` parts, none above `top`."""
    if not weight:
        return ((),)
    out: list[tuple[int, ...]] = []
    for a in range(min(weight, top), 0, -1):
        if a * parts < weight:
            break
        out += [(a,) + rest for rest in _partitions(weight - a, parts - 1, a)]
    return tuple(out)


def _counts(roots: Sequence[MultiPoly], degree: int, nvars: int) -> bool:
    """Whether the nonzero roots are the x_p (degree 1) or the x_p x_q, p < q (degree 2), each once.

    A list with no nonzero root counts too: its factor is 1.
    """
    seen = set()
    for r in roots:
        if not r:
            continue
        if len(r) != 1:
            return False
        ((exps, c),) = r.terms()
        if c != 1 or sum(exps) != degree or max(exps) != 1 or exps in seen:
            return False
        seen.add(exps)
    return len(seen) in (0, comb(nvars, degree))


def product_grid(
    linear: Sequence[MultiPoly], pairs: Sequence[MultiPoly], nvars: int, l1: int, l2: int
) -> tuple[tuple[MultiPoly, ...], ...]:
    """prod_r 1/(1 - r t1) over `linear` times prod_r 1/(1 - r t2) over `pairs`, by dominant terms.

    Cell [i][j] is the t1^i t2^j coefficient.  When both lists are the
    symbols and their pair products (`_counts`) the cells are counted;
    otherwise both lists are multiplied out (module docstring).
    """
    if _counts(linear, 1, nvars) and _counts(pairs, 2, nvars):
        grid = [[MultiPoly.zero(nvars)] * (l2 + 1) for _ in range(l1 + 1)]
        grid[0][0] = MultiPoly.one(nvars)
        # a list with no nonzero root is the factor 1: its powers past 0 stay zero
        top1, top2 = (l1 if any(linear) else 0), (l2 if any(pairs) else 0)
        for i, j in ((i, j) for i in range(top1 + 1) for j in range(top2 + 1) if i or j):
            counts = {}
            # a vertex of degree nu_p carries x_p^nu_p; none exceeds half the total
            for nu in _partitions(i + 2 * j, nvars, i + j):
                degrees = tuple(sorted(nu + (i,), reverse=True)) if i else nu
                counts[nu + (0,) * (nvars - len(nu))] = _multigraphs(degrees)
            grid[i][j] = MultiPoly(nvars, counts)
        return tuple(map(tuple, grid))
    d1 = lcm(*(c.denominator for r in linear for c in r.coefficients()))
    d2 = lcm(*(c.denominator for r in pairs for c in r.coefficients()))
    grid = [times_linear_factors([MultiPoly.one(nvars)], [r * d2 for r in pairs], l2)]
    scaled = [r * d1 for r in linear if r]
    if scaled:
        grid = list(zip(*(times_linear_factors([c], scaled, l1) for c in grid[0])))
    grid += [[MultiPoly.zero(nvars)] * (l2 + 1)] * (l1 + 1 - len(grid))
    return tuple(
        tuple(c.dominant().div_int(d1**i * d2**j) for j, c in enumerate(row)) for i, row in enumerate(grid)
    )


class DoubledShapeSum:
    """A truncated doubled-shape Schur sum and the terms it was summed from.

    `series` holds the coefficients of t^0..t^order.  `terms` holds one
    (power, shape, value) triple per doubled shape in enumeration order:
    the weight |f|, the shape (f1,f1,...,fh,fh,0,...), and its Schur value
    at the parameter entries.
    """

    __slots__ = ("series", "terms")

    def __init__(
        self,
        series: tuple[MultiPoly, ...],
        terms: tuple[tuple[int, tuple[int, ...], MultiPoly], ...],
    ):
        self.series = series
        self.terms = terms


def _doubled_shape_sum(params: SatakeParams, rows: int, length: int, order: int) -> DoubledShapeSum:
    """The t1^0 row of `littlewood_sum` over at most `rows` rows, each shape padded to `length`."""
    grid, scale, terms = littlewood_sum(params.entries, rows, 0, order)
    padded = tuple(
        (b, shape + (0,) * (length - len(shape)), value.div_int(scale ** (2 * b)))
        for _, b, shape, value in terms
    )
    return DoubledShapeSum(grid[0], padded)


def ext_sq_expansion(params: SatakeParams, order: int) -> DoubledShapeSum:
    """Schur expansion of the exterior-square series over the nonzero entries.

    With k nonzero entries the series equals the sum over the doubled shapes
    (f1,f1,...,fh,fh) with at most k rows of s_(f1,f1,...,fh,fh)(nonzero
    entries) t^{|f|}; each shape is padded with zeros to length k.
    """
    k = len(params.nonzero_entries)
    return _doubled_shape_sum(params, k, k, order)
