"""Local L-factors built from parameter vectors, and their product grids.

A parameter vector (`SatakeParams`) models the semisimple data of an
unramified-type local representation: n entries, each either an exact
rational number or a distinguished indeterminate ("symbolic"), with zeros
recording directions lost to ramification.  One mechanism covers both uses,
since a rational entry is just a degree-zero polynomial.

A local factor prod_r (1 - r t)^{-1}, t = q^{-s}, is determined by its
roots r, and production never multiplies the linear factors out.  The
`lfactor` report prints the sorted nonzero roots; the truncated series of a
factor is built from the same list, as one row or column of
`product_grid`, and no series is inverted.  The standard factor's roots
are the entries, the exterior-square factor's the pair products
`ext_sq_roots`; zero roots are factors 1.  The expanded reciprocals and their series inverse are the
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
The grid is counted exactly when the vector has no nonzero constant
(`SatakeParams.constants` is empty).  Otherwise both factors are
multiplied out whole by the kernel `polynomials.times_linear_factors`,
over the integers: each cell is homogeneous, so the entries are scaled
once by D (`SatakeParams.scale`) and the pair products once by the lcm D2
of their denominators, the pairs go in one row pass and the nonzero
entries in one pass per column, and each t1^i t2^j cell is projected
(`MultiPoly.dominant`) and divided once, by D^i D2^j
(`MultiPoly.div_int`).

The exterior-square factor pairs the entries; its truncated series admits
an expansion into Schur polynomials over doubled shapes, the shapes whose
columns all have even length.  They are the t1^0 row of Littlewood's sum
graded by odd columns, `symmetric.littlewood_sum`, and `product_grid` is
the product side of `torus_sums.LittlewoodIdentity`, which every identity
task reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from typing import Sequence

from .polynomials import MultiPoly, times_linear_factors
from .tasks import ASCII_WHITESPACE, parse_rational


class SatakeParams:
    """A vector of exact-or-symbolic parameter entries.

    Entries are MultiPoly values in a shared symbol space: the symbolic
    entries are the space's variables, each exactly once, in any order, and
    the numeric entries are constants (possibly zero).  Any other vector
    raises ValueError: every sum and factor of the vector is then symmetric
    in the variables, and held by its dominant terms.  The split is made
    here, once: `constants` holds the nonzero constant entries in entry
    order and `scale`, D, the lcm of their denominators (1 without any).
    """

    __slots__ = ("n", "nvars", "entries", "constants", "scale")
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
        self.constants = tuple(e for e in entries if e.is_constant and not e.is_zero)
        self.scale = lcm(*(c.constant_value().denominator for c in self.constants))

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


def product_grid(params: SatakeParams, l1: int, l2: int) -> tuple[tuple[MultiPoly, ...], ...]:
    """L(t1) ext-sq L(t2) of the vector through (l1, l2), by dominant terms.

    Cell [i][j] is the t1^i t2^j coefficient.  Without a nonzero constant
    the cells are counted; otherwise both factors are multiplied out
    (module docstring).
    """
    nvars = params.nvars
    if not params.constants:
        grid = [[MultiPoly.zero(nvars)] * (l2 + 1) for _ in range(l1 + 1)]
        grid[0][0] = MultiPoly.one(nvars)
        for i, j in ((i, j) for i in range(l1 + 1) for j in range(l2 + 1) if i or j):
            counts = {}
            # a vertex of degree nu_p carries x_p^nu_p; none exceeds half the total, so
            # no nu fits without a symbol, nor with one symbol and a pair (j >= 1)
            for nu in _partitions(i + 2 * j, nvars, i + j):
                degrees = tuple(sorted(nu + (i,), reverse=True)) if i else nu
                counts[nu + (0,) * (nvars - len(nu))] = _multigraphs(degrees)
            grid[i][j] = MultiPoly(nvars, counts)
        return tuple(map(tuple, grid))
    d1 = params.scale
    pairs = ext_sq_roots(params) if l2 else []
    d2 = lcm(*(c.denominator for r in pairs for c in r.coefficients()))
    grid = [times_linear_factors([MultiPoly.one(nvars)], [r * d2 for r in pairs], l2)]
    if l1:
        scaled = [e * d1 for e in params.nonzero_entries]
        grid = list(zip(*(times_linear_factors([c], scaled, l1) for c in grid[0])))
    return tuple(
        tuple(c.dominant().div_int(d1**i * d2**j) for j, c in enumerate(row)) for i, row in enumerate(grid)
    )
