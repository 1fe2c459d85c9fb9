"""Local L-factors built from parameter vectors, and their expansions.

A parameter vector (`SatakeParams`) models the semisimple data of an
unramified-type local representation: n entries, each either an exact
rational number or a distinguished indeterminate ("symbolic"), with zeros
recording directions lost to ramification.  One mechanism covers both uses,
since a rational entry is just a degree-zero polynomial.

A local factor prod_r (1 - r t)^{-1}, t = q^{-s}, is determined by its
roots r, and production never multiplies the linear factors out.  The
`lfactor` report prints the sorted nonzero roots; the truncated series of a
factor is built root by root from the same list (`product_series`, with
`polynomials.times_linear_factors`), so no series is inverted.  The
standard factor's roots are the entries, the exterior-square factor's the
pair products `ext_sq_roots`; zero roots are factors 1.  The expanded
reciprocals and their series inverse are the tests' oracles of this route,
in `tests/oracles.py`.

The series runs over the integers.  Its t^k coefficient h_k is homogeneous
of degree k, so h_k(r) = h_k(D r) / D^k, with D the lcm of the roots'
coefficient denominators: the roots are scaled by D once, the products
multiply ints only, and each coefficient is divided once, by D^k
(`MultiPoly.div_int`).  A vector's factors are symmetric in its symbols,
since `SatakeParams` holds each symbol exactly once, so each coefficient is
expanded in full and then held by its dominant terms (`MultiPoly.dominant`),
before the division; the Schur sums are held the same way, so the two
sides of an identity compare exactly.

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
from typing import Sequence

from .polynomials import MultiPoly
from .symmetric import _scaled_h, littlewood_sum


def parse_rational(token: str) -> Fraction:
    """An exact rational from "3", "-2/5" or "0.25"; ValueError otherwise.

    Exponent notation is refused: Fraction("1e10000000") builds a
    ten-million-digit integer, at a cost that grows faster than the exponent.
    """
    text = token.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"malformed rational {token!r}: exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {token!r}") from exc


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
        `parse_rational`.
        """
        nsyms = sum(1 for tok in tokens if isinstance(tok, str) and tok.strip() == "sym")
        entries: list[MultiPoly] = []
        next_sym = 0
        for tok in tokens:
            if isinstance(tok, str) and tok.strip() == "sym":
                entries.append(MultiPoly.variable(nsyms, next_sym))
                next_sym += 1
            else:
                value = parse_rational(tok) if isinstance(tok, str) else Fraction(tok)
                entries.append(MultiPoly.constant(nsyms, value))
        return cls(entries, nvars=nsyms)

    @classmethod
    def symbolic(cls, n: int) -> "SatakeParams":
        return cls([MultiPoly.variable(n, i) for i in range(n)], nvars=n)

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
    """prod_r 1/(1 - r t) through t^order, built root by root over the integers.

    Coefficient k is h_k of the roots: h_k of the roots scaled by D, its
    dominant terms divided once by D^k (see the module docstring).  Pass
    `params.entries` for the standard factor's series and
    `ext_sq_roots(params)` for the exterior-square one; both factors are
    symmetric in the symbols.  The tests' oracle multiplies the reciprocal
    out and inverts it as a series.
    """
    scale, hs = _scaled_h(roots, nvars, order)
    return tuple(h.dominant().div_int(scale**k) for k, h in enumerate(hs))


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
    grid, terms = littlewood_sum(params.entries, rows, 0, order)
    padded = tuple((b, shape + (0,) * (length - len(shape)), value) for _, b, shape, value in terms)
    return DoubledShapeSum(grid[0], padded)


def ext_sq_expansion(params: SatakeParams, order: int) -> DoubledShapeSum:
    """Schur expansion of the exterior-square series over the nonzero entries.

    With k nonzero entries the series equals the sum over the doubled shapes
    (f1,f1,...,fh,fh) with at most k rows of s_(f1,f1,...,fh,fh)(nonzero
    entries) t^{|f|}; each shape is padded with zeros to length k.
    """
    k = len(params.nonzero_entries)
    return _doubled_shape_sum(params, k, k, order)
