"""Truncated formal power series with exact polynomial coefficients.

A TruncSeries1 is a series in one formal variable t, truncated at a fixed
order L: exactly L+1 coefficients, each a MultiPoly in a shared number of
variables.  TruncSeries2 is the two-variable analogue over a rectangular
truncation window.  Binary operations require identical truncation orders
and variable counts; there is no silent re-truncation.

No production route multiplies, inverts or embeds a series: production
builds series coefficient lists (the product side root by root in
`polynomials.times_linear_factors`, via `lfactors.product_series`), wraps
them, and compares them with the first-difference functions.  The product
side of every identity is a product of linear factors (1 - r t)^{-1}.  The
arithmetic here is kept only for the oracles; it stays in methods, not in
`tests/oracles.py`, because tests call it on series:

* `TruncSeries1.from_tpoly` and `inverse` expand a multiplied-out
  reciprocal in `tests/oracles.py`, the oracle of `product_series`;
  `TruncSeries1.__mul__` checks `inverse` in tests;
* `TruncSeries2.from_t1`, `from_t2` and `__mul__` build the test suite's
  oracle of `torus_sums.bf_product_series`, whose production route is the
  outer product of two one-variable series.
"""

from __future__ import annotations

from typing import Sequence

from .polynomials import MultiPoly


class TruncSeries1:
    """Series a_0 + a_1 t + ... + a_L t^L with MultiPoly coefficients."""

    __slots__ = ("nvars", "coeffs")
    __hash__ = None

    def __init__(self, nvars: int, coeffs: Sequence[MultiPoly]):
        if not coeffs:
            raise ValueError("a truncated series needs at least its order-0 coefficient")
        for c in coeffs:
            if c.nvars != nvars:
                raise ValueError("coefficient variable count does not match series")
        self.nvars = nvars
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_tpoly(cls, coeffs: Sequence[MultiPoly], nvars: int, order: int) -> "TruncSeries1":
        """Truncate (or zero-pad) a polynomial in t to the given order."""
        padded = list(coeffs[: order + 1])
        padded += [MultiPoly.zero(nvars)] * (order + 1 - len(padded))
        return cls(nvars, padded)

    def coeff(self, l: int) -> MultiPoly:
        return self.coeffs[l]

    def _check(self, other: "TruncSeries1") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        if self.nvars != other.nvars:
            raise ValueError(f"dimension mismatch: {self.nvars} vs {other.nvars} variables")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries1):
            return (
                self.nvars == other.nvars
                and self.order == other.order
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __mul__(self, other: "TruncSeries1") -> "TruncSeries1":
        self._check(other)
        zero = MultiPoly.zero(self.nvars)
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries1(self.nvars, out)

    def inverse(self) -> "TruncSeries1":
        """Multiplicative inverse; requires constant coefficient exactly 1."""
        if self.coeffs[0] != 1:
            raise ValueError("series is not invertible: constant coefficient must be 1")
        inv = [MultiPoly.one(self.nvars)]
        for l in range(1, self.order + 1):
            acc = MultiPoly.zero(self.nvars)
            for i in range(1, l + 1):
                if not self.coeffs[i].is_zero:
                    acc = acc + self.coeffs[i] * inv[l - i]
            inv.append(-acc)
        return TruncSeries1(self.nvars, inv)

    def __repr__(self) -> str:
        inner = ", ".join(c.format() for c in self.coeffs)
        return f"TruncSeries1(order={self.order}, [{inner}])"


def series_first_difference(
    a: TruncSeries1, b: TruncSeries1
) -> tuple[int, MultiPoly, MultiPoly] | None:
    """Lowest order where two equal-shape series differ, or None."""
    a._check(b)
    for l, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs)):
        if ca != cb:
            return l, ca, cb
    return None


class TruncSeries2:
    """Series in (t1, t2) over the window 0..L1 by 0..L2."""

    __slots__ = ("nvars", "coeffs")
    __hash__ = None

    def __init__(self, nvars: int, coeffs: Sequence[Sequence[MultiPoly]]):
        if not coeffs or not coeffs[0]:
            raise ValueError("a truncated series needs its order-(0,0) coefficient")
        width = len(coeffs[0])
        rows = []
        for row in coeffs:
            if len(row) != width:
                raise ValueError("ragged coefficient grid")
            for c in row:
                if c.nvars != nvars:
                    raise ValueError("coefficient variable count does not match series")
            rows.append(tuple(row))
        self.nvars = nvars
        self.coeffs = tuple(rows)

    @property
    def orders(self) -> tuple[int, int]:
        return len(self.coeffs) - 1, len(self.coeffs[0]) - 1

    @classmethod
    def unit(cls, nvars: int, orders: tuple[int, int]) -> "TruncSeries2":
        l1, l2 = orders
        grid = [
            [MultiPoly.one(nvars) if (i, j) == (0, 0) else MultiPoly.zero(nvars) for j in range(l2 + 1)]
            for i in range(l1 + 1)
        ]
        return cls(nvars, grid)

    @classmethod
    def from_t1(cls, s: TruncSeries1, l2: int) -> "TruncSeries2":
        """Embed a series in t as a (t1, t2)-series constant in t2."""
        zero = MultiPoly.zero(s.nvars)
        return cls(
            s.nvars,
            [[c if j == 0 else zero for j in range(l2 + 1)] for c in s.coeffs],
        )

    @classmethod
    def from_t2(cls, s: TruncSeries1, l1: int) -> "TruncSeries2":
        zero = MultiPoly.zero(s.nvars)
        grid = [list(s.coeffs)]
        grid += [[zero] * (s.order + 1) for _ in range(l1)]
        return cls(s.nvars, grid)

    def coeff(self, i: int, j: int) -> MultiPoly:
        return self.coeffs[i][j]

    def _check(self, other: "TruncSeries2") -> None:
        if self.orders != other.orders:
            raise ValueError(f"order mismatch: {self.orders} vs {other.orders}")
        if self.nvars != other.nvars:
            raise ValueError(f"dimension mismatch: {self.nvars} vs {other.nvars} variables")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries2):
            return (
                self.nvars == other.nvars
                and self.orders == other.orders
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __mul__(self, other: "TruncSeries2") -> "TruncSeries2":
        self._check(other)
        l1, l2 = self.orders
        zero = MultiPoly.zero(self.nvars)
        out = [[zero] * (l2 + 1) for _ in range(l1 + 1)]
        for i1 in range(l1 + 1):
            for j1 in range(l2 + 1):
                a = self.coeffs[i1][j1]
                if a.is_zero:
                    continue
                for i2 in range(l1 + 1 - i1):
                    for j2 in range(l2 + 1 - j1):
                        b = other.coeffs[i2][j2]
                        if not b.is_zero:
                            out[i1 + i2][j1 + j2] = out[i1 + i2][j1 + j2] + a * b
        return TruncSeries2(self.nvars, out)

    def __repr__(self) -> str:
        l1, l2 = self.orders
        return f"TruncSeries2(orders=({l1}, {l2}))"


def series2_first_difference(
    a: TruncSeries2, b: TruncSeries2
) -> tuple[tuple[int, int], MultiPoly, MultiPoly] | None:
    """First differing (t1, t2)-coefficient in graded order, or None."""
    a._check(b)
    l1, l2 = a.orders
    cells = sorted(
        ((i, j) for i in range(l1 + 1) for j in range(l2 + 1)),
        key=lambda ij: (ij[0] + ij[1], ij),
    )
    for i, j in cells:
        if a.coeffs[i][j] != b.coeffs[i][j]:
            return (i, j), a.coeffs[i][j], b.coeffs[i][j]
    return None
