"""Truncated power series as plain coefficient tuples, compared exactly.

A series in one formal variable t, truncated at order L, is a tuple of L+1
MultiPoly coefficients, index = power of t.  A series in (t1, t2) over the
window 0..L1 by 0..L2 is a tuple of L1+1 rows of L2+1 coefficients each,
[i][j] the coefficient of t1^i t2^j.  All coefficients of a series live in
one variable count.

Production builds both sides of every identity as such tuples: the sums by
adding Schur values, the product sides of linear roots in
`polynomials.times_linear_factors`.  Nothing multiplies, inverts or embeds
a series; the two sides are compared here, and only at one truncation and
one variable count, with no silent re-truncation.  The series arithmetic
the tests check the product sides against lives in `tests/oracles.py`.
"""

from __future__ import annotations

from typing import Sequence

from .polynomials import MultiPoly


def _check(shape_a, shape_b, a0: MultiPoly, b0: MultiPoly) -> None:
    if shape_a != shape_b:
        raise ValueError(f"order mismatch: {shape_a} vs {shape_b}")
    if a0.nvars != b0.nvars:
        raise ValueError(f"dimension mismatch: {a0.nvars} vs {b0.nvars} variables")


def series_first_difference(
    a: Sequence[MultiPoly], b: Sequence[MultiPoly]
) -> tuple[int, MultiPoly, MultiPoly] | None:
    """Lowest power where two series differ, with both coefficients, or None.

    Raises ValueError unless both have one order and one variable count.
    """
    _check(len(a) - 1, len(b) - 1, a[0], b[0])
    for l, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            return l, ca, cb
    return None


def series2_first_difference(
    a: Sequence[Sequence[MultiPoly]], b: Sequence[Sequence[MultiPoly]]
) -> tuple[tuple[int, int], MultiPoly, MultiPoly] | None:
    """First differing (t1, t2)-cell in graded order (i + j, then i), or None.

    Raises ValueError unless both have one window and one variable count.
    """
    l1, l2 = len(a) - 1, len(a[0]) - 1
    _check((l1, l2), (len(b) - 1, len(b[0]) - 1), a[0][0], b[0][0])
    for d in range(l1 + l2 + 1):
        for i in range(max(0, d - l2), min(d, l1) + 1):
            if a[i][d - i] != b[i][d - i]:
                return (i, d - i), a[i][d - i], b[i][d - i]
    return None
