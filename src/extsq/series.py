"""Truncated power series as plain coefficient tuples, compared exactly.

A series in one formal variable t, truncated at order L, is a tuple of L+1
MultiPoly coefficients, index = power of t.  A series in (t1, t2) over the
window 0..L1 by 0..L2 is a tuple of L1+1 rows of L2+1 coefficients each,
[i][j] the coefficient of t1^i t2^j.  All coefficients of a series live in
one variable count.

Production builds both sides of every identity as such tuples: the sums by
adding Schur values, the product sides of linear roots in
`polynomials.times_linear_factors`.  Nothing multiplies, inverts or embeds
a series; the two sides are compared here, by `series2_first_difference`
alone, and only at one window and one variable count, with no silent
re-truncation; a one-variable series is compared as the window (0, L).
The series arithmetic the tests check the product sides against lives in
`tests/oracles.py`.
"""

from __future__ import annotations

from typing import Sequence

from .polynomials import MultiPoly


def series2_first_difference(
    a: Sequence[Sequence[MultiPoly]], b: Sequence[Sequence[MultiPoly]]
) -> tuple[tuple[int, int], MultiPoly, MultiPoly] | None:
    """First differing (t1, t2)-cell in graded order (i + j, then i), or None.

    Raises ValueError unless both have one window and one variable count.
    """
    window, other = (len(a) - 1, len(a[0]) - 1), (len(b) - 1, len(b[0]) - 1)
    if window != other:
        raise ValueError(f"order mismatch: {window} vs {other}")
    if a[0][0].nvars != b[0][0].nvars:
        raise ValueError(f"dimension mismatch: {a[0][0].nvars} vs {b[0][0].nvars} variables")
    l1, l2 = window
    for d in range(l1 + l2 + 1):
        for i in range(max(0, d - l2), min(d, l1) + 1):
            if a[i][d - i] != b[i][d - i]:
                return (i, d - i), a[i][d - i], b[i][d - i]
    return None
