"""Independent routes that the test suite checks the package against.

Nothing in `extsq` calls these.  Most build an object that production
builds another way, and share no code with that way; the rest is
arithmetic that only the tests need:

* `schur_bialternant` -- s_f as alternant over Vandermonde, divided one
  binomial at a time by `divexact_binomial`.  It is the oracle of
  `symmetric.schur` (the branching rule) and, evaluated with `substitute`,
  of `symmetric.SchurValues` (the coproduct);
* `complete_homogeneous` -- h_k as the sum of all degree-k monomials;
* `leibniz_det` -- an int determinant as the signed sum over
  permutations: the oracle of the fraction-free elimination
  `symmetric._det` behind the skew Jacobi-Trudi values;
* `inner_shapes_by_filter` -- the mu of the coproduct with
  f_{i+r} <= mu_i <= f_i, every tuple in the box filtered for weakly
  decreasing parts: the oracle of `symmetric._inner_shapes`, which builds
  only those, one part at a time;
* `multigraph_count` -- the loopless multigraphs with a degree sequence,
  one edge multiplicity per pair of vertices at a time: the oracle of the
  memoised count `lfactors._multigraphs` behind the counted product sides,
  and, with `schur_bialternant`, of Littlewood's identities that equate
  those counts with Kostka sums;
* `partitions_bounded`, `alternating_sum`, `even_index_sum` and
  `doubled_shape` -- all partitions of a weight, filtered on a and b or
  doubled: the oracles of `symmetric.window_partitions` and its readers;
* `format_terms` -- a polynomial's text from its `terms()`: the oracle of
  `MultiPoly.format`;
* `coefficient`, `monomial` and `symbolic_params` -- a polynomial's
  coefficient at an exponent vector, read from `terms()`, the monomial c
  x^exps, and the all-symbol vector of n entries, which production never
  needs;
* `dominant_part` (and `dominant_series`, per coefficient or cell),
  `expand_m_basis` and `format_m` -- a symmetric
  polynomial's dominant terms, read from the unpacked exponent vectors of
  `terms()`; the orbit sum of each dominant term over
  `itertools.permutations`; and the m-basis text of the dominant terms.
  They are the oracles of `MultiPoly.dominant` and
  `MultiPoly.format_symmetric`, and they carry every full polynomial an
  oracle builds to the dominant terms production holds;
* `power` and `substitute` -- a power by repeated squaring, each product
  through the overflow guard of `MultiPoly.__mul__`, and a polynomial
  evaluated at a vector term by term;
* `series_pad`, `series_product`, `series_inverse`, `embed_t1`, `embed_t2`
  and `series2_product` -- arithmetic on truncated series, held as the
  coefficient tuples of `extsq.series`, which no production route
  multiplies, inverts or embeds;
* `delta_half_exponent` -- the half-density exponent of a torus vector,
  whose doubling law acceptance criterion 09 checks;
* `LFactor` -- a factor 1/P(t) held through its expanded reciprocal P, which
  production never builds.  `LFactor.from_linear_roots` multiplies the
  factors (1 - r t) out with plain `MultiPoly` arithmetic, and
  `LFactor.series` inverts P as a series: the oracle of a row or column
  of `lfactors.product_grid`, which divides by one root at a time.
  `standard_L` and `formal_ext_sq_L` multiply out a vector's entries and
  their pair products `lfactors.ext_sq_roots`; their series, embedded in
  t1 and in t2 and multiplied, are the oracle of the product side
  `torus_sums.LittlewoodIdentity.product`;
* `reciprocal_quotient` -- exact low-end division of two reciprocals, the
  oracle of the root-multiset verdicts of `weil_deligne.divisibility_check`;
* `standard_satake` -- the kernel eigenvalues of the grade-0 blocks, whose
  pair products are the formal roots of the Galois checks, as an
  `EntryVector`, since they need not be a vector `SatakeParams` accepts;
* `wd_lfactor` and `ext_sq_lfactor_by_elimination` -- Gauss-Jordan
  elimination on the rep and on its wedge square, the oracles of
  `standard_satake` and of the closed-form root walk
  `weil_deligne.ext_sq_root_indices` (Clebsch-Gordan over blocks), which
  `ext_sq_lfactor` multiplies out from `divisibility_check(rep).ext_sq_keys`;
* `key_roots` -- the roots c / scale x^m of a Galois comparison's integer
  keys (m, c) as `MultiPoly` monomials, which the package never builds:
  their products are checked by elimination, and their `MultiPoly.format`
  is the oracle of the printer `root_strings`;
* `root_multiset_differences` -- the two `Counter` differences of two root
  lists, the oracle of the one-pass comparison behind the Galois verdicts;
* `randrange_wdrep` and `randrange_k1_rep` -- the random drawers written
  with `randint`, `randrange` and `choice`, the oracles of the stream that
  `weil_deligne.random_wdrep` and `random_k1_rep` draw on `getrandbits`;
* `machine_json` -- a report list as `json.dumps` writes it with sorted
  keys, ASCII escapes and indent 1: the reference bytes of
  `tasks.emit_machine`, which writes them with its own emitter;
* `satake_report_data` -- the whole `data` of a Satake task's report,
  rebuilt from its echo by the oracles above, every polynomial in full
  and printed by `format_m`: the oracle of what `tasks` prints.

Only public names of `extsq` are used here, so no oracle reads the packed
exponent keys of the code it checks, except `key_roots`, which decodes the
public key lists of the Galois comparisons (two bits per symbol).  Every
oracle is a free function or a class of this module; none is a method of a
package class.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from extsq.lfactors import SatakeParams, ext_sq_roots
from extsq.polynomials import MultiPoly
from extsq.symmetric import check_partition
from extsq.tasks import FORMAT_VERSION, Report
from extsq.weil_deligne import FiniteAbelianGroup, WDRep, divisibility_check

# -- Schur polynomials --------------------------------------------------------


def divexact_binomial(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """Divide p exactly by (x_i - x_j); raise ArithmeticError if inexact.

    Synthetic division in x_i with coefficients that are polynomials in the
    remaining variables: q_{d-1} = c_d + x_j q_d, remainder c_0 + x_j q_0.
    Works on the exponent vectors of `terms()`.
    """
    n = p.nvars
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("need two distinct variable indices")
    # c_d by the exponent d of x_i, as {exponents with x_i cleared: coefficient}
    slices: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for exps, c in p.terms():
        slices.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1 :]] = c
    if not slices:
        return p
    top = max(slices)
    if top == 0:
        raise ArithmeticError("inexact division: dividend free of x_i")
    quotient: dict[tuple[int, ...], int | Fraction] = {}
    carry: dict[tuple[int, ...], int | Fraction] = {}  # q_d while descending
    for d in range(top, -1, -1):
        acc = dict(slices.get(d, {}))
        for exps, c in carry.items():
            shifted = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
            acc[shifted] = acc.get(shifted, 0) + c
        acc = {exps: c for exps, c in acc.items() if c}
        if d == 0:
            if acc:
                raise ArithmeticError("inexact division by binomial")
            break
        for exps, c in acc.items():
            quotient[exps[:i] + (d - 1,) + exps[i + 1 :]] = c
        carry = acc
    return MultiPoly(n, quotient)


def schur_bialternant(f: Sequence[int], n: int) -> MultiPoly:
    """Schur polynomial as alternant / Vandermonde, with exact division.

    The numerator determinant is a signed sum of monomials over
    permutations, and the Vandermonde division proceeds one binomial
    (x_i - x_j) at a time by synthetic division.
    """
    shape = check_partition(f)
    if len(shape) > n:
        raise ValueError(f"shape {tuple(f)} has more than {n} parts")
    if n == 0:
        return MultiPoly.one(0)
    padded = list(shape) + [0] * (n - len(shape))
    exps = [padded[i] + n - 1 - i for i in range(n)]  # strictly decreasing
    terms: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        vec = [0] * n
        for i, pos in enumerate(perm):
            vec[pos] = exps[i]
        terms[tuple(vec)] = sign
    p = MultiPoly(n, terms)
    for i in range(n):
        for j in range(i + 1, n):
            p = divexact_binomial(p, i, j)
    return p


def complete_homogeneous(k: int, n: int) -> MultiPoly:
    """Sum of all degree-k monomials in n variables (h_k); zero for k < 0."""
    if k < 0:
        return MultiPoly.zero(n)
    terms: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations_with_replacement(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def leibniz_det(rows: Sequence[Sequence[int]]) -> int:
    """det of a square matrix as the Leibniz sum over permutations, each sign from its inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        if term:
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total += -term if inversions % 2 else term
    return total


def inner_shapes_by_filter(padded: Sequence[int], m: int, r: int) -> list[tuple[int, ...]]:
    """The weakly decreasing mu of m parts with padded[i + r] <= mu_i <= padded[i], descending."""
    box = itertools.product(*(range(padded[i], padded[i + r] - 1, -1) for i in range(m)))
    return [mu for mu in box if _weakly_decreasing(mu)]


def multigraph_count(degrees: Sequence[int]) -> int:
    """The loopless multigraphs on labelled vertices with these degrees, by brute force.

    Each pair of vertices in turn takes every multiplicity both ends can
    still carry; the last pair of a vertex must use up what it lacks.
    """
    n = len(degrees)
    pairs = list(itertools.combinations(range(n), 2))
    left = list(degrees)

    def count(k: int) -> int:
        if k == len(pairs):
            return int(not any(left))
        i, j = pairs[k]
        total = 0
        for e in range(min(left[i], left[j]) + 1):
            if j == n - 1 and e != left[i]:
                continue
            left[i] -= e
            left[j] -= e
            total += count(k + 1)
            left[i] += e
            left[j] += e
        return total

    return count(0)


def partitions_bounded(weight: int, max_parts: int) -> list[tuple[int, ...]]:
    """All partitions of `weight` into at most `max_parts` parts, descending, no trailing zeros."""
    if weight < 0 or max_parts < 0:
        raise ValueError("weight and max_parts must be nonnegative")
    if weight == 0 or max_parts == 0:
        return [()] if weight == 0 else []
    return [
        (part,) + rest
        for part in range(weight, 0, -1)
        for rest in partitions_bounded(weight - part, max_parts - 1)
        if not rest or rest[0] <= part
    ]


def alternating_sum(f: Sequence[int]) -> int:
    """f1 - f2 + f3 - ... (the t1-exponent of a torus vector)."""
    return sum(c if i % 2 == 0 else -c for i, c in enumerate(f))


def even_index_sum(f: Sequence[int]) -> int:
    """f2 + f4 + ... (the t2-exponent of a torus vector)."""
    return sum(f[1::2])


def doubled_shape(f: Sequence[int], pairs: int, extra_zeros: int) -> tuple[int, ...]:
    """(f1, f1, f2, f2, ..., f_pairs, f_pairs) followed by extra zeros."""
    if len(f) > pairs:
        raise ValueError("shape has more parts than requested pairs")
    padded = tuple(f) + (0,) * (pairs - len(f))
    return tuple(x for part in padded for x in (part, part)) + (0,) * extra_zeros


def _weakly_decreasing(exps: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(exps, exps[1:]))


def dominant_part(p: MultiPoly) -> MultiPoly:
    """The terms of p whose exponent vectors, unpacked by `terms()`, are weakly decreasing."""
    return MultiPoly(p.nvars, {exps: c for exps, c in p.terms() if _weakly_decreasing(exps)})


def dominant_series(s: Sequence) -> tuple:
    """`dominant_part` of every coefficient of a series, or of every cell of a grid."""
    return tuple(dominant_part(c) if isinstance(c, MultiPoly) else dominant_series(c) for c in s)


def expand_m_basis(p: MultiPoly) -> MultiPoly:
    """sum c_nu m_nu for the dominant terms c_nu x^nu of p, each m_nu the sum of x^sigma
    over the distinct permutations sigma of nu; ValueError on a term that is not dominant."""
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for exps, c in p.terms():
        if not _weakly_decreasing(exps):
            raise ValueError(f"{exps} is not weakly decreasing")
        for sigma in set(itertools.permutations(exps)):
            terms[sigma] = c
    return MultiPoly(p.nvars, terms)


def format_m(p: MultiPoly) -> str:
    """The m-basis text of the symmetric polynomial whose dominant terms p holds.

    Reads the dominant terms of p from `terms()`, in their graded-lex order:
    c m_nu prints as c*m(nu without zero parts), the constant term as a
    bare coefficient, and p's other terms are skipped.
    """
    pieces = []
    for exps, c in p.terms():
        if not _weakly_decreasing(exps):
            continue
        parts = [str(e) for e in exps if e]
        mono = f"m({','.join(parts)})" if parts else ""
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if pieces:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            pieces.append(body if c > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def format_terms(p: MultiPoly, names: Sequence[str]) -> str:
    """The text `MultiPoly.format` prints, built term by term from `terms()`."""
    pieces = []
    for exps, c in p.terms():
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if pieces:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            pieces.append(body if c > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def coefficient(p: MultiPoly, exps: Sequence[int]) -> int | Fraction:
    """The coefficient of p at the exponent vector `exps`, 0 when absent; ValueError on a wrong length."""
    if len(exps) != p.nvars:
        raise ValueError("exponent vector has wrong dimension")
    return dict(p.terms()).get(tuple(exps), 0)


def symbolic_params(n: int) -> SatakeParams:
    """The vector of n symbols."""
    return SatakeParams.parse(["sym"] * n)


# -- polynomials and truncated series ----------------------------------------------


def monomial(nvars: int, exps: Sequence[int], c: Fraction | int = 1) -> MultiPoly:
    """The monomial c x^exps in nvars variables."""
    return MultiPoly(nvars, {tuple(exps): c})


def power(p: MultiPoly, e: int) -> MultiPoly:
    """p^e by repeated squaring, each product through the guard of `MultiPoly.__mul__`.

    Every factor is a power p^k with k <= e, so no factor overflows unless
    p^e does.
    """
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a nonnegative int")
    out, square = MultiPoly.one(p.nvars), p
    while e:
        if e & 1:
            out = out * square
        e >>= 1
        if e:
            square = square * square
    return out


def substitute(p: MultiPoly, values: Sequence[MultiPoly], nvars: int | None = None) -> MultiPoly:
    """p at values[i] for variable i, summed term by term from `terms()`.

    The values share one variable count, the result's; pass `nvars` when
    `values` is empty.
    """
    if len(values) != p.nvars:
        raise ValueError("need one value per variable")
    if values:
        nvars = values[0].nvars
        if any(v.nvars != nvars for v in values):
            raise ValueError("substitution values live in different variable counts")
    elif nvars is None:
        raise ValueError("nvars required when substituting into a 0-variable polynomial")
    acc = MultiPoly.zero(nvars)
    for exps, c in p.terms():
        term = MultiPoly.constant(nvars, c)
        for v, e in zip(values, exps):
            term = term * power(v, e)
        acc = acc + term
    return acc


def series_pad(coeffs: Sequence[MultiPoly], nvars: int, order: int) -> tuple[MultiPoly, ...]:
    """A polynomial in t, truncated or zero-padded to t^order."""
    kept = tuple(coeffs[: order + 1])
    return kept + (MultiPoly.zero(nvars),) * (order + 1 - len(kept))


def series_product(a: Sequence[MultiPoly], b: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    """The Cauchy product of two series of one order, truncated there."""
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a) - 1} vs {len(b) - 1}")
    zero = MultiPoly.zero(a[0].nvars)
    return tuple(sum((a[i] * b[l - i] for i in range(l + 1)), zero) for l in range(len(a)))


def series_inverse(a: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    """1/a through the order of a, whose constant coefficient must be exactly 1."""
    if a[0] != 1:
        raise ValueError("series is not invertible: constant coefficient must be 1")
    zero = MultiPoly.zero(a[0].nvars)
    inv = [MultiPoly.one(a[0].nvars)]
    for l in range(1, len(a)):
        inv.append(-sum((a[i] * inv[l - i] for i in range(1, l + 1)), zero))
    return tuple(inv)


def embed_t1(s: Sequence[MultiPoly], l2: int) -> tuple[tuple[MultiPoly, ...], ...]:
    """A series in t as a (t1, t2)-grid constant in t2, over the window (order, l2)."""
    zero = MultiPoly.zero(s[0].nvars)
    return tuple((c,) + (zero,) * l2 for c in s)


def embed_t2(s: Sequence[MultiPoly], l1: int) -> tuple[tuple[MultiPoly, ...], ...]:
    """A series in t as a (t1, t2)-grid constant in t1, over the window (l1, order)."""
    zero = MultiPoly.zero(s[0].nvars)
    return (tuple(s),) + ((zero,) * len(s),) * l1


def series2_product(
    a: Sequence[Sequence[MultiPoly]], b: Sequence[Sequence[MultiPoly]]
) -> tuple[tuple[MultiPoly, ...], ...]:
    """The product of two (t1, t2)-grids of one window, truncated to it."""
    l1, l2 = len(a) - 1, len(a[0]) - 1
    if (len(b) - 1, len(b[0]) - 1) != (l1, l2):
        raise ValueError(f"order mismatch: {(l1, l2)} vs {(len(b) - 1, len(b[0]) - 1)}")
    zero = MultiPoly.zero(a[0][0].nvars)
    return tuple(
        tuple(
            sum((a[p][q] * b[i - p][j - q] for p in range(i + 1) for q in range(j + 1)), zero)
            for j in range(l2 + 1)
        )
        for i in range(l1 + 1)
    )


def delta_half_exponent(g: Sequence[int], n: int) -> int:
    """Exponent e with delta_B^(1/2)(diag(pi^g)) = q^(e/2): e = -sum (n-2i+1) g_i."""
    if len(g) != n:
        raise ValueError(f"vector of length {len(g)} does not fit GL_{n}")
    return -sum((n - 2 * (i + 1) + 1) * gi for i, gi in enumerate(g))


# -- L-factors ------------------------------------------------------------------


class LFactor:
    """An inverse-polynomial local factor 1/P(t), held via P.

    The reciprocal is a polynomial in t with MultiPoly coefficients and
    constant coefficient exactly 1; trailing zero coefficients are dropped.
    """

    __slots__ = ("nvars", "reciprocal")
    __hash__ = None

    def __init__(self, reciprocal: Sequence[MultiPoly], nvars: int | None = None):
        coeffs = list(reciprocal)
        if not coeffs:
            raise ValueError("reciprocal polynomial cannot be empty")
        nv = coeffs[0].nvars
        for c in coeffs:
            if c.nvars != nv:
                raise ValueError("reciprocal coefficients in different symbol spaces")
        if nvars is not None and nvars != nv:
            raise ValueError("nvars does not match coefficients")
        if coeffs[0] != 1:
            raise ValueError("reciprocal polynomial must have constant coefficient 1")
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs.pop()
        self.nvars = nv
        self.reciprocal = tuple(coeffs)

    @classmethod
    def one(cls, nvars: int) -> "LFactor":
        return cls([MultiPoly.one(nvars)])

    @classmethod
    def from_linear_roots(cls, roots: Sequence[MultiPoly], nvars: int) -> "LFactor":
        """prod_r (1 - r t) by repeated MultiPoly products; a zero root gives 1."""
        zero = MultiPoly.zero(nvars)
        coeffs = [MultiPoly.one(nvars)]
        for r in roots:
            coeffs = [a - r * b for a, b in zip(coeffs + [zero], [zero] + coeffs)]
        return cls(coeffs, nvars)

    @property
    def degree(self) -> int:
        return len(self.reciprocal) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LFactor):
            return self.nvars == other.nvars and self.reciprocal == other.reciprocal
        return NotImplemented

    def series(self, order: int) -> tuple[MultiPoly, ...]:
        """Truncated expansion of 1/P(t) to the given order, by series inversion."""
        return series_inverse(series_pad(self.reciprocal, self.nvars, order))


def standard_L(params: SatakeParams) -> LFactor:
    """Standard local factor: reciprocal prod_i (1 - a_i t), zeros skipped."""
    return LFactor.from_linear_roots(params.entries, params.nvars)


def formal_ext_sq_L(params: SatakeParams) -> LFactor:
    """Exterior-square factor: reciprocal prod_{i<j} (1 - a_i a_j t)."""
    return LFactor.from_linear_roots(ext_sq_roots(params), params.nvars)


def reciprocal_quotient(num: LFactor, den: LFactor) -> tuple[MultiPoly, ...] | None:
    """Quotient of reciprocals num/den when den divides num exactly, else None.

    Low-end exact division, the same over Q and over polynomial rings.  Write
    N = num.reciprocal of degree dn and D = den.reciprocal of degree dd, with
    D_0 = 1.  For k = 0..dn let r_k = N_k - sum_{i=1..min(k,dd)} D_i r_{k-i}.
    These are the coefficients of N/D mod t^(dn+1), so r_k for k <= dn - dd
    is the only candidate quotient Q of degree <= dn - dd.  If D divides N,
    then N/D = Q is a polynomial and r_k = 0 for dn - dd < k <= dn.
    Conversely, if those r_k vanish, then D*Q and N both have degree <= dn
    and agree mod t^(dn+1), so D*Q = N.  The check is therefore sound and
    complete, with no series inverse, verifying product or division.
    """
    if num.nvars != den.nvars:
        raise ValueError("factors in different symbol spaces")
    dn, dd = num.degree, den.degree
    if dd > dn:
        return None
    d = den.reciprocal
    r: list[MultiPoly] = []
    for k, acc in enumerate(num.reciprocal):
        for i in range(1, min(k, dd) + 1):
            if d[i] and r[k - i]:
                acc = acc - d[i] * r[k - i]
        if k > dn - dd and acc:
            return None
        r.append(acc)
    return tuple(r[: dn - dd + 1])


# -- Weil-Deligne representations -------------------------------------------------


def blocks(rep: WDRep) -> list[tuple[tuple[int, ...], int, Fraction | str]]:
    """The rep's (grade, length, scalar) triples, each rational scalar a Fraction."""
    scalars = [a if isinstance(a, str) else Fraction(*a) for a in rep.scalars]
    return list(zip(rep.grades, rep.lengths, scalars))


def _unramified(rep: WDRep, grade: Sequence[int]) -> bool:
    """Whether a grade, reduced or not, is the group's zero."""
    return all(x % m == 0 for x, m in zip(grade, rep.group.orders))


def alphas(rep: WDRep) -> tuple[MultiPoly, ...]:
    """One Frobenius scalar per block, as a polynomial in the rep's symbols."""
    nvars = len(rep.symbols)
    return tuple(
        MultiPoly.variable(nvars, rep.symbols.index(a)) if isinstance(a, str) else MultiPoly.constant(nvars, a)
        for _, _, a in blocks(rep)
    )


class EntryVector:
    """n entries in an nvars-symbol ring, read like `SatakeParams` but unchecked.

    A rep's kernel eigenvalues may miss a symbol of the rep (its block is
    ramified) or repeat one (two blocks share a scalar name), vectors that
    `SatakeParams` refuses; `ext_sq_roots`, `standard_L` and
    `formal_ext_sq_L` read only `n`, `nvars` and `entries`.
    """

    __slots__ = ("n", "nvars", "entries")

    def __init__(self, entries: Sequence[MultiPoly], nvars: int):
        self.entries = tuple(entries)
        self.n, self.nvars = len(self.entries), nvars


def standard_satake(rep: WDRep) -> EntryVector:
    """Frobenius eigenvalues on (ker N) meet grade 0, padded with zeros to dim."""
    entries: list[MultiPoly] = []
    for grade, length, alpha in zip(rep.grades, rep.lengths, alphas(rep)):
        if _unramified(rep, grade):
            # ker N on a block is its last rung, where Frobenius is a / q^(k-1)
            entries.append(alpha * Fraction(1, rep.q ** (length - 1)))
    nvars = len(rep.symbols)
    entries += [MultiPoly.zero(nvars)] * (sum(rep.lengths) - len(entries))
    return EntryVector(entries, nvars)


def _ladders(rep: WDRep) -> tuple[list[int | None], list[tuple[int, ...]], list[MultiPoly]]:
    """Per coordinate: where N sends it (None at a ladder's end), its grade,
    and its Frobenius eigenvalue a / q^l on rung l of a block with scalar a."""
    target: list[int | None] = []
    grades: list[tuple[int, ...]] = []
    phi: list[MultiPoly] = []
    for grade, length, alpha in zip(rep.grades, rep.lengths, alphas(rep)):
        start = len(target)
        target += [*range(start + 1, start + length), None]
        grades += [grade] * length
        phi += [alpha * Fraction(1, rep.q**l) for l in range(length)]
    return target, grades, phi


def _kernel_basis(
    mat: list[list[Fraction]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Kernel basis of an exact matrix via Gauss-Jordan elimination.

    Returns (vectors, free_columns); vector i has 1 at free_columns[i] and 0
    at every other free column, so coordinates in this basis can be read off
    directly.  Deterministic: columns are processed left to right.
    """
    rows = [list(r) for r in mat]
    pivots: list[tuple[int, int]] = []  # (row, col)
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append((rank, col))
        rank += 1
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in pivots:
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis, free_cols


def _restricted_kernel_lfactor(
    phi_diag: Sequence[MultiPoly],
    nmat: Sequence[Sequence[int]],
    indices: Sequence[int],
    nvars: int,
) -> LFactor:
    """det(1 - t Phi | ker N within the given coordinate subspace)^-1.

    Frobenius is diagonal here, so once the kernel basis is in reduced form
    each basis vector must be an eigenvector (its eigenvalue sits at the
    vector's free column); that is verified exactly, and the determinant is
    the product of the verified eigenvalues.
    """
    indices = list(indices)
    index_set = set(indices)
    for c in indices:
        for r in range(len(nmat)):
            if nmat[r][c] and r not in index_set:
                raise ArithmeticError("monodromy does not preserve the graded piece")
    sub = [[Fraction(nmat[r][c]) for c in indices] for r in indices]
    basis, free_cols = _kernel_basis(sub, len(indices))
    roots: list[MultiPoly] = []
    for v, fc in zip(basis, free_cols):
        lam = phi_diag[indices[fc]]
        for coord, entry in enumerate(v):
            if entry and phi_diag[indices[coord]] != lam:
                raise ArithmeticError("kernel basis vector is not Frobenius-stable")
        roots.append(lam)
    return LFactor.from_linear_roots(roots, nvars)


def wd_lfactor(rep: WDRep) -> LFactor:
    """Standard L-factor: Frobenius on (ker N) meet grade 0, by elimination.

    The oracle of `standard_satake`: it equals prod over grade-0 blocks of
    (1 - scalar q^(1-k) t)^-1.
    """
    target, grades, phi = _ladders(rep)
    dim = len(target)
    nmat = [[0] * dim for _ in range(dim)]
    for src, dst in enumerate(target):
        if dst is not None:
            nmat[dst][src] = 1
    idx0 = [i for i in range(dim) if _unramified(rep, grades[i])]
    return _restricted_kernel_lfactor(phi, nmat, idx0, len(rep.symbols))


@dataclass(frozen=True)
class ExtSquareData:
    """Exterior square of a rep in the wedge basis e_i ^ e_j (i < j)."""

    pairs: tuple[tuple[int, int], ...]
    phi_diag: tuple[MultiPoly, ...]
    nmatrix: tuple[tuple[int, ...], ...]
    grades: tuple[tuple[int, ...], ...]
    nvars: int


def ext_sq(rep: WDRep) -> ExtSquareData:
    """Induced data on the exterior square: Phi tensor Phi and N x 1 + 1 x N."""
    target, rep_grades, rep_phi = _ladders(rep)
    dim = len(target)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    index = {p: w for w, p in enumerate(pairs)}
    dim2 = len(pairs)
    nmat = [[0] * dim2 for _ in range(dim2)]
    for w, (i, j) in enumerate(pairs):
        for a, b in ((target[i], j), (i, target[j])):
            if a is None or b is None or a == b:
                continue
            if a < b:
                nmat[index[(a, b)]][w] += 1
            else:
                nmat[index[(b, a)]][w] -= 1
    phi = tuple(rep_phi[i] * rep_phi[j] for i, j in pairs)
    grades = tuple(
        rep.group.reduce([x + y for x, y in zip(rep_grades[i], rep_grades[j])]) for i, j in pairs
    )
    return ExtSquareData(
        tuple(pairs),
        phi,
        tuple(tuple(row) for row in nmat),
        grades,
        len(rep.symbols),
    )


def ext_sq_lfactor_by_elimination(rep: WDRep) -> LFactor:
    """Exterior-square L-factor by exact elimination on the wedge square.

    The oracle of `ext_sq_lfactor`: it builds the wedge basis and the
    induced monodromy matrix, and uses no Clebsch-Gordan formula.
    """
    data = ext_sq(rep)
    idx0 = [w for w in range(len(data.pairs)) if _unramified(rep, data.grades[w])]
    return _restricted_kernel_lfactor(data.phi_diag, data.nmatrix, idx0, data.nvars)


def key_roots(keys: Sequence[tuple[int, int]] | None, scale: int, nvars: int) -> list[MultiPoly] | None:
    """The roots c / scale x^m of keys (m, c), m packed two bits per symbol; None stays None."""
    if keys is None:
        return None
    return [
        monomial(nvars, [m >> 2 * s & 3 for s in range(nvars)], Fraction(c, scale))
        for m, c in keys
    ]


def ext_sq_lfactor(rep: WDRep) -> LFactor:
    """Exterior-square factor of the rep, multiplied out from its closed-form roots.

    The roots are those of `divisibility_check(rep).ext_sq_keys`, which the
    production walk `ext_sq_root_indices` yields; tests compare the product
    with `ext_sq_lfactor_by_elimination`.
    """
    v, nvars = divisibility_check(rep), len(rep.symbols)
    return LFactor.from_linear_roots(key_roots(v.ext_sq_keys, v.scale, nvars), nvars)


def root_multiset_differences(
    formal: Sequence[MultiPoly], full: Sequence[MultiPoly]
) -> tuple[Counter, Counter]:
    """(formal - full, full - formal) as multisets, each root keyed by its terms."""
    a = Counter(tuple(r.terms()) for r in formal)
    b = Counter(tuple(r.terms()) for r in full)
    return a - b, b - a


# -- the random drawers' stream ---------------------------------------------------
# The drawers as written on `randint`, `randrange` and `choice`; the package
# draws the same values with its own bounded draw on `getrandbits`.


def _randrange_group(rng, max_rank: int = 2, max_order: int = 6) -> FiniteAbelianGroup:
    rank = rng.randint(1, max_rank)
    return FiniteAbelianGroup(tuple(rng.randint(1, max_order) for _ in range(rank)))


_NUMERATORS = [x for x in range(-9, 10) if x]


def _randrange_scalar(rng) -> Fraction:
    num = rng.choice(_NUMERATORS)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def randrange_wdrep(
    rng,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    max_blocks: int = 4,
    max_length: int = 3,
) -> WDRep:
    group = _randrange_group(rng)
    q = rng.choice(list(q_choices))
    triples = []
    dim = 0
    nblocks = rng.randint(1, max_blocks)
    for _ in range(nblocks):
        room = max_dim - dim
        if room < 1:
            break
        k = rng.randint(1, min(max_length, room))
        grade = tuple(rng.randrange(m) for m in group.orders)
        triples.append((grade, k, _randrange_scalar(rng)))
        dim += k
    if not triples:
        triples.append((group.zero(), 1, _randrange_scalar(rng)))
    return WDRep(q, group, triples)


def _opposite_ramified(group: FiniteAbelianGroup, grades: Sequence[tuple[int, ...]]) -> bool:
    """Whether two of the reduced grades are nonzero and sum to zero."""
    count = Counter(g for g in grades if any(g))
    for g in count:
        neg = tuple(-x % m for x, m in zip(g, group.orders))
        if count[neg] > (neg == g):
            return True
    return False


def randrange_k1_rep(
    rng,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    require_hypothesis: bool = True,
) -> WDRep:
    group = _randrange_group(rng)
    q = rng.choice(list(q_choices))
    n = rng.randint(1, max_dim)
    for attempt in range(200):
        grades = [tuple(rng.randrange(m) for m in group.orders) for _ in range(n)]
        if not require_hypothesis or not _opposite_ramified(group, grades):
            break
    else:
        grades = [group.zero()] * (n - 1) + [tuple(rng.randrange(m) for m in group.orders)]
    triples = [(g, 1, _randrange_scalar(rng)) for g in grades]
    return WDRep(q, group, triples)


# -- machine output -----------------------------------------------------------


def machine_json(reports: Sequence[Report]) -> str:
    """The canonical document of `reports`, written by the standard library's encoder."""
    doc = {
        "format_version": FORMAT_VERSION,
        "reports": [
            {"task": r.task, "verdict": r.verdict, "summary": r.summary, "data": r.data}
            for r in reports
        ],
    }
    return json.dumps(doc, sort_keys=True, ensure_ascii=True, separators=(",", ": "), indent=1) + "\n"


# -- Satake reports ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _bialternant(shape: tuple[int, ...], n: int) -> MultiPoly:
    return schur_bialternant(shape, n)


def _oracle_entries(satake: Sequence[str]) -> EntryVector:
    """The entries a report's `satake` tokens name: the symbols in order, then rationals."""
    nsyms = list(satake).count("sym")
    symbols = iter(range(nsyms))
    return EntryVector(
        [
            MultiPoly.variable(nsyms, next(symbols))
            if tok == "sym"
            else MultiPoly.constant(nsyms, Fraction(tok))
            for tok in satake
        ],
        nsyms,
    )


def _schur_at(shape: Sequence[int], vec: EntryVector) -> MultiPoly:
    """s_shape at all n entries, zeros included: the bialternant, substituted."""
    if len(shape) > vec.n:
        return MultiPoly.zero(vec.nvars)
    return substitute(_bialternant(tuple(shape), vec.n), vec.entries, nvars=vec.nvars)


def _grid_text(grid: Sequence[Sequence[MultiPoly]]) -> list[list[str]]:
    return [[format_m(c) for c in row] for row in grid]


def _one_variable_fields(task: str, vec: EntryVector, order: int) -> dict:
    """verify-js and verify-littlewood: enumerate-then-double, the bialternant, the inverted factor."""
    n, k = vec.n, sum(1 for e in vec.entries if e)
    key = "torus_sum" if task == "verify-js" else "expansion"
    # torus sums pad their shapes to n; the expansion to k, the nonzero entries
    length = n if task == "verify-js" else k
    pairs = (length - 1) // 2 if task == "verify-js" else length // 2
    contributions = []
    sums = [MultiPoly.zero(vec.nvars)] * (order + 1)
    for power in range(order + 1):
        for f in partitions_bounded(power, pairs):
            shape = doubled_shape(f, pairs, length - 2 * pairs)
            value = _schur_at(check_partition(shape), vec)
            contributions.append({"power": power, "shape": list(shape), "coefficient": format_m(value)})
            sums[power] = sums[power] + value
    product = formal_ext_sq_L(vec).series(order)
    sum_text, product_text = [format_m(c) for c in sums], [format_m(c) for c in product]
    diff = next((l for l in range(order + 1) if sums[l] != product[l]), None)
    fields = {key: sum_text, "product": product_text}
    fields["first_difference"] = (
        None if diff is None else {"power": diff, key: sum_text[diff], "product": product_text[diff]}
    )
    fields["contributions"] = contributions
    return fields


def _littlewood_grid(vec: EntryVector, l1: int, l2: int) -> list[list[MultiPoly]]:
    """Every partition with at most n - 1 rows, filtered into the window by a and b."""
    grid = [[MultiPoly.zero(vec.nvars)] * (l2 + 1) for _ in range(l1 + 1)]
    for weight in range(l1 + 2 * l2 + 1):
        for lam in partitions_bounded(weight, vec.n - 1):
            a, b = alternating_sum(lam), even_index_sum(lam)
            if a <= l1 and b <= l2:
                grid[a][b] = grid[a][b] + _schur_at(lam, vec)
    return grid


def _bf_fields(task: str, vec: EntryVector, l1: int, l2: int) -> dict:
    """verify-bf and bf-odd-probe: the brute-force grid against the multiplied series."""
    m, odd = divmod(vec.n, 2)
    has_zero = any(not e for e in vec.entries)
    lhs = _littlewood_grid(vec, l1, l2)
    nvars = vec.nvars
    if task == "bf-odd-probe":
        recip_std = embed_t1(series_pad(standard_L(vec).reciprocal, nvars, l1), l2)
        recip_ext = embed_t2(series_pad(formal_ext_sq_L(vec).reciprocal, nvars, l2), l1)
        correction = series2_product(series2_product(lhs, recip_std), recip_ext)
        cells = [c for row in correction for c in row]
        one = cells[0] == 1 and not any(cells[1:])
        text = _grid_text(correction)
        return {"conductor_hypothesis": has_zero, "matches_product": one, "correction": text}
    fields: dict = {"parity": "odd" if odd else "even"}
    if odd:
        fields["positive_conductor"] = has_zero
    fields["torus_sum"] = _grid_text(lhs)
    if odd and not has_zero:
        return fields
    expected = series2_product(
        embed_t1(standard_L(vec).series(l1), l2), embed_t2(formal_ext_sq_L(vec).series(l2), l1)
    )
    if not odd:
        omega = MultiPoly.one(nvars)
        for e in vec.entries:
            omega = omega * e
        central = [[MultiPoly.zero(nvars)] * (l2 + 1) for _ in range(l1 + 1)]
        central[0][0] = MultiPoly.one(nvars)
        if m <= l2:
            central[0][m] = -omega
        expected = series2_product(central, expected)
        fields["central_product"] = format_m(omega)
    fields["expected"] = _grid_text(expected)
    cells = [(i, d - i) for d in range(l1 + l2 + 1) for i in range(l1 + 1) if 0 <= d - i <= l2]
    diff = next(((i, j) for i, j in cells if lhs[i][j] != expected[i][j]), None)
    fields["first_difference"] = (
        None
        if diff is None
        else {
            "t1_power": diff[0],
            "t2_power": diff[1],
            "torus_sum": fields["torus_sum"][diff[0]][diff[1]],
            "expected": fields["expected"][diff[0]][diff[1]],
        }
    )
    return fields


def satake_report_data(task: dict) -> dict:
    """The `data` of a Satake task's report, from its echo, by the oracles alone.

    Every series, grid, contribution and central product is built here in
    full, by enumerate-then-filter shapes, the bialternant at the entries,
    inverted and multiplied-out factors and series products, and printed
    by `format_m`; the root lists by `format_terms`.  A report holding a
    symbol names its basis.
    """
    kind, vec = task["task"], _oracle_entries(task["satake"])
    names = [f"α{i + 1}" for i in range(vec.nvars)]
    if kind == "lfactor":
        order = task["truncation"]
        data = {
            "standard_roots": sorted(format_terms(e, names) for e in vec.entries if e),
            "ext_sq_roots": sorted(format_terms(r, names) for r in ext_sq_roots(vec) if r),
            "standard_series": [format_m(c) for c in standard_L(vec).series(order)],
            "ext_sq_series": [format_m(c) for c in formal_ext_sq_L(vec).series(order)],
        }
    elif kind in ("verify-js", "verify-littlewood"):
        data = {}
        if kind == "verify-littlewood":
            data["k"] = sum(1 for e in vec.entries if e)
        else:
            data["parity"] = "odd" if vec.n % 2 else "even"
            data["positive_conductor"] = any(not e for e in vec.entries)
        data.update(_one_variable_fields(kind, vec, task["truncation"]))
    else:
        data = _bf_fields(kind, vec, *task["truncation"])
    if vec.nvars:
        data["basis"] = "monomial_symmetric"
    return data
