"""Graded block model of Weil-Deligne representations and their L-factors.

A representation is a direct sum of blocks.  Each block carries a grade in
a finite abelian group (recording which tamely ramified character inertia
acts by), a Steinberg length k >= 1, and a nonzero Frobenius scalar: on a
block, Frobenius is diag(a, a/q, ..., a/q^(k-1)) and the monodromy operator
N is the Jordan shift killing the last basis vector.  This forces the
commutation rule Phi N = q^(-1) N Phi.

L-factors restrict Frobenius to the monodromy kernel inside the grade-0
(inertia-invariant) part.  The exterior-square factor is read off the
blocks in closed form, by Clebsch-Gordan for sl2 on each summand of
wedge^2 of the direct sum (`ext_sq_root_indices`); no matrix is built.
The oracles live in `tests/oracles.py`: exact Gauss-Jordan elimination on
the wedge square and on the rep itself, the kernel eigenvalues of the
grade-0 blocks as a parameter vector, low-end division of reciprocals, and
the roots of `divisibility_check(rep).ext_sq_keys` as polynomials, whose
product tests compare with elimination and whose `format` with the report.

The reciprocals on both sides of the Galois checks are products
prod (1 - r t) over nonzero roots r in Q[x], x the symbols.  Each factor
has degree 1 in t and constant term 1, so it is irreducible in the UFD
Q[x][t] (Gauss's lemma), and two such factors are associates only when
they are equal.  Divisibility is therefore containment of root
multisets, the quotient is the product over the leftover roots, and
equality is equality of the multisets.

Every root on either side is a monomial c x^m with c a product of two
block scalars over a power q^e of q, e <= E = 2 max(k) - 2.  Times one
common scale L^2 q^E, L the lcm of the rational scalars' denominators,
every such c is an integer, and multiplying every root on both sides by
the same nonzero constant is a bijection that keeps containment and
equality of the multisets.  `divisibility_check` and `prop_H_equality`
therefore compare multisets of keys (m, integer).  An explicit report
prints each side's roots from their keys; nothing is decoded into a
polynomial.  By the same irreducibility the root multiset determines the
factor, and it has O(dim^2) entries, where the expanded reciprocal has
exponentially many terms in the number of symbols.  No reciprocal is built
for a verdict or a report; division and equality of reciprocals are the
tests' oracles of this route.
The scaling is by integer multiplication only: with int coefficients,
c / q**e would be a float, and a float key compares unequal to the
Fraction it approximates.

Frobenius scalars may be symbolic, but only when every block has k = 1,
so that q never mixes into a symbol; mixed symbolic/Steinberg input is
rejected.  q itself is an exact integer >= 2, never a symbol.

Random suites draw every bounded int with `_below`: getrandbits(k), k the
bit length of the bound, redrawn while it is out of range.  That is how
`randrange`, `randint` and `choice` draw today, so the stream is theirs,
but it now depends only on the documented `getrandbits`, not on the
internals of `randrange`.  A scalar n/d is read from an 18 x 9 table of
reduced Fractions, built on first use.  Each drawer checks its arguments
once, before its first draw (every bound >= 1, every q choice an exact int
>= 2), and builds its blocks valid: reduced grades, lengths >= 1 and
nonzero Fraction scalars.  So it makes its rep with `_drawn_rep`, which
skips `WDRep`'s checks; the public constructor, which explicit configs go
through, keeps every one of them.  `random_group` shares one group per
order tuple (an LRU cache of 64), and a group of at most 64 elements keeps
its negation table, so the cached groups hold at most 64 x 64 entries.  A
comparison counts the exterior-square keys once and strikes each formal
key from that count: a key it cannot strike is missing, and what is left
is the quotient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Iterable, Sequence


class FiniteAbelianGroup:
    """Product of cyclic groups Z/m1 x ... x Z/mr; elements are int tuples.

    A group of at most 64 elements keeps a table of their negatives, so
    `neg` of a reduced element is one lookup.
    """

    __slots__ = ("orders", "_negs")

    def __init__(self, orders: tuple[int, ...]):
        for m in orders:
            if not isinstance(m, int) or m < 1:
                raise ValueError("cyclic orders must be positive ints")
        self.orders = orders
        self._negs: dict[tuple[int, ...], tuple[int, ...]] = {}
        if prod(orders) <= 64:
            for a in product(*[range(m) for m in orders]):
                self._negs[a] = tuple([-x % m for x, m in zip(a, orders)])

    def _rank_error(self, a: Sequence[int]) -> ValueError:
        return ValueError(f"element {tuple(a)} does not fit group of rank {len(self.orders)}")

    def reduce(self, a: Sequence[int]) -> tuple[int, ...]:
        if len(a) != len(self.orders):
            raise self._rank_error(a)
        return tuple(x % m for x, m in zip(a, self.orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        """-a, reduced."""
        try:
            return self._negs[a]
        except (KeyError, TypeError):  # not a reduced element in the table, or a list
            pass
        if len(a) != len(self.orders):
            raise self._rank_error(a)
        return tuple(-x % m for x, m in zip(a, self.orders))


class WDBlock:
    """One indecomposable summand: grade, Steinberg length, Frobenius scalar.

    The scalar is a nonzero rational, or a string naming a formal symbol.
    Blocks compare and hash by their three fields.
    """

    __slots__ = ("grade", "length", "scalar")

    def __init__(self, grade: tuple[int, ...], length: int, scalar: int | Fraction | str):
        self.grade = grade
        self.length = length
        self.scalar = scalar

    def _fields(self) -> tuple:
        return self.grade, self.length, self.scalar

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WDBlock):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"WDBlock(grade={self.grade!r}, length={self.length!r}, scalar={self.scalar!r})"


class WDRep:
    """A graded block representation over residue size q (exact int >= 2)."""

    __slots__ = ("q", "group", "blocks", "symbols", "nvars", "dim")

    def __init__(self, q: int, group: FiniteAbelianGroup, blocks: Sequence[WDBlock]):
        if not isinstance(q, int) or q < 2:
            raise ValueError("q must be an exact integer >= 2")
        if not blocks:
            raise ValueError("representation needs at least one block")
        self.q = q
        self.group = group

        symbols: list[str] = []
        any_steinberg = any(b.length >= 2 for b in blocks)
        normalized: list[WDBlock] = []
        for b in blocks:
            length, scalar = b.length, b.scalar
            if not isinstance(length, int) or length < 1:
                raise ValueError("Steinberg length must be an int >= 1")
            grade = group.reduce(b.grade)
            if isinstance(scalar, str):
                if any_steinberg:
                    raise ValueError(
                        "symbolic Frobenius scalars are only supported when every "
                        "block has length 1 (mixed symbolic/Steinberg input)"
                    )
                if scalar not in symbols:
                    symbols.append(scalar)
            else:
                if type(scalar) is not Fraction:
                    scalar = Fraction(scalar)
                if scalar == 0:
                    raise ValueError("Frobenius scalar must be nonzero")
            normalized.append(WDBlock(grade, length, scalar))
        self.blocks = tuple(normalized)
        self.symbols = tuple(symbols)
        self.nvars = len(symbols)
        self.dim = sum(b.length for b in self.blocks)

    def __repr__(self) -> str:
        return f"WDRep(q={self.q}, dim={self.dim}, blocks={len(self.blocks)})"


def _drawn_rep(q: int, group: FiniteAbelianGroup, blocks: list[WDBlock]) -> WDRep:
    """A rep of blocks a drawer built valid (module docstring), without `WDRep`'s checks."""
    rep = WDRep.__new__(WDRep)
    rep.q, rep.group, rep.blocks, rep.symbols, rep.nvars = q, group, tuple(blocks), (), 0
    rep.dim = sum([b.length for b in blocks])
    return rep


def ext_sq_root_indices(rep: WDRep) -> list[tuple[int, int, int]]:
    """Roots of the exterior-square factor prod (1 - r t)^-1, read off the blocks.

    Each root is a_i a_j q^-e for the scalars a_i, a_j of blocks i <= j and
    is listed as the triple (i, j, e).  wedge^2 of a direct sum is the sum
    of wedge^2(b) over blocks b and of b (x) b' over pairs of blocks, in
    grades 2g and g + g'; only summands of grade zero count.  Clebsch-Gordan
    for sl2 splits Sp(k1) (x) Sp(k2) into Jordan chains of lengths
    k1 + k2 - 1 - 2t for t < min(k1, k2); the chain of index t has its
    kernel vector of N at Frobenius eigenvalue a b q^(t - (k1 + k2 - 2)).
    wedge^2 Sp(k) keeps the odd-indexed chains t = 2j + 1 of Sp(k) (x) Sp(k)
    (the even ones make up Sym^2), which gives a^2 q^(2j - (2k - 3)) for
    j < floor(k / 2).  Every e lies in 0..2 max(k) - 2, and every root is a
    product of nonzero scalars, so none is zero.
    """
    group, blocks = rep.group, rep.blocks
    roots: list[tuple[int, int, int]] = []
    for i, bi in enumerate(blocks):
        k1, neg = bi.length, group.neg(bi.grade)
        if k1 >= 2 and bi.grade == neg:
            roots += [(i, i, 2 * k1 - 3 - 2 * j) for j in range(k1 // 2)]
        for j in range(i + 1, len(blocks)):
            bj = blocks[j]
            if bj.grade == neg:
                k2 = bj.length
                roots += [(i, j, k1 + k2 - 2 - t) for t in range(min(k1, k2))]
    return roots


class _RootComparison:
    """The formal and the exterior-square roots of one rep, as multisets of keys.

    A root a_i a_j q^-e times `scale` = L^2 q^E is c x^m with c an integer
    (see the module docstring); its key is (m, c), the exponent vector m
    packed two bits per symbol.  The formal roots pair up the grade-0
    blocks' kernel eigenvalues a / q^(k-1) (`formal_keys`); the others come
    from `ext_sq_root_indices` (`ext_sq_keys`).  An explicit report prints
    the roots c / scale x^m with `root_strings`, and random suites print
    none.  No reciprocal is built for a verdict or a report.  `_missing`
    lists the formal keys the exterior-square side lacks, and `_leftover`
    counts its keys the formal side leaves over.
    """

    def __init__(self, rep: WDRep):
        blocks, q = rep.blocks, rep.q
        top = 2 * max([b.length for b in blocks]) - 2
        scalars = [b.scalar for b in blocks]
        # per block: its symbol as a 2-bit field (x^2 is the highest power a
        # root reaches), and its coefficient times L; `WDRep` stores every
        # rational scalar as a Fraction
        bits = {s: 1 << 2 * i for i, s in enumerate(rep.symbols)}
        sym = [0 if type(a) is Fraction else bits[a] for a in scalars]
        ratios = [a.as_integer_ratio() if type(a) is Fraction else (1, 1) for a in scalars]
        den = lcm(*[d for _, d in ratios])
        num = [n * (den // d) for n, d in ratios]
        lift = [q ** (top - e) for e in range(top + 1)]  # q^-e scaled by q^E
        zero = rep.group.zero()  # grades are reduced
        unramified = [i for i, b in enumerate(blocks) if b.grade == zero]
        self.formal_keys = [
            (sym[i] + sym[j], num[i] * num[j] * lift[blocks[i].length + blocks[j].length - 2])
            for i, j in combinations(unramified, 2)
        ]
        self.ext_sq_keys = [
            (sym[i] + sym[j], num[i] * num[j] * lift[e]) for i, j, e in ext_sq_root_indices(rep)
        ]
        # one pass: strike each formal key from the count of the others
        self._missing: list[tuple[int, int]] = []  # formal roots the other side lacks
        self._leftover = leftover = Counter(self.ext_sq_keys)
        for key in self.formal_keys:
            n = leftover.get(key, 0)
            if n > 1:
                leftover[key] = n - 1
            elif n > 0:
                del leftover[key]
            else:
                self._missing.append(key)
        self.scale = den * den * lift[0]

    @property
    def quotient_keys(self) -> list[tuple[int, int]] | None:
        """The exterior-square keys the formal ones leave over, or None if they do not fit."""
        return None if self._missing else list(self._leftover.elements())

    def root_strings(self, keys: Iterable[tuple[int, int]], names: Sequence[str]) -> list[str]:
        """The roots c / scale x^m of these keys as sorted strings, in the bytes of `MultiPoly.format`.

        Each is a sign, n/d or n in lowest terms (1 left out before a
        symbol), then names[s]^e over the 2-bit fields e of m: 3/4*α1^2*α2.
        """
        scale, out = self.scale, []
        for m, c in keys:
            g = gcd(c, scale)
            n, d = c // g, scale // g
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            fields = [(name, m >> 2 * s & 3) for s, name in enumerate(names)]
            mono = "*".join([name if e == 1 else f"{name}^{e}" for name, e in fields if e])
            body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
            out.append(f"-{body}" if n < 0 else body)
        return sorted(out)


class DivisibilityVerdict(_RootComparison):
    """Whether the pair-product factor divides the exterior-square factor.

    `divides` and `strict` are read off the root multisets.  The quotient
    factor is the product over the roots of `quotient_keys`; a report
    prints those roots, and no reciprocal is built.
    """

    @property
    def divides(self) -> bool:
        return not self._missing

    @property
    def strict(self) -> bool:
        return not self._missing and bool(self._leftover)


def divisibility_check(rep: WDRep) -> DivisibilityVerdict:
    """Does the pair-product factor divide the exterior-square factor?

    Both are reciprocals of products prod (1 - r t) with nonzero roots r.
    Each such factor has degree 1 in t and constant term 1, so it is
    irreducible in the UFD Q[x][t] (Gauss's lemma), and two of them are
    associates only when they are equal.  So one product divides the other
    exactly when its multiset of roots is contained in the other's; the
    quotient is the product over the roots left over, and a nonempty
    leftover means strict divisibility.

    Every root on both sides is multiplied by one common scale L^2 q^E, a
    bijection that keeps containment, and compared as an exact integer key.
    The scaling never divides: int / int is a float, and a float key would
    compare unequal to the Fraction it approximates.
    """
    return DivisibilityVerdict(rep)


def _first_opposite_pair(
    group: FiniteAbelianGroup, reduced: Sequence[tuple[int, ...]]
) -> tuple[int, int] | None:
    """First pair (i, j) of ramified grades with g_i + g_j = 0, or None.

    The grades must be reduced; `WDRep` reduces every block's grade.
    """
    zero = group.zero()
    for i, g in enumerate(reduced):
        if g != zero:
            # -g is ramified too, so a match is a pair of ramified grades
            neg = group.neg(g)
            if neg in reduced[i + 1 :]:
                return i, reduced.index(neg, i + 1)
    return None


class PropHResult(_RootComparison):
    """Whether the two exterior-square factors agree: equal root multisets."""

    @property
    def equal(self) -> bool:
        return not self._missing and not self._leftover


def prop_H_equality(rep: WDRep) -> PropHResult:
    """For k=1-only reps satisfying the pairing hypothesis, the two exterior
    square factors must agree exactly; violations are precondition errors."""
    if any(b.length != 1 for b in rep.blocks):
        raise ValueError("equality statement applies to length-1 blocks only")
    grades = [b.grade for b in rep.blocks]
    bad = _first_opposite_pair(rep.group, grades)
    if bad is not None:
        i, j = bad
        raise ValueError(
            f"pairing hypothesis violated: ramified grades {grades[i]} (block {i}) "
            f"and {grades[j]} (block {j}) sum to zero"
        )
    return PropHResult(rep)


# -- randomized inputs for verification suites ------------------------------


def _below(getrandbits, n: int) -> int:
    """A uniform int in range(n), n >= 1: redraw getrandbits(n.bit_length()) while it is >= n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# the groups `random_group` draws, shared, each with its negation table
_group = lru_cache(maxsize=64)(FiniteAbelianGroup)


def random_group(rng, max_rank: int = 2, max_order: int = 6) -> FiniteAbelianGroup:
    if max_rank < 1 or max_order < 1:
        raise ValueError("max_rank and max_order must be >= 1")
    getrandbits = rng.getrandbits
    rank = 1 + _below(getrandbits, max_rank)
    return _group(tuple([1 + _below(getrandbits, max_order) for _ in range(rank)]))


@cache
def _scalar_table() -> tuple[tuple[Fraction, ...], ...]:
    """n/d for the nonzero n in [-9, 9] and d in 1..9, in lowest terms."""
    return tuple(tuple(Fraction(n, d) for d in range(1, 10)) for n in range(-9, 10) if n)


def _random_scalar(getrandbits) -> Fraction:
    return _scalar_table()[_below(getrandbits, 18)][_below(getrandbits, 9)]


def _check_q_choices(q_choices: Sequence[int]) -> None:
    if not q_choices or not all([isinstance(q, int) and q >= 2 for q in q_choices]):
        raise ValueError("q_choices must be a nonempty sequence of exact ints >= 2")


def random_wdrep(
    rng,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    max_blocks: int = 4,
    max_length: int = 3,
) -> WDRep:
    """A random block rep with rational scalars, for divisibility suites."""
    if max_dim < 1 or max_blocks < 1 or max_length < 1:
        raise ValueError("max_dim, max_blocks and max_length must be >= 1")
    _check_q_choices(q_choices)
    getrandbits = rng.getrandbits
    group = random_group(rng)
    q = q_choices[_below(getrandbits, len(q_choices))]
    blocks: list[WDBlock] = []
    dim = 0
    for _ in range(1 + _below(getrandbits, max_blocks)):
        room = max_dim - dim
        if room < 1:
            break
        k = 1 + _below(getrandbits, min(max_length, room))
        grade = tuple([_below(getrandbits, m) for m in group.orders])
        blocks.append(WDBlock(grade, k, _random_scalar(getrandbits)))
        dim += k
    return _drawn_rep(q, group, blocks)


def random_k1_rep(
    rng,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    require_hypothesis: bool = True,
) -> WDRep:
    """A random rep with every block of length 1 (Frobenius-semisimple).

    With `require_hypothesis`, grades are resampled until no two ramified
    grades sum to zero (guaranteed to terminate: after bounded attempts all
    but one grade collapse to zero).
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    _check_q_choices(q_choices)
    getrandbits = rng.getrandbits
    group = random_group(rng)
    orders = group.orders
    q = q_choices[_below(getrandbits, len(q_choices))]
    n = 1 + _below(getrandbits, max_dim)
    for attempt in range(200):
        grades = [tuple([_below(getrandbits, m) for m in orders]) for _ in range(n)]
        # drawn grades are already reduced
        if not require_hypothesis or _first_opposite_pair(group, grades) is None:
            break
    else:
        grades = [group.zero()] * (n - 1) + [tuple([_below(getrandbits, m) for m in orders])]
    blocks = [WDBlock(g, 1, _random_scalar(getrandbits)) for g in grades]
    return _drawn_rep(q, group, blocks)
