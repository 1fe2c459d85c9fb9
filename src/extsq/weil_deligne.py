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

A `WDRep` holds its blocks as flat tuples: reduced grades, lengths, and
scalars n/d as integer pairs (n, d) in lowest terms or symbol names.
`WDRep(q, group, blocks)` checks and splits (grade, length, scalar)
triples in one pass.  A float or a bool is refused wherever an exact int
or rational is meant: as a scalar, a length, a grade entry (`reduce`) or
a group order (`FiniteAbelianGroup`).
Random suites draw reps with scalars from an 18 x 9 table of such pairs,
built on first use.  Every bounded int is drawn by a loop inlined at its
bound n: getrandbits(k), k the bit length of n, redrawn while it is >= n.
That is how `randrange`, `randint` and `choice` draw today, so the stream
is theirs, but it depends only on the documented `getrandbits`, not on
the internals of `randrange`.  Each drawer checks its arguments once,
before its first draw (every bound >= 1, every q choice an exact int
>= 2), and draws its fields valid: reduced grades, lengths >= 1, nonzero
scalars and no symbols; so it builds each rep with `WDRep._valid`, which
skips the checks, and a suite builds no block and no Fraction.  The
public constructor, which explicit configs go through, keeps every check.
`random_group` shares one group per order tuple (an LRU cache of 64), and
a group of at most 64 elements keeps its negation table, so the cached
groups hold at most 64 x 64 entries.  A comparison counts the
exterior-square keys once and strikes each formal key from that count: a
key it cannot strike is missing, and what is left is the quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence


class FiniteAbelianGroup:
    """Product of cyclic groups Z/m1 x ... x Z/mr; elements are int tuples.

    A group of at most 64 elements keeps a table of their negatives, so
    `neg` of a reduced element is one lookup.
    """

    __slots__ = ("orders", "_negs")

    def __init__(self, orders: tuple[int, ...]):
        for m in orders:
            if type(m) is not int or m < 1:
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
        if not all([type(x) is int for x in a]):
            raise ValueError(f"element {tuple(a)} must have int entries")
        return tuple([x % m for x, m in zip(a, self.orders)])

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


class WDRep:
    """A graded block representation over residue size q (exact int >= 2).

    Per block, in order: `grades` (reduced), `lengths` (ints >= 1) and
    `scalars`, each a rational n/d as the pair (n, d) in lowest terms or a
    symbol name; `symbols` lists each name once, in order of first use.
    """

    __slots__ = ("q", "group", "grades", "lengths", "scalars", "symbols")

    def __init__(self, q: int, group: FiniteAbelianGroup, blocks: Iterable[tuple]):
        """Check and split (grade, length, scalar) triples, each scalar an int, a Fraction or a name."""
        if not isinstance(q, int) or q < 2:
            raise ValueError("q must be an exact integer >= 2")
        grades, lengths, scalars, symbols = [], [], [], []
        for grade, length, scalar in blocks:
            if type(length) is not int or length < 1:
                raise ValueError("Steinberg length must be an int >= 1")
            grades.append(group.reduce(grade))
            lengths.append(length)
            if isinstance(scalar, str):
                if scalar not in symbols:
                    symbols.append(scalar)
            elif type(scalar) is int or type(scalar) is Fraction:
                if scalar == 0:
                    raise ValueError("Frobenius scalar must be nonzero")
                scalar = scalar.as_integer_ratio()
            else:
                raise ValueError(f"Frobenius scalar {scalar!r} is neither an exact rational nor a name")
            scalars.append(scalar)
        if not lengths:
            raise ValueError("representation needs at least one block")
        if symbols and max(lengths) >= 2:
            raise ValueError(
                "symbolic Frobenius scalars are only supported when every "
                "block has length 1 (mixed symbolic/Steinberg input)"
            )
        self.q, self.group, self.grades, self.lengths = q, group, tuple(grades), tuple(lengths)
        self.scalars, self.symbols = tuple(scalars), tuple(symbols)

    @classmethod
    def _valid(cls, q: int, group: FiniteAbelianGroup, grades: tuple, lengths: tuple, scalars: tuple):
        """The rep of fields a drawer drew valid and without symbols (module docstring), unchecked."""
        rep = cls.__new__(cls)
        rep.q, rep.group, rep.grades, rep.lengths, rep.scalars = q, group, grades, lengths, scalars
        rep.symbols = ()
        return rep

    def __repr__(self) -> str:
        return f"WDRep(q={self.q}, dim={sum(self.lengths)}, blocks={len(self.lengths)})"


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
    group, grades, lengths = rep.group, rep.grades, rep.lengths
    roots: list[tuple[int, int, int]] = []
    for i, g in enumerate(grades):
        k1, neg = lengths[i], group.neg(g)
        if k1 >= 2 and g == neg:
            roots += [(i, i, 2 * k1 - 3 - 2 * j) for j in range(k1 // 2)]
        for j in range(i + 1, len(grades)):
            if grades[j] == neg:
                k2 = lengths[j]
                roots += [(i, j, k1 + k2 - 2 - t) for t in range(min(k1, k2))]
    return roots


class _RootComparison:
    """The formal and the exterior-square roots of one rep, as multisets of keys.

    It reads the rep's flat per-block fields, drawn or explicit, and passes
    the rep to `ext_sq_root_indices`, looked up when called.  A root
    a_i a_j q^-e times `scale` = L^2 q^E is c x^m with c an integer (see the
    module docstring); its key is (m, c), the exponent vector m packed two
    bits per symbol.  The formal roots pair up the grade-0
    blocks' kernel eigenvalues a / q^(k-1) (`formal_keys`); the others come
    from `ext_sq_root_indices` (`ext_sq_keys`).  An explicit report prints
    the roots c / scale x^m with `root_strings`, and random suites print
    none.  No reciprocal is built for a verdict or a report.  `_missing`
    lists the formal keys the exterior-square side lacks, and `_leftover`
    counts its keys the formal side leaves over.
    """

    def __init__(self, rep: WDRep):
        q, grades, lengths, scalars = rep.q, rep.grades, rep.lengths, rep.scalars
        top = 2 * max(lengths) - 2
        # per block: its symbol as a 2-bit field (x^2 is the highest power a
        # root reaches), and its coefficient times L
        bits = {s: 1 << 2 * i for i, s in enumerate(rep.symbols)}
        if bits:
            sym = [bits.get(a, 0) for a in scalars]
            scalars = [(1, 1) if a in bits else a for a in scalars]
        else:  # every drawn rep, and every explicit one without symbols
            sym = [0] * len(scalars)
        den = lcm(*[d for _, d in scalars])
        num = [n * (den // d) for n, d in scalars]
        lift = [q ** (top - e) for e in range(top + 1)]  # q^-e scaled by q^E
        zero = rep.group.zero()  # grades are reduced
        unramified = [i for i, g in enumerate(grades) if g == zero]
        self.formal_keys = [
            (sym[i] + sym[j], num[i] * num[j] * lift[lengths[i] + lengths[j] - 2])
            for i, j in combinations(unramified, 2)
        ]
        self.ext_sq_keys = [
            (sym[i] + sym[j], num[i] * num[j] * lift[e]) for i, j, e in ext_sq_root_indices(rep)
        ]
        # one pass: strike each formal key from the count of the others
        self._missing: list[tuple[int, int]] = []  # formal roots the other side lacks
        self._leftover = leftover = {}  # the count of the exterior-square keys
        for key in self.ext_sq_keys:
            leftover[key] = leftover.get(key, 0) + 1
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
        return None if self._missing else [key for key, n in self._leftover.items() for _ in range(n)]

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

    The grades must be reduced; `WDRep` reduces every block's grade, and a
    drawer draws them reduced.
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
    if max(rep.lengths) != 1:
        raise ValueError("equality statement applies to length-1 blocks only")
    grades = rep.grades
    bad = _first_opposite_pair(rep.group, grades)
    if bad is not None:
        i, j = bad
        raise ValueError(
            f"pairing hypothesis violated: ramified grades {grades[i]} (block {i}) "
            f"and {grades[j]} (block {j}) sum to zero"
        )
    return PropHResult(rep)


# -- randomized inputs for verification suites ------------------------------
# Each bounded draw below is getrandbits(k), k the bit length of the bound n,
# redrawn while it is >= n: the stream of randrange(n) (module docstring).

# the groups `random_group` draws, shared, each with its negation table
_group = lru_cache(maxsize=64)(FiniteAbelianGroup)


def random_group(rng, max_rank: int = 2, max_order: int = 6) -> FiniteAbelianGroup:
    if max_rank < 1 or max_order < 1:
        raise ValueError("max_rank and max_order must be >= 1")
    getrandbits = rng.getrandbits
    k = max_rank.bit_length()
    rank = getrandbits(k)
    while rank >= max_rank:
        rank = getrandbits(k)
    k = max_order.bit_length()
    orders = []
    for _ in range(1 + rank):
        m = getrandbits(k)
        while m >= max_order:
            m = getrandbits(k)
        orders.append(1 + m)
    return _group(tuple(orders))


@cache
def _scalar_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """n/d for the nonzero n in [-9, 9] and d in 1..9, as pairs (n, d) in lowest terms."""
    return tuple(tuple((n // gcd(n, d), d // gcd(n, d)) for d in range(1, 10)) for n in range(-9, 10) if n)


def _check_q_choices(q_choices: Sequence[int]) -> None:
    if not q_choices or not all([isinstance(q, int) and q >= 2 for q in q_choices]):
        raise ValueError("q_choices must be a nonempty sequence of exact ints >= 2")


def _wdrep_draws(
    rng,
    count: int,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    max_blocks: int = 4,
    max_length: int = 3,
) -> Iterator[WDRep]:
    """`count` random block reps with rational scalars, for divisibility suites."""
    if max_dim < 1 or max_blocks < 1 or max_length < 1:
        raise ValueError("max_dim, max_blocks and max_length must be >= 1")
    _check_q_choices(q_choices)
    getrandbits, table = rng.getrandbits, _scalar_table()
    nq = len(q_choices)
    kq, kb = nq.bit_length(), max_blocks.bit_length()
    for _ in range(count):
        group = random_group(rng)
        r = getrandbits(kq)
        while r >= nq:
            r = getrandbits(kq)
        q = q_choices[r]
        nb = getrandbits(kb)
        while nb >= max_blocks:
            nb = getrandbits(kb)
        grades, lengths, scalars = [], [], []
        dim = 0
        for _ in range(1 + nb):
            room = max_dim - dim
            if room < 1:
                break
            bound = min(max_length, room)
            kl = bound.bit_length()
            k = getrandbits(kl)
            while k >= bound:
                k = getrandbits(kl)
            grade = []
            for m in group.orders:
                km = m.bit_length()
                g = getrandbits(km)
                while g >= m:
                    g = getrandbits(km)
                grade.append(g)
            a = getrandbits(5)
            while a >= 18:
                a = getrandbits(5)
            b = getrandbits(4)
            while b >= 9:
                b = getrandbits(4)
            grades.append(tuple(grade))
            lengths.append(1 + k)
            scalars.append(table[a][b])
            dim += 1 + k
        yield WDRep._valid(q, group, tuple(grades), tuple(lengths), tuple(scalars))


def _k1_draws(
    rng,
    count: int,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    require_hypothesis: bool = True,
) -> Iterator[WDRep]:
    """`count` random reps with every block of length 1; see `random_k1_rep`."""
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    _check_q_choices(q_choices)
    getrandbits, table = rng.getrandbits, _scalar_table()
    nq = len(q_choices)
    kq, kn = nq.bit_length(), max_dim.bit_length()
    for _ in range(count):
        group = random_group(rng)
        r = getrandbits(kq)
        while r >= nq:
            r = getrandbits(kq)
        q = q_choices[r]
        n = getrandbits(kn)
        while n >= max_dim:
            n = getrandbits(kn)
        n += 1
        orders = [(m, m.bit_length()) for m in group.orders]
        # up to 200 draws of n grades; past them, one grade and n - 1 zeros
        for attempt in range(201):
            grades = []
            for _ in range(1 if attempt == 200 else n):
                grade = []
                for m, km in orders:
                    g = getrandbits(km)
                    while g >= m:
                        g = getrandbits(km)
                    grade.append(g)
                grades.append(tuple(grade))
            if attempt == 200:
                grades = [group.zero()] * (n - 1) + grades
            # drawn grades are already reduced
            elif require_hypothesis and _first_opposite_pair(group, grades) is not None:
                continue
            break
        scalars = []
        for _ in range(n):
            a = getrandbits(5)
            while a >= 18:
                a = getrandbits(5)
            b = getrandbits(4)
            while b >= 9:
                b = getrandbits(4)
            scalars.append(table[a][b])
        yield WDRep._valid(q, group, tuple(grades), (1,) * n, tuple(scalars))


def random_wdrep(
    rng,
    q_choices: Sequence[int] = (2, 3, 5),
    max_dim: int = 6,
    max_blocks: int = 4,
    max_length: int = 3,
) -> WDRep:
    """A random block rep with rational scalars, for divisibility suites."""
    return next(_wdrep_draws(rng, 1, q_choices, max_dim, max_blocks, max_length))


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
    return next(_k1_draws(rng, 1, q_choices, max_dim, require_hypothesis))
