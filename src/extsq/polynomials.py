"""Exact sparse multivariate polynomial arithmetic.

Coefficients are Python ints, promoted to fractions.Fraction only when a
value is non-integral; there is no floating point anywhere in this package.
Polynomials are immutable: every operation returns a new object, so values
can be shared freely (including across concurrent workers).

Exponent vectors are packed into a single int, 16 bits per variable, which
makes a monomial product one integer addition.  The top bit of each field is
a guard: exponents are capped at 32767, and a product whose result would
need a larger exponent raises ValueError instead of carrying into the
neighbouring variable.  Exponents given to constructors, and those
`append_variable` attaches, are capped lower, at 4095.  Both caps are orders
of magnitude above anything the torus sums or determinants in this package
produce.

Term order for display and reporting is graded lexicographic: lower total
degree first, then lexicographically by exponent vector with earlier
variables dominating.  Internal dicts are unordered; `terms()` and `format`
both take their order from `_graded_lex_keys`, which sorts the packed keys
themselves.  x1 holds the most significant field, so within one degree a
larger key comes first.  Since 2^16 is 1 modulo 0xFFFF, key % 0xFFFF is the
sum of the fields, the total degree, as long as that sum is below 0xFFFF.
The guard admits degrees up to nvars * 32767, which from three variables on
can reach it (x1^21845*x2^21845*x3^21845 would read as degree 0), so the
helper first bounds every degree by the field sum of the OR of all keys and
sums unpacked fields instead when that bound reaches 0xFFFF.  `format`
builds each monomial string afresh (`_monomial`); production prints only
Satake root lists with it, one term per root.

A symmetric polynomial sum_nu c_nu m_nu, m_nu the monomial symmetric
polynomial (Macdonald, *Symmetric Functions*, I.2), is held by its dominant
terms c_nu x^nu, those with weakly decreasing exponents x1 >= x2 >= ...:
every other term is a rearrangement of one of them with the same
coefficient.  Sums, integer multiples, equality and multiplication by the
product x1*...*xn (which adds 1 to every field) of such polynomials are
those of the symmetric polynomials they stand for; other products are not.
`dominant` projects a full symmetric polynomial onto this form, and the
tests' oracle `expand_m_basis` expands it back; `append_variable` builds
the Schur polynomials in it (`symmetric.schur`), `weighted_sum` sums int
multiples of such polynomials in one dict, and `format_symmetric` prints
it in the m basis, each m(2,1,1) string memoised per key by the
`lru_cache` `_m_text` (4096 strings).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

Scalar = int | Fraction

_EXP_BITS = 16
_EXP_MASK = (1 << _EXP_BITS) - 1
_EXP_MAX = (1 << (_EXP_BITS - 1)) - 1
_OVERFLOW = f"exponent exceeds {_EXP_MAX}"
# Exponents given to constructors are checked against a lower cap still.
_EXP_INPUT_CAP = 1 << 12


def _norm_scalar(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int so hot loops stay on int arithmetic."""
    # exact type tests first: isinstance(c, Fraction) on an int goes through
    # the numbers ABCs, and this runs once per coefficient built
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for e in exps:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponents must be nonnegative ints, got {e!r}")
        if e >= _EXP_INPUT_CAP:
            raise ValueError(f"exponent {e} exceeds supported range")
        key = (key << _EXP_BITS) | e
    return key


def _guard_mask(nvars: int) -> int:
    """The top bit of each of the nvars exponent fields."""
    return ((1 << (_EXP_BITS * nvars)) - 1) // _EXP_MASK << (_EXP_BITS - 1)


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = key & _EXP_MASK
        key >>= _EXP_BITS
    return tuple(out)


def _monomial(names: Sequence[str], key: int) -> str:
    """The product of names[i]^e_i over the fields of `key`; "" for 1."""
    factors = []
    shift = _EXP_BITS * len(names)
    for name in names:
        shift -= _EXP_BITS
        e = key >> shift & _EXP_MASK
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


@lru_cache(maxsize=4096)
def _m_text(key: int) -> str:
    """The text m(2,1,1) of a nonzero dominant key, whose zero fields are its lowest."""
    parts = []
    rest = key
    while rest:
        if rest & _EXP_MASK:
            parts.append(str(rest & _EXP_MASK))
        rest >>= _EXP_BITS
    return f"m({','.join(reversed(parts))})"


def _graded_lex_keys(terms: Mapping[int, Scalar], nvars: int) -> list[int]:
    """The packed keys of `terms` in graded lexicographic order.

    Keys sort descending, then stably by degree.  The degree is key % 0xFFFF
    when the OR of all keys, whose fields bound every key's fields, has a
    field sum below 0xFFFF; otherwise it is summed from the unpacked fields.
    """
    keys = sorted(terms, reverse=True)
    if sum(_unpack(reduce(or_, keys, 0), nvars)) < _EXP_MASK:
        keys.sort(key=_EXP_MASK.__rmod__)
    else:
        keys.sort(key=lambda k: sum(_unpack(k, nvars)))
    return keys


class MultiPoly:
    """A sparse polynomial in a fixed number of variables with exact coefficients.

    Operations between polynomials require equal `nvars`; a mismatch raises
    ValueError.  Zero coefficients are never stored.
    """

    __slots__ = ("nvars", "_terms")
    __hash__ = None  # mutable dict inside; identity-keyed caching only

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        packed: dict[int, Scalar] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {tuple(exps)} has wrong dimension for {nvars} variables"
                    )
                c = _norm_scalar(c)
                if c:
                    key = _pack(exps)
                    val = packed.get(key, 0) + c
                    if val:
                        packed[key] = _norm_scalar(val)
                    else:
                        packed.pop(key, None)
        self._terms = packed

    @classmethod
    def _raw(cls, nvars: int, packed: dict[int, Scalar]) -> "MultiPoly":
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = packed
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls._raw(nvars, {0: 1})

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "MultiPoly":
        c = _norm_scalar(c)
        return cls._raw(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        return cls._raw(nvars, {1 << (_EXP_BITS * (nvars - 1 - i)): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c: Scalar = 1) -> "MultiPoly":
        return cls(nvars, {tuple(exps): c})

    # -- predicates and views ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Scalar:
        if not self._terms:
            return 0
        if self.is_constant:
            return self._terms[0]
        raise ValueError("polynomial is not constant")

    def terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms in graded lexicographic order (deterministic)."""
        terms = self._terms
        # one term needs no sort
        keys = terms if len(terms) == 1 else _graded_lex_keys(terms, self.nvars)
        return [(_unpack(k, self.nvars), terms[k]) for k in keys]

    def coefficients(self) -> Iterable[Scalar]:
        """The nonzero coefficients, in no particular order."""
        return self._terms.values()

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"dimension mismatch: {self.nvars} vs {other.nvars} variables"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __add__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_dim(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for k, c in other._terms.items():
            val = out.get(k, 0) + c
            if val:
                out[k] = _norm_scalar(val)
            else:
                out.pop(k, None)
        return MultiPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return MultiPoly.constant(self.nvars, other) - self

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = _norm_scalar(other)
            if not other:
                return MultiPoly.zero(self.nvars)
            if other == 1:
                return self
            return MultiPoly._raw(
                self.nvars,
                {k: _norm_scalar(c * other) for k, c in self._terms.items()},
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_dim(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiPoly.zero(self.nvars)
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, Scalar] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                val = get(k, 0) + ca * cb
                if val:
                    out[k] = val
                else:
                    out.pop(k, None)
        # fields of both factors are <= _EXP_MAX, so a sum never carries past
        # its field; a result above _EXP_MAX sets that field's guard bit
        guard = _guard_mask(self.nvars)
        # normalize any integral Fractions produced by mixed arithmetic
        for k, c in out.items():
            if k & guard:
                raise ValueError(_OVERFLOW)
            if type(c) is Fraction and c.denominator == 1:
                out[k] = c.numerator
        return MultiPoly._raw(self.nvars, out)

    __rmul__ = __mul__

    def div_int(self, d: int) -> "MultiPoly":
        """self / d for a nonzero int d (self when d is 1), ints where integral.

        One Fraction(c, d) per term, where self * Fraction(1, d) builds two.
        """
        if d == 1:
            return self
        if not d:
            raise ZeroDivisionError("polynomial divided by zero")
        out: dict[int, Scalar] = {}
        for k, c in self._terms.items():
            q = Fraction(c, d)
            out[k] = q.numerator if q.denominator == 1 else q
        return MultiPoly._raw(self.nvars, out)

    # -- symmetric polynomials by their dominant terms ------------------------

    def dominant(self) -> "MultiPoly":
        """The terms whose exponents are weakly decreasing (module docstring).

        One subtraction compares every field with the next: ((key >> 16) | G)
        - (key without its top field), G the guard bits of nvars - 1 fields,
        keeps all of G exactly when no field is below the next; no field
        borrows, since each is at most _EXP_MAX.
        """
        nvars = self.nvars
        if nvars < 2:
            return self
        guard = _guard_mask(nvars - 1)
        rest = (1 << _EXP_BITS * (nvars - 1)) - 1
        terms = self._terms
        return MultiPoly._raw(
            nvars, {k: terms[k] for k in terms if ((k >> _EXP_BITS | guard) - (k & rest)) & guard == guard}
        )

    def format_symmetric(self) -> str:
        """Canonical text of the symmetric polynomial sum c_nu m_nu whose dominant terms these are.

        m_nu prints as m(2,1,1), its partition without zero parts, in graded
        lexicographic order of nu; the constant term prints as a bare
        coefficient, as `format` prints it, and 0 as "0".
        """
        return self._format_terms(_m_text)

    # -- formatting ----------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, graded-lex term order, exact coefficients."""
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ValueError("need one name per variable")
        return self._format_terms(partial(_monomial, names))

    def _format_terms(self, monomial: Callable[[int], str]) -> str:
        """The terms in graded-lex order, each monomial's text `monomial(key)` for a nonzero key."""
        terms = self._terms
        if not terms:
            return "0"
        pieces: list[str] = []
        # one term needs no sort
        for key in terms if len(terms) == 1 else _graded_lex_keys(terms, self.nvars):
            c = terms[key]
            # a stored Fraction is never integral, so its text is n/d, never 1
            if type(c) is Fraction:
                n, d = c.as_integer_ratio()
                neg, mag = n < 0, f"{abs(n)}/{d}"
            else:
                neg, mag = c < 0, abs(c)
            if key:
                mono = monomial(key)
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.format()!r})"


def append_variable(nvars: int, parts: Sequence[tuple[MultiPoly, int]]) -> MultiPoly:
    """Sum of p * y^e over (p, e) in `parts`, y a new last variable, by its dominant terms.

    Each p lives in `nvars` variables and holds dominant terms only (module
    docstring); the result lives in nvars + 1.  y takes the lowest packed
    field, so a term's key becomes (key << 16) + e, and it is dominant
    exactly when e <= the old key's last field: only those terms are kept.
    No polynomial is multiplied.  Every e is checked against the
    constructor cap, so a result built only from constructor inputs and
    this function stays within it too.
    """
    out: dict[int, Scalar] = {}
    get = out.get
    for p, e in parts:
        if p.nvars != nvars:
            raise ValueError(f"dimension mismatch: {p.nvars} vs {nvars} variables")
        if not 0 <= e < _EXP_INPUT_CAP:
            raise ValueError(f"exponent {e} outside the supported range 0..{_EXP_INPUT_CAP - 1}")
        for k, c in p._terms.items():
            if nvars and k & _EXP_MASK < e:
                continue
            key = (k << _EXP_BITS) + e
            val = get(key, 0) + c
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    for k, c in out.items():
        if type(c) is Fraction and c.denominator == 1:
            out[k] = c.numerator
    return MultiPoly._raw(nvars + 1, out)


def weighted_sum(nvars: int, parts: Iterable[tuple[MultiPoly, int]]) -> MultiPoly:
    """Sum of w * p over (p, w) in `parts`, int weights, into one packed-key dict."""
    out: dict[int, Scalar] = {}
    get = out.get
    for p, w in parts:
        if p.nvars != nvars:
            raise ValueError(f"dimension mismatch: {p.nvars} vs {nvars} variables")
        for k, c in p._terms.items():
            out[k] = get(k, 0) + w * c
    return MultiPoly._raw(nvars, {k: _norm_scalar(c) for k, c in out.items() if c})


def times_linear_factors(
    coeffs: Sequence[MultiPoly], roots: Sequence[MultiPoly], order: int
) -> list[MultiPoly]:
    """t-coefficients 0..order of coeffs(t) / prod_r (1 - r t).

    `coeffs` lists a polynomial (or truncated series) in t by ascending
    power, zero-padded or truncated to `order`.  Each root divides the list
    by (1 - r t) in place on packed-key dicts, c_k += r c_{k-1} for k
    ascending, so c_{k-1} is already divided.  A root of zero contributes
    1.  Each result coefficient is wrapped as a MultiPoly once, at the end.
    Raises ValueError past the exponent cap, as products do.
    """
    if not coeffs or order < 0:
        raise ValueError("need at least the t^0 coefficient and order >= 0")
    nvars = coeffs[0].nvars
    acc = []
    for c in coeffs[: order + 1]:
        if c.nvars != nvars:
            raise ValueError("coefficients in different symbol spaces")
        acc.append(dict(c._terms))
    acc += [{} for _ in range(order + 1 - len(acc))]
    guard = _guard_mask(nvars)
    for r in roots:
        if r.nvars != nvars:
            raise ValueError("root in wrong symbol space")
        root = r._terms
        if not root:
            continue
        for k in range(1, order + 1):
            src = acc[k - 1]
            if not src:
                continue
            dst = acc[k]
            get = dst.get
            for kr, cr in root.items():
                for ks, cs in src.items():
                    key = ks + kr
                    # fields of both are <= _EXP_MAX, so a sum sets the
                    # guard bit rather than carrying into the next field
                    if key & guard:
                        raise ValueError(_OVERFLOW)
                    val = get(key, 0) + cr * cs
                    if val:
                        dst[key] = val
                    else:
                        del dst[key]
    out = []
    for terms in acc:
        for k, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[k] = c.numerator
        out.append(MultiPoly._raw(nvars, terms))
    return out
