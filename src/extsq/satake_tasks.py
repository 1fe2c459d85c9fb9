"""The Satake task family: `lfactor`, `verify-littlewood`, `verify-js`,
`verify-bf` and `bf-odd-probe`.

`tasks.parse_task` imports this module at the first Satake task of a
document, and with it `lfactors`, `series`, `symmetric` and `torus_sums`;
a document without one never compiles them.  `parse_fields` reads a task's
`satake`, `n` and `truncation` fields, and `RUNNERS` holds the five
runners.

Tasks are not independent of each other: they share the module-level
`lru_cache` `symmetric._schur`, which keeps the 4096 most recently used
entries, so a later task reuses the Schur polynomials of an earlier one.
Each entry holds a Schur polynomial by its dominant terms, its Kostka
numbers; besides the polynomials a task asks for, the cache holds the
smaller-rank ones of the sub-shapes the branching rule builds them from.
On the benchmark's `symbolic` seed-1 document that is 403 entries and 2.7k
terms, where the expanded polynomials held 42k (`mixed` seed 1: 100
entries, 277 terms, from 875); numeric vectors are evaluated without it.
They also share the `lru_cache`s `lfactors._multigraphs`, the multigraph
counts of the product sides (16384 entries), and `polynomials._m_text`, the
m-basis strings that `MultiPoly.format_symmetric` prints (4096).  Each one's
`cache_info()` gives its hits, misses and size.  Outputs do not depend on
any reuse.

Every series, grid, contribution, first difference, central product and
probe correction of a Satake task is symmetric in the symbols and prints
in the monomial symmetric basis, `3*m(2,1,1) - 1/2*m(1,1)`
(`MultiPoly.format_symmetric`); a report with at least one symbol says so
with `"basis": "monomial_symmetric"`.  A constant prints as a bare
coefficient, so a report without symbols reads as it did before the basis
was introduced.  Each coefficient the two sides of an identity share is
formatted once: where the product side (or the expected two-variable
series) equals the torus sum or expansion at a power, that side's string is
reused, so the output is the same as formatting both.

Every polynomial is held in ints at a power of the vector's scale D, which
the printer takes: a t1^i t2^j cell of a sum, product, form or correction
at D^(i + 2j), a shape's contribution at D^|shape|, `central_product` at
D^k (k the nonzero entries), and the `lfactor` roots at D and D^2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from .lfactors import SatakeParams, ext_sq_roots, product_grid
from .polynomials import MultiPoly
from .series import series2_first_difference
from .tasks import (
    ASCII_WHITESPACE,
    MAX_RANK,
    ConfigError,
    Outcome,
    TaskConfig,
    _is_int,
    _names,
    _parse_int,
    _parse_truncation,
    _require,
    parse_rational,
)
from .torus_sums import LittlewoodIdentity

_WINDOW_TASKS = {"verify-bf", "bf-odd-probe"}


def _parse_satake(raw: Any, location: str) -> tuple[SatakeParams, list[str]]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("satake must be a nonempty list of entries", location)
    if len(raw) > MAX_RANK:
        raise ConfigError(f"satake must have at most {MAX_RANK} entries", location)
    tokens: list[str] = []
    values: list[str | Fraction] = []
    for i, tok in enumerate(raw):
        if isinstance(tok, str):
            tok = tok.strip(ASCII_WHITESPACE)
        elif _is_int(tok):
            tok = str(tok)
        else:
            raise ConfigError(
                "satake entries must be 'sym' or exact rationals", f"{location}[{i}]"
            )
        tokens.append(tok)
        try:
            values.append(tok if tok == "sym" else parse_rational(tok))
        except ValueError as exc:
            raise ConfigError(str(exc), f"{location}[{i}]") from exc
    return SatakeParams.parse(values), tokens


def parse_fields(cfg: TaskConfig, obj: dict, location: str, default_truncation: int) -> None:
    """Read a Satake task's `satake`, `n` and `truncation` into cfg and its echo."""
    task = cfg.task
    params, tokens = _parse_satake(_require(obj, "satake", location), f"{location}.satake")
    if "n" in obj:
        n = _parse_int(obj["n"], "n", f"{location}.n", 1, MAX_RANK)
        if n != params.n:
            raise ConfigError(
                f"n={n} does not match {params.n} satake entries", f"{location}.n"
            )
    if task in ("verify-js", "verify-bf") and params.n < 2:
        raise ConfigError(f"{task} needs n >= 2", f"{location}.satake")
    if task == "bf-odd-probe" and (params.n < 3 or params.n % 2 == 0):
        raise ConfigError("bf-odd-probe needs odd n >= 3", f"{location}.satake")
    cfg.params = params
    cfg.echo["satake"] = tokens
    raw_tr = obj.get("truncation", default_truncation)
    cfg.truncation = _parse_truncation(
        raw_tr, f"{location}.truncation", task in _WINDOW_TASKS
    )
    cfg.echo["truncation"] = (
        list(cfg.truncation) if isinstance(cfg.truncation, tuple) else cfg.truncation
    )


# -- execution ---------------------------------------------------------------


def _root_strings(roots: Sequence[MultiPoly], names: Sequence[str], scale: int) -> list[str]:
    """A factor prod (1 - r / scale t) as its roots' strings, sorted, each root as often as it occurs."""
    return sorted(r.format(names, scale) for r in roots)


def _fmt_row(
    row: Sequence[MultiPoly], scale: int, step: int, ref: Sequence[MultiPoly] = (), ref_text: Sequence[str] = ()
) -> list[str]:
    """The strings of row[j] / (scale step^j), reusing ref_text[j] wherever row[j] == ref[j]."""
    out = []
    for j, c in enumerate(row):
        out.append(ref_text[j] if j < len(ref) and c == ref[j] else c.format_symmetric(scale))
        scale *= step
    return out


def _fmt_grid(grid: Sequence[Sequence[MultiPoly]], d: int) -> list[list[str]]:
    """The strings of grid[i][j] / d^(i + 2j)."""
    return [_fmt_row(row, d**i, d * d) for i, row in enumerate(grid)]


def _run_lfactor(cfg: TaskConfig) -> Outcome:
    params = cfg.params
    order = cfg.truncation
    names, d = _names(params.nvars), params.scale
    ext_roots = ext_sq_roots(params)
    std_series = [row[0] for row in product_grid(params, order, 0)]
    ext_series = product_grid(params, 0, order)[0]
    data = {
        "standard_roots": _root_strings([e for e in params.scaled if e], names, d),
        "ext_sq_roots": _root_strings([r for r in ext_roots if r], names, d * d),
        "standard_series": _fmt_row(std_series, 1, d),
        "ext_sq_series": _fmt_row(ext_series, 1, d * d),
    }
    return "info", f"standard and exterior-square factors expanded through t^{order}", data


def _compare_row(data: dict[str, Any], key: str, identity: LittlewoodIdentity, length: int) -> int | None:
    """Compare the t1^0 row of a one-row identity with that of its product grid, into `data`.

    Adds the sum under `key`, then `product`, `first_difference` and
    `contributions` (the Schur value of each shape, padded with zeros to
    `length`), in that order, since the table prints keys as inserted.
    Returns the lowest power where the two rows differ, or None.
    """
    lhs, rhs = identity.grid[0], identity.product[0]
    diff = series2_first_difference(identity.grid, identity.product)
    scale = identity.scale
    lhs_text = data[key] = _fmt_row(lhs, 1, scale * scale)
    rhs_text = data["product"] = _fmt_row(rhs, 1, scale * scale, lhs, lhs_text)
    power = None if diff is None else diff[0][1]
    data["first_difference"] = (
        None if diff is None else {"power": power, key: lhs_text[power], "product": rhs_text[power]}
    )
    data["contributions"] = [
        {
            "power": b,
            "shape": list(shape) + [0] * (length - len(shape)),
            "coefficient": value.format_symmetric(scale ** (a + 2 * b)),
        }
        for a, b, shape, value in identity.terms
    ]
    return power


def _run_verify_littlewood(cfg: TaskConfig) -> Outcome:
    params = cfg.params
    order = cfg.truncation
    k = len(params.nonzero_entries)
    data: dict[str, Any] = {"k": k}
    diff = _compare_row(data, "expansion", LittlewoodIdentity(params, k, 0, order), k)
    if diff is not None:
        return "fail", f"expansion differs from the exterior-square factor at t^{diff}", data
    summary = f"doubled-shape expansion matches the exterior-square factor through t^{order}"
    return "pass", summary, data


def _run_verify_js(cfg: TaskConfig) -> Outcome:
    params = cfg.params
    order = cfg.truncation
    even = params.n % 2 == 0
    data: dict[str, Any] = {
        "parity": "even" if even else "odd",
        "positive_conductor": params.has_zero,
    }
    # compared with the plain product: at even rank with every entry nonzero
    # the sum is (1 - omega t2^m) times it, reported for inspection
    identity = LittlewoodIdentity(params, params.n - 1, 0, order)
    diff = _compare_row(data, "torus_sum", identity, params.n)
    if even and not params.has_zero:
        note = (
            "identity not asserted: even rank with every entry nonzero "
            "(conductor hypothesis fails); series reported for inspection"
        )
        return "info", note, data
    if diff is not None:
        return "fail", f"torus sum differs from the exterior-square factor at t^{diff}", data
    return "pass", f"torus sum equals the exterior-square factor through t^{order}", data


def _run_verify_bf(cfg: TaskConfig) -> Outcome:
    params = cfg.params
    l1, l2 = cfg.truncation
    m, odd = divmod(params.n, 2)
    identity = LittlewoodIdentity(params, params.n - 1, l1, l2)
    lhs, d = identity.grid, identity.scale
    data: dict[str, Any] = {"parity": "odd" if odd else "even"}
    if odd:
        data["positive_conductor"] = params.has_zero
    lhs_text = data["torus_sum"] = _fmt_grid(lhs, d)
    if odd and not params.has_zero:
        note = (
            f"identity not checked here: at odd rank with every entry nonzero the sum is "
            f"(1 - ω t1 t2^{m}) times the product of factors, which bf-odd-probe checks"
        )
        return "info", note, data
    form = "the product of factors"
    if not odd:
        data["central_product"] = identity.omega.format_symmetric(d ** len(params.nonzero_entries))
        form = f"(1 - ω t2^{m}) times {form}"
    expected = identity.form
    diff = series2_first_difference(lhs, expected)
    expected_text = data["expected"] = [
        _fmt_row(row, d**i, d * d, lhs_row, text_row)
        for i, (row, lhs_row, text_row) in enumerate(zip(expected, lhs, lhs_text))
    ]
    if diff is None:
        data["first_difference"] = None
        return "pass", f"two-variable torus sum matches {form} through ({l1}, {l2})", data
    (i, j), _, _ = diff
    data["first_difference"] = {
        "t1_power": i,
        "t2_power": j,
        "torus_sum": lhs_text[i][j],
        "expected": expected_text[i][j],
    }
    summary = f"two-variable torus sum differs from its product form at t1^{i} t2^{j}"
    return "fail", summary, data


def _run_bf_odd_probe(cfg: TaskConfig) -> Outcome:
    """Compare the odd-rank sum with its product form; report the correction (1 - ω t1 t2^m).

    The product grid's constant term is 1, so where the sum equals the form
    the sum divided by the product of factors is exactly 1 - ω t1 t2^m,
    truncated to the window: it is 1 when some entry vanishes (ω = 0) and
    when the window stops short of t1 t2^m.
    """
    params = cfg.params
    l1, l2 = cfg.truncation
    nvars, m = params.nvars, params.n // 2
    identity = LittlewoodIdentity(params, params.n - 1, l1, l2)
    diff = series2_first_difference(identity.grid, identity.form)
    if diff is not None:
        (i, j), _, _ = diff
        summary = (
            f"two-variable torus sum differs from (1 - ω t1 t2^{m}) times the product of factors"
            f" at t1^{i} t2^{j}"
        )
        return "fail", summary, {"conductor_hypothesis": params.has_zero}
    correction = [[MultiPoly.zero(nvars)] * (l2 + 1) for _ in range(l1 + 1)]
    correction[0][0] = MultiPoly.one(nvars)
    matches = not identity.omega or l1 < 1 or l2 < m
    if not matches:
        correction[1][m] = -identity.omega
    data = {
        "conductor_hypothesis": params.has_zero,
        "matches_product": matches,
        "correction": _fmt_grid(correction, identity.scale),
    }
    if params.has_zero:
        return "pass", f"correction factor is exactly 1 through ({l1}, {l2})", data
    note = (
        f"sum equals (1 - ω t1 t2^{m}) times the product of factors through ({l1}, {l2}); "
        "no entry vanishes, so ω is not 0"
    )
    return "info", note, data


RUNNERS = {
    "lfactor": _run_lfactor,
    "verify-littlewood": _run_verify_littlewood,
    "verify-js": _run_verify_js,
    "verify-bf": _run_verify_bf,
    "bf-odd-probe": _run_bf_odd_probe,
}
