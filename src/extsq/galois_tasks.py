"""The Galois task family: `galois-divisibility` and `galois-H`.

`tasks.parse_task` imports this module at the first Galois task of a
document, and with it `weil_deligne`, the only other package module a
Galois document loads: the token grammar comes from `tasks`, and roots
print from their integer keys, so `polynomials` is never compiled.  A
document without a Galois task never compiles this module.
`parse_fields` reads a task's explicit representation (`q`, `group`,
`blocks`) or its `random` suite, and `RUNNERS` holds the two runners.
An explicit report prints its factors as root lists; a random suite of
`count` representations is drawn from the task's `seed` and reports each
failure with the representation that failed, printed from its flat fields.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

from .tasks import (
    ASCII_WHITESPACE,
    DEFAULT_Q,
    MAX_RANDOM_COUNT,
    MAX_RANK,
    ConfigError,
    Outcome,
    TaskConfig,
    _is_int,
    _names,
    _parse_int,
    _refuse_unknown,
    _require,
    parse_rational,
)
from .weil_deligne import (
    FiniteAbelianGroup,
    WDRep,
    _k1_draws,
    _wdrep_draws,
    divisibility_check,
    prop_H_equality,
)


def _parse_blocks(raw: Any, group: FiniteAbelianGroup, location: str) -> list[tuple]:
    """The (grade, length, scalar) triples of a config's blocks, for `WDRep`."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError("blocks must be a nonempty list", location)
    blocks = []
    for i, b in enumerate(raw):
        loc = f"{location}[{i}]"
        if not isinstance(b, dict):
            raise ConfigError("each block must be an object", loc)
        _refuse_unknown(b, ("grade", "length", "scalar"), loc)
        grade = _require(b, "grade", loc)
        if not isinstance(grade, list) or not all(_is_int(x) for x in grade):
            raise ConfigError("grade must be a list of integers", f"{loc}.grade")
        length = _parse_int(_require(b, "length", loc), "length", f"{loc}.length", 1)
        scalar_raw = _require(b, "scalar", loc)
        scalar: int | Fraction | str
        if _is_int(scalar_raw):
            scalar = scalar_raw
        elif isinstance(scalar_raw, str):
            scalar = scalar_raw.strip(ASCII_WHITESPACE)
            # a symbol name starts with a letter, a rational never does
            if not scalar[:1].isalpha():
                try:
                    scalar = parse_rational(scalar)
                except ValueError as exc:
                    raise ConfigError(
                        f"scalar is neither a rational nor a symbol name: {exc}",
                        f"{loc}.scalar",
                    ) from exc
        else:
            raise ConfigError("scalar must be an int, rational string, or symbol name", f"{loc}.scalar")
        if not isinstance(scalar, str) and scalar == 0:
            raise ConfigError("Frobenius scalar must be nonzero", f"{loc}.scalar")
        # `WDRep` reduces the grade; only its rank is checked here, for the location
        if len(grade) != len(group.orders):
            rank = len(group.orders)
            raise ConfigError(f"element {tuple(grade)} does not fit group of rank {rank}", loc)
        blocks.append((grade, length, scalar))
    return blocks


def _scalar_text(a: tuple[int, int] | str) -> str:
    """A symbol's name, or a scalar (n, d) as `str(Fraction(n, d))` prints it: n or n/d."""
    if isinstance(a, str):
        return a
    n, d = a
    return str(n) if d == 1 else f"{n}/{d}"


def _describe_rep(rep: WDRep) -> dict[str, Any]:
    """The rep's config fields, as an echo or a failure prints them."""
    return {
        "q": rep.q,
        "group": list(rep.group.orders),
        "blocks": [
            {"grade": list(g), "length": k, "scalar": _scalar_text(a)}
            for g, k, a in zip(rep.grades, rep.lengths, rep.scalars)
        ],
    }


def parse_fields(cfg: TaskConfig, obj: dict, location: str, default_truncation: int) -> None:
    """Read a Galois task's `random` suite, or its `q`, `group` and `blocks`, into cfg and its echo.

    No Galois task has an order; `default_truncation` is not read.
    """
    if "random" in obj:
        rnd = obj["random"]
        if not isinstance(rnd, dict):
            raise ConfigError("random must be an object", f"{location}.random")
        _refuse_unknown(rnd, ("count",), f"{location}.random")
        count = _parse_int(
            _require(rnd, "count", f"{location}.random"),
            "count",
            f"{location}.random.count",
            1,
            MAX_RANDOM_COUNT,
        )
        cfg.random_count = count
        cfg.echo["random"] = {"count": count}
        return
    q = _parse_int(obj.get("q", DEFAULT_Q), "q", f"{location}.q", 2)
    group_raw = obj.get("group", [1])
    if not isinstance(group_raw, list) or not all(_is_int(x) and x >= 1 for x in group_raw):
        raise ConfigError("group must be a list of positive cyclic orders", f"{location}.group")
    group = FiniteAbelianGroup(tuple(group_raw))
    blocks = _parse_blocks(_require(obj, "blocks", location), group, f"{location}.blocks")
    dim = sum([length for _, length, _ in blocks])
    if dim > MAX_RANK:
        raise ConfigError(
            f"blocks must have lengths summing to at most {MAX_RANK}, got {dim}",
            f"{location}.blocks",
        )
    try:
        cfg.rep = WDRep(q, group, blocks)
    except ValueError as exc:
        raise ConfigError(str(exc), f"{location}.blocks") from exc
    cfg.echo.update(_describe_rep(cfg.rep))


# -- execution ---------------------------------------------------------------


def _run_galois_divisibility(cfg: TaskConfig) -> Outcome:
    if cfg.random_count is None:
        names = _names(len(cfg.rep.symbols))
        verdict = divisibility_check(cfg.rep)
        quotient = verdict.quotient_keys
        data = {
            "formal_roots": verdict.root_strings(verdict.formal_keys, names),
            "ext_sq_roots": verdict.root_strings(verdict.ext_sq_keys, names),
            "divides": verdict.divides,
            "strict": verdict.strict,
            "quotient_roots": None if quotient is None else verdict.root_strings(quotient, names),
        }
        if not verdict.divides:
            return "fail", "pair-product factor does not divide the exterior-square factor", data
        kind = "strictly" if verdict.strict else "with quotient 1"
        return "pass", f"pair-product factor divides the exterior-square factor {kind}", data
    count = cfg.random_count
    failures: list[dict[str, Any]] = []
    strict_count = 0
    for i, rep in enumerate(_wdrep_draws(random.Random(cfg.seed), count)):
        verdict = divisibility_check(rep)
        if not verdict.divides:
            failures.append({"index": i, "rep": _describe_rep(rep)})
        elif verdict.strict:
            strict_count += 1
    data = {
        "count": count,
        "all_divide": not failures,
        "strict_count": strict_count,
        "failures": failures,
    }
    if failures:
        summary = f"divisibility failed on {len(failures)} of {count} random representations"
        return "fail", summary, data
    summary = f"divisibility holds on all {count} random representations ({strict_count} strict)"
    return "pass", summary, data


def _run_galois_h(cfg: TaskConfig) -> Outcome:
    if cfg.random_count is None:
        names = _names(len(cfg.rep.symbols))
        result = prop_H_equality(cfg.rep)
        data = {
            "formal_roots": result.root_strings(result.formal_keys, names),
            "ext_sq_roots": result.root_strings(result.ext_sq_keys, names),
            "equal": result.equal,
        }
        if not result.equal:
            return "fail", "factors differ despite the pairing hypothesis", data
        return "pass", "factors agree exactly under the pairing hypothesis", data
    count = cfg.random_count
    failures = [
        {"index": i, "rep": _describe_rep(rep)}
        for i, rep in enumerate(_k1_draws(random.Random(cfg.seed), count, require_hypothesis=True))
        if not prop_H_equality(rep).equal
    ]
    data = {"count": count, "all_equal": not failures, "failures": failures}
    if failures:
        return "fail", f"equality failed on {len(failures)} of {count} representations", data
    return "pass", f"equality holds on all {count} random semisimple representations", data


RUNNERS = {
    "galois-divisibility": _run_galois_divisibility,
    "galois-H": _run_galois_h,
}
