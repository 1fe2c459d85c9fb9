"""Verification tasks: config parsing, execution, and report emission.

A config document is JSON with a `format_version` field and either one task
object or a `tasks` list.  Tasks run one after another and reports come back
in input order.  Tasks are not independent of each other: they share the
module-level `lru_cache` `symmetric._schur`, which keeps the 4096 most
recently used entries, so a later task reuses the Schur polynomials of an
earlier one.  Each entry holds a Schur polynomial by its dominant terms,
its Kostka numbers; besides the polynomials a task asks for, the cache holds
the smaller-rank ones of the sub-shapes the branching rule builds them from.
On the benchmark's `symbolic` seed-1 document that is 403 entries and 2.7k
terms, where the expanded polynomials held 42k (`mixed` seed 1: 100
entries, 277 terms, from 875); numeric vectors are evaluated without it.
They also share the `lru_cache`s `lfactors._multigraphs`, the multigraph
counts of the product sides (16384 entries), and `polynomials._m_text`, the
m-basis strings that `MultiPoly.format_symmetric` prints (4096).  Each one's
`cache_info()` gives its hits, misses and size.  Outputs do not depend on
any reuse.

Each task's runner returns `(verdict, summary, data)`; `run_task` alone
builds reports, adding the task echo and timing, and turns a precondition
`ValueError` into an `error` report.

Reports come in two formats.  `machine` is canonical JSON with sorted keys
and no volatile fields, so identical configs (and seeds) yield byte-identical
output.  `_emit_json` writes it with the bytes of json.dumps(doc,
sort_keys=True, ensure_ascii=True, separators=(",", ": "), indent=1).  It
holds only str, int, bool, None, lists and str-keyed dicts, never a float;
any other value raises TypeError.  `table` is a human-readable rendering of
the same data plus timing.
Every series, grid, contribution, first difference, central product and
probe correction of a Satake task is symmetric in the symbols and prints
in the monomial symmetric basis, `3*m(2,1,1) - 1/2*m(1,1)`
(`MultiPoly.format_symmetric`); a report with at least one symbol says so
with `"basis": "monomial_symmetric"`.  A constant prints as a bare
coefficient, so a report without symbols reads as it did before the basis
was introduced.  Root lists (`standard_roots`, `ext_sq_roots` and the Galois
reports') print α-monomials, the symbols always named α1, α2, ... whatever
the input called them.  Each coefficient the two sides of an identity share
is formatted once: where the product side (or the expected two-variable
series) equals the torus sum or expansion at a power, that side's string is
reused, so the output is the same as formatting both.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from .lfactors import (
    DoubledShapeSum,
    SatakeParams,
    ext_sq_expansion,
    ext_sq_roots,
    parse_rational,
    product_grid,
    product_series,
)
from .polynomials import MultiPoly
from .series import series2_first_difference, series_first_difference
from .torus_sums import bf_odd_correction_probe, bf_product_form, bf_series, js_series
from .weil_deligne import (
    FiniteAbelianGroup,
    WDBlock,
    WDRep,
    divisibility_check,
    prop_H_equality,
    random_k1_rep,
    random_wdrep,
)

FORMAT_VERSION = 1
DEFAULT_TRUNCATION = 6
DEFAULT_Q = 5
MAX_RANDOM_COUNT = 100_000
# Work grows steeply with all three; the benchmark's largest tasks use order
# 8, rank 6 and Galois dimension 10.  A value above a cap is a config error.
MAX_TRUNCATION = 32
MAX_RANK = 16  # the Satake rank and the dimension of a Galois representation
TRUNCATION_ENV_VAR = "EXTSQ_TRUNCATION"

TASK_NAMES = (
    "lfactor",
    "verify-js",
    "verify-bf",
    "verify-littlewood",
    "galois-divisibility",
    "galois-H",
    "bf-odd-probe",
)

_SATAKE_TASKS = {"lfactor", "verify-js", "verify-bf", "verify-littlewood", "bf-odd-probe"}
_WINDOW_TASKS = {"verify-bf", "bf-odd-probe"}

# The fields each kind of task reads; any other field is a config error.  Every
# task accepts `seed` and `truncation`, because the CLI's --seed and
# --truncation write both into every task of a document.
_SHARED_FIELDS = {"task", "seed", "truncation"}
_SATAKE_FIELDS = {"satake", "n"}
_EXPLICIT_FIELDS = {"q", "group", "blocks"}
_RANDOM_FIELDS = {"random"}
_KNOWN_FIELDS = _SHARED_FIELDS | _SATAKE_FIELDS | _EXPLICIT_FIELDS | _RANDOM_FIELDS


class ConfigError(ValueError):
    """A malformed config, with the location of the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class TaskConfig:
    __slots__ = ("task", "echo", "params", "truncation", "rep", "random_count", "seed")

    def __init__(self, task: str, echo: dict[str, Any], seed: int = 0):
        self.task = task
        self.echo = echo
        self.seed = seed
        self.params: SatakeParams | None = None
        self.truncation: int | tuple[int, int] = DEFAULT_TRUNCATION
        self.rep: WDRep | None = None
        self.random_count: int | None = None


class Report:
    __slots__ = ("task", "verdict", "summary", "data", "timing_ms")

    def __init__(
        self, task: dict[str, Any], verdict: str, summary: str, data: dict[str, Any], timing_ms: float
    ):
        self.task = task
        self.verdict = verdict  # pass | fail | info | error
        self.summary = summary
        self.data = data
        self.timing_ms = timing_ms

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "info": 0, "fail": 1}.get(self.verdict, 2)


# What a runner returns: (verdict, summary, data); run_task makes it a Report.
Outcome = tuple[str, str, dict[str, Any]]


def _is_int(value: Any) -> bool:
    """An int that is not a bool (JSON true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(obj: dict, key: str, location: str) -> Any:
    if key not in obj:
        raise ConfigError(f"missing required field {key!r}", location)
    return obj[key]


def _parse_int(
    value: Any,
    what: str,
    location: str,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    if not _is_int(value):
        raise ConfigError(f"{what} must be an integer", location)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}", location)
    if maximum is not None and value > maximum:
        raise ConfigError(f"{what} must be <= {maximum}", location)
    return value


def _parse_satake(raw: Any, location: str) -> tuple[SatakeParams, list[str]]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("satake must be a nonempty list of entries", location)
    if len(raw) > MAX_RANK:
        raise ConfigError(f"satake must have at most {MAX_RANK} entries", location)
    tokens: list[str] = []
    values: list[str | Fraction] = []
    for i, tok in enumerate(raw):
        if isinstance(tok, str):
            tok = tok.strip()
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


def _parse_truncation(raw: Any, location: str, want_window: bool) -> int | tuple[int, int]:
    if want_window:
        if _is_int(raw):
            raw = [raw, raw]
        if isinstance(raw, list) and len(raw) == 2 and all(_is_int(x) for x in raw):
            l1, l2 = (_parse_int(x, "truncation", location, 0, MAX_TRUNCATION) for x in raw)
            return l1, l2
        raise ConfigError("truncation must be an int or a pair of ints", location)
    return _parse_int(raw, "truncation", location, 0, MAX_TRUNCATION)


def _parse_blocks(raw: Any, group: FiniteAbelianGroup, location: str) -> list[WDBlock]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("blocks must be a nonempty list", location)
    blocks = []
    for i, b in enumerate(raw):
        loc = f"{location}[{i}]"
        if not isinstance(b, dict):
            raise ConfigError("each block must be an object", loc)
        grade = _require(b, "grade", loc)
        if not isinstance(grade, list) or not all(_is_int(x) for x in grade):
            raise ConfigError("grade must be a list of integers", f"{loc}.grade")
        length = _parse_int(_require(b, "length", loc), "length", f"{loc}.length", 1)
        scalar_raw = _require(b, "scalar", loc)
        scalar: int | Fraction | str
        if _is_int(scalar_raw):
            scalar = scalar_raw
        elif isinstance(scalar_raw, str):
            scalar = scalar_raw.strip()
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
        blocks.append(WDBlock(tuple(grade), length, scalar))
    return blocks


def parse_task(obj: Any, default_truncation: int = DEFAULT_TRUNCATION, location: str = "task") -> TaskConfig:
    """Validate one raw task object into a TaskConfig (errors carry locations)."""
    if not isinstance(obj, dict):
        raise ConfigError("task must be an object", location)
    task = _require(obj, "task", location)
    if task not in TASK_NAMES:
        raise ConfigError(
            f"unknown task {task!r}; expected one of {', '.join(TASK_NAMES)}",
            f"{location}.task",
        )
    if task in _SATAKE_TASKS:
        kind, reads = task, _SATAKE_FIELDS
    elif "random" in obj:
        kind, reads = f"a random {task} suite", _RANDOM_FIELDS
    else:
        kind, reads = f"{task} with explicit blocks", _EXPLICIT_FIELDS
    for key in obj:
        if key not in _SHARED_FIELDS and key not in reads:
            known = key in _KNOWN_FIELDS
            message = f"{kind} does not read field {key!r}" if known else f"unknown field {key!r}"
            raise ConfigError(message, f"{location}.{key}")
    seed = 0
    if "seed" in obj:
        seed = _parse_int(obj["seed"], "seed", f"{location}.seed")
    if task not in _SATAKE_TASKS and "truncation" in obj:
        # read by no Galois task, but checked: an int or a window, as the CLI may write either
        raw_tr = obj["truncation"]
        _parse_truncation(raw_tr, f"{location}.truncation", isinstance(raw_tr, list))
    echo: dict[str, Any] = {"task": task, "seed": seed}

    cfg = TaskConfig(task=task, echo=echo, seed=seed)

    if task in _SATAKE_TASKS:
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
        echo["satake"] = tokens
        raw_tr = obj.get("truncation", default_truncation)
        cfg.truncation = _parse_truncation(
            raw_tr, f"{location}.truncation", task in _WINDOW_TASKS
        )
        echo["truncation"] = (
            list(cfg.truncation) if isinstance(cfg.truncation, tuple) else cfg.truncation
        )
    elif "random" in obj:
        rnd = obj["random"]
        if not isinstance(rnd, dict):
            raise ConfigError("random must be an object", f"{location}.random")
        count = _parse_int(
            _require(rnd, "count", f"{location}.random"),
            "count",
            f"{location}.random.count",
            1,
            MAX_RANDOM_COUNT,
        )
        cfg.random_count = count
        echo["random"] = {"count": count}
    else:
        q = _parse_int(obj.get("q", DEFAULT_Q), "q", f"{location}.q", 2)
        group_raw = obj.get("group", [1])
        if not isinstance(group_raw, list) or not all(_is_int(x) and x >= 1 for x in group_raw):
            raise ConfigError("group must be a list of positive cyclic orders", f"{location}.group")
        group = FiniteAbelianGroup(tuple(group_raw))
        blocks = _parse_blocks(_require(obj, "blocks", location), group, f"{location}.blocks")
        dim = sum(b.length for b in blocks)
        if dim > MAX_RANK:
            raise ConfigError(
                f"blocks must have lengths summing to at most {MAX_RANK}, got {dim}",
                f"{location}.blocks",
            )
        try:
            cfg.rep = WDRep(q, group, blocks)
        except ValueError as exc:
            raise ConfigError(str(exc), f"{location}.blocks") from exc
        echo.update(_describe_rep(cfg.rep))
    return cfg


def parse_document(doc: Any, default_truncation: int = DEFAULT_TRUNCATION) -> list[TaskConfig]:
    """Parse a full config document (single task or batch)."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object", "document")
    version = _require(doc, "format_version", "document")
    if version != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})",
            "document.format_version",
        )
    if "tasks" in doc:
        raw_tasks = doc["tasks"]
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise ConfigError("tasks must be a nonempty list", "document.tasks")
        return [
            parse_task(t, default_truncation, f"tasks[{i}]") for i, t in enumerate(raw_tasks)
        ]
    body = {k: v for k, v in doc.items() if k != "format_version"}
    return [parse_task(body, default_truncation, "task")]


# -- execution ---------------------------------------------------------------


def _names(nvars: int) -> list[str]:
    return [f"α{i + 1}" for i in range(nvars)]


def _fmt_series1(coeffs: Sequence[MultiPoly]) -> list[str]:
    return [c.format_symmetric() for c in coeffs]


def _fmt_series2(grid: Sequence[Sequence[MultiPoly]]) -> list[list[str]]:
    return [[c.format_symmetric() for c in row] for row in grid]


def _fmt_against(coeffs: Sequence[MultiPoly], ref: Sequence[MultiPoly], ref_text: Sequence[str]) -> list[str]:
    """Strings of `coeffs`, reusing ref_text[i] wherever coeffs[i] == ref[i]."""
    return [t if c == r else c.format_symmetric() for c, r, t in zip(coeffs, ref, ref_text)]


def _run_lfactor(cfg: TaskConfig) -> Outcome:
    params = cfg.params
    order = cfg.truncation
    names = _names(params.nvars)
    ext_roots = ext_sq_roots(params)
    std_series = [row[0] for row in product_grid(params.entries, (), params.nvars, order, 0)]
    ext_series = product_series(ext_roots, params.nvars, order)
    data = {
        "standard_roots": _root_strings(params.nonzero_entries, names),
        "ext_sq_roots": _root_strings([r for r in ext_roots if not r.is_zero], names),
        "standard_series": _fmt_series1(std_series),
        "ext_sq_series": _fmt_series1(ext_series),
    }
    return "info", f"standard and exterior-square factors expanded through t^{order}", data


def _compare_with_ext_sq(
    cfg: TaskConfig, data: dict[str, Any], key: str, lhs: DoubledShapeSum
) -> int | None:
    """Compare a one-variable sum with the exterior-square factor, into `data`.

    Adds the sum under `key`, then `product`, `first_difference` and
    `contributions` (the partition-indexed Schur coefficients behind the
    sum), in that order, since the table prints keys as inserted.  Returns
    the lowest power where the two sides differ, or None.
    """
    params = cfg.params
    rhs = product_series(ext_sq_roots(params), params.nvars, cfg.truncation)
    diff = series_first_difference(lhs.series, rhs)
    lhs_text = data[key] = _fmt_series1(lhs.series)
    rhs_text = data["product"] = _fmt_against(rhs, lhs.series, lhs_text)
    data["first_difference"] = (
        None
        if diff is None
        else {"power": diff[0], key: lhs_text[diff[0]], "product": rhs_text[diff[0]]}
    )
    data["contributions"] = [
        {"power": l, "shape": list(shape), "coefficient": value.format_symmetric()}
        for l, shape, value in lhs.terms
    ]
    return None if diff is None else diff[0]


def _run_verify_littlewood(cfg: TaskConfig) -> Outcome:
    params = cfg.params
    order = cfg.truncation
    data: dict[str, Any] = {"k": len(params.nonzero_entries)}
    diff = _compare_with_ext_sq(cfg, data, "expansion", ext_sq_expansion(params, order))
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
    diff = _compare_with_ext_sq(cfg, data, "torus_sum", js_series(params, order))
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
    lhs = bf_series(params, l1, l2)
    data: dict[str, Any] = {"parity": "odd" if odd else "even"}
    if odd:
        data["positive_conductor"] = params.has_zero
    lhs_text = data["torus_sum"] = _fmt_series2(lhs)
    if odd and not params.has_zero:
        note = (
            f"identity not checked here: at odd rank with every entry nonzero the sum is "
            f"(1 - ω t1 t2^{m}) times the product of factors, which bf-odd-probe checks"
        )
        return "info", note, data
    omega, expected = bf_product_form(params, l1, l2)
    form = "the product of factors"
    if not odd:
        data["central_product"] = omega.format_symmetric()
        form = f"(1 - ω t2^{m}) times {form}"
    diff = series2_first_difference(lhs, expected)
    expected_text = data["expected"] = [
        _fmt_against(row, lhs_row, text_row)
        for row, lhs_row, text_row in zip(expected, lhs, lhs_text)
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
    params = cfg.params
    l1, l2 = cfg.truncation
    try:
        probe = bf_odd_correction_probe(params, l1, l2)
    except ArithmeticError as exc:
        return "fail", str(exc), {"conductor_hypothesis": params.has_zero}
    data = {
        "conductor_hypothesis": probe.conductor_hypothesis,
        "matches_product": probe.matches_product,
        "correction": _fmt_series2(probe.correction),
    }
    if probe.conductor_hypothesis:
        return "pass", f"correction factor is exactly 1 through ({l1}, {l2})", data
    m = params.n // 2
    note = (
        f"sum equals (1 - ω t1 t2^{m}) times the product of factors through ({l1}, {l2}); "
        "no entry vanishes, so ω is not 0"
    )
    return "info", note, data


def _describe_rep(rep: WDRep) -> dict[str, Any]:
    return {
        "q": rep.q,
        "group": list(rep.group.orders),
        "blocks": [
            {"grade": list(b.grade), "length": b.length, "scalar": str(b.scalar)}
            for b in rep.blocks
        ],
    }


def _root_strings(roots: Sequence[MultiPoly], names: Sequence[str]) -> list[str]:
    """A factor prod (1 - r t) as its roots' strings, sorted, each root as often as it occurs.

    The empty list is the factor 1.
    """
    return sorted(r.format(names) for r in roots)


def _random_reps(cfg: TaskConfig, draw: Callable[[random.Random], WDRep]) -> Iterator[WDRep]:
    """The cfg.random_count representations of a random suite, drawn from cfg.seed."""
    rng = random.Random(cfg.seed)
    return (draw(rng) for _ in range(cfg.random_count))


def _run_galois_divisibility(cfg: TaskConfig) -> Outcome:
    if cfg.random_count is None:
        names = _names(cfg.rep.nvars)
        verdict = divisibility_check(cfg.rep)
        quotient = verdict.quotient_roots
        data = {
            "formal_roots": _root_strings(verdict.formal_roots, names),
            "ext_sq_roots": _root_strings(verdict.ext_sq_roots, names),
            "divides": verdict.divides,
            "strict": verdict.strict,
            "quotient_roots": None if quotient is None else _root_strings(quotient, names),
        }
        if not verdict.divides:
            return "fail", "pair-product factor does not divide the exterior-square factor", data
        kind = "strictly" if verdict.strict else "with quotient 1"
        return "pass", f"pair-product factor divides the exterior-square factor {kind}", data
    count = cfg.random_count
    failures: list[dict[str, Any]] = []
    strict_count = 0
    for i, rep in enumerate(_random_reps(cfg, random_wdrep)):
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
        names = _names(cfg.rep.nvars)
        result = prop_H_equality(cfg.rep)
        data = {
            "formal_roots": _root_strings(result.formal_roots, names),
            "ext_sq_roots": _root_strings(result.ext_sq_roots, names),
            "equal": result.equal,
        }
        if not result.equal:
            return "fail", "factors differ despite the pairing hypothesis", data
        return "pass", "factors agree exactly under the pairing hypothesis", data
    count = cfg.random_count
    draw = partial(random_k1_rep, require_hypothesis=True)
    failures = [
        {"index": i, "rep": _describe_rep(rep)}
        for i, rep in enumerate(_random_reps(cfg, draw))
        if not prop_H_equality(rep).equal
    ]
    data = {"count": count, "all_equal": not failures, "failures": failures}
    if failures:
        return "fail", f"equality failed on {len(failures)} of {count} representations", data
    return "pass", f"equality holds on all {count} random semisimple representations", data


_RUNNERS = {
    "lfactor": _run_lfactor,
    "verify-littlewood": _run_verify_littlewood,
    "verify-js": _run_verify_js,
    "verify-bf": _run_verify_bf,
    "bf-odd-probe": _run_bf_odd_probe,
    "galois-divisibility": _run_galois_divisibility,
    "galois-H": _run_galois_h,
}


def run_task(cfg: TaskConfig) -> Report:
    """Execute one task; module precondition violations become error reports."""
    start = time.perf_counter()
    try:
        verdict, summary, data = _RUNNERS[cfg.task](cfg)
    except ValueError as exc:
        verdict, summary, data = "error", f"precondition violated: {exc}", {}
    else:
        if cfg.params is not None and cfg.params.nvars:
            data["basis"] = "monomial_symmetric"
    return Report(cfg.echo, verdict, summary, data, (time.perf_counter() - start) * 1000.0)


def run_all(configs: Sequence[TaskConfig]) -> list[Report]:
    return [run_task(cfg) for cfg in configs]


# -- emission -----------------------------------------------------------------


_ESCAPE = json.encoder.encode_basestring_ascii
# The text of each scalar type machine output may hold, by exact type.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _emit_json(value: Any, pad: str, out: list[str]) -> None:
    """Append `value` to `out` as canonical JSON, `pad` a newline and its indent.

    A tuple is written as a list.  `_ESCAPE` refuses a dict key that is not
    a str with TypeError.
    """
    t = type(value)
    text = _SCALAR_TEXT.get(t)
    if text is not None:
        out.append(text(value))
        return
    if not value and (t is dict or t is list or t is tuple):
        out.append("{}" if t is dict else "[]")
        return
    inner = pad + " "
    if t is dict:
        close, items = "}", [(f"{_ESCAPE(k)}: ", value[k]) for k in sorted(value)]
    elif t is list or t is tuple:
        kinds = {type(v) for v in value}
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            out += ("[" + inner, ("," + inner).join(map(text, value)), pad + "]")
            return
        close, items = "]", [("", v) for v in value]
    else:
        raise TypeError(f"machine output cannot hold a {t.__name__}")
    sep = ("{" if t is dict else "[") + inner
    for head, v in items:
        text = _SCALAR_TEXT.get(type(v))
        if text is None:
            out.append(sep + head)
            _emit_json(v, inner, out)
        else:
            out.append(sep + head + text(v))
        sep = "," + inner
    out.append(pad + close)


def emit_machine(reports: Sequence[Report]) -> str:
    """Canonical JSON for a report list; no volatile fields, sorted keys."""
    doc = {
        "format_version": FORMAT_VERSION,
        "reports": [
            {
                "task": r.task,
                "verdict": r.verdict,
                "summary": r.summary,
                "data": r.data,
            }
            for r in reports
        ],
    }
    out: list[str] = []
    _emit_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _table_rows(data: Any, indent: str = "  ") -> list[str]:
    rows: list[str] = []
    if isinstance(data, dict):
        for key in data:
            value = data[key]
            if isinstance(value, list) and not value:
                rows.append(f"{indent}{key}: []")
            elif isinstance(value, (dict, list)):
                rows.append(f"{indent}{key}:")
                rows.extend(_table_rows(value, indent + "  "))
            else:
                rows.append(f"{indent}{key}: {value}")
    elif isinstance(data, list):
        scalar = all(not isinstance(v, (dict, list)) for v in data)
        if scalar:
            for i, v in enumerate(data):
                rows.append(f"{indent}[{i}] {v}")
        else:
            for i, v in enumerate(data):
                rows.append(f"{indent}[{i}]")
                rows.extend(_table_rows(v, indent + "  "))
    else:
        rows.append(f"{indent}{data}")
    return rows


def emit_table(reports: Sequence[Report]) -> str:
    lines: list[str] = []
    for r in reports:
        lines.append(f"== {r.task.get('task', '?')} ==")
        lines.append(f"verdict: {r.verdict}")
        lines.append(f"summary: {r.summary}")
        lines.append(f"config:  {json.dumps(r.task, sort_keys=True, ensure_ascii=True)}")
        if r.data:
            lines.extend(_table_rows(r.data))
        lines.append(f"timing:  {r.timing_ms:.1f} ms")
        lines.append("")
    return "\n".join(lines)


def exit_code(reports: Sequence[Report]) -> int:
    return max((r.exit_code for r in reports), default=0)
