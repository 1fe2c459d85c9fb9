"""Verification tasks: config parsing, execution, and report emission.

A config document is JSON with a `format_version` field and either one task
object or a `tasks` list.  Tasks run one after another and reports come back
in input order.

This module is the shared front end: the document grammar and the fields
every task shares (`task`, `seed`, `truncation`), the token grammar of
configs and the command line (`parse_rational`, `parse_integer`, ASCII
whitespace only), `TaskConfig`, `run_task` and emission.  Each task belongs
to one of two families, each in its own module with its field parsing and
runners: the Satake tasks in `satake_tasks` (which loads `lfactors`,
`series`, `symmetric` and `torus_sums`, and through them `polynomials`) and
the Galois tasks in `galois_tasks` (which loads only `weil_deligne`).
`parse_task` imports a family's module at the first task of that family,
so a document loads what its tasks run and nothing else, and all of it
while it is parsed: `run_task` only calls the runner `parse_task` stored
on the `TaskConfig`, and emission imports nothing.  A Galois-only document
never compiles the Satake modules, nor a Satake-only one `weil_deligne`.

Each task's runner returns `(verdict, summary, data)`; `run_task` alone
builds reports, adding the task echo and timing, and turns a precondition
`ValueError` into an `error` report.

Reports come in two formats.  `machine` is canonical JSON with sorted keys
and no volatile fields, so identical configs (and seeds) yield byte-identical
output.  `_emit_json` writes it with the bytes of json.dumps(doc,
sort_keys=True, ensure_ascii=True, separators=(",", ": "), indent=1).  It
holds only str, int, bool, None, lists and str-keyed dicts, never a float;
any other value raises TypeError.  `table` is a human-readable rendering of
the same data plus timing.  Root lists (`standard_roots`, `ext_sq_roots` and
the Galois reports') print α-monomials, the symbols always named α1, α2,
... whatever the input called them.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from .lfactors import SatakeParams
    from .weil_deligne import WDRep

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
    __slots__ = ("task", "echo", "run", "params", "truncation", "rep", "random_count", "seed")

    def __init__(self, task: str, echo: dict[str, Any], run: Callable[[TaskConfig], Outcome], seed: int = 0):
        self.task = task
        self.echo = echo
        self.run = run  # the family module's runner for this task
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


# the whitespace a token may carry: str.strip() would also take U+2003 or U+00A0
ASCII_WHITESPACE = " \t\n\r\f\v"
# ASCII digits with an optional sign: an integer; an integer, p/q or a decimal
_INTEGER = re.compile(r"[-+]?[0-9]+")
_RATIONAL = re.compile(r"[-+]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def parse_rational(token: str) -> Fraction:
    """An exact rational from "3", "-2/5" or "0.25"; ValueError otherwise.

    Exponent notation is refused: Fraction("1e10000000") builds a
    ten-million-digit integer, at a cost that grows faster than the exponent.
    So are the other spellings `Fraction` reads beyond that grammar:
    underscores ("1_0" is 10) and non-ASCII digits ("١٢" is 12).  Only
    ASCII whitespace around the token is stripped.
    """
    text = token.strip(ASCII_WHITESPACE)
    if "e" in text or "E" in text:
        raise ValueError(f"malformed rational {token!r}: exponent notation is not accepted")
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {token!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"malformed rational {token!r}") from exc


def parse_integer(token: str) -> int:
    """An int from "3" or "-12", not "1_0" or "٣" as `int` reads; ValueError otherwise."""
    text = token.strip(ASCII_WHITESPACE)
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"malformed integer {token!r}")
    return int(text)


def _is_int(value: Any) -> bool:
    """An int that is not a bool (JSON true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(obj: dict, key: str, location: str) -> Any:
    if key not in obj:
        raise ConfigError(f"missing required field {key!r}", location)
    return obj[key]


def _refuse_unknown(obj: dict, fields: tuple[str, ...], location: str) -> None:
    for key in obj:
        if key not in fields:
            raise ConfigError(f"unknown field {key!r}", f"{location}.{key}")


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


def _parse_truncation(raw: Any, location: str, want_window: bool) -> int | tuple[int, int]:
    if want_window:
        if _is_int(raw):
            raw = [raw, raw]
        if isinstance(raw, list) and len(raw) == 2 and all(_is_int(x) for x in raw):
            l1, l2 = (_parse_int(x, "truncation", location, 0, MAX_TRUNCATION) for x in raw)
            return l1, l2
        raise ConfigError("truncation must be an int or a pair of ints", location)
    return _parse_int(raw, "truncation", location, 0, MAX_TRUNCATION)


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
        # random.Random seeds by the absolute value, so -s would draw the suite of s
        seed = _parse_int(obj["seed"], "seed", f"{location}.seed", 0)
    if task not in _SATAKE_TASKS and "truncation" in obj:
        # read by no Galois task, but checked: an int or a window, as the CLI may write either
        raw_tr = obj["truncation"]
        _parse_truncation(raw_tr, f"{location}.truncation", isinstance(raw_tr, list))
    echo: dict[str, Any] = {"task": task, "seed": seed}
    # a family's modules load with its first task, and only then
    if task in _SATAKE_TASKS:
        from . import satake_tasks as family
    else:
        from . import galois_tasks as family
    cfg = TaskConfig(task, echo, family.RUNNERS[task], seed)
    family.parse_fields(cfg, obj, location, default_truncation)
    return cfg


def parse_document(doc: Any, default_truncation: int = DEFAULT_TRUNCATION) -> list[TaskConfig]:
    """Parse a full config document (single task or batch)."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object", "document")
    version = _require(doc, "format_version", "document")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})",
            "document.format_version",
        )
    if "tasks" in doc:
        raw_tasks = doc["tasks"]
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise ConfigError("tasks must be a nonempty list", "document.tasks")
        _refuse_unknown(doc, ("format_version", "tasks"), "document")
        return [
            parse_task(t, default_truncation, f"tasks[{i}]") for i, t in enumerate(raw_tasks)
        ]
    body = {k: v for k, v in doc.items() if k != "format_version"}
    return [parse_task(body, default_truncation, "task")]


# -- execution ---------------------------------------------------------------


def _names(nvars: int) -> list[str]:
    return [f"α{i + 1}" for i in range(nvars)]


def run_task(cfg: TaskConfig) -> Report:
    """Execute one task; module precondition violations become error reports."""
    start = time.perf_counter()
    try:
        verdict, summary, data = cfg.run(cfg)
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
