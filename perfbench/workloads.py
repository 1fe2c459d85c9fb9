"""Seeded workload documents, their predicted verdicts, and an exact oracle.

Each workload is a fixed template of tasks: the seed chooses values and the
positions of zeros and symbols, never the size of a task, so the work per
document stays nearly constant from seed to seed.  Satake tasks keep their
template order: tasks with the same number of nonzero entries share the
Schur cache and the first of them pays for it, so a seeded order would move
work between tasks and make the per-task percentiles depend on the seed.
The program under test only sees the generated config document.

Nothing here imports `extsq`: predictions and the oracle are independent of
the code being measured.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

WORKLOADS = ("symbolic", "numeric", "mixed", "galois")


def _rational(rng: random.Random, fraction: bool) -> str:
    """A nonzero small int, or a non-integral fraction with denominator <= 9."""
    num = rng.choice([x for x in range(-9, 10) if x])
    if not fraction:
        return str(num)
    while True:
        value = Fraction(num, rng.randint(2, 9))
        if value.denominator != 1:
            return str(value)
        num = rng.choice([x for x in range(-9, 10) if x])


def _vector(rng: random.Random, syms: int, fractions: int, ints: int, zeros: int) -> list[str]:
    """A Satake vector with exactly these entry kinds, in seeded positions."""
    entries = (
        ["sym"] * syms
        + [_rational(rng, True) for _ in range(fractions)]
        + [_rational(rng, False) for _ in range(ints)]
        + ["0"] * zeros
    )
    rng.shuffle(entries)
    return entries


# (task, syms, fractions, ints, zeros, truncation); the seed fills in the rest.
_SYMBOLIC = [
    ("verify-littlewood", 6, 0, 0, 0, 5),
    ("verify-js", 5, 0, 0, 0, 6),
    ("verify-js", 5, 0, 0, 1, 6),
    ("verify-js", 4, 0, 0, 0, 6),
    ("verify-js", 3, 0, 0, 1, 8),
    ("verify-bf", 4, 0, 0, 0, [5, 5]),
    ("verify-bf", 2, 0, 0, 1, [5, 5]),
    ("bf-odd-probe", 5, 0, 0, 0, [4, 3]),
    ("lfactor", 5, 0, 0, 0, 6),
]
_NUMERIC = [
    ("verify-js", 0, 2, 3, 0, 6),
    ("verify-js", 0, 2, 3, 1, 6),
    ("verify-js", 0, 2, 3, 2, 6),
    ("verify-js", 0, 3, 2, 0, 5),
    ("verify-js", 0, 2, 2, 1, 8),
    ("verify-js", 0, 2, 2, 0, 8),
    ("verify-js", 0, 1, 2, 1, 7),
    ("verify-littlewood", 0, 2, 3, 0, 6),
    ("verify-littlewood", 0, 1, 4, 0, 5),
    ("verify-littlewood", 0, 2, 2, 0, 8),
    ("verify-littlewood", 0, 2, 2, 2, 7),
]
_MIXED = [
    ("verify-js", 1, 2, 2, 0, 6),
    ("verify-js", 2, 1, 2, 0, 6),
    ("verify-js", 3, 1, 1, 0, 6),
    ("verify-js", 2, 1, 1, 1, 6),
    ("verify-littlewood", 2, 1, 2, 0, 6),
    ("verify-littlewood", 1, 2, 1, 0, 8),
    ("verify-bf", 1, 1, 2, 0, [4, 4]),
    ("verify-bf", 2, 1, 1, 0, [4, 4]),
    ("verify-bf", 1, 1, 0, 1, [5, 5]),
]
# Smoke-test sizes: the same task kinds, a fraction of the work.
_TINY = {
    "symbolic": [
        ("verify-littlewood", 4, 0, 0, 0, 4),
        ("verify-js", 3, 0, 0, 0, 4),
        ("verify-js", 4, 0, 0, 0, 3),
        ("verify-bf", 3, 0, 0, 1, [2, 2]),
        ("bf-odd-probe", 3, 0, 0, 0, [2, 2]),
        ("lfactor", 3, 0, 0, 0, 3),
    ],
    "numeric": [
        ("verify-js", 0, 1, 2, 0, 4),
        ("verify-js", 0, 1, 2, 1, 4),
        ("verify-littlewood", 0, 1, 2, 0, 4),
    ],
    "mixed": [
        ("verify-js", 1, 1, 1, 0, 4),
        ("verify-littlewood", 1, 1, 1, 0, 4),
        ("verify-bf", 1, 1, 0, 1, [2, 2]),
    ],
}


def _satake_doc(template: list[tuple], rng: random.Random) -> list[dict[str, Any]]:
    return [
        {"task": task, "satake": _vector(rng, syms, fracs, ints, zeros), "truncation": tr}
        for task, syms, fracs, ints, zeros, tr in template
    ]


def _hypothesis_h(orders: list[int], grades: list[list[int]]) -> bool:
    """No two nonzero grades sum to zero in Z/m1 x ... x Z/mr."""
    ramified = [g for g in grades if any(x % m for x, m in zip(g, orders))]
    for i, a in enumerate(ramified):
        for b in ramified[i + 1 :]:
            if all((x + y) % m == 0 for x, y, m in zip(a, b, orders)):
                return False
    return True


# (task, ladder lengths, group orders, symbolic scalars): the seed fills in
# block order, grades, scalars and q.  Lengths and group are fixed per slot,
# and symbolic representations stay small, because the cost of a check grows
# steeply with the grade-zero wedge dimension and the number of symbols.
_LADDERS = {4: (2, 1, 1), 6: (3, 2, 1), 8: (4, 2, 1, 1), 10: (4, 3, 2, 1)}
_GALOIS_SLOTS = (
    [("galois-divisibility", _LADDERS[d], g, False) for d in (4, 6, 8, 10) for g in ([1], [2], [3], [2, 2])]
    + [("galois-divisibility", (1,) * d, g, True) for d in (2, 3, 4) for g in ([1], [2], [3])]
    + [("galois-H", (1,) * d, g, False) for d in (4, 6) for g in ([2], [3], [4])]
    + [("galois-H", (1,) * d, g, True) for d in (3, 4) for g in ([2], [3], [4])]
)


def _galois_rep(
    rng: random.Random, task: str, lengths: tuple[int, ...], orders: list[int], symbolic: bool
) -> dict[str, Any]:
    """Blocks with the given ladder lengths; galois-H grades meet the pairing hypothesis."""
    while True:
        grades = [[rng.randrange(m) for m in orders] for _ in lengths]
        if task != "galois-H" or _hypothesis_h(orders, grades):
            break
    blocks = [
        {"grade": g, "length": k, "scalar": f"c{i + 1}" if symbolic else _rational(rng, rng.random() < 0.5)}
        for i, (g, k) in enumerate(zip(grades, rng.sample(lengths, len(lengths))))
    ]
    return {"task": task, "q": rng.choice([2, 3, 5, 7]), "group": orders, "blocks": blocks}


def _galois_doc(rng: random.Random, tiny: bool) -> list[dict[str, Any]]:
    tasks = [_galois_rep(rng, *slot) for _ in range(1 if tiny else 4) for slot in _GALOIS_SLOTS]
    for task in ("galois-divisibility", "galois-H"):
        count = 40 if tiny else 1000
        tasks.append({"task": task, "random": {"count": count}, "seed": rng.randrange(1 << 30)})
    rng.shuffle(tasks)
    return tasks


def generate(workload: str, seed: int, tiny: bool = False) -> dict[str, Any]:
    """The config document for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "galois":
        tasks = _galois_doc(rng, tiny)
    else:
        templates = {"symbolic": _SYMBOLIC, "numeric": _NUMERIC, "mixed": _MIXED}
        if workload not in templates:
            raise ValueError(f"unknown workload {workload!r}")
        tasks = _satake_doc(_TINY[workload] if tiny else templates[workload], rng)
    return {"format_version": 1, "tasks": tasks}


# -- expectations --------------------------------------------------------------


def predicted_verdict(task: dict[str, Any]) -> str:
    """The verdict the paper's statements predict for a generated task."""
    kind = task["task"]
    if kind == "lfactor":
        return "info"
    if kind in ("galois-divisibility", "galois-H"):
        return "pass"
    entries = task["satake"]
    n = len(entries)
    has_zero = any(e == "0" for e in entries)
    if kind == "verify-js" and n % 2 == 0 and not has_zero:
        return "info"
    if kind in ("verify-bf", "bf-odd-probe") and n % 2 == 1 and not has_zero:
        return "info"
    return "pass"


def check_count(task: dict[str, Any]) -> int:
    """Checks a task performs: one per Satake task, one per representation."""
    if "random" in task:
        return task["random"]["count"]
    return 1


def ext_sq_series(entries: list[Fraction], order: int) -> list[Fraction]:
    """prod_{i<j} (1 - a_i a_j t)^{-1} through t^order, in plain Fractions."""
    series = [Fraction(1)] + [Fraction(0)] * order
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            m = entries[i] * entries[j]
            for l in range(1, order + 1):
                series[l] += m * series[l - 1]
    return series


def _oracle_failures(task: dict[str, Any], report: dict[str, Any]) -> list[str]:
    """Compare a numeric task's reported series against `ext_sq_series`."""
    entries = [Fraction(e) for e in task["satake"]]
    want = [str(c) for c in ext_sq_series(entries, task["truncation"])]
    data = report["data"]
    fields = ["product"]
    if report["verdict"] == "pass":
        fields.append("expansion" if task["task"] == "verify-littlewood" else "torus_sum")
    return [f"{name} series differs from the oracle" for name in fields if data.get(name) != want]


def content_failures(doc: dict[str, Any], machine: dict[str, Any]) -> list[tuple[int, list[str]]]:
    """Per task, the failed check count and what is wrong in a parsed report."""
    tasks = doc["tasks"]
    reports = machine.get("reports", [])
    if len(reports) != len(tasks):
        return [(check_count(t), ["report missing"]) for t in tasks]
    out = []
    for task, report in zip(tasks, reports):
        want = predicted_verdict(task)
        problems = []
        if report["verdict"] != want:
            problems.append(f"verdict {report['verdict']!r}, predicted {want!r}")
        elif task["task"] in ("verify-js", "verify-littlewood") and "sym" not in task["satake"]:
            problems += _oracle_failures(task, report)
        if problems:
            out.append((check_count(task), problems))
            continue
        # a random suite that passes lists no failures; count any it does list
        failures = report["data"].get("failures") or []
        out.append((len(failures), [f"{len(failures)} representations failed"] if failures else []))
    return out
