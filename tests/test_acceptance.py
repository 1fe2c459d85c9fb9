"""Acceptance suite: one criterion per test, one printed line per criterion.

Every check here is an exact identity over the rationals (or bit-identical
bytes, for determinism); there are no tolerances to tune.  The package
holds each symmetric polynomial by its dominant terms, so the oracles' full
polynomials are projected with `dominant_part` before they are compared.
Each criterion also carries a wall-clock budget.  Every `lru_cache` of the
package, found by walking its modules, is cleared before every criterion so
the timings are cold, not flattering.
"""

import importlib
import io
import pkgutil
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

import extsq
from extsq.cli import main as cli_main
from extsq.lfactors import SatakeParams
from extsq.polynomials import MultiPoly
from extsq.series import series2_first_difference
from extsq.symmetric import SchurValues, schur
from extsq.tasks import parse_task, run_task
from extsq.torus_sums import LittlewoodIdentity
from extsq.weil_deligne import (
    FiniteAbelianGroup,
    WDRep,
    divisibility_check,
    prop_H_equality,
    random_k1_rep,
    random_wdrep,
)
from oracles import (
    LFactor,
    blocks,
    delta_half_exponent,
    dominant_part,
    dominant_series,
    embed_t1,
    embed_t2,
    ext_sq_lfactor,
    formal_ext_sq_L,
    partitions_bounded,
    schur_bialternant,
    series2_product,
    standard_L,
    standard_satake,
    substitute,
    symbolic_params,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# every lru_cache or cache of the package, by "module.name"
MEMOS = {
    f"{info.name}.{name}": memo
    for info in pkgutil.iter_modules(extsq.__path__)
    for name, memo in vars(importlib.import_module(f"extsq.{info.name}")).items()
    if hasattr(memo, "cache_clear")
}


@pytest.fixture(autouse=True)
def cold_caches():
    named = {"symmetric._schur", "lfactors._multigraphs", "polynomials._m_text", "lfactors._partitions"}
    assert named <= set(MEMOS)
    for memo in MEMOS.values():
        memo.cache_clear()
    yield


def finish(capsys, label, budget, t0, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    tail = f" -- {detail}" if (detail and status == "FAIL") else ""
    with capsys.disabled():
        print(f"[{status}] {label} ({elapsed:.2f}s / budget {budget:g}s){tail}")
    assert ok, f"{label}: {detail or 'check failed'}"
    assert elapsed <= budget, f"{label}: {elapsed:.2f}s over {budget:g}s budget"


def oracle_series(p, order):
    """The exterior-square series by series inversion, by its dominant terms."""
    return dominant_series(formal_ext_sq_L(p).series(order))


def row_difference(p, rows, order):
    """The lowest power where the t1^0 row of Littlewood's sum over `rows` rows leaves the oracle, or None."""
    diff = series2_first_difference(LittlewoodIdentity(p, rows, 0, order).grid, (oracle_series(p, order),))
    return None if diff is None else diff[0][1]


def torus_grid(p, l1, l2):
    """The two-variable torus sum: Littlewood's sum over at most n - 1 rows."""
    return LittlewoodIdentity(p, p.n - 1, l1, l2).grid


def test_criterion_01_schur_oracle(capsys):
    """Branching-rule and alternant constructions agree, |shape| <= 6, n <= 4."""
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 5):
        for weight in range(7):
            for f in partitions_bounded(weight, n):
                if schur(f, n) != dominant_part(schur_bialternant(f, n)):
                    bad.append((f, n))
    finish(capsys, "criterion 01: Schur branching rule == alternant quotient", 10.0, t0, not bad, f"mismatches: {bad}")


def test_criterion_02_littlewood_expansion(capsys):
    """Doubled-shape expansion equals the pair product for k = 2..5 symbols."""
    t0 = time.perf_counter()
    failures = []
    for k in (2, 3, 4, 5):
        order = 6 if k == 5 else 8
        p = symbolic_params(k)
        diff = row_difference(p, k, order)
        if diff is not None:
            failures.append((k, diff))
    finish(capsys, "criterion 02: Littlewood expansion k=2..5", 60.0, t0, not failures, f"first differences: {failures}")


def test_criterion_03_torus_sum_odd(capsys):
    """Odd-rank torus sums reproduce the exterior-square factor, n = 3, 5."""
    t0 = time.perf_counter()
    failures = []
    for n in (3, 5):
        p = symbolic_params(n)
        diff = row_difference(p, n - 1, 6)
        if diff is not None:
            failures.append((n, diff))
    finish(capsys, "criterion 03: odd-rank torus sum n=3,5", 60.0, t0, not failures, f"{failures}")


def test_criterion_04_torus_sum_even(capsys):
    """Even rank: identity with a vanishing entry, failure without one."""
    t0 = time.perf_counter()
    problems = []
    for n in (4, 6):
        p = SatakeParams.parse(["sym"] * (n - 1) + ["0"])
        diff = row_difference(p, n - 1, 6)
        if diff is not None:
            problems.append(f"n={n} differs at t^{diff}")
    neg = row_difference(symbolic_params(4), 3, 4)
    if neg is None:
        problems.append("all-nonzero n=4 unexpectedly agrees through t^4")
    elif neg > 4:
        problems.append(f"all-nonzero n=4 first difference at t^{neg} > 4")
    finish(capsys, "criterion 04: even-rank torus sum n=4,6 + sharpness", 60.0, t0, not problems, "; ".join(problems))


def test_criterion_05_degenerate_parameters(capsys):
    """<= 1 nonzero entry forces both the factor and the sum to be 1."""
    t0 = time.perf_counter()
    rng = random.Random(505)
    problems = []
    for i in range(100):
        n = rng.randrange(2, 7)
        toks = ["0"] * n
        if rng.random() < 0.8:
            num = rng.choice([x for x in range(-8, 9) if x])
            toks[rng.randrange(n)] = str(Fraction(num, rng.randrange(1, 7)))
        p = SatakeParams.parse(toks)
        if formal_ext_sq_L(p) != LFactor.one(p.nvars):
            problems.append(f"case {i}: factor not 1 for {toks}")
            continue
        s = LittlewoodIdentity(p, p.n - 1, 0, 5).grid[0]
        if any(not s[l].is_zero for l in range(1, 6)) or s[0] != 1:
            problems.append(f"case {i}: torus sum not 1 for {toks}")
    finish(capsys, "criterion 05: 100 degenerate parameter vectors", 5.0, t0, not problems, "; ".join(problems[:3]))


def test_criterion_06_padded_evaluation(capsys):
    """Padded Schur evaluation == full substitution on 200 random pairs."""
    t0 = time.perf_counter()
    rng = random.Random(606)
    problems = []
    for i in range(200):
        n = rng.randrange(2, 5)
        weight = rng.randrange(0, 6)
        shapes = partitions_bounded(weight, n)
        f = rng.choice(shapes) if shapes else ()
        values = []
        for _ in range(n):
            if rng.random() < 0.4:
                values.append(MultiPoly.zero(0))
            else:
                num = rng.choice([x for x in range(-6, 7) if x])
                values.append(MultiPoly.constant(0, Fraction(num, rng.randrange(1, 5))))
        direct = substitute(schur_bialternant(f, n), values)
        if SchurValues(SatakeParams(values), weight).value(f) != direct:
            problems.append((i, f, [str(v.constant_value()) for v in values]))
    finish(capsys, "criterion 06: padded evaluation vs full substitution (200 cases)", 30.0, t0, not problems, f"{problems[:2]}")


def test_criterion_07_two_variable_even(capsys):
    """Even-rank double sum: (1 - omega t2^m) times the product of factors."""
    t0 = time.perf_counter()
    problems = []

    def product(p, l1, l2):
        return series2_product(
            embed_t1(standard_L(p).series(l1), l2), embed_t2(formal_ext_sq_L(p).series(l2), l1)
        )

    p = symbolic_params(4)
    omega = reduce(lambda a, b: a * b, p.entries)
    grid = [[MultiPoly.zero(4) for _ in range(5)] for _ in range(5)]
    grid[0][0] = MultiPoly.one(4)
    grid[0][2] = -omega
    expected = dominant_series(series2_product(grid, product(p, 4, 4)))
    if series2_first_difference(torus_grid(p, 4, 4), expected) is not None:
        problems.append("symbolic n=4 with central factor")

    p0 = SatakeParams.parse(["sym", "sym", "sym", "0"])
    if series2_first_difference(torus_grid(p0, 4, 4), dominant_series(product(p0, 4, 4))) is not None:
        problems.append("n=4 with vanishing entry")
    finish(capsys, "criterion 07: two-variable sum, even rank n=4", 60.0, t0, not problems, "; ".join(problems))


def test_criterion_08_two_variable_odd(capsys):
    """Odd-rank double sum matches the product given a vanishing entry."""
    t0 = time.perf_counter()
    problems = []
    p = SatakeParams.parse(["sym", "sym", "0"])
    prod = series2_product(
        embed_t1(standard_L(p).series(4), 4), embed_t2(formal_ext_sq_L(p).series(4), 4)
    )
    prod = dominant_series(prod)
    if series2_first_difference(torus_grid(p, 4, 4), prod) is not None:
        problems.append("n=3 with vanishing entry differs from the product")
    probe = run_task(parse_task({"task": "bf-odd-probe", "satake": ["sym", "sym", "0"], "truncation": [4, 4]}))
    if not (probe.data["conductor_hypothesis"] and probe.data["matches_product"]):
        problems.append("probe did not certify the correction as 1")
    report = run_task(
        parse_task({"task": "bf-odd-probe", "satake": ["sym", "sym", "sym"], "truncation": [4, 4]})
    )
    if report.data["conductor_hypothesis"]:
        problems.append("all-nonzero probe mislabeled as conductor-positive")
    if report.data["correction"][0][0] != "1":
        problems.append("correction series is not normalized")
    if report.verdict != "info" or "correction" not in report.data:
        problems.append("all-nonzero probe not reported as info with its correction")
    finish(capsys, "criterion 08: two-variable sum, odd rank n=3", 30.0, t0, not problems, "; ".join(problems))


def test_criterion_09_half_density_doubling(capsys):
    """Duplicating every torus exponent (rank n -> 2n) quadruples the exponent."""
    t0 = time.perf_counter()
    rng = random.Random(909)
    problems = []
    for i in range(1000):
        n = rng.randrange(1, 9)
        g = tuple(rng.randrange(-9, 10) for _ in range(n))
        doubled = tuple(x for x in g for _ in range(2))
        if delta_half_exponent(doubled, 2 * n) != 4 * delta_half_exponent(g, n):
            problems.append((g, n))
    finish(capsys, "criterion 09: half-density doubling on 1000 vectors", 1.0, t0, not problems, f"{problems[:3]}")


def test_criterion_10_galois_divisibility(capsys):
    """Pair-product factor divides the exterior-square factor; strict witnesses."""
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(1010)
    for i in range(50):
        rep = random_wdrep(rng, q_choices=(2, 3, 5), max_dim=6)
        v = divisibility_check(rep)
        if not v.divides:
            problems.append(f"random rep {i}: {blocks(rep)}")
    sp2 = WDRep(5, FiniteAbelianGroup((1,)), [((0,), 2, Fraction(3, 2))])
    v = divisibility_check(sp2)
    if not (v.divides and v.strict):
        problems.append("special ladder witness not strict")
    pair = WDRep(
        5,
        FiniteAbelianGroup((2,)),
        [((1,), 1, "b1"), ((1,), 1, "b2")],
    )
    v = divisibility_check(pair)
    if not (v.divides and v.strict):
        problems.append("opposite ramified pair witness not strict")
    finish(capsys, "criterion 10: divisibility on 50 random reps + witnesses", 30.0, t0, not problems, "; ".join(problems[:3]))


def test_criterion_11_pairing_hypothesis(capsys):
    """Equality for 50 semisimple reps under the hypothesis; sharp without it."""
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(1111)
    for i in range(50):
        rep = random_k1_rep(rng, require_hypothesis=True)
        if not prop_H_equality(rep).equal:
            problems.append(f"random rep {i}: {blocks(rep)}")
    violator = WDRep(
        5,
        FiniteAbelianGroup((3,)),
        [((1,), 1, "a"), ((2,), 1, "b")],
    )
    try:
        prop_H_equality(violator)
        problems.append("hypothesis violation not refused")
    except ValueError:
        pass
    if ext_sq_lfactor(violator) == formal_ext_sq_L(standard_satake(violator)):
        problems.append("hypothesis is not sharp on the violating rep")
    v = divisibility_check(violator)
    if not (v.divides and v.strict):
        problems.append("violating rep does not exhibit strict divisibility")
    finish(capsys, "criterion 11: pairing-hypothesis equality on 50 reps + sharpness", 10.0, t0, not problems, "; ".join(problems[:3]))


def test_criterion_12_deterministic_reports(capsys):
    """Shipped configs give byte-identical machine reports, in and across processes."""
    t0 = time.perf_counter()
    problems = []
    configs = sorted(CONFIG_DIR.glob("*.json"))
    if not configs:
        problems.append(f"no configs found under {CONFIG_DIR}")

    def run_machine(path):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["run", "--config", str(path), "--format", "machine"])
        return code, buf.getvalue().encode("ascii")

    outputs = {}
    for path in configs:
        code1, out1 = run_machine(path)
        code2, out2 = run_machine(path)
        if code1 != 0 or code2 != 0:
            problems.append(f"{path.name}: nonzero exit ({code1}, {code2})")
        if out1 != out2:
            problems.append(f"{path.name}: two in-process runs differ")
        outputs[path] = out1

    if configs and not problems:
        probe = configs[0]
        proc = subprocess.run(
            [sys.executable, "-m", "extsq.cli", "run", "--config", str(probe), "--format", "machine"],
            capture_output=True,
            timeout=300,
        )
        if proc.returncode != 0:
            problems.append(f"subprocess exit {proc.returncode}: {proc.stderr[:200]}")
        elif proc.stdout != outputs[probe]:
            problems.append(f"{probe.name}: cross-process bytes differ")
    finish(capsys, "criterion 12: byte-identical machine reports", 120.0, t0, not problems, "; ".join(problems[:3]))
