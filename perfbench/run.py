"""Benchmark for extsq: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 25 --trace 0

The run generates the workload's config document from --seed
(workloads.py), writes it under perfbench/out/, and checks it once with the
real command line, `python -m extsq.cli run --config DOC --format machine`,
outside the timed region.  It then starts fresh interpreters one at a time
(child.py), each a cold command-line run of the same document, until
--seconds have passed and at least MIN_CHILDREN have finished.  A command
line user pays for cold module caches on every call, so every child starts
cold.

Correctness, on every run: every child's machine output must be
byte-identical to the command line's; every verdict must be the one the
paper predicts for its input; numeric tasks' series must equal a plain
`Fraction` recomputation of prod_{i<j} (1 - a_i a_j t)^{-1}.  Each mismatch,
error verdict, crash or timeout counts against its checks (one per Satake
task, one per Galois representation).

--trace 0 reports the end-to-end metrics over untraced children.  Every
timing is scaled to a reference interpreter speed (see CALIBRATION_REF_S);
the unscaled verify time is printed beside it.  --trace 1
alternates untraced and traced children (tracer.py) and reports per-layer
busy time and counts, medians over the traced children, plus the tracing
overhead and the share of traced verify time no span covers.

Output: every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit status 1 when a
correctness check failed, 2 on bad arguments or when the checkout has no
`src/extsq` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Untraced children per run, whatever --seconds says; the tail percentile is
# fixed from it so that it does not move with the number of children.
MIN_CHILDREN = 6
# Timings are reported at a reference interpreter speed: the one at which
# the child's calibration loop (child.calibrate) takes this long.  On a
# 2-vCPU VM of a shared host, other tenants slowed the interpreter by up to
# 2x for tens of seconds at a time; the medians of 25 s runs then spread by
# 0.19-0.47 of their median between runs unscaled, and by 0.04-0.14 scaled.
# On a quiet host of that kind the factor is close to 1.
CALIBRATION_REF_S = 0.03
# Traced runs need fewer untraced children: they only give the overhead ratio.
MIN_TRACED = 3
# A run ends within this many seconds even when children hang or crash.
RUN_LIMIT_S = 170
MAX_CRASHES = 3

END_TO_END = [
    ("verify_s", "s"),
    ("checks_per_s", "1/s"),
    ("task_s_p50", "s"),
    ("task_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checks_ok_ratio", "ratio"),
]

PER_LAYER = (
    [(f"symmetric.schur.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("total_s", "s"), ("repeat_ratio", "ratio"))]
    + [(f"symmetric.schur_eval_padded.{k}", u) for k, u in (("calls", "count"), ("total_s", "s"), ("repeat_ratio", "ratio"))]
    + [("symmetric.complete_homogeneous.self_s", "s"), ("symmetric.partitions_bounded.self_s", "s")]
    + [(f"polynomials.MultiPoly.__mul__.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("term_pairs", "count"), ("terms_out", "count"))]
    + [("polynomials.MultiPoly.__add__.calls", "count"), ("polynomials.MultiPoly.__add__.self_s", "s")]
    + [(f"polynomials.MultiPoly.substitute.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))]
    + [("polynomials.MultiPoly.format.calls", "count"), ("polynomials.MultiPoly.format.self_s", "s")]
    + [("polynomials.unipoly_divides.calls", "count"), ("polynomials.max_coeff_bits", "bits"), ("polynomials.max_terms", "count")]
    + [
        (f"series.{name}.self_s", "s")
        for name in (
            "TruncSeries1.__mul__",
            "TruncSeries1.inverse",
            "TruncSeries2.__mul__",
            "TruncSeries2.inverse",
            "series_first_difference",
            "series2_first_difference",
        )
    ]
    + [
        (f"lfactors.{name}.total_s", "s")
        for name in ("ext_sq_expansion", "formal_ext_sq_L", "standard_L", "LFactor.series", "reciprocal_quotient")
    ]
    + [("lfactors.reciprocal_quotient.calls", "count")]
    + [
        (f"torus_sums.{name}.total_s", "s")
        for name in ("js_even_series", "js_odd_series", "bf_series", "bf_odd_correction_probe")
    ]
    + [("torus_sums.whittaker_value.calls", "count")]
    + [
        (f"weil_deligne.{name}.{k}", u)
        for name in ("ext_sq_lfactor", "wd_lfactor", "divisibility_check", "prop_H_equality")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("weil_deligne.max_wedge_dim", "count")]
    + [(f"tasks.{name}.self_s", "s") for name in ("parse_document", "run_task", "emit_machine")]
    + [("tasks.emit_machine.bytes", "bytes")]
    + [
        ("trace.verify_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.bookkeeping_share", "ratio"),
        ("trace.uncovered_share", "ratio"),
        ("trace.spans", "count"),
    ]
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EXTSQ_TRUNCATION", None)  # every task pins its truncation
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _cli_output(doc_path: Path) -> tuple[int, bytes]:
    cmd = [sys.executable, "-m", "extsq.cli", "run", "--config", str(doc_path), "--format", "machine"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=RUN_LIMIT_S / 2)
    except subprocess.TimeoutExpired:
        return -1, b""
    return proc.returncode, proc.stdout


def _run_child(doc_path: Path, result_path: Path, spans_path: Path | None, timeout: float) -> dict[str, Any] | None:
    """One cold run; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "child.py"), "--doc", str(doc_path), "--result", str(result_path)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    before, after = result["calibration_s"]
    factor = result["factor"] = CALIBRATION_REF_S / ((before + after) / 2)
    result["raw_verify_s"] = result["verify_s"]
    result["setup_s"] = (result["setup_end"] - started - before) * factor
    result["task_s"] = [t * factor for t in result["task_s"]]
    for key in ("verify_s", "accounted_s", "bookkeeping_s"):
        if key in result:
            result[key] *= factor
    for key in result.get("layers", {}):
        if key.endswith("_s"):
            result["layers"][key] *= factor
    result["sha256"] = hashlib.sha256(proc.stdout).hexdigest()
    result["traced"] = spans_path is not None
    return result


def _percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def tail_percentile(ntasks: int) -> int:
    """Highest whole percentile with >= 10 of MIN_CHILDREN * ntasks samples beyond it."""
    return max(1, math.floor(100 * (1 - 10 / (MIN_CHILDREN * ntasks))))


def end_to_end(children: list[dict[str, Any]], checks: int, ntasks: int) -> dict[str, float]:
    samples = [t for c in children for t in c["task_s"]]
    return {
        "verify_s": statistics.median(c["verify_s"] for c in children),
        "checks_per_s": statistics.median(checks / c["verify_s"] for c in children),
        "task_s_p50": statistics.median(samples),
        "task_s_tail": _percentile(samples, tail_percentile(ntasks)),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def per_layer(untraced: list[dict[str, Any]], traced: list[dict[str, Any]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if not name.startswith("trace."):
            # a name the program no longer has did no work
            out[name] = statistics.median(c["layers"].get(name, 0) for c in traced)
    verify = statistics.median(c["verify_s"] for c in traced)
    out["trace.verify_s"] = verify
    out["trace.overhead_ratio"] = verify / statistics.median(c["verify_s"] for c in untraced)
    out["trace.bookkeeping_share"] = statistics.median(c["bookkeeping_s"] / c["verify_s"] for c in traced)
    out["trace.uncovered_share"] = statistics.median(1 - c["accounted_s"] / c["verify_s"] for c in traced)
    out["trace.spans"] = statistics.median(c["layers"]["trace.spans"] for c in traced)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "extsq" / "__init__.py").is_file():
        print(f"error: no extsq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    doc = workloads.generate(args.workload, args.seed, args.tiny)
    doc_path = OUT / f"doc-{tag}.json"
    doc_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    checks = sum(workloads.check_count(t) for t in doc["tasks"])
    ntasks = len(doc["tasks"])

    # the reference output, from the real command line, outside the timed region
    code, reference = _cli_output(doc_path)
    try:
        content = workloads.content_failures(doc, json.loads(reference))
    except json.JSONDecodeError:
        content = [(workloads.check_count(t), ["no machine output"]) for t in doc["tasks"]]
    problems = [f"task {i}: {p}" for i, (_, ps) in enumerate(content) for p in ps]
    if code != 0:
        problems.append(f"command line exited {code}")
    ref_failed = checks if code != 0 else sum(n for n, _ in content)
    ref_sha = hashlib.sha256(reference).hexdigest()

    children: list[dict[str, Any]] = []
    attempted = failed = crashes = 0
    while crashes < MAX_CRASHES:
        untraced = [c for c in children if not c["traced"]]
        traced = [c for c in children if c["traced"]]
        elapsed = time.monotonic() - began
        if args.trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED
        else:
            enough = len(untraced) >= MIN_CHILDREN
        if (enough and elapsed >= args.seconds) or elapsed >= RUN_LIMIT_S - 1:
            break
        spans = OUT / f"spans-{args.workload}-{args.seed}.json" if args.trace and len(traced) < len(untraced) else None
        child = _run_child(doc_path, OUT / f"result-{tag}.json", spans, RUN_LIMIT_S - elapsed)
        attempted += checks
        if child is None:
            crashes += 1
            failed += checks
            problems.append("a child crashed or timed out")
            continue
        children.append(child)
        if child["sha256"] != ref_sha:
            failed += checks
            problems.append(f"child output differs from the command line's: {child['errors']}")
        else:
            failed += ref_failed
    doc_path.unlink()

    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    metrics: dict[str, float] = {}
    units = dict(END_TO_END + PER_LAYER)
    if untraced and (not args.trace or traced):
        if args.trace:
            metrics = per_layer(untraced, traced)
        else:
            metrics = end_to_end(untraced, checks, ntasks)
            metrics["checks_ok_ratio"] = (attempted - failed) / attempted
    correct = failed == 0 and not problems and bool(metrics)

    print(f"workload {args.workload}, seed {args.seed}: {ntasks} tasks, {checks} checks per run of the document")
    print(f"children: {len(untraced)} untraced, {len(traced)} traced; {time.monotonic() - began:.1f} s in all")
    if children:
        raw = statistics.median(c["raw_verify_s"] for c in untraced or children)
        speed = statistics.median(c["factor"] for c in children)
        print(f"unscaled verify_s median {raw!r} s; timings scaled by a median {speed:.3f}")
    if not args.trace and untraced:
        n = sum(len(c["task_s"]) for c in untraced)
        print(f"task_s_tail is p{tail_percentile(ntasks)} of {n} task samples")
    for p in problems[:20]:
        print(f"FAILED {p}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
