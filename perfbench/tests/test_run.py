"""Tests of the benchmark command at smoke-test size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, lines = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CHILDREN
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END:
        assert any(line.startswith(f"{name} = ") and line.endswith(unit) for line in lines)


def test_traced_run_reports_every_layer_and_accounts_for_verify_time():
    code, lines = _bench("--workload", "symbolic", "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["symmetric.schur.calls"] > 0
    assert metrics["polynomials.MultiPoly.__mul__.term_pairs"] > 0
    assert metrics["weil_deligne.ext_sq_lfactor.calls"] == 0
    assert 0 <= metrics["trace.uncovered_share"] < 0.05
    assert metrics["trace.overhead_ratio"] > 1


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_documents_depend_only_on_the_seed_and_pin_truncation(workload):
    doc = workloads.generate(workload, 5)
    assert doc == workloads.generate(workload, 5)
    assert doc != workloads.generate(workload, 6)
    for task in doc["tasks"]:
        assert "truncation" in task or task["task"].startswith("galois")


def test_content_check_catches_wrong_verdicts_and_series():
    doc = {"format_version": 1, "tasks": [{"task": "verify-js", "satake": ["2", "1/3", "-1"], "truncation": 2}]}
    series = [str(c) for c in workloads.ext_sq_series([Fraction(2), Fraction(1, 3), Fraction(-1)], 2)]
    good = {"verdict": "pass", "data": {"product": series, "torus_sum": series}}
    assert workloads.content_failures(doc, {"reports": [good]}) == [(0, [])]
    wrong_series = {"verdict": "pass", "data": {"product": series, "torus_sum": series[:2] + ["0"]}}
    assert workloads.content_failures(doc, {"reports": [wrong_series]})[0][0] == 1
    wrong_verdict = dict(good, verdict="info")
    assert workloads.content_failures(doc, {"reports": [wrong_verdict]})[0][0] == 1


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_refuses_a_checkout_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    code, lines = _bench("--workload", "numeric", "--seed", "1", "--seconds", "0", "--trace", "0", root=root)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_a_wrong_program_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path, with_src=True)
    lfactors = root / "src" / "extsq" / "lfactors.py"
    text = lfactors.read_text()
    broken = text.replace("for j in range(i + 1, n)\n    ]", "for j in range(i + 1, n)\n    ][1:]")
    assert broken != text
    lfactors.write_text(broken)
    code, lines = _bench("--workload", "numeric", "--seed", "1", "--seconds", "0", "--trace", "0", "--tiny", root=root)
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
