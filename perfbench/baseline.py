"""Repeat the benchmark over seeds and summarise how steady each metric is.

    python3 perfbench/baseline.py --workloads symbolic,galois --seeds 1-10 [--write]

Runs `run.py --trace 0` once per seed for each workload (a fresh seed is a
fresh input, so the spread includes input-to-input variation), then one
`--trace 1` run on the first seed.  Prints, per end-to-end metric, the
median of the runs and their spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  --write merges the summary into perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [_run(workload, seed, seconds, 0) for seed in seeds]
    summary = {}
    for name, unit in run.END_TO_END:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": unit, "median": median, "spread": (q3 - q1) / median, "values": values}
        print(f"{workload:9s} {name:16s} median {median:<12.6g} {unit:6s} spread {(q3 - q1) / median:.3f}", flush=True)
    return {"seeds": seeds, "end_to_end": summary, "per_layer": _run(workload, seeds[0], seconds, 1)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--write", action="store_true", help="merge the summary into baseline.json")
    args = parser.parse_args()
    results = {w: summarise(w, _seeds(args.seeds), args.seconds) for w in args.workloads.split(",")}
    if args.write:
        recorded = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        recorded.update(results)
        recorded["machine"] = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "run_seconds": args.seconds,
        }
        BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
