"""One cold command-line run of a benchmark document, in this interpreter.

Makes the public calls `extsq.cli.main` makes for
`run --config DOC --format machine`: `tasks.parse_document`, `tasks.run_task`
once per task, `tasks.emit_machine`, then writes the output to stdout.  It
times each task and records its measurements as JSON in the --result file.

    python3 perfbench/child.py --doc DOC --result OUT [--spans SPANS]

With --spans the run is traced (see tracer.py) and the spans are written
there.  `extsq` must be importable (run.py puts the checkout's `src` on
PYTHONPATH).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds this interpreter takes for fixed exact-arithmetic and dict work.

    Run before and after the tasks, with the collector off so that the
    program's heap cannot slow it; run.py scales the child's timings by the
    mean of the two (see `run.CALIBRATION_REF_S`).
    """
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i % 7 + 1, i % 9 + 2) * i
    table: dict[int, int] = {}
    for i in range(60000):
        table[i * 7919 % 10007] = table.get(i % 101, 0) + i
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--doc", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    calibration_s = [calibrate()]

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from extsq import tasks

    with open(args.doc, encoding="utf-8") as fh:
        doc = json.load(fh)
    configs = tasks.parse_document(doc)
    setup_end = time.monotonic()

    reports = []
    task_s = []
    errors = []
    accounted = tracer.accounted_s() if tracer is not None else 0.0
    bookkeeping = tracer.bookkeeping_s if tracer is not None else 0.0
    start = time.perf_counter()
    for i, cfg in enumerate(configs):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            reports.append(tasks.run_task(cfg))
        except Exception as exc:  # a crashing task is a counted failure, not a lost run
            errors.append({"task": i, "error": repr(exc)})
        task_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.task = -1
    sys.stdout.write(tasks.emit_machine(reports))
    sys.stdout.flush()
    verify_s = time.perf_counter() - start
    calibration_s.append(calibrate())

    result = {
        "calibration_s": calibration_s,
        "setup_end": setup_end,
        "verify_s": verify_s,
        "task_s": task_s,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["accounted_s"] = tracer.accounted_s() - accounted
        result["bookkeeping_s"] = tracer.bookkeeping_s - bookkeeping
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
