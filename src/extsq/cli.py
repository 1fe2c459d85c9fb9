"""Command-line front end.

One subcommand per task plus `run` for JSON config files (single task or
batch).  Exit codes: 0 every task passed or was informational, 1 at least
one verification failed, 2 usage or config errors.  Every integer on the
command line and in `EXTSQ_TRUNCATION` is read by `tasks.parse_integer`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from . import tasks as T
from .tasks import ASCII_WHITESPACE, parse_integer


def _truncation_value(text: str) -> Any:
    try:
        nums = [parse_integer(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'L1,L2' pair, got {text!r}")
    if len(nums) > 2:
        raise argparse.ArgumentTypeError("truncation takes one or two integers")
    return nums[0] if len(nums) == 1 else nums


def _integer_value(text: str) -> int:
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _satake_value(text: str) -> list[str]:
    toks = [p.strip(ASCII_WHITESPACE) for p in text.split(",")]
    if not all(toks):
        raise argparse.ArgumentTypeError("empty satake entry")
    return toks


def _group_value(text: str) -> list[int]:
    try:
        return [parse_integer(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"group must be comma-separated integers, got {text!r}")


def _block_value(text: str) -> dict[str, Any]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"block must look like GRADE:LENGTH:SCALAR (grade dot-separated), got {text!r}"
        )
    grade_txt, length_txt, scalar = parts
    try:
        grade = [parse_integer(p) for p in grade_txt.split(".")] if grade_txt else []
        length = parse_integer(length_txt)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad block {text!r}")
    return {"grade": grade, "length": length, "scalar": scalar}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extsq",
        description="Exact verification of exterior-square local factor identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("machine", "table"),
        default="table",
        help="machine: canonical JSON (byte-stable); table: human-readable (default)",
    )
    common.add_argument(
        "--truncation",
        type=_truncation_value,
        default=None,
        help="series order, or 'L1,L2' for two-variable tasks (overrides config)",
    )
    common.add_argument("--seed", type=_integer_value, default=None, help="seed for randomized suites")

    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common], help="run tasks from a JSON config file")
    run.add_argument("--config", required=True, help="path to the config document")

    satake_help = "comma-separated entries: 'sym' or exact rationals (e.g. sym,sym,1/2,0)"
    for name, desc in (
        ("lfactor", "print standard and exterior-square factors with their expansions"),
        ("verify-littlewood", "doubled-shape Schur expansion against the pair product"),
        ("verify-js", "rank-n torus sum against the exterior-square factor"),
        ("verify-bf", "two-variable torus sum against its product form"),
        ("bf-odd-probe", "odd-rank sum over the product of factors: the correction 1 - ω t1 t2^m"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        p.add_argument("--satake", required=True, type=_satake_value, help=satake_help)

    for name, desc in (
        ("galois-divisibility", "pair-product factor divides the exterior-square factor"),
        ("galois-H", "exact equality for semisimple input under the pairing hypothesis"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        p.add_argument("--q", type=_integer_value, default=None, help=f"residue size (default {T.DEFAULT_Q})")
        p.add_argument(
            "--group",
            type=_group_value,
            default=None,
            help="cyclic orders of the grading group, comma-separated (default 1)",
        )
        p.add_argument(
            "--block",
            action="append",
            type=_block_value,
            default=None,
            metavar="GRADE:LENGTH:SCALAR",
            help="one indecomposable summand; repeatable (grade components dot-separated)",
        )
        p.add_argument(
            "--random-count",
            type=_integer_value,
            default=None,
            help="check this many seeded random representations instead of explicit blocks",
        )
    return parser


def _default_truncation() -> int:
    raw = os.environ.get(T.TRUNCATION_ENV_VAR)
    if raw is None:
        return T.DEFAULT_TRUNCATION
    try:
        value = parse_integer(raw)
    except ValueError:
        raise T.ConfigError(
            f"{T.TRUNCATION_ENV_VAR} must be an integer, got {raw!r}", "environment"
        )
    if not 0 <= value <= T.MAX_TRUNCATION:
        raise T.ConfigError(
            f"{T.TRUNCATION_ENV_VAR} must be between 0 and {T.MAX_TRUNCATION}", "environment"
        )
    return value


def _inline_doc(ns: argparse.Namespace) -> dict[str, Any]:
    body: dict[str, Any] = {"format_version": T.FORMAT_VERSION, "task": ns.command}
    if getattr(ns, "satake", None) is not None:
        body["satake"] = ns.satake
    if getattr(ns, "q", None) is not None:
        body["q"] = ns.q
    if getattr(ns, "group", None) is not None:
        body["group"] = ns.group
    if getattr(ns, "block", None) is not None:
        body["blocks"] = ns.block
    if getattr(ns, "random_count", None) is not None:
        body["random"] = {"count": ns.random_count}
    return body


def _load_config(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise T.ConfigError(f"cannot read config: {exc}", path)
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, over-long ints
        raise T.ConfigError(f"invalid JSON: {exc}", path)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        default_truncation = _default_truncation()
        doc = _load_config(ns.config) if ns.command == "run" else _inline_doc(ns)
        if not isinstance(doc, dict):
            raise T.ConfigError("config document must be a JSON object", "document")
        raw_tasks = doc["tasks"] if isinstance(doc.get("tasks"), list) else None
        if ns.truncation is not None or ns.seed is not None:
            targets = raw_tasks if raw_tasks is not None else [doc]
            for t in targets:
                if isinstance(t, dict):
                    if ns.truncation is not None:
                        t["truncation"] = ns.truncation
                    if ns.seed is not None:
                        t["seed"] = ns.seed
        configs = T.parse_document(doc, default_truncation)
    except T.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = T.run_all(configs)
    out = T.emit_machine(reports) if ns.format == "machine" else T.emit_table(reports)
    sys.stdout.write(out)
    return T.exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
