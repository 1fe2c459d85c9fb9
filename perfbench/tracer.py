"""Span tracer for traced benchmark runs.

`Tracer.install` wraps every public function and public method of the
`extsq` modules, plus the arithmetic dunders of their classes, and re-binds
each wrapped function wherever a module holds it under a name (so
`from .symmetric import schur_eval_padded` in `tasks` is traced too).
Classmethod constructors and properties are left alone: they are O(1).

Every call updates per-name totals (calls, self time, total time) and a
few counters taken where the work happens.  Calls outside the polynomial
layer are also kept as spans (name, start, end, parent span, task id) and
written out by `dump`; the polynomial layer's calls number in the hundreds
of thousands, so they are folded into their callers' spans as totals only.
What the tracer spends after a call returns (its counters) is kept out of
every self time and summed as `bookkeeping_s`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter
from typing import Any, Callable

MODULES = ("polynomials", "series", "symmetric", "lfactors", "torus_sums", "weil_deligne", "tasks", "cli")
DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__divmod__"}


def _coeff_bits(poly: Any) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for _, c in poly.terms()), default=0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.depth: list[int] = []
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        # open frames: [start, time covered by children]
        self.stack: list[list[float]] = []
        self.open_span = -1
        self.task = -1
        self.paused = False
        self.bookkeeping_s = 0.0
        self._seen: dict[str, set] = {}

    # -- counters taken at layer boundaries ------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _repeat(self, name: str, key: Any) -> None:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self._count(f"{name}.repeats")
        seen.add(key)

    def _hooks(self) -> dict[str, Callable[[tuple, Any], None]]:
        def mul(args: tuple, out: Any) -> None:
            a, b = args
            if hasattr(b, "terms"):
                self._count("polynomials.MultiPoly.__mul__.term_pairs", len(a) * len(b))
                self._count("polynomials.MultiPoly.__mul__.terms_out", len(out))

        def substitute(args: tuple, out: Any) -> None:
            self._maximum("polynomials.max_coeff_bits", _coeff_bits(out))

        def fmt(args: tuple, out: Any) -> None:
            self._maximum("polynomials.max_coeff_bits", _coeff_bits(args[0]))

        def schur(args: tuple, out: Any) -> None:
            self._repeat("symmetric.schur", (tuple(args[0]), args[1]))

        def schur_eval_padded(args: tuple, out: Any) -> None:
            values = tuple(tuple(v.terms()) for v in args[1])
            self._repeat("symmetric.schur_eval_padded", (tuple(args[0]), values))

        def wedge(args: tuple, out: Any) -> None:
            dim = args[0].dim
            self._maximum("weil_deligne.max_wedge_dim", dim * (dim - 1) // 2)

        def emitted(args: tuple, out: Any) -> None:
            self._count("tasks.emit_machine.bytes", len(out))

        return {
            "polynomials.MultiPoly.__mul__": mul,
            "polynomials.MultiPoly.substitute": substitute,
            "polynomials.MultiPoly.format": fmt,
            "symmetric.schur": schur,
            "symmetric.schur_eval_padded": schur_eval_padded,
            "weil_deligne.ext_sq_lfactor": wedge,
            "tasks.emit_machine": emitted,
        }

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.depth.append(0)
        keep_span = not name.startswith("polynomials.")
        polynomial = name.startswith("polynomials.MultiPoly.")
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return fn(*args, **kwargs)
            self.depth[idx] += 1
            parent = self.open_span
            if keep_span:
                self.open_span = len(spans)
                spans.append(None)  # filled on exit, so parents precede children
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                start, children = frame
                self.depth[idx] -= 1
                self.calls[idx] += 1
                self.self_s[idx] += end - start - children
                if not self.depth[idx]:
                    self.total_s[idx] += end - start
                if keep_span:
                    spans[self.open_span] = (idx, start, end, parent, self.task)
                    self.open_span = parent
                if stack:
                    stack[-1][1] += end - start
            self.paused = True
            try:
                if hook is not None:
                    hook(args, out)
                if polynomial and hasattr(out, "terms"):
                    self._maximum("polynomials.max_terms", len(out))
            finally:
                self.paused = False
            # bookkeeping after the call is the tracer's time, not the caller's
            spent = perf_counter() - end
            self.bookkeeping_s += spent
            if stack:
                stack[-1][1] += spent
            return out

        return traced

    def install(self) -> None:
        hooks = self._hooks()
        modules = [importlib.import_module("extsq")]
        modules += [importlib.import_module(f"extsq.{m}") for m in MODULES]
        wrapped: dict[int, Callable] = {}
        for mod in modules[1:]:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{obj.__qualname__}"
                    wrapped[id(obj)] = self._wrap(name, obj, hooks.get(name))
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not method.startswith("_") or method in DUNDERS):
                            if id(fn) not in wrapped:
                                name = f"{short}.{fn.__qualname__}"
                                wrapped[id(fn)] = self._wrap(name, fn, hooks.get(name))
                            setattr(obj, method, wrapped[id(fn)])
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name calls/self_s/total_s, counters, and derived ratios."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.total_s"] = self.total_s[i]
        out.update(self.counters)
        for name in ("symmetric.schur", "symmetric.schur_eval_padded"):
            calls = out.get(f"{name}.calls", 0)
            out[f"{name}.repeat_ratio"] = self.counters.get(f"{name}.repeats", 0) / calls if calls else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def accounted_s(self) -> float:
        """Time so far inside traced calls or the tracer's own bookkeeping."""
        return sum(self.self_s) + self.bookkeeping_s

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "task"],
                    "names": self.names,
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )
