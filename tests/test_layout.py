"""Package layout: the package holds production code only, and loads lazily.

The independent routes the tests check the package against live in
`tests/oracles.py`.  No `extsq` module or class binds one of their public
names, so no production route can reach an oracle, and every name that
`extsq.__all__` exports resolves.

`import extsq` loads no submodule, and a config document loads the modules
of its own task family while it is parsed, and none after.  Both are
checked in fresh interpreters, since this process has imported everything.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import extsq
import oracles

ORACLE_NAMES = sorted(
    name
    for name, obj in vars(oracles).items()
    if not name.startswith("_") and getattr(obj, "__module__", None) == oracles.__name__
)
MODULES = [extsq] + [
    importlib.import_module(f"extsq.{info.name}") for info in pkgutil.iter_modules(extsq.__path__)
]


def test_oracles_are_found():
    required = {"alphas", "schur_bialternant", "standard_satake", "wd_lfactor"}
    required |= {"LFactor", "formal_ext_sq_L", "ext_sq_lfactor"}
    required |= {"randrange_wdrep", "randrange_k1_rep", "root_multiset_differences", "key_roots"}
    required |= {"substitute", "power", "delta_half_exponent"}
    required |= {"series_pad", "series_product", "series_inverse"}
    required |= {"embed_t1", "embed_t2", "series2_product"}
    required |= {"partitions_bounded", "alternating_sum", "even_index_sum", "doubled_shape"}
    required |= {"machine_json"}
    required |= {"dominant_part", "dominant_series", "expand_m_basis", "format_m"}
    required |= {"EntryVector", "satake_report_data", "multigraph_count"}
    assert required <= set(ORACLE_NAMES)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_binds_an_oracle_name(module):
    bound = [name for name in ORACLE_NAMES if hasattr(module, name)]
    bound += [
        f"{cls.__name__}.{name}"
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        for name in ORACLE_NAMES
        if name in vars(cls)
    ]
    assert bound == []


def test_every_exported_name_resolves():
    assert len(set(extsq.__all__)) == len(extsq.__all__)
    assert [name for name in extsq.__all__ if not hasattr(extsq, name)] == []


def _fresh(code: str, *args: str) -> dict:
    """Run `code` in a fresh interpreter that imports this `extsq`; parse its one line of JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(extsq.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.startswith('extsq.'))"


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        got = _fresh(
            "import json, sys, extsq\n"
            f"loaded = {_LOADED}\n"
            "try:\n    extsq.no_such_name\nexcept AttributeError as exc:\n    missing = str(exc)\n"
            "print(json.dumps({'loaded': loaded, 'all': extsq.__all__, 'dir': dir(extsq), 'missing': missing}))"
        )
        assert got["loaded"] == []
        assert got["all"] == extsq.__all__
        assert set(extsq.__all__) <= set(got["dir"])
        assert got["missing"] == "module 'extsq' has no attribute 'no_such_name'"

    @pytest.mark.parametrize("attribute_first", [False, True], ids=["from_import_first", "attribute_first"])
    def test_every_exported_name_resolves_both_ways(self, attribute_first):
        """`from extsq import X` and `extsq.X` give the defining module's object, in either order."""
        got = _fresh(
            "import json, sys, extsq\n"
            "attribute_first = sys.argv[1] == '1'\n"
            "out = {}\n"
            "for name in extsq.__all__:\n"
            "    ns = {}\n"
            "    first = getattr(extsq, name) if attribute_first else None\n"
            "    exec(f'from extsq import {name}', ns)\n"
            "    value = ns[name]\n"
            "    module = getattr(value, '__module__', None)\n"
            "    home = getattr(sys.modules[module], name) if module in sys.modules else value\n"
            "    out[name] = [value is getattr(extsq, name), first in (None, value), value is home, module]\n"
            "print(json.dumps(out))",
            "1" if attribute_first else "0",
        )
        assert list(got) == extsq.__all__
        for name, (same, same_first, from_home, module) in got.items():
            assert same and same_first and from_home, name
            assert name == "__version__" or module.startswith("extsq."), name

    def test_unknown_name_is_an_import_error(self):
        with pytest.raises(ImportError):
            exec("from extsq import no_such_name", {})


_PARSE_AND_RUN = (
    "import json, sys\n"
    "from extsq import tasks\n"
    "configs = tasks.parse_document(json.loads(sys.argv[1]))\n"
    f"parsed = {_LOADED}\n"
    "reports = [tasks.run_task(cfg) for cfg in configs]\n"
    "tasks.emit_machine(reports)\n"
    "print(json.dumps({'parsed': parsed, 'after': " + _LOADED + ", "
    "'reports': [[r.task['task'], r.verdict] for r in reports]}))"
)
_SATAKE_MODULES = {"extsq.satake_tasks", "extsq.lfactors", "extsq.series", "extsq.symmetric", "extsq.torus_sums"}
_GALOIS_MODULES = {"extsq.galois_tasks", "extsq.weil_deligne"}
_GALOIS_TASKS = [
    {"task": "galois-divisibility", "q": 5, "group": [2], "blocks": [{"grade": [1], "length": 2, "scalar": "3/2"}]},
    {"task": "galois-H", "random": {"count": 5}, "seed": 3},
]
_SATAKE_TASKS = [
    {"task": "lfactor", "satake": ["sym", "1/2"], "truncation": 2},
    {"task": "verify-littlewood", "satake": ["sym", "sym", "0"], "truncation": 2},
    {"task": "verify-js", "satake": ["sym", "2", "0"], "truncation": 2},
    {"task": "verify-bf", "satake": ["sym", "sym"], "truncation": [2, 2]},
    {"task": "bf-odd-probe", "satake": ["sym", "sym", "0"], "truncation": [1, 2]},
]


class TestImportBoundary:
    """Each document loads its family's modules while parsing; running and emitting load none."""

    def run(self, tasks):
        got = _fresh(_PARSE_AND_RUN, json.dumps({"format_version": 1, "tasks": tasks}))
        assert got["after"] == got["parsed"]
        assert [task for task, _ in got["reports"]] == [t["task"] for t in tasks]
        assert all(verdict in ("pass", "info") for _, verdict in got["reports"])
        return set(got["parsed"])

    def test_galois_document_loads_no_satake_module(self):
        loaded = self.run(_GALOIS_TASKS)
        assert _GALOIS_MODULES <= loaded
        assert not loaded & _SATAKE_MODULES

    def test_satake_document_loads_no_galois_module(self):
        loaded = self.run(_SATAKE_TASKS)
        assert _SATAKE_MODULES <= loaded
        assert not loaded & _GALOIS_MODULES

    def test_only_satake_documents_load_polynomials(self):
        """Galois roots print from their integer keys: `polynomials` is a Satake module."""
        assert "extsq.polynomials" not in self.run(_GALOIS_TASKS)
        assert "extsq.polynomials" in self.run(_SATAKE_TASKS)

    def test_galois_command_line_loads_no_polynomials(self):
        got = _fresh(
            "import contextlib, io, json, sys\n"
            "from extsq import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(sys.argv[1:])\n"
            f"print(json.dumps({{'code': code, 'out': out.getvalue(), 'loaded': {_LOADED}}}))",
            "galois-divisibility", "--q", "3", "--group", "2", "--block", "1:1:b1", "--block", "1:1:b2", "--block", "0:1:3/2",
            "--format", "machine",
        )
        assert got["code"] == 0 and '"verdict": "pass"' in got["out"]
        assert got["loaded"] == ["extsq.cli", "extsq.galois_tasks", "extsq.tasks", "extsq.weil_deligne"]

    def test_mixed_document_loads_both_and_keeps_input_order(self):
        tasks = [_GALOIS_TASKS[1], _SATAKE_TASKS[2], _GALOIS_TASKS[0], _SATAKE_TASKS[0]]
        assert _SATAKE_MODULES | _GALOIS_MODULES <= self.run(tasks)
