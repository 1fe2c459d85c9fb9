"""Package layout: the package holds production code only.

The independent routes the tests check the package against live in
`tests/oracles.py`.  No `extsq` module or class binds one of their public
names, so no production route can reach an oracle, and every name that
`extsq.__all__` exports resolves.
"""

import importlib
import inspect
import pkgutil

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
    required |= {"randrange_wdrep", "randrange_k1_rep", "root_multiset_differences"}
    required |= {"substitute", "power", "delta_half_exponent"}
    required |= {"series_pad", "series_product", "series_inverse"}
    required |= {"embed_t1", "embed_t2", "series2_product"}
    required |= {"partitions_bounded", "alternating_sum", "even_index_sum", "doubled_shape"}
    required |= {"machine_json"}
    required |= {"dominant_part", "dominant_series", "expand_m_basis", "format_m"}
    required |= {"EntryVector", "satake_report_data"}
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
