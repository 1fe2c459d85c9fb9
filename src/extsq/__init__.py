"""Exact verification of exterior-square local L-factor identities.

Everything is computed over the rationals (or with formal symbols); there is
no floating point anywhere, so every verification is an exact identity check
rather than a numerical comparison.

The exported names load lazily (PEP 562): `import extsq` imports no
submodule, and reading `extsq.X` or `from extsq import X` imports the one
module that defines X, so a Galois-side caller never compiles the Satake
modules, nor the reverse.
"""

from importlib import import_module

__version__ = "0.1.0"

# The exported names, by the module that defines them.
_EXPORTS = {
    "polynomials": ("MultiPoly",),
    "series": ("series2_first_difference",),
    "symmetric": ("littlewood_sum", "schur", "window_partitions"),
    "lfactors": ("SatakeParams", "ext_sq_roots"),
    "torus_sums": ("LittlewoodIdentity",),
    "weil_deligne": (
        "DivisibilityVerdict",
        "FiniteAbelianGroup",
        "PropHResult",
        "WDBlock",
        "WDRep",
        "divisibility_check",
        "prop_H_equality",
        "random_k1_rep",
        "random_wdrep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
