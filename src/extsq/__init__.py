"""Exact verification of exterior-square local L-factor identities.

Everything is computed over the rationals (or with formal symbols); there is
no floating point anywhere, so every verification is an exact identity check
rather than a numerical comparison.
"""

from .polynomials import MultiPoly
from .series import series2_first_difference, series_first_difference
from .symmetric import littlewood_sum, schur, window_partitions
from .lfactors import (
    DoubledShapeSum,
    SatakeParams,
    ext_sq_expansion,
    ext_sq_roots,
    product_series,
)
from .torus_sums import (
    BFProbeResult,
    bf_odd_correction_probe,
    bf_series,
    js_series,
)
from .weil_deligne import (
    DivisibilityVerdict,
    FiniteAbelianGroup,
    PropHResult,
    WDBlock,
    WDRep,
    divisibility_check,
    prop_H_equality,
    random_k1_rep,
    random_wdrep,
)

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "series_first_difference",
    "series2_first_difference",
    "littlewood_sum",
    "schur",
    "window_partitions",
    "DoubledShapeSum",
    "SatakeParams",
    "ext_sq_expansion",
    "ext_sq_roots",
    "product_series",
    "BFProbeResult",
    "bf_odd_correction_probe",
    "bf_series",
    "js_series",
    "DivisibilityVerdict",
    "FiniteAbelianGroup",
    "PropHResult",
    "WDBlock",
    "WDRep",
    "divisibility_check",
    "prop_H_equality",
    "random_k1_rep",
    "random_wdrep",
    "__version__",
]
