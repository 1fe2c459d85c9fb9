"""Exact verification of exterior-square local L-factor identities.

Everything is computed over the rationals (or with formal symbols); there is
no floating point anywhere, so every verification is an exact identity check
rather than a numerical comparison.
"""

from .polynomials import MultiPoly
from .series import (
    TruncSeries1,
    TruncSeries2,
    series2_first_difference,
    series_first_difference,
)
from .symmetric import (
    alternating_sum,
    doubled_shape,
    even_index_sum,
    partitions_bounded,
    schur,
    schur_eval_padded,
)
from .lfactors import (
    DoubledShapeSum,
    SatakeParams,
    doubled_shape_sum,
    ext_sq_expansion,
    ext_sq_roots,
    product_series,
)
from .torus_sums import (
    BFProbeResult,
    bf_odd_correction_probe,
    bf_series,
    delta_half_exponent,
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
    "TruncSeries1",
    "TruncSeries2",
    "series_first_difference",
    "series2_first_difference",
    "alternating_sum",
    "doubled_shape",
    "even_index_sum",
    "partitions_bounded",
    "schur",
    "schur_eval_padded",
    "DoubledShapeSum",
    "SatakeParams",
    "doubled_shape_sum",
    "ext_sq_expansion",
    "ext_sq_roots",
    "product_series",
    "BFProbeResult",
    "bf_odd_correction_probe",
    "bf_series",
    "delta_half_exponent",
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
