"""Reverse Holder constants on the half-line and under even extension.

The package computes three families of quantities for an exponent pair
alpha < beta:

* closed-form constants for pure powers x**gamma: the half-line constant,
  the reflection shape curve and its maximum, and their product (power);
* class-level constants: the proven ceiling on reflection growth and the
  exact supremum over powers, with sharpness sweeps (classconst);
* searched estimates for arbitrary function specs, cross-checked by
  brute-force grids (means, tables, generic, oracle).

The cli module exposes all of it as the rhiconst command.
"""

from .classconst import (
    ClassConstants,
    SharpnessRow,
    class_constants,
    gamma_approach_sequence,
    gamma_sweep,
    general_upper_bound,
    power_class_constant,
    sharpness_table,
    sharpness_table_alpha,
)
from .core import (
    Case,
    DataError,
    DomainError,
    ExponentPair,
    GammaDomain,
    Interval,
    NumericError,
    QuadratureError,
    RhiError,
    classify_case,
    gamma_domain,
)
from .generic import (
    ExtensionRatio,
    SupremumEstimate,
    estimate_extension,
    estimate_halfline,
    extension_ratio,
)
from .means import (
    AffinePower,
    EvenExtensionView,
    ExpDecay,
    FunctionSpec,
    MeanValue,
    Monotonicity,
    PowerLaw,
    SampledTable,
    mean_ratio,
    mean_ratios,
    power_mean_closed,
    quad_mean,
    table_from_csv,
)
from .oracle import brute_extension, brute_halfline, brute_max_curve
from .power import (
    PowerRhiReport,
    curve_values,
    extension_curve,
    halfline_constant,
    maximize_curve,
    power_report,
    stationarity_residual,
    stationarity_terms,
)

__version__ = "0.1.0"

__all__ = [
    "AffinePower",
    "Case",
    "ClassConstants",
    "DataError",
    "DomainError",
    "EvenExtensionView",
    "ExpDecay",
    "ExponentPair",
    "ExtensionRatio",
    "FunctionSpec",
    "GammaDomain",
    "Interval",
    "MeanValue",
    "Monotonicity",
    "NumericError",
    "PowerLaw",
    "PowerRhiReport",
    "QuadratureError",
    "RhiError",
    "SampledTable",
    "SharpnessRow",
    "SupremumEstimate",
    "brute_extension",
    "brute_halfline",
    "brute_max_curve",
    "class_constants",
    "classify_case",
    "curve_values",
    "estimate_extension",
    "estimate_halfline",
    "extension_curve",
    "extension_ratio",
    "gamma_approach_sequence",
    "gamma_domain",
    "gamma_sweep",
    "general_upper_bound",
    "halfline_constant",
    "maximize_curve",
    "mean_ratio",
    "mean_ratios",
    "power_class_constant",
    "power_mean_closed",
    "power_report",
    "quad_mean",
    "sharpness_table",
    "sharpness_table_alpha",
    "stationarity_residual",
    "stationarity_terms",
    "table_from_csv",
]
