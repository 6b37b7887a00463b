"""dirtail: tail asymptotics of aggregated Dirichlet risks.

A Dirichlet risk vector is R * (Y_1, ..., Y_d) / sum(Y) with independent
Gamma(alpha_i, 1) components Y_i and an independent radius R.  This package
computes exact first-order asymptotics of P(sum_i lambda_i X_i^p > t) for
radial laws attracted to the Gumbel or Weibull extreme-value limits, and
ships the simulation and quadrature machinery needed to verify every
constant independently.
"""

__version__ = "0.1.0"

from .errors import (
    DirtailError,
    DomainError,
    NumericError,
    UnsupportedClassError,
    ValidationError,
    WrongRegimeError,
)
from .radial import BetaLaw, GammaLaw, RadialModel, UnitGumbel, WeibullTail, mda_diagnostic
from .aggtail import (
    AggregateSpec,
    SimplexTailGeometry,
    TailAsymptotic,
    lambda_tilde,
    simplex_constant_recursion,
    simplex_tail_geometry,
    tail_asymptotic,
    validate_spec,
    var_es_asymptotic,
)
from .montecarlo import (
    Estimate,
    conditional_mc_tail,
    crude_mc_tail,
    empirical_gumbel_mda,
    gumbel_limit_check,
    max_sum_ratio,
    norming_constants,
    pairwise_asymindep,
    quadrature_tail,
    sample_dirichlet,
)

__all__ = [
    "AggregateSpec",
    "BetaLaw",
    "DirtailError",
    "DomainError",
    "Estimate",
    "GammaLaw",
    "NumericError",
    "RadialModel",
    "SimplexTailGeometry",
    "TailAsymptotic",
    "UnitGumbel",
    "UnsupportedClassError",
    "ValidationError",
    "WeibullTail",
    "WrongRegimeError",
    "conditional_mc_tail",
    "crude_mc_tail",
    "empirical_gumbel_mda",
    "gumbel_limit_check",
    "lambda_tilde",
    "max_sum_ratio",
    "mda_diagnostic",
    "norming_constants",
    "pairwise_asymindep",
    "quadrature_tail",
    "sample_dirichlet",
    "simplex_constant_recursion",
    "simplex_tail_geometry",
    "tail_asymptotic",
    "validate_spec",
    "var_es_asymptotic",
]
