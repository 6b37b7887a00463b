"""Saddle-point geometry and mixture constants of the small-power regime.

The Laplace-method geometry of the two-term mixtures
B^p * c + lam * (1-B)^p that drive the small-power aggregation constants,
in log scale: the saddle point, the curvature there, and the constants
multiplying sqrt(u) in the near-endpoint tail.  (As p -> 1 the saddle
crowds an endpoint and the curvature grows like exp(|log(c/lam)|/(1-p)).)
The product-tail lemmas for S*Y that underlie the recursion are checked
in tests/test_producttail.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import log_gamma

__all__ = [
    "SaddleGeometry",
    "saddle_geometry",
    "mixture_tail_constant_c",
    "mixture_tail_constant_d",
]


@dataclass(frozen=True)
class SaddleGeometry:
    """Maximizer data of h(beta) = beta^p * c + lam * (1-beta)^p on [0, 1].

    theta is the interior maximizer, theta_tilde = h(theta) the attained
    maximum, and curvature = |h''(theta)|, the Laplace curvature (h'' < 0
    for p in (0, 1)).  theta and curvature are the exponentials of the stored
    logs (log_theta_complement is log(1 - theta)): 0, 1 or inf past the double
    range.
    """

    p: float
    log_theta: float
    log_theta_complement: float
    theta_tilde: float
    log_curvature: float

    @property
    def theta(self) -> float:
        return math.exp(self.log_theta)

    @property
    def curvature(self) -> float:
        return _exp([self.log_curvature])[0]


def _exp(log_values) -> tuple[float, ...]:
    with np.errstate(over="ignore"):  # inf past the double range, not OverflowError
        return tuple(np.exp(log_values).tolist())


def saddle_geometry(c: float, lam: float, p: float) -> SaddleGeometry:
    """Saddle point of beta^p*c + lam*(1-beta)^p for c, lam > 0, p in (0,1)."""
    if not (c > 0 and lam > 0):
        raise DomainError(f"saddle_geometry needs c, lam > 0, got ({c}, {lam})")
    if not 0 < p < 1:
        raise DomainError(f"saddle_geometry needs p in (0,1), got {p}")
    # h'(theta) = 0 at theta / (1 - theta) = (c/lam)^{1/(1-p)}: theta is logistic in x
    x = (math.log(c) - math.log(lam)) / (1.0 - p)
    log_theta, log_comp = (-np.logaddexp(0.0, [-x, x])).tolist()
    log_curvature = math.log(p * (1.0 - p)) + float(np.logaddexp(
        math.log(c) + (p - 2.0) * log_theta, math.log(lam) + (p - 2.0) * log_comp))
    # theta_tilde^q = c^q + lam^q, the larger term factored out so the power stays finite
    lo, hi = sorted((c, lam))
    theta_tilde = hi * (1.0 + (lo / hi) ** (1.0 / (1.0 - p))) ** (1.0 - p)
    return SaddleGeometry(p=p, log_theta=log_theta, log_theta_complement=log_comp,
                          theta_tilde=theta_tilde, log_curvature=log_curvature)


def mixture_tail_constant_c(log_density_at_theta: float, geometry: SaddleGeometry) -> float:
    """log of the prefactor of sqrt(u) in P(B^p c + lam (1-B)^p > theta_tilde - u), for B with
    continuous density g: 2^{3/2} g(theta) / sqrt(curvature), mixture_tail_constant_d at gamma = 0.
    """
    return mixture_tail_constant_d(log_density_at_theta, geometry, 0.0)


def mixture_tail_constant_d(log_density_at_theta: float, geometry: SaddleGeometry,
                            gamma: float) -> float:
    """log of the prefactor multiplying sqrt(u) * P(X > c - u) when the
    c-endpoint factor X is regularly varying at c with index gamma >= 0
    (gamma = 0: X = c is degenerate), from log g(theta):

    sqrt(2 pi) * g(theta)/sqrt(curvature) * Gamma(gamma+1)/Gamma(gamma+3/2)
      * theta^{-gamma p}.
    """
    if not math.isfinite(log_density_at_theta):
        raise DomainError(f"log density at the saddle must be finite, got {log_density_at_theta}")
    if not gamma >= 0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    return (0.5 * math.log(2.0 * math.pi) + log_density_at_theta
            - 0.5 * geometry.log_curvature
            + log_gamma(gamma + 1.0) - log_gamma(gamma + 1.5)
            - gamma * geometry.p * geometry.log_theta)
