"""Saddle-point geometry and mixture constants of the small-power regime.

The Laplace-method geometry of the two-term mixtures
B^p * c + lam * (1-B)^p that drive the small-power aggregation constants:
the saddle point, the curvature there, and the constants multiplying
sqrt(u) in the near-endpoint tail.  (The product-tail lemmas for S*Y that
underlie the recursion are checked in tests/test_producttail.py.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    maximum, and curvature = |h''(theta)| (h'' is negative for p in (0,1);
    the absolute value is the Laplace curvature).  theta_complement carries
    1 - theta at full precision: for extreme weight ratios theta crowds one
    of the endpoints and the bare difference would lose most of its digits.
    """

    c: float
    lam: float
    p: float
    theta: float
    theta_complement: float
    theta_tilde: float
    curvature: float


def saddle_geometry(c: float, lam: float, p: float) -> SaddleGeometry:
    """Saddle point of beta^p*c + lam*(1-beta)^p for c, lam > 0, p in (0,1)."""
    if not (c > 0 and lam > 0):
        raise DomainError(f"saddle_geometry needs c, lam > 0, got ({c}, {lam})")
    if not 0 < p < 1:
        raise DomainError(f"saddle_geometry needs p in (0,1), got {p}")
    # ratio (lam/c)^{1/(p-1)} in log scale; p-1 < 0 flips the monotonicity
    r = math.exp(math.log(lam / c) / (p - 1.0))
    theta = r / (1.0 + r)
    comp = 1.0 / (1.0 + r)
    # one Newton polish on h'(theta) = 0 removes the last ulp of the power map
    h1 = p * (theta ** (p - 1.0) * c - lam * comp ** (p - 1.0))
    h2 = p * (p - 1.0) * (theta ** (p - 2.0) * c + lam * comp ** (p - 2.0))
    step = h1 / h2
    if 0.0 < theta - step < 1.0 and 0.0 < comp + step < 1.0:
        theta -= step
        comp += step
    q = 1.0 / (1.0 - p)
    theta_tilde = (c ** q + lam ** q) ** (1.0 - p)
    curvature = abs(p * (p - 1.0)) * (theta ** (p - 2.0) * c + lam * comp ** (p - 2.0))
    return SaddleGeometry(c=c, lam=lam, p=p, theta=theta, theta_complement=comp,
                          theta_tilde=theta_tilde, curvature=curvature)


def mixture_tail_constant_c(beta_density_at_theta: float, geometry: SaddleGeometry) -> float:
    """Prefactor of sqrt(u) in P(B^p c + lam (1-B)^p > theta_tilde - u):

    2^{3/2} * g(theta) / sqrt(curvature), for B with continuous density g.
    """
    if not beta_density_at_theta > 0:
        raise DomainError(f"density at the saddle must be positive, got {beta_density_at_theta}")
    return 2.0 ** 1.5 * beta_density_at_theta / math.sqrt(geometry.curvature)


def mixture_tail_constant_d(beta_density_at_theta: float, geometry: SaddleGeometry,
                            gamma: float) -> float:
    """Prefactor multiplying sqrt(u) * P(X > c - u) when the c-endpoint factor
    X is itself regularly varying at c with index gamma > 0:

    sqrt(2 pi) * g(theta)/sqrt(curvature) * Gamma(gamma+1)/Gamma(gamma+3/2)
      * theta^{-gamma p}.

    Continuously extends mixture_tail_constant_c as gamma -> 0.
    """
    if not beta_density_at_theta > 0:
        raise DomainError(f"density at the saddle must be positive, got {beta_density_at_theta}")
    if not gamma > 0:
        raise DomainError(
            f"gamma must be positive (use mixture_tail_constant_c for a degenerate factor), got {gamma}")
    log_val = (0.5 * math.log(2.0 * math.pi) + math.log(beta_density_at_theta)
               - 0.5 * math.log(geometry.curvature)
               + log_gamma(gamma + 1.0) - log_gamma(gamma + 1.5)
               - gamma * geometry.p * math.log(geometry.theta))
    return math.exp(log_val)
