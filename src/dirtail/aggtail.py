"""Tail asymptotics of the aggregated risk S_p = sum_i lambda_i * X_i^p.

X = (R*U_1, ..., R*U_d) is a Dirichlet vector with parameter alpha and
radius R.  After normalizing the weights so that the largest equals one,
the first-order tail of S_p splits into regimes by the power p:

  p > 1   heavy single-component regime: only the unit-weight block with
          the largest alpha matters; P(S_p > u^p) ~ K (u w(u))^rho F_bar(u).
  p = 1   every component with weight below one contributes a polynomial
          thinning factor; same shape with u = t.
  p < 1   the simplex aggregate Z = sum lambda_i U_i^p concentrates at an
          interior point of the simplex; a Laplace-method recursion builds
          the constant and P(S_p > lt * u^p) ~ K (u w(u))^{-(d-1)/2} F_bar(u)
          with lt the attained maximum of sum lambda_i beta_i^p.

For a radius with finite endpoint 1 and regularly varying survival there
(index gamma), the p = 1 analogue near t = 1 is
P(S_1 > 1-u) ~ K u^{sum of left-out alphas} F_bar(1-u).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ValidationError, WrongRegimeError
from .producttail import SaddleGeometry, _exp, mixture_tail_constant_d, saddle_geometry
from .radial import RadialModel
from .specfun import LogProb, log_gamma

__all__ = [
    "AggregateSpec",
    "SimplexTailGeometry",
    "TailAsymptotic",
    "VarEs",
    "validate_spec",
    "lambda_tilde",
    "simplex_tail_geometry",
    "simplex_constant_recursion",
    "tail_asymptotic",
    "var_es_asymptotic",
]


# ----------------------------------------------------------------------
# problem instance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateSpec:
    """A validated aggregation problem.

    Weights are stored jointly sorted by descending weight and normalized
    so lam[0] == 1; `scale` is the largest raw weight, so a raw threshold t
    corresponds to the normalized threshold t / scale.
    """

    alpha: tuple[float, ...]
    lam: tuple[float, ...]
    p: float
    radial: RadialModel
    scale: float

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def alpha_bar(self) -> float:
        return float(sum(self.alpha))


def validate_spec(raw_alpha, raw_lambda, p: float, radial: RadialModel) -> AggregateSpec:
    """Sort, normalize and sanity-check a problem instance."""
    alpha = [float(a) for a in raw_alpha]
    lam = [float(l) for l in raw_lambda]
    if len(alpha) == 0:
        raise ValidationError("alpha must be non-empty")
    if len(alpha) != len(lam):
        raise ValidationError(
            f"alpha and lambda must have equal length, got {len(alpha)} and {len(lam)}")
    if any(not a > 0 or not math.isfinite(a) for a in alpha):
        raise ValidationError(f"all alpha must be positive and finite, got {alpha}")
    if any(l < 0 or not math.isfinite(l) for l in lam):
        raise ValidationError(f"all weights must be non-negative and finite, got {lam}")
    if not any(l > 0 for l in lam):
        raise ValidationError("at least one weight must be positive")
    if not (isinstance(radial, RadialModel)):
        raise ValidationError(f"radial must be a RadialModel, got {type(radial).__name__}")
    if not (math.isfinite(p) and p > 0):
        raise ValidationError(f"p must be positive and finite, got {p}")

    order = sorted(range(len(lam)), key=lambda i: -lam[i])
    scale = lam[order[0]]
    lam_sorted = tuple(lam[i] / scale for i in order)
    alpha_sorted = tuple(alpha[i] for i in order)
    return AggregateSpec(alpha=alpha_sorted, lam=lam_sorted, p=float(p), radial=radial,
                         scale=scale)


def lambda_tilde(lam, p: float) -> float:
    """(sum_i lam_i^{1/(1-p)})^{1-p}: the attained maximum of sum lam_i b_i^p
    over the unit simplex, and the upper endpoint of the normalized aggregate."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise DomainError(f"lambda_tilde needs strictly positive weights, got {lam}")
    if not 0 < p < 1:
        raise DomainError(f"lambda_tilde needs p in (0, 1), got {p}")
    q = 1.0 / (1.0 - p)
    # stable for widely spread weights: factor out the largest
    lmax = float(np.max(lam))
    return lmax * float(np.sum((lam / lmax) ** q)) ** (1.0 - p)


# ----------------------------------------------------------------------
# the asymptotic object
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TailAsymptotic:
    """K * (u w(u))^rho * F_bar(u) in the base variable u of a raw threshold t.

    radial.mda_class "gumbel": evaluate(t) = K * (u w(u))^rho * F_bar(u) with
                               u = ((t/scale)/pivot)^(1/p);
    "weibull" (endpoint base): evaluate(t) = K * u^rho * F_bar(1-u) with u = 1 - t/scale.

    tail_asymptotic builds it for every regime and records which in regime:
    "a", "b", "c", "weibull" or "degenerate".  With K = 1 and rho = 0 it is
    the exact law of S_p = scale * R^p (d = 1, or p = 1 with all weights equal).
    """

    log_constant: float
    rho: float
    radial: RadialModel
    p: float
    regime: str
    scale: float = 1.0
    pivot: float = 1.0

    def threshold_to_base(self, t: float) -> float:
        """Map a raw threshold on S_p to the base variable u."""
        tn = t / self.scale
        if self.radial.mda_class == "gumbel":
            if not tn > 0:
                raise DomainError(f"threshold must be positive, got {t}")
            try:
                return (tn / self.pivot) ** (1.0 / self.p)
            except OverflowError:
                raise NumericError(f"(t / (scale * pivot))^(1/p) overflows at t={t!r}, "
                                   f"p={self.p!r}") from None
        if not 0 < tn < 1:
            raise DomainError(
                f"threshold must lie in (0, scale) for an endpoint-1 aggregate, got {t}")
        return 1.0 - tn

    def base_to_threshold(self, u: float) -> float:
        """The raw threshold of base variable u.  NumericError where it is not a
        positive normal double: past the largest one, or so small that it is 0
        or has lost digits (a tiny raw scale)."""
        if self.radial.mda_class == "gumbel":
            try:
                t = self.scale * self.pivot * u ** self.p
            except OverflowError:
                t = math.inf
            if t == math.inf:
                raise NumericError(
                    f"threshold scale * pivot * u^p overflows at u={u!r}, p={self.p!r}")
        else:
            t = self.scale * (1.0 - u)
        if not t >= sys.float_info.min:
            raise NumericError(f"threshold {t!r} at base point u={u!r} is not a normal double")
        return t

    def _flip(self, x: float) -> float:
        """The base variable of a radius x, and the radius of a base variable
        x: x itself on the Gumbel base, 1 - x on the endpoint base."""
        return x if self.radial.mda_class == "gumbel" else 1.0 - x

    def threshold_at_depth(self, depth: float) -> float:
        """Raw threshold whose base variable is the radius at survival level depth."""
        return self.base_to_threshold(self._flip(self.radial.quantile_survival(depth)))

    def depth_at(self, t: float) -> float:
        """Survival level of the radius behind raw threshold t: the inverse map."""
        return math.exp(self.radial.log_survival(self._flip(self.threshold_to_base(t))))

    def _log_at_base(self, u: float) -> float:
        gumbel = self.radial.mda_class == "gumbel"
        if gumbel and u >= self.radial.upper_endpoint:
            return -math.inf
        log_uw = self.radial.log_u_w(u) if gumbel else math.log(u)
        return self.log_constant + self.rho * log_uw + self.radial.log_survival(self._flip(u))

    def evaluate_log(self, t: float) -> float:
        """log of the asymptotic tail value at raw threshold t."""
        return self._log_at_base(self.threshold_to_base(t))

    def evaluate(self, t: float) -> LogProb:
        return LogProb(self.evaluate_log(t))

    def invert(self, log_target: float) -> float:
        """Raw threshold t with evaluate_log(t) == log_target.

        Secant steps in x = log u from the radial quantile at the target level
        (1 minus it on the endpoint base; u = 1, or 1/2 below a finite endpoint,
        if exp(log_target) underflows), inside a bracket found by doubling
        steps; a step that would leave the bracket bisects it instead, until it
        is a few ulp of log u wide.  DomainError: target >= 0 or out of reach.
        NumericError: past u = 1e290, no representable base point reaches it, or
        its threshold is not a normal double (base_to_threshold)."""
        if not log_target < 0:
            raise DomainError(f"target must be a log-probability below 0, got {log_target}")
        sign = 1.0 if self.radial.mda_class == "gumbel" else -1.0  # makes the excess fall in x
        top = self.radial.upper_endpoint if sign > 0 else math.nextafter(1.0, 0.0)
        s = math.exp(log_target)
        q = self.radial.quantile_survival(s) if 0.0 < s < 1.0 else math.nan
        u = self._flip(q)
        x = math.log(u if 0.0 < u < top else min(1.0, top / 2))
        x_min, x_max, step = math.log(1e-300), math.log(min(top, 1e290)), 0.125
        lo, hi, prev = None, None, (math.nan, math.nan)  # excess(lo) > 0 >= excess(hi)
        while True:
            u = math.exp(x)
            g = sign * (self._log_at_base(u) - log_target)
            lo, hi = ((x, g), hi) if g > 0 else (lo, (x, g))
            dg = prev[1] - g
            dx = g * (x - prev[0]) / dg if math.isfinite(dg) and dg else math.nan  # secant
            prev = (x, g)
            tol = max(2.0 * math.ulp(x), math.ulp(u) / u)  # two ulp of log u, one of u near 1
            if lo is None and x <= x_min or hi is None and x >= x_max:
                raise (NumericError("tail inversion ran past 1e290") if lo and math.isinf(top)
                       else DomainError("target is not reachable by this asymptotic"))
            if lo is None or hi is None:
                x, step = min(max(x + math.copysign(step, g), x_min), x_max), 2.0 * step
            elif hi[0] - lo[0] <= tol or hi[1] == 0.0:
                if not math.isfinite(lo[1] - hi[1]):
                    raise NumericError(f"no representable base point reaches {log_target}")
                return self.base_to_threshold(math.exp(lo[0] if lo[1] < -hi[1] else hi[0]))
            else:
                x = x + dx if lo[0] - tol < x + dx < hi[0] + tol else 0.5 * (lo[0] + hi[0])
                x = min(max(x, lo[0] + 0.5 * tol), hi[0] - 0.5 * tol)

    def norming(self, log_level: float) -> tuple[float, float]:
        """(b, a): b = invert(log_level) and its Gumbel scale a = scale / w_p(b / scale),
        with w_p(x) = x^(1/p-1) w(x^(1/p)) / p the scaling function of R^p.  DomainError
        outside the Gumbel class or for x^(1/p) at or past the radius's endpoint;
        NumericError where a power of x overflows."""
        if self.radial.mda_class != "gumbel":
            raise DomainError("norming constants need a Gumbel-class radial law")
        b = self.invert(log_level)
        x, p = b / self.scale, self.p  # pivot * u^p, positive: base_to_threshold refuses 0
        try:
            u, x_p = x ** (1.0 / p), x ** (1.0 / p - 1.0)
        except OverflowError:
            raise NumericError(f"x^(1/p) or x^(1/p-1) overflows at x={x!r}, p={p!r}") from None
        if u >= self.radial.upper_endpoint:
            raise DomainError(f"x = {x} is at or beyond the endpoint {self.radial.upper_endpoint}^p")
        return b, self.scale / (x_p * self.radial.scaling_w(u) / p)


# ----------------------------------------------------------------------
# simplex geometry recursion (p in (0,1))
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexTailGeometry:
    """Per-level output of the Laplace recursion for Z = sum lam_i V_i^p.

    Index k runs over 2..d (levels of the telescoping split); level k holds
    the endpoint lambda_tilde_k of the k-term prefix aggregate, the saddle
    theta_k of the two-term mixture that produced it, the curvature |h''|
    there, and the accumulated constant C_k with

        P(prefix_k > lambda_tilde_k - u) ~ C_k * u^{(k-1)/2}.

    The saddles and C_k are held in log scale; theta, curvature and c_tilde
    are their exponentials, which round to 0, 1 or inf as p -> 1.
    """

    lambda_tilde: tuple[float, ...]      # levels 1..d
    saddles: tuple[SaddleGeometry, ...]  # levels 2..d
    log_c_tilde: tuple[float, ...]       # levels 2..d
    rv_index: tuple[float, ...]          # levels 2..d: (k-1)/2

    @property
    def d(self) -> int:
        return len(self.lambda_tilde)

    @property
    def lambda_tilde_final(self) -> float:
        return self.lambda_tilde[-1]

    @property
    def theta(self) -> tuple[float, ...]:
        return tuple(g.theta for g in self.saddles)

    @property
    def curvature(self) -> tuple[float, ...]:
        return tuple(g.curvature for g in self.saddles)

    @property
    def c_tilde(self) -> tuple[float, ...]:
        return _exp(self.log_c_tilde)


def simplex_tail_geometry(alpha, lam, p: float) -> SimplexTailGeometry:
    """Laplace recursion for the simplex aggregate, in the given index order.

    Processes the terms exactly in the order supplied (no sorting): the
    level-k step splits off index k against the (k-1)-term prefix.  The
    resulting constant is an intrinsic property of the law of the aggregate,
    so any joint permutation of (alpha_i, lam_i) pairs must reproduce it;
    the property tests rely on that.  saddle_geometry checks p and the weights.
    """
    alpha = [float(a) for a in alpha]
    lam = [float(l) for l in lam]
    d = len(alpha)
    if d < 2:
        raise DomainError(f"the simplex recursion needs d >= 2, got d={d}")
    if len(lam) != d:
        raise DomainError("alpha and lambda must have equal length")
    if any(not a > 0 for a in alpha):
        raise DomainError(f"all alpha must be positive, got {alpha}")

    lts, geoms, log_cs = [lam[0]], [], []
    alpha_prefix, log_c = alpha[0], 0.0
    for k in range(1, d):
        geom = saddle_geometry(lts[-1], lam[k], p)
        # split variable of the k+1 term prefix: B ~ Beta(sum_{i<=k} alpha, alpha_k)
        log_g = (log_gamma(alpha_prefix + alpha[k]) - log_gamma(alpha_prefix) - log_gamma(alpha[k])
                 + (alpha_prefix - 1.0) * geom.log_theta
                 + (alpha[k] - 1.0) * geom.log_theta_complement)
        # the k-term prefix is regularly varying at its endpoint with index (k-1)/2
        log_c += mixture_tail_constant_d(log_g, geom, (k - 1) / 2.0)
        lts.append(geom.theta_tilde)
        geoms.append(geom)
        log_cs.append(log_c)
        alpha_prefix += alpha[k]

    return SimplexTailGeometry(lambda_tilde=tuple(lts), saddles=tuple(geoms),
                               log_c_tilde=tuple(log_cs),
                               rv_index=tuple(k / 2.0 for k in range(1, d)))


def simplex_constant_recursion(spec: AggregateSpec) -> SimplexTailGeometry:
    """The recursion applied to a validated spec (descending-weight order)."""
    if not 0 < spec.p < 1:
        raise WrongRegimeError(f"the simplex recursion applies for p in (0, 1), got p={spec.p}")
    return simplex_tail_geometry(spec.alpha, spec.lam, spec.p)


# ----------------------------------------------------------------------
# regimes, VaR / ES
# ----------------------------------------------------------------------

def tail_asymptotic(spec: AggregateSpec) -> TailAsymptotic:
    """The first-order tail of S_p, in the regime that p and the radial class give.

    With abar the sum of all alphas, abar_m the sum over the m unit-weight
    components and a_out = abar - abar_m the sum of the left-out ones:

      "a" (p > 1): P(S_p > scale * u^p) ~ K (u w(u))^{ahat - abar} F_bar(u),
          K = m* Gamma(abar)/Gamma(ahat); only the unit-weight components
          with the largest alpha matter, smaller weights drop out of K.
      "b" (p = 1): P(S_1 > scale * u) ~ K (u w(u))^{-a_out} F_bar(u),
          K = prod_{i>m} (1-lam_i)^{-alpha_i} * Gamma(abar)/Gamma(abar_m).
      "c" (p < 1): P(S_p > scale * lt * u^p) ~ K (u w(u))^{-(d-1)/2} F_bar(u),
          K = Gamma((d+1)/2) * C_d * (p * lt)^{(d-1)/2}, with lt and C_d from
          the simplex Laplace recursion; every weight is strictly positive.
      "weibull" (p = 1, radius with endpoint 1 and survival regularly
          varying there with index gamma):
          P(S_1 > scale * (1-u)) ~ K u^{a_out} F_bar(1-u),
          K = prod_{i>m} (1-lam_i)^{-alpha_i} * Gamma(abar) * Gamma(gamma+1)
              / (Gamma(abar_m) * Gamma(a_out + gamma + 1));
          the exponent is positive: the aggregate's tail at 1 is thinner
          than the radius's by exactly that polynomial factor.
      "degenerate" (p = 1, all weights equal), and d = 1 in any regime:
          S_p is scale * R^p, so K = 1 and rho = 0 give the exact law.

    m counts the normalized weights equal to 1 exactly: the constants jump with
    m, so a weight of 1 - 1e-12 is left out.
    WrongRegimeError: p != 1 outside the Gumbel class, or p < 1 with a zero weight.
    """
    gumbel = spec.radial.mda_class == "gumbel"
    d, abar, m = spec.d, spec.alpha_bar, spec.lam.count(1.0)
    log_k, rho, pivot = 0.0, 0.0, 1.0  # the exact law
    if spec.p > 1.0:
        if not gumbel:
            raise WrongRegimeError("p > 1 is only covered for Gumbel-class radial laws")
        regime = "a"
        if d > 1:
            top = spec.alpha[:m]
            alpha_hat = max(top)
            log_k = math.log(top.count(alpha_hat)) + log_gamma(abar) - log_gamma(alpha_hat)
            rho = alpha_hat - abar
    elif spec.p < 1.0:
        if any(l == 0.0 for l in spec.lam):
            raise WrongRegimeError(
                "p < 1 with zero weights is not covered; drop the zero-weight components")
        if not gumbel:
            raise WrongRegimeError("p < 1 is only covered for Gumbel-class radial laws")
        regime = "c"
        if d > 1:
            geometry = simplex_constant_recursion(spec)
            pivot = geometry.lambda_tilde_final
            log_k = (log_gamma((d + 1) / 2.0) + geometry.log_c_tilde[-1]
                     + (d - 1) / 2.0 * math.log(spec.p * pivot))
            rho = -(d - 1) / 2.0
    elif m == d:
        regime = "degenerate"
    else:  # p = 1: the left-out components thin the tail
        abar_m = float(sum(spec.alpha[:m]))
        a_out = abar - abar_m
        log_k = (sum(-a * math.log1p(-l) for a, l in zip(spec.alpha[m:], spec.lam[m:]))
                 + log_gamma(abar))
        if gumbel:
            regime, log_k, rho = "b", log_k - log_gamma(abar_m), -a_out
        else:
            gamma = spec.radial.weibull_index
            regime, rho = "weibull", a_out
            log_k = (log_k + log_gamma(gamma + 1.0)
                     - log_gamma(abar_m) - log_gamma(a_out + gamma + 1.0))
    return TailAsymptotic(log_constant=log_k, rho=rho, radial=spec.radial, p=spec.p,
                          regime=regime, scale=spec.scale, pivot=pivot)


@dataclass(frozen=True)
class VarEs:
    var: float
    es_minus_var: float
    accuracy_warning: bool


def var_es_asymptotic(spec: AggregateSpec, b: float) -> VarEs:
    """Value-at-Risk of S_p at level b from the tail asymptotic, and the
    asymptotic mean excess beyond it.

    The aggregate inherits the Gumbel property with scaling function
    w_p(x) = x^{1/p-1} w(x^{1/p}) / p, so E[S_p - VaR | S_p > VaR] ~ 1/w_p(VaR).
    The result carries an accuracy warning when b is too low for an
    extreme-tail formula to be meaningful (tail probability above 0.1).
    """
    if not 0 < b < 1:
        raise DomainError(f"level b must lie in (0, 1), got {b}")
    if not math.isinf(spec.radial.upper_endpoint):
        raise WrongRegimeError("VaR/ES asymptotics need an infinite upper endpoint")
    var, es_minus_var = tail_asymptotic(spec).norming(math.log1p(-b))
    return VarEs(var=var, es_minus_var=es_minus_var, accuracy_warning=(1.0 - b) > 0.1)
