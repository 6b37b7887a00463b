"""Radial laws for the Dirichlet radius R.

Four closed families, each with an analytic survival function, upper
endpoint, max-domain-of-attraction class and (for the Gumbel class) the
scaling function w appearing in F_bar(u + x/w(u)) ~ exp(-x) F_bar(u):

    GammaLaw(shape a, rate r)      x_F = inf, Gumbel, w(u) = r
    WeibullTail(index tau, scale c)x_F = inf, Gumbel, w(u) = c*tau*u^(tau-1)
    BetaLaw(a, b)                  x_F = 1,  Weibull with index gamma = b
    UnitGumbel(kappa)              x_F = 1,  Gumbel, w(u) = kappa/(1-u)^2

Closed forms keep every acceptance ratio exact at survival levels far out
of reach of empirical estimation.  Radii are drawn exactly, never by
inverting a uniform: standard_gamma for GammaLaw, Generator.beta for
BetaLaw, and one exponential draw through the closed-form quantile for
WeibullTail and UnitGumbel.  A custom law subclasses RadialModel and
implements upper_endpoint, log_survival, quantile_survival (thresholds at a
given depth) and sample (radii for crude_mc_tail, sample_dirichlet and
gumbel_limit_check).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NumericError, UnsupportedClassError, ValidationError
from . import specfun

_FAMILIES: dict[str, type] = {}


class RadialModel(ABC):
    """A law for the radius R; immutable, all operations pure."""

    #: "gumbel" or "weibull"
    mda_class: str = "gumbel"

    @property
    @abstractmethod
    def upper_endpoint(self) -> float:
        """x_F, either 1.0 or inf."""

    @abstractmethod
    def log_survival(self, u):
        """log P(R > u); vectorized over u, -inf beyond the endpoint."""

    def survival(self, u):
        """P(R > u) on the linear scale (underflows to 0 below ~1e-308)."""
        out = self.log_survival(u)
        return np.exp(out) if isinstance(out, np.ndarray) else math.exp(out)

    def scaling_w(self, u: float) -> float:
        """Gumbel scaling function w(u); defined for 0 < u < x_F."""
        raise UnsupportedClassError(
            f"{type(self).__name__} is not in the Gumbel class; no scaling function")

    def power_scaling_wp(self, p: float, x: float) -> float:
        """Scaling function of R^p: w_p(x) = x^(1/p-1) * w(x^(1/p)) / p."""
        if not p > 0:
            raise DomainError(f"power must be positive, got p={p}")
        if not x > 0:
            raise DomainError(f"argument must be positive, got x={x}")
        u = x ** (1.0 / p)
        if u >= self.upper_endpoint:
            raise DomainError(f"argument {x} is at or beyond the endpoint {self.upper_endpoint}^p")
        return x ** (1.0 / p - 1.0) * self.scaling_w(u) / p

    @property
    def weibull_index(self) -> float:
        """Regular-variation index gamma of the survival function at x_F = 1."""
        raise UnsupportedClassError(
            f"{type(self).__name__} is not in the Weibull class; no tail index")

    @abstractmethod
    def quantile_survival(self, s):
        """x with P(R > x) = s for 0 < s < 1, the survival-scale quantile; vectorized."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size i.i.d. draws of R from rng, each in [0, x_F]."""

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> "RadialModel":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ValidationError(f"radial model must be {{'family': ..., 'params': ...}}, got {obj!r}")
        family = obj["family"]
        if family not in _FAMILIES:
            raise ValidationError(
                f"unknown radial family {family!r}; known: {sorted(_FAMILIES)}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError(f"radial params must be an object, got {params!r}")
        try:
            return _FAMILIES[family](**params)
        except TypeError as exc:
            raise ValidationError(f"bad parameters for radial family {family!r}: {exc}") from exc


def _register(name):
    def deco(cls):
        _FAMILIES[name] = cls
        cls.family_name = name
        return cls
    return deco


def _check_domain_nonneg(u):
    ua = np.asarray(u, dtype=float)
    # a Python float is checked with plain comparisons: np.any on a 0-d array
    # costs more than most scalar survival kernels
    if isinstance(u, float):
        bad = u < 0 or u != u
    else:
        bad = np.any(ua < 0) or np.any(np.isnan(ua))
    if bad:
        raise DomainError(f"radius argument must be non-negative, got {u}")
    return ua


def _check_level(s):
    sa = np.asarray(s, dtype=float)
    if isinstance(s, float):
        bad = not 0 < s < 1
    else:
        bad = not np.all((sa > 0) & (sa < 1))  # NaN fails both comparisons
    if bad:
        raise DomainError(f"survival level must lie in (0, 1), got {s}")
    return sa


@_register("gamma")
@dataclass(frozen=True)
class GammaLaw(RadialModel):
    """R ~ Gamma(shape, rate); survival is the regularized upper gamma tail."""

    shape: float
    rate: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValidationError(f"GammaLaw needs shape, rate > 0, got {self}")

    @property
    def upper_endpoint(self) -> float:
        return math.inf

    def log_survival(self, u):
        ua = _check_domain_nonneg(u)
        # u * rate overflowing to inf is survival 0, which the kernel returns
        with np.errstate(over="ignore"):
            out = specfun.log_regularized_gamma_upper(self.shape, ua * self.rate)
        return out if np.ndim(u) else float(out)

    def scaling_w(self, u: float) -> float:
        return self.rate

    def quantile_survival(self, s):
        sa = _check_level(s)
        out = _sp.gammainccinv(self.shape, sa) / self.rate
        return out if np.ndim(s) else float(out)

    def sample(self, rng, size):
        return rng.standard_gamma(self.shape, size) / self.rate

    def to_json(self) -> dict:
        return {"family": "gamma", "params": {"shape": self.shape, "rate": self.rate}}


@_register("weibulltail")
@dataclass(frozen=True)
class WeibullTail(RadialModel):
    """Survival exp(-scale * u^index) on [0, inf); Gumbel class for any index > 0."""

    index: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.index > 0 and self.scale > 0):
            raise ValidationError(f"WeibullTail needs index, scale > 0, got {self}")

    @property
    def upper_endpoint(self) -> float:
        return math.inf

    def log_survival(self, u):
        ua = _check_domain_nonneg(u)
        out = -self.scale * ua ** self.index
        return out if np.ndim(u) else float(out)

    def scaling_w(self, u: float) -> float:
        if not u > 0:
            raise DomainError(f"scaling function needs u > 0, got {u}")
        return self.scale * self.index * u ** (self.index - 1.0)

    def quantile_survival(self, s):
        sa = _check_level(s)
        out = (-np.log(sa) / self.scale) ** (1.0 / self.index)
        return out if np.ndim(s) else float(out)

    def sample(self, rng, size):
        return (rng.exponential(size=size) / self.scale) ** (1.0 / self.index)

    def to_json(self) -> dict:
        return {"family": "weibulltail", "params": {"index": self.index, "scale": self.scale}}


@_register("beta")
@dataclass(frozen=True)
class BetaLaw(RadialModel):
    """R ~ Beta(a, b) on [0, 1]; Weibull max-domain with tail index b."""

    a: float
    b: float

    mda_class = "weibull"

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValidationError(f"BetaLaw needs a, b > 0, got {self}")

    @property
    def upper_endpoint(self) -> float:
        return 1.0

    @property
    def weibull_index(self) -> float:
        return self.b

    def log_survival(self, u):
        ua = _check_domain_nonneg(u)
        out = specfun.log_beta_survival(self.a, self.b, np.minimum(ua, 1.0))
        return out if np.ndim(u) else float(out)

    def quantile_survival(self, s):
        sa = _check_level(s)
        out = _sp.betaincinv(self.a, self.b, 1.0 - sa)
        return out if np.ndim(s) else float(out)

    def sample(self, rng, size):
        return rng.beta(self.a, self.b, size)

    def to_json(self) -> dict:
        return {"family": "beta", "params": {"a": self.a, "b": self.b}}


@_register("unitgumbel")
@dataclass(frozen=True)
class UnitGumbel(RadialModel):
    """Survival exp(-kappa u/(1-u)) on [0, 1): a Gumbel-class law with finite endpoint."""

    kappa: float = 1.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValidationError(f"UnitGumbel needs kappa > 0, got {self}")

    @property
    def upper_endpoint(self) -> float:
        return 1.0

    def log_survival(self, u):
        ua = _check_domain_nonneg(u)
        um = np.minimum(ua, 1.0)
        # the equal form kappa - kappa / (1 - u) cancels for small u
        with np.errstate(divide="ignore"):
            out = np.where(ua < 1.0, -self.kappa * um / (1.0 - um), -np.inf)
        return out if np.ndim(u) else float(out)

    def scaling_w(self, u: float) -> float:
        if not 0 <= u < 1:
            raise DomainError(f"scaling function needs 0 <= u < 1, got {u}")
        return self.kappa / (1.0 - u) ** 2

    def quantile_survival(self, s):
        sa = _check_level(s)
        out = 1.0 - self.kappa / (self.kappa - np.log(sa))
        return out if np.ndim(s) else float(out)

    def sample(self, rng, size):
        return 1.0 - self.kappa / (self.kappa + rng.exponential(size=size))

    def to_json(self) -> dict:
        return {"family": "unitgumbel", "params": {"kappa": self.kappa}}


# ----------------------------------------------------------------------
# max-domain-of-attraction diagnostics
# ----------------------------------------------------------------------

_DEFAULT_DEPTHS = tuple(10.0 ** -k for k in range(2, 11))


def mda_diagnostic(model: RadialModel, mode: str, params: dict) -> np.ndarray:
    """Numerical limit diagnostics behind the MDA assumptions.

    Returns a table of (u, ratio) pairs on a grid approaching the upper
    endpoint; the caller asserts convergence.  Modes:

      gumbel_ratio:  F_bar(u + x/w(u)) / F_bar(u)          -> exp(-x)
      weibull_ratio: F_bar(1 - t*u) / F_bar(1 - u)          -> t^gamma
      davis_resnick: (u w(u))^mu * F_bar(c*u) / F_bar(u)    -> 0, any mu, c > 1

    For the Weibull-ratio mode, u is the distance from the endpoint.
    """
    params = dict(params)
    depths = params.pop("depths", _DEFAULT_DEPTHS)

    if mode == "gumbel_ratio":
        if model.mda_class != "gumbel":
            raise UnsupportedClassError("gumbel_ratio needs a Gumbel-class radial law")
        x = float(params.pop("x"))
        if params:
            raise ValidationError(f"unknown diagnostic parameters: {sorted(params)}")
        rows = []
        for depth in depths:
            u = model.quantile_survival(depth)
            shifted = u + x / model.scaling_w(u)
            ratio = math.exp(model.log_survival(shifted) - model.log_survival(u))
            rows.append((u, ratio))
        return np.asarray(rows)

    if mode == "weibull_ratio":
        if model.mda_class != "weibull":
            raise UnsupportedClassError("weibull_ratio needs a Weibull-class radial law")
        t = float(params.pop("t"))
        if not t > 0:
            raise DomainError(f"weibull_ratio needs t > 0, got {t}")
        if params:
            raise ValidationError(f"unknown diagnostic parameters: {sorted(params)}")
        rows = []
        for u in depths:
            if t * u >= 1.0:
                continue
            ratio = math.exp(model.log_survival(1.0 - t * u) - model.log_survival(1.0 - u))
            rows.append((u, ratio))
        return np.asarray(rows)

    if mode == "davis_resnick":
        if model.mda_class != "gumbel":
            raise UnsupportedClassError("davis_resnick needs a Gumbel-class radial law")
        mu = float(params.pop("mu"))
        c = float(params.pop("c"))
        if not c > 1:
            raise DomainError(f"davis_resnick needs c > 1, got {c}")
        if params:
            raise ValidationError(f"unknown diagnostic parameters: {sorted(params)}")
        rows = []
        for depth in depths:
            u = model.quantile_survival(depth)
            log_ratio = model.log_survival(c * u) - model.log_survival(u)
            val = mu * math.log(u * model.scaling_w(u)) + log_ratio
            if val > math.log(np.finfo(float).max):
                raise NumericError(f"davis_resnick ratio exp({val}) at u={u} overflows a double")
            rows.append((u, math.exp(val)))
        return np.asarray(rows)

    raise ValidationError(f"unknown diagnostic mode {mode!r}")
