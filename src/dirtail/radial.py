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
inverting a uniform: standard_gamma (below) for GammaLaw, Generator.beta
for BetaLaw, and one standard exponential draw through the closed-form
quantile for WeibullTail and UnitGumbel.  standard_gamma also draws the
simplex coordinates' gamma rows in montecarlo; it takes for each shape the
cheapest exact method numpy's primitives give.  A custom law subclasses
RadialModel and implements upper_endpoint, log_survival, quantile_survival
(thresholds at a given depth) and sample (radii for crude_mc_tail,
sample_dirichlet and gumbel_limit_check).  The conditional estimators ask a law for scaled
survival weights (survival_weights), whose default comes from log_survival;
GammaLaw overrides it with the closed form of a whole shape.
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
#: the least shape drawn by the boost: below it U^(1/a) is mostly subnormal,
#: and slower than numpy's own draw
_BOOST_MIN = 0.05


def standard_gamma(rng: np.random.Generator, a: float, out: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Fill out with Gamma(a, 1) draws from rng, by the cheapest exact method
    for the shape a, and return it:

      a = 1            rng.standard_exponential, the bits and stream position
                       of numpy's own shape-1 draw
      a = 2 or 3       the sum of a rows of rng.standard_exponential, in order
      0.05 <= a < 1    G U^(1/a) (Marsaglia & Tsang 2000): a row of
                       Gamma(a + 1) draws G, then a row of rng.random draws U
      any other a      rng.standard_gamma

    At a = 4 the exponential sum costs about as much as numpy's own draw.
    scratch, a row of out's size, holds the second and third branches'
    second rows (a new row when None); its content is lost.
    """
    if a == 1.0:
        return rng.standard_exponential(out=out)
    if a == 2.0 or a == 3.0:
        scratch = np.empty_like(out) if scratch is None else scratch
        rng.standard_exponential(out=out)
        for _ in range(int(a) - 1):
            out += rng.standard_exponential(out=scratch)
        return out
    if _BOOST_MIN <= a < 1.0:
        scratch = np.empty_like(out) if scratch is None else scratch
        rng.standard_gamma(a + 1.0, out=out)
        u = rng.random(out=scratch)
        u **= 1.0 / a
        out *= u
        return out
    return rng.standard_gamma(a, out=out)


class RadialModel(ABC):
    """A law for the radius R; immutable, all operations pure.

    The samplers call a law's methods on worker threads, by default up to
    one per CPU the process may run on, so a custom law's methods must stay
    pure: a call may not write state that another call reads.
    """

    #: "gumbel" or "weibull"
    mda_class: str = "gumbel"

    @property
    @abstractmethod
    def upper_endpoint(self) -> float:
        """x_F, either 1.0 or inf."""

    @abstractmethod
    def log_survival(self, u):
        """log P(R > u); vectorized over u, -inf beyond the endpoint."""

    def survival_weights(self, y: np.ndarray, c: float, lo: float, hi: float, out: np.ndarray):
        """(m, w) with w = P(R > c y) / e^m, scaled so that max w = 1 up to rounding.

        y is an array of radii per unit of c > 0, with y = inf allowed, least
        entry lo and greatest hi; out is a (2, y.size) scratch block, which w
        may occupy.  Where every survival is 0, m is -inf and w means nothing.
        The default takes log_survival of the radii c y (clipped at 1e300, so
        an infinite one stays a number), shifts it by its maximum m, raises it
        to -300 (far below the rounding of a sum whose largest term is 1; exp
        is slow on the subnormal range) and exponentiates it in place; a NaN
        in y reaches log_survival and fails there.  A law may override it with
        a faster form of the same weights.
        """
        with np.errstate(over="ignore"):  # a radius past DBL_MAX is clipped too
            x = np.multiply(y, c, out=out[0])
        if c * hi > 1e300:
            np.minimum(x, 1e300, out=x)
        logs = self.log_survival(x)
        m = float(logs.max())
        if math.isfinite(m):
            logs -= m
            np.maximum(logs, specfun._LOG_WEIGHT_FLOOR, out=logs)
            np.exp(logs, out=logs)
        return m, logs

    def scaling_w(self, u: float) -> float:
        """Gumbel scaling function w(u); defined for 0 < u < x_F."""
        raise UnsupportedClassError(
            f"{type(self).__name__} is not in the Gumbel class; no scaling function")

    def log_u_w(self, u: float) -> float:
        """log(u w(u)); NumericError where u w(u) is not a positive finite number."""
        uw = u * self.scaling_w(u)
        if not 0.0 < uw < math.inf:
            raise NumericError(f"u w(u) = {uw!r} at u = {u!r} is not a positive finite number")
        return math.log(uw)

    def power_scaling_wp(self, p: float, x: float) -> float:
        """Scaling function of R^p: w_p(x) = x^(1/p-1) * w(x^(1/p)) / p.
        NumericError where a power of x overflows."""
        if not p > 0:
            raise DomainError(f"power must be positive, got p={p}")
        if not x > 0:
            raise DomainError(f"argument must be positive, got x={x}")
        try:
            u, x_p = x ** (1.0 / p), x ** (1.0 / p - 1.0)
        except OverflowError:
            raise NumericError(f"x^(1/p) or x^(1/p-1) overflows at x={x!r}, p={p!r}") from None
        if u >= self.upper_endpoint:
            raise DomainError(f"argument {x} is at or beyond the endpoint {self.upper_endpoint}^p")
        return x_p * self.scaling_w(u) / p

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
        bad = not ua.min(initial=math.inf) >= 0  # a NaN propagates to the minimum
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


def _finite_quantile(law: RadialModel, s, out):
    """out, the quantiles of law at levels s, as a float for a float s.
    NumericError where one is not a finite number."""
    out = out if np.ndim(s) else float(out)
    if not (math.isfinite(out) if isinstance(out, float) else np.isfinite(out).all()):
        raise NumericError(f"{law} quantile at level {s} is not a finite number")
    return out


@_register("gamma")
@dataclass(frozen=True)
class GammaLaw(RadialModel):
    """R ~ Gamma(shape, rate); survival is the regularized upper gamma tail.

    A whole shape up to specfun._ERLANG_N_MAX (the Erlang law, the
    exponential among them) takes the tail's finite closed form,
    -x + log sum_{k<n} x^k / k!, beyond the mean and below the sum's overflow
    point, 10 to 45 times faster than the banded scipy path on a 65 536-element
    chunk (n = 40 to 3).  survival_weights takes the same sum without its log
    (specfun.erlang_weights).
    """

    shape: float
    rate: float = 1.0

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValidationError(f"GammaLaw needs shape, rate positive and finite, got {self}")
        # a whole shape n's closed form and the largest x it serves; (0, 0.0) for other shapes
        n = int(self.shape) if 1 <= self.shape <= specfun._ERLANG_N_MAX and \
            self.shape == int(self.shape) else 0
        object.__setattr__(self, "_erlang", (n, specfun._ERLANG_X_MAX[n] if n else 0.0))

    @property
    def upper_endpoint(self) -> float:
        return math.inf

    def log_survival(self, u):
        ua = _check_domain_nonneg(u)
        if self.rate != 1.0:
            # u * rate overflowing to inf is survival 0, which the kernel returns
            with np.errstate(over="ignore"):
                ua = ua * self.rate
        return specfun.log_regularized_gamma_upper(self.shape, ua)

    def survival_weights(self, y, c, lo, hi, out):
        # the closed form needs every x = c rate y in [n, cap]; rounding is
        # monotone, so the extremes decide for every entry.  The default keeps
        # a constant y (d = 1), whose weights it makes exactly 1, radii it
        # would clip, and a subclass that changes log_survival.
        n, cap = self._erlang
        cr = c * self.rate
        if (n and lo < hi and c * hi <= 1e300 and cr * lo >= n and cr * hi <= cap
                and type(self).log_survival is GammaLaw.log_survival):
            return specfun.erlang_weights(n, np.multiply(y, cr, out=out[0]), cr * lo, cr * hi,
                                          out[1])
        return super().survival_weights(y, c, lo, hi, out)

    def scaling_w(self, u: float) -> float:
        return self.rate

    def quantile_survival(self, s):
        out = _sp.gammainccinv(self.shape, _check_level(s))
        if self.rate != 1.0:
            with np.errstate(over="ignore"):  # a quantile past DBL_MAX fails below
                out = out / self.rate
        return _finite_quantile(self, s, out)

    def sample(self, rng, size):
        r = standard_gamma(rng, self.shape, np.empty(size))
        if self.rate != 1.0:
            r /= self.rate  # in place: no second array per chunk
        return r


@_register("weibulltail")
@dataclass(frozen=True)
class WeibullTail(RadialModel):
    """Survival exp(-scale * u^index) on [0, inf); Gumbel class for any index > 0."""

    index: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.index < math.inf and 0 < self.scale < math.inf):
            raise ValidationError(f"WeibullTail needs index, scale positive and finite, got {self}")
        # below this radius scale * u^index stays under e^709 < DBL_MAX
        object.__setattr__(self, "_u_safe", math.exp(
            min(709.0, (709.0 - math.log(max(self.scale, 1.0))) / self.index)))
        # up to this -log s the quantile (-log s / scale)^(1/index) stays under
        # e^709; -log s < 745 for every level, so a larger bound never binds
        object.__setattr__(self, "_nlog_max",
                           self.scale * math.exp(min(709.0, 709.0 * self.index)))

    @property
    def upper_endpoint(self) -> float:
        return math.inf

    def log_survival(self, u):
        ua = _check_domain_nonneg(u)
        if isinstance(u, float) and u < self._u_safe:  # no overflow: skip errstate's 2 us
            return float(-self.scale * ua ** self.index)
        with np.errstate(over="ignore"):  # a power past DBL_MAX is log survival -inf
            out = -self.scale * ua ** self.index
        return out if np.ndim(u) else float(out)

    def scaling_w(self, u: float) -> float:
        if not u > 0:
            raise DomainError(f"scaling function needs u > 0, got {u}")
        try:
            return self.scale * self.index * u ** (self.index - 1.0)
        except OverflowError:
            raise NumericError(f"u^(index-1) overflows at u={u!r}, index={self.index!r}") from None

    def quantile_survival(self, s):
        nlog = -np.log(_check_level(s))
        if self._nlog_max < 745.0 and np.any(nlog > self._nlog_max):  # a tiny index or scale
            raise NumericError(f"WeibullTail quantile at level {s} overflows: "
                               f"(-log s / {self.scale!r})^(1/{self.index!r}) > e^709")
        out = (nlog / self.scale) ** (1.0 / self.index)
        return out if np.ndim(s) else float(out)

    def sample(self, rng, size):
        e = rng.standard_exponential(size)
        # the quantile's bound: a draw past _nlog_max is a radius past e^709
        if self._nlog_max < 745.0 and e.size and e.max() > self._nlog_max:
            raise NumericError(f"WeibullTail draw overflows: (E / {self.scale!r})"
                               f"^(1/{self.index!r}) > e^709 for an exponential draw E")
        return (e / self.scale) ** (1.0 / self.index)


@_register("beta")
@dataclass(frozen=True)
class BetaLaw(RadialModel):
    """R ~ Beta(a, b) on [0, 1]; Weibull max-domain with tail index b."""

    a: float
    b: float

    mda_class = "weibull"

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValidationError(f"BetaLaw needs a, b positive and finite, got {self}")

    @property
    def upper_endpoint(self) -> float:
        return 1.0

    @property
    def weibull_index(self) -> float:
        return self.b

    def log_survival(self, u):
        if isinstance(u, float) and u >= 0:  # NaN and negatives fail the check below
            return specfun.log_beta_survival(self.a, self.b, min(u, 1.0))
        ua = _check_domain_nonneg(u)
        return specfun.log_beta_survival(self.a, self.b, np.minimum(ua, 1.0))

    def quantile_survival(self, s):
        return _finite_quantile(self, s, _sp.betaincinv(self.a, self.b, 1.0 - _check_level(s)))

    def sample(self, rng, size):
        return rng.beta(self.a, self.b, size)


@_register("unitgumbel")
@dataclass(frozen=True)
class UnitGumbel(RadialModel):
    """Survival exp(-kappa u/(1-u)) on [0, 1): a Gumbel-class law with finite endpoint."""

    kappa: float = 1.0

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValidationError(f"UnitGumbel needs kappa positive and finite, got {self}")

    @property
    def upper_endpoint(self) -> float:
        return 1.0

    def log_survival(self, u):
        if isinstance(u, float) and u >= 0:  # the array form's IEEE operations, as floats
            return float(-self.kappa * u / (1.0 - u)) if u < 1.0 else -math.inf
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
        return 1.0 - self.kappa / (self.kappa + rng.standard_exponential(size))


# ----------------------------------------------------------------------
# max-domain-of-attraction diagnostics
# ----------------------------------------------------------------------

_DEFAULT_DEPTHS = tuple(10.0 ** -k for k in range(2, 11))
#: diagnostic mode -> (the max-domain class it needs, its parameters besides depths)
_MDA_MODES = {"gumbel_ratio": ("gumbel", ("x",)), "weibull_ratio": ("weibull", ("t",)),
              "davis_resnick": ("gumbel", ("mu", "c"))}
_LOG_MAX = math.log(np.finfo(float).max)


def mda_diagnostic(model: RadialModel, mode: str, params: dict) -> np.ndarray:
    """Numerical limit diagnostics behind the MDA assumptions.

    Returns a table of (u, ratio) pairs on a grid approaching the upper
    endpoint; the caller asserts convergence.  Modes:

      gumbel_ratio:  F_bar(u + x/w(u)) / F_bar(u)          -> exp(-x)
      weibull_ratio: F_bar(1 - t*u) / F_bar(1 - u)          -> t^gamma
      davis_resnick: (u w(u))^mu * F_bar(c*u) / F_bar(u)    -> 0, any mu, c > 1

    For the Weibull-ratio mode, u is the distance from the endpoint, and a
    depth with t*u >= 1 is left out.  NumericError for a ratio past the
    largest double, and where 1 - t*u or 1 - u rounds to the endpoint 1,
    whose survival 0 would make the ratio 0 or NaN.
    """
    if mode not in _MDA_MODES:
        raise ValidationError(f"unknown diagnostic mode {mode!r}")
    mda_class, names = _MDA_MODES[mode]
    if model.mda_class != mda_class:
        raise UnsupportedClassError(f"{mode} needs a {mda_class.capitalize()}-class radial law")
    params = dict(params)
    depths = params.pop("depths", _DEFAULT_DEPTHS)
    for key in names:
        if key not in params:
            raise ValidationError(f"{mode} needs the parameter {key!r}")
    arg = {key: float(params.pop(key)) for key in names}
    if mode == "weibull_ratio" and not arg["t"] > 0:
        raise DomainError(f"weibull_ratio needs t > 0, got {arg['t']}")
    if mode == "davis_resnick" and not arg["c"] > 1:
        raise DomainError(f"davis_resnick needs c > 1, got {arg['c']}")
    if params:
        raise ValidationError(f"unknown diagnostic parameters: {sorted(params)}")

    rows = []
    for depth in depths:
        u = depth if mode == "weibull_ratio" else model.quantile_survival(depth)
        if mode == "weibull_ratio":
            if arg["t"] * u >= 1.0:
                continue
            at_t, at_1 = 1.0 - arg["t"] * u, 1.0 - u
            if at_t == 1.0 or at_1 == 1.0:
                raise NumericError(f"weibull_ratio at u={u}: 1 - t*u or 1 - u rounds to 1")
            log_ratio = model.log_survival(at_t) - model.log_survival(at_1)
        elif mode == "gumbel_ratio":
            log_ratio = (model.log_survival(u + arg["x"] / model.scaling_w(u))
                         - model.log_survival(u))
        else:
            log_ratio = arg["mu"] * model.log_u_w(u) + (model.log_survival(arg["c"] * u)
                                                        - model.log_survival(u))
        if log_ratio > _LOG_MAX:
            raise NumericError(f"{mode} ratio exp({log_ratio}) at u={u} overflows a double")
        rows.append((u, math.exp(log_ratio)))
    return np.asarray(rows)
