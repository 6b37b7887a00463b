"""Numerically stable special functions and exact Beta/Gamma law tails.

Everything downstream (radial survival functions, asymptotic constants,
conditional Monte Carlo) funnels through this module.  The tail kernels
return log-scale values, because the survival values of interest range
from 1e-2 down to 1e-60 and below.

The incomplete beta and incomplete gamma functions are evaluated with the
classic series / continued-fraction pair (modified Lentz iteration), with
the symmetry switch at x = (a+1)/(a+b+2) for the beta case so that each
branch computes the *small* tail directly and never through cancellation.
All kernels are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

_TINY = 1e-300
_EPS = 1e-15
_MAX_ITER = 500


@dataclass(frozen=True)
class LogProb:
    """A probability stored as its natural logarithm (-inf allowed)."""

    log_value: float

    @property
    def value(self) -> float:
        """Linear-scale probability; underflows to 0.0 below ~1e-308."""
        return math.exp(self.log_value) if self.log_value < 0 else min(1.0, math.exp(self.log_value))

    def __float__(self) -> float:
        return self.log_value


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if not a > 0:
        raise DomainError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def logsumexp(values) -> float:
    """log(sum(exp(values))) without overflow; handles -inf entries."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    m = np.max(arr)
    if not np.isfinite(m):
        # all -inf (sum is 0) or a +inf slipped in
        return float(m)
    return float(m + np.log(np.sum(np.exp(arr - m))))


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, accurate near both ends."""
    if x > 0:
        raise DomainError(f"log1mexp requires x <= 0, got {x}")
    if x == 0:
        return -math.inf
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


# ----------------------------------------------------------------------
# incomplete beta
# ----------------------------------------------------------------------

def _beta_cf(a, b, x):
    """Continued fraction for the regularized incomplete beta (Lentz).

    Converges fast for x < (a+1)/(a+b+2); callers are responsible for
    the symmetry switch.  Vectorized over x, a, b of a common shape.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        converged |= np.abs(delta - 1.0) < _EPS
        if converged.all():
            return h
    raise NumericError("incomplete beta continued fraction did not converge")


def _log_beta(a, b):
    return (np.vectorize(math.lgamma)(a) + np.vectorize(math.lgamma)(b)
            - np.vectorize(math.lgamma)(a + b))


def _log_beta_survival_raw(a, b, x):
    """log P(B_{a,b} > x), vectorized, for 0 <= x <= 1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    a, b, x = np.broadcast_arrays(a, b, x)
    out = np.empty(x.shape, dtype=float)

    at_zero = x <= 0.0
    at_one = x >= 1.0
    out[at_zero] = 0.0
    out[at_one] = -np.inf
    interior = ~(at_zero | at_one)
    if not interior.any():
        return out

    ai, bi, xi = a[interior], b[interior], x[interior]
    switch = (ai + 1.0) / (ai + bi + 2.0)
    # log of the common prefactor x^a (1-x)^b / B(a, b)
    log_pref = ai * np.log(xi) + bi * np.log1p(-xi) - _log_beta(ai, bi)

    res = np.empty(xi.shape, dtype=float)
    upper = xi >= switch
    if upper.any():
        # survival computed directly as I_{1-x}(b, a)
        cf = _beta_cf(bi[upper], ai[upper], 1.0 - xi[upper])
        res[upper] = log_pref[upper] - np.log(bi[upper]) + np.log(cf)
    lower = ~upper
    if lower.any():
        # survival = 1 - I_x(a, b); I_x is bounded away from 1 here
        cf = _beta_cf(ai[lower], bi[lower], xi[lower])
        lower_cdf = np.exp(log_pref[lower] - np.log(ai[lower]) + np.log(cf))
        res[lower] = np.log1p(-np.minimum(lower_cdf, 1.0))
    out[interior] = res
    return out


def _check_beta_args(a, b, x):
    if not (np.all(np.asarray(a, dtype=float) > 0) and np.all(np.asarray(b, dtype=float) > 0)):
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0) or np.any(xa > 1) or np.any(np.isnan(xa)):
        raise DomainError(f"beta argument must lie in [0, 1], got x={x}")


def log_beta_survival(a, b, x):
    """log P(B_{a,b} > x); scalar in, scalar out, arrays pass through."""
    _check_beta_args(a, b, x)
    out = _log_beta_survival_raw(a, b, x)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


# ----------------------------------------------------------------------
# incomplete gamma (regularized upper tail)
# ----------------------------------------------------------------------

def _gamma_series_lower(a, x):
    """Regularized lower incomplete gamma P(a, x) by series, for x <= a + 1."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    ap = a.copy()
    total = 1.0 / a
    term = total.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        ap = ap + 1.0
        term = term * x / ap
        total = total + np.where(converged, 0.0, term)
        converged |= np.abs(term) < np.abs(total) * _EPS
        if converged.all():
            break
    else:
        raise NumericError("incomplete gamma series did not converge")
    log_p = np.log(total) - x + a * np.log(np.where(x > 0, x, 1.0)) - np.vectorize(math.lgamma)(a)
    return np.where(x > 0, np.exp(log_p), 0.0)


def _gamma_cf_upper_log(a, x):
    """log Q(a, x) by continued fraction (Lentz), for x > a + 1."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        converged |= np.abs(delta - 1.0) < _EPS
        if converged.all():
            break
    else:
        raise NumericError("incomplete gamma continued fraction did not converge")
    return -x + a * np.log(x) - np.vectorize(math.lgamma)(a) + np.log(h)


def log_regularized_gamma_upper(a, x):
    """log Q(a, x) = log P(Gamma(a, 1) > x), vectorized, deep-tail safe."""
    ax = np.asarray(a, dtype=float)
    if np.any(ax <= 0):
        raise DomainError(f"shape must be positive, got a={a}")
    xx = np.asarray(x, dtype=float)
    if np.any(xx < 0) or np.any(np.isnan(xx)):
        raise DomainError(f"argument must be non-negative, got x={x}")
    ax, xx = np.broadcast_arrays(ax, xx)
    out = np.empty(xx.shape, dtype=float)

    zero = xx == 0.0
    out[zero] = 0.0
    series = (xx < ax + 1.0) & ~zero
    if series.any():
        p = _gamma_series_lower(ax[series], xx[series])
        out[series] = np.log1p(-np.minimum(p, 1.0))
    cf = ~(zero | series)
    if cf.any():
        out[cf] = _gamma_cf_upper_log(ax[cf], xx[cf])
    if np.ndim(x) == 0 and np.ndim(a) == 0:
        return float(out)
    return out
