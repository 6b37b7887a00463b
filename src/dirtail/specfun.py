"""Numerically stable special functions and exact Beta/Gamma law tails.

Everything downstream (radial survival functions, asymptotic constants,
conditional Monte Carlo) funnels through this module.  The tail kernels
return log-scale values, because the survival values of interest range
from 1e-2 down to 1e-60 and below.

The regularized upper tails Q(a, x) and 1 - I_x(a, b) come from
scipy.special (the DiDonato-Morris algorithms), taken in log scale in
three bands of the linear-scale tail q:

* q > 1/2: log1p of minus the lower tail, because log(q) rounds to 0
  once 1 - q drops below the double spacing near 1;
* q below an underflow floor: the upper tail's continued fraction, one
  modified-Lentz loop for both laws, summed in log scale, because q itself
  underflows (or keeps only a few digits as a subnormal) while its logarithm
  is an ordinary number; only the entries that the finite sums below leave
  to the bands (shapes not whole numbers up to _ERLANG_N_MAX) reach it;
* everywhere else: log(q).

Two routes bypass the bands, finite sums by one Horner loop.  A gamma shape
that is a whole number n <= _ERLANG_N_MAX (the Erlang law) has the tail
Q(n, x) = e^{-x} sum_{k<n} x^k / k! (Abramowitz & Stegun 6.5.13), taken as
-x + log(sum) for every x >= n, where Q(n, x) < 1/2, up to the x where the
sum would overflow; entries with x < n or past that cap (x = inf among them)
take the bands.  A whole first beta shape a <= _ERLANG_N_MAX has
P(B_{a,b} > x) = (1 - x)^b sum_{j<a} (b)_j / j! x^j (DLMF 8.17.5), taken as
b log1p(-x) + log(sum) wherever that gives q < 1/2.  Other shapes take the
bands.  erlang_weights gives the Erlang tails of an array divided by the
largest, e^{x_lo - x} sum(x) / sum(x_lo), without a log.
The kernels take scalar shapes and an argument x that is a float or an array
of any shape; a float x runs the same bands without the array bookkeeping,
and gives the same bits there.  The finite sums take math.log and math.log1p
for a float x where an array takes numpy's, and those differ in the last bit
now and then: for 2000 uniform x in (0, 1), 87 beta values for shapes (2, 3)
and 39 for (1, 0.5); for 2000 uniform x in [2, 60], one Erlang value for n = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammainc, gammaincc, gammaln

from .errors import DomainError, NumericError

_TINY = 1e-300
_EPS = 1e-15
_MAX_ITER = 1000
_DBL_MAX = np.finfo(float).max
#: below this linear-scale tail the log comes from the continued fraction;
#: far enough above the smallest normal double that log(q) never sees a subnormal
_FLOOR = 1e-280
#: largest whole gamma shape that takes the closed-form Erlang tail.  The
#: Horner steps round relative to the sum's positive terms, so the error grows
#: slowly with n: at most 5.6e-15 relative to mpmath in log up to n = 40 (x in
#: [n, 1e4]), about 1e-14 for n = 70 to 120.  At n = 40 the form is ~10x faster
#: than gammaincc on a 65 536-element chunk.
_ERLANG_N_MAX = 40
#: the Horner coefficients 1/k!, k = 0..n-1, of the sum
_INV_FACT = [1.0 / math.factorial(k) for k in range(_ERLANG_N_MAX)]
#: per whole shape n, the largest x whose sum cannot overflow: there the sum is
#: within a factor e of its last term x^{n-1}/(n-1)!, which the cap holds to DBL_MAX / e
_ERLANG_X_MAX = {1: _DBL_MAX} | {
    n: math.exp((math.log(_DBL_MAX) - 1.0 + math.lgamma(n)) / (n - 1))
    for n in range(2, _ERLANG_N_MAX + 1)}
#: log of the largest finite sum a Horner loop may reach, with room to spare
_LOG_SUM_MAX = 700.0
#: the finite sums serve entries whose tail is below 1/2, where log q <= log(1/2)
#: keeps its digits
_LOG_HALF = -math.log(2.0)
#: log of the least weight a log-sum forms: the weights of a chunk are scaled to
#: a largest of 1, so raising smaller ones to e^-300 moves no bit of the sum,
#: while numpy's exp takes 10 to 100 times longer on arguments below -708 and
#: products with subnormal factors are slow too (w^2 >= e^-600 stays normal)
_LOG_WEIGHT_FLOOR = -300.0


@dataclass(frozen=True)
class LogProb:
    """A probability stored as its natural logarithm (-inf allowed)."""

    log_value: float

    @property
    def value(self) -> float:
        """Linear-scale probability; underflows to 0.0 below ~1e-308."""
        return math.exp(self.log_value) if self.log_value < 0 else min(1.0, math.exp(self.log_value))


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if not a > 0:
        raise DomainError(f"log_gamma requires a > 0, got {a}")
    try:
        return math.lgamma(a)
    except OverflowError:
        raise NumericError(f"log Gamma(a) overflows at a={a!r}") from None


def logsumexp(values, axis=None):
    """log(sum(exp(values))) without overflow: a float, or with an axis an array
    along it.  A sum whose largest term is not finite (-inf, +inf) is that term."""
    arr = np.asarray(values, dtype=float)
    m = np.max(arr, axis=axis, keepdims=True, initial=-math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf, log 0: m not finite
        shifted = arr - m
        total = np.log(np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True))
    out = np.where(np.isfinite(m), m + total, m)
    return out.item() if axis is None else out.squeeze(axis)


# ----------------------------------------------------------------------
# banded upper tails
# ----------------------------------------------------------------------

def _log_tail(upper, lower, log_fraction, shapes, x):
    """log of the upper tail q = upper(*shapes, x), by the bands of q.

    lower(*shapes, x) is 1 - q and log_fraction(*shapes, x) is log q by the
    continued fraction; each runs only on the entries of its band.  The
    shapes are floats.  A float x takes the same bands with plain ifs, the
    fraction on a 1-element array, and gives a float with the bits of the
    array path.
    """
    q = upper(*shapes, x)
    if isinstance(x, float):
        if q > 0.5:
            return float(np.log1p(-lower(*shapes, x)))
        if q < _FLOOR:
            return float(log_fraction(*shapes, np.array([x]))[0])
        return float(np.log(q))
    with np.errstate(divide="ignore"):
        out = np.log(q)
    body = q > 0.5
    if body.any():
        out[body] = np.log1p(-lower(*shapes, x[body]))
    deep = q < _FLOOR
    if deep.any():
        out[deep] = log_fraction(*shapes, x[deep])
    return out


def _lentz(h, c, d, term, what):
    """Modified Lentz (Thompson & Barnett 1986) on 1-d arrays from the start state
    (h, c, d), step i's partial numerator and denominator being term(i).  A converged
    entry's h is frozen, so no value depends on the entries beside it."""
    converged = np.zeros(h.shape, dtype=bool)
    for i in range(1, _MAX_ITER + 1):
        an, bn = term(i)
        d = an * d + bn
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = bn + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        np.multiply(h, delta, out=h, where=~converged)
        converged |= np.abs(delta - 1.0) < _EPS
        if converged.all():
            return h
    raise NumericError(f"{what} continued fraction did not converge")


# ----------------------------------------------------------------------
# incomplete beta
# ----------------------------------------------------------------------

def _beta_cf_upper_log(a, b, x):
    """log P(B_{a,b} > x) = log I_y(b, a), y = 1 - x, by the continued fraction
    y^b (1 - y)^a / (b B(a, b)) / (1 + d_1 / (1 + d_2 / ...)), for float shapes
    and a 1-d array x with y < (b + 1) / (a + b + 2), where it converges fast.
    x = 1 is -inf without the fraction: BetaLaw clips every argument past its
    endpoint to 1."""
    out = np.full(x.shape, -np.inf)
    inside = x < 1.0
    x = x[inside]
    y = 1.0 - x
    qab, qap, qam = b + a, b + 1.0, b - 1.0
    d = 1.0 - qab * y / qap
    d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)

    def term(i):  # d_{i+1}: i = 2m - 1 gives d_{2m}, i = 2m gives d_{2m+1}
        m = (i + 1) // 2
        m2 = 2 * m
        if i % 2:
            return m * (a - m) * y / ((qam + m2) * (b + m2)), 1.0
        return -(b + m) * (qab + m) * y / ((b + m2) * (qap + m2)), 1.0

    h = _lentz(d.copy(), np.ones_like(y), d, term, "incomplete beta")
    log_pref = a * np.log(x) + b * np.log1p(-x) - betaln(a, b)
    out[inside] = log_pref - np.log(b) + np.log(h)
    return out


def log_beta_survival(a, b, x):
    """log P(B_{a,b} > x) for scalar shapes a, b > 0 and x in [0, 1]: a float
    for a scalar x, else an array of x's shape.

    A whole first shape a <= _ERLANG_N_MAX takes the finite sum
    (_log_beta_sum) at every entry where it gives q < 1/2; the other entries,
    and other shapes, take the bands."""
    if not (a > 0 and b > 0):  # plain comparisons, which a NaN fails
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    shapes = float(a), float(b)
    coef = _beta_series(a, b)
    scalar = isinstance(x, float) or np.ndim(x) == 0
    xx = float(x) if scalar else np.asarray(x, dtype=float)
    if not (0 <= xx <= 1 if scalar else np.all((xx >= 0) & (xx <= 1))):  # a NaN fails
        raise DomainError(f"beta argument must lie in [0, 1], got x={x}")
    if coef is None:
        return _log_tail(betaincc, betainc, _beta_cf_upper_log, shapes, xx)
    out = _log_beta_sum(coef, shapes[1], xx)
    if scalar:
        return out if out < _LOG_HALF else _log_tail(betaincc, betainc, _beta_cf_upper_log,
                                                     shapes, xx)
    body = ~(out < _LOG_HALF)
    if body.any():
        out[body] = _log_tail(betaincc, betainc, _beta_cf_upper_log, shapes, xx[body])
    return out


# ----------------------------------------------------------------------
# incomplete gamma (regularized upper tail)
# ----------------------------------------------------------------------

def _gamma_cf_upper_log(a, x):
    """log Q(a, x) = -x + a log x - log Gamma(a) - log(b_0 + a_1 / (b_1 + ...)),
    a_i = -i (i - a), b_i = x + 1 - a + 2i (Legendre), for a float shape and a 1-d
    array x > a + 1.  x = inf is -inf without the fraction, whose terms would be
    inf / inf."""
    out = np.full(x.shape, -np.inf)
    finite = np.isfinite(x)
    x = x[finite]
    b = x + 1.0 - a

    def term(i):  # b_i as a running sum, as b_0 + 2i would round differently
        nonlocal b
        b = b + 2.0
        return -i * (i - a), b

    d = 1.0 / b
    h = _lentz(d.copy(), np.full(x.shape, 1.0 / _TINY), d, term, "incomplete gamma")
    out[finite] = -x + a * np.log(x) - gammaln(a) + np.log(h)
    return out


def _series(coef, x, out=None):
    """coef[0] + coef[1] x + ... + coef[-1] x^(len - 1) for two or more
    coefficients, by Horner in x in one buffer (out when given) or as a float."""
    t = x * coef[-1] if out is None else np.multiply(x, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        t += c
        t *= x
    t += coef[0]
    return t


def _log_series(coef, x):
    """log of _series(coef, x) for x >= 0 and positive coefficients, with one
    in-place log (math.log for a float).  The terms are positive, so nothing
    cancels."""
    t = _series(coef, x)
    return np.log(t, out=t) if isinstance(t, np.ndarray) else math.log(t)


def _log_erlang_tail(n: int, x):
    """log Q(n, x) for a whole shape n and n <= x <= _ERLANG_X_MAX[n], from the
    finite sum: -x + log(1 + x + x^2/2! + ... + x^{n-1}/(n-1)!), the cap keeping
    the sum finite."""
    if n == 1:
        return -x
    t = _log_series(_INV_FACT[:n], x)
    t -= x
    return t


def erlang_weights(n: int, x: np.ndarray, x_lo: float, x_hi: float, out: np.ndarray):
    """(m, w) with w = Q(n, x) / e^m and m = log Q(n, x_lo), for a whole shape
    n <= _ERLANG_N_MAX and an array x in [n, _ERLANG_X_MAX[n]] with least entry
    x_lo and greatest x_hi: w = e^{x_lo - x} P(x) / P(x_lo), P(x) the finite
    sum, so m + log(sum w) is the log-sum of Q(n, x) with no log pass and no
    maximum.  x is first clipped at x_lo - _LOG_WEIGHT_FLOOR = x_lo + 300,
    where a weight is at most e^-216 (n <= 40): the clip moves no bit of the
    sum, and exp and the squares of w stay out of the slow subnormal range.
    x is overwritten; w is out (x itself for n = 1).
    """
    top = x_lo - _LOG_WEIGHT_FLOOR
    if x_hi > top:
        np.minimum(x, top, out=x)
    if n == 1:
        w = np.subtract(x_lo, x, out=x)
        return -x_lo, np.exp(w, out=w)
    coef = _INV_FACT[:n]
    w = _series(coef, x, out)
    p_lo = _series(coef, x_lo)
    w *= 1.0 / p_lo
    e = np.subtract(x_lo, x, out=x)
    w *= np.exp(e, out=e)
    return math.log(p_lo) - x_lo, w


def _beta_series(a, b):
    """The coefficients (b)_j / j!, j < a, of the finite sum of a whole first
    shape a <= _ERLANG_N_MAX, or None for other a and where the sum, at most
    C(a + b - 1, a - 1) < (a + b)^(a - 1), could overflow."""
    if not (1 <= a <= _ERLANG_N_MAX and a == int(a)
            and (a - 1) * math.log(a + b) < _LOG_SUM_MAX):
        return None
    coef = [1.0]
    for j in range(1, int(a)):
        coef.append(coef[-1] * (b + j - 1.0) / j)
    return coef


def _log_beta_sum(coef, b, x):
    """log P(B_{a,b} > x) = b log(1 - x) + log sum_{j<a} (b)_j / j! x^j (DLMF 8.17.5)
    from _beta_series' coefficients; x = 1 gives -inf."""
    if isinstance(x, float):
        if x == 1.0:
            return -math.inf
        return b * math.log1p(-x) + (_log_series(coef, x) if len(coef) > 1 else 0.0)
    with np.errstate(divide="ignore"):
        out = np.log1p(-x)
    out *= b
    if len(coef) > 1:
        out += _log_series(coef, x)
    return out


def log_regularized_gamma_upper(a, x):
    """log Q(a, x) = log P(Gamma(a, 1) > x) for a scalar shape a > 0 and x >= 0,
    deep-tail safe: a float for a scalar x, else an array of x's shape."""
    if not a > 0:  # a NaN fails
        raise DomainError(f"shape must be positive, got a={a}")
    xx = np.asarray(x, dtype=float)
    # the least entry, in one pass; a NaN propagates to it and fails the check
    lo = float(x) if xx.ndim == 0 else xx.min(initial=math.inf)
    if not lo >= 0:
        raise DomainError(f"argument must be non-negative, got x={x}")
    x = xx if xx.ndim else lo  # a scalar as a float: float arithmetic beats 0-d arrays
    n = int(a) if 1 <= a <= _ERLANG_N_MAX and a == int(a) else 0
    if n and lo >= n and (lo if xx.ndim == 0 else xx.max(initial=-math.inf)) <= _ERLANG_X_MAX[n]:
        return _log_erlang_tail(n, x)
    shapes = (float(a),)
    if n and xx.ndim:
        closed = (xx >= n) & (xx <= _ERLANG_X_MAX[n])
        out = np.empty(xx.shape)
        out[closed] = _log_erlang_tail(n, xx[closed])
        out[~closed] = _log_tail(gammaincc, gammainc, _gamma_cf_upper_log, shapes, xx[~closed])
        return out
    return _log_tail(gammaincc, gammainc, _gamma_cf_upper_log, shapes, x)
