"""Independent verification engines for the tail formulas.

The workhorse is the radially conditioned estimator: with the simplex part
Z = sum_i lambda_i U_i^p sampled and the radius integrated out exactly,

    P(S_p > t) = E[ F_bar((t_norm / Z)^{1/p}) ],

every sample contributes its exact log-scale survival value, so tail
probabilities down to ~1e-60 are estimable with ordinary sample sizes; all
of the rarity lives in F_bar, none in the indicator.  A crude frequency
estimator and (for d <= 3) deterministic quadrature oracles cross-check it.

Every sampler runs on one chunked engine: chunk k of a fixed partition
draws from a substream seeded by (seed, k) and is reduced on its own, and
the chunk results combine in index order.  Only conditional_mc_tail and
crude_mc_tail take a worker count; it changes scheduling, never a result.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .aggtail import AggregateSpec, lambda_tilde, tail_asymptotic, validate_spec
from .errors import DomainError, NumericError, ValidationError
from .producttail import saddle_geometry
from .radial import RadialModel
from .specfun import log1mexp, log_gamma, logsumexp

__all__ = [
    "CHUNK",
    "Estimate",
    "NormingConstants",
    "sample_dirichlet",
    "conditional_mc_tail",
    "crude_mc_tail",
    "quadrature_tail",
    "max_sum_ratio",
    "pairwise_asymindep",
    "norming_constants",
    "empirical_gumbel_mda",
    "gumbel_limit_check",
]

#: fixed chunk size of the deterministic sample partition
CHUNK = 1 << 16


@dataclass(frozen=True)
class Estimate:
    """A tail-probability estimate with its uncertainty.

    stderr is 0 exactly for the deterministic quadrature method (and for
    degenerate one-dimensional conditional estimates whose sample variance
    vanishes identically).
    """

    p_hat: float
    log_p_hat: float
    stderr: float
    n: int
    seed: int
    method: str

    def to_json(self) -> dict:
        return {"method": self.method, "seed": self.seed, "n": self.n,
                "p_hat": self.p_hat, "log_p_hat": self.log_p_hat, "stderr": self.stderr}


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _chunk_sizes(n: int, chunk: int = CHUNK) -> list[int]:
    if not n >= 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    full, rest = divmod(int(n), chunk)
    return [chunk] * full + ([rest] if rest else [])


def _chunked(seed: int, sizes: list[int], alpha, fn, workers: int = 1) -> list:
    """fn(rng, u) for every chunk k, in chunk order.  u holds the chunk's
    sizes[k] simplex rows, drawn first from rng = default_rng([seed, k]).

    Raises NumericError when a row's gamma draws all underflow to 0, which
    small alpha makes likely: the row has no simplex point to normalize.
    """
    alpha = np.asarray(alpha, dtype=float)

    def one_chunk(k: int):
        rng = np.random.default_rng([seed, k])
        y = rng.standard_gamma(alpha, size=(sizes[k], alpha.size))
        total = y.sum(axis=1, keepdims=True)
        if not np.all(total > 0):
            raise NumericError(
                f"simplex row sum underflowed to 0 at alpha={alpha.tolist()}: every "
                f"standard_gamma draw of a row was 0 (alpha too small to sample)")
        return fn(rng, y / total)

    if workers <= 1 or len(sizes) == 1:
        return [one_chunk(k) for k in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_chunk, range(len(sizes))))


def _chunk_logsums(parts) -> np.ndarray:
    """Equal-shaped per-chunk tables of log-sums, log-summed entry by entry."""
    table = np.asarray(parts)
    cols = table.reshape(len(table), -1).T
    return np.asarray([logsumexp(col) for col in cols]).reshape(table.shape[1:])


def _radius(rng: np.random.Generator, radial: RadialModel, size: int) -> np.ndarray:
    """Radius draws by quantile inversion of one uniform each."""
    return radial.quantile(np.clip(rng.random(size), 1e-16, 1.0 - 1e-16))


def _log_cond(radial: RadialModel, z: np.ndarray, level: float, p: float) -> np.ndarray:
    """The conditional kernel log F_bar((level / z)^{1/p}), one value per row.

    z = 0 maps to an unbounded radius (survival 0); a NaN z reaches
    log_survival and fails there rather than being read as no exceedance.
    """
    with np.errstate(divide="ignore"):
        return radial.log_survival(np.minimum((level / z) ** (1.0 / p), 1e300))


def _cond_logsums(radial: RadialModel, z: np.ndarray, levels, p: float):
    """log sum over rows of the conditional kernel, one level at a time."""
    return (logsumexp(_log_cond(radial, z, level, p)) for level in levels)


def _z(spec: AggregateSpec, u: np.ndarray) -> np.ndarray:
    """The simplex part Z = sum_i lambda_i U_i^p of each row of u."""
    return (np.asarray(spec.lam) * u ** spec.p).sum(axis=1)


def _z_sup(lam: np.ndarray, p: float) -> float:
    """Supremum of sum lam_i b_i^p over the simplex."""
    if p >= 1.0:
        return float(np.max(lam))
    positive = lam[lam > 0]
    return lambda_tilde(positive, p)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def sample_dirichlet(spec: AggregateSpec, n: int, seed: int, return_radius: bool = False):
    """i.i.d. draws of the Dirichlet vector (R*U_1, ..., R*U_d).

    The radius is sampled by quantile inversion of a single uniform per
    draw, so each sample consumes a fixed slice of its chunk substream.
    """
    seed = _check_seed(seed)

    def draw(rng, u):
        r = _radius(rng, spec.radial, len(u))
        return u * r[:, None], r

    parts = _chunked(seed, _chunk_sizes(n), spec.alpha, draw)
    x = np.vstack([part[0] for part in parts])
    if return_radius:
        return x, np.concatenate([part[1] for part in parts])
    return x


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

def _estimate_from_log_moments(ls1: float, ls2: float, n: int, seed: int, method: str) -> Estimate:
    log_mean = ls1 - math.log(n)
    if log_mean == -math.inf:
        return Estimate(p_hat=0.0, log_p_hat=-math.inf, stderr=0.0, n=n, seed=seed, method=method)
    log_m2 = ls2 - math.log(n)
    gap = min(2.0 * log_mean - log_m2, 0.0)
    log_var = log_m2 + log1mexp(gap)
    log_se = 0.5 * (log_var - math.log(n)) if log_var > -math.inf else -math.inf
    return Estimate(p_hat=math.exp(log_mean), log_p_hat=log_mean,
                    stderr=math.exp(log_se) if log_se > -math.inf else 0.0,
                    n=n, seed=seed, method=method)


def conditional_mc_tail(spec: AggregateSpec, t: float, n: int, seed: int,
                        workers: int = 1) -> Estimate:
    """Radially conditioned estimator of P(S_p > t) (t on the raw scale).

    Unbiased: averages the exact radial survival F_bar((t_norm/Z)^{1/p})
    over simplex draws, with the average taken by log-sum-exp because the
    per-sample values can span sixty orders of magnitude.
    """
    seed = _check_seed(seed)
    if not t > 0:
        raise DomainError(f"threshold must be positive, got {t}")
    tn = t / spec.scale
    x_f = spec.radial.upper_endpoint
    if math.isfinite(x_f) and tn >= _z_sup(np.asarray(spec.lam), spec.p) * x_f ** spec.p:
        return Estimate(p_hat=0.0, log_p_hat=-math.inf, stderr=0.0, n=int(n),
                        seed=seed, method="conditional")

    def moments(rng, u):
        logs = _log_cond(spec.radial, _z(spec, u), tn, spec.p)
        return logsumexp(logs), logsumexp(2.0 * logs)

    parts = _chunked(seed, _chunk_sizes(n), spec.alpha, moments, workers)
    ls1 = logsumexp([p[0] for p in parts])
    ls2 = logsumexp([p[1] for p in parts])
    return _estimate_from_log_moments(ls1, ls2, int(n), seed, "conditional")


def crude_mc_tail(spec: AggregateSpec, t: float, n: int, seed: int,
                  workers: int = 1) -> Estimate:
    """Plain frequency estimator of P(S_p > t) with binomial standard error."""
    seed = _check_seed(seed)
    if not t > 0:
        raise DomainError(f"threshold must be positive, got {t}")
    tn = t / spec.scale

    def hits_in(rng, u):
        r = _radius(rng, spec.radial, len(u))
        return int(np.count_nonzero(r ** spec.p * _z(spec, u) > tn))

    hits = sum(_chunked(seed, _chunk_sizes(n), spec.alpha, hits_in, workers))
    n = int(n)
    p_hat = hits / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return Estimate(p_hat=p_hat, log_p_hat=math.log(p_hat) if p_hat > 0 else -math.inf,
                    stderr=stderr, n=n, seed=seed, method="crude")


# ----------------------------------------------------------------------
# quadrature oracles (d <= 3)
# ----------------------------------------------------------------------

def _log_beta_pdf_arr(a: float, b: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return ((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
                + log_gamma(a + b) - log_gamma(a) - log_gamma(b))


def quadrature_tail(spec: AggregateSpec, t: float) -> Estimate:
    """Deterministic oracle for P(S_p > t), d <= 3.

    d = 2 integrates the conditional radial survival against the Beta
    mixing density; d = 3 nests two such integrals over the splitting
    rectangle.  The integrand is normalized by its supremum and integrated
    in linear scale, so the result is exact in log scale at any depth.
    """
    if not t > 0:
        raise DomainError(f"threshold must be positive, got {t}")
    if spec.d > 3:
        raise DomainError(f"quadrature oracle supports d <= 3, got d={spec.d}")
    tn = t / spec.scale
    p = spec.p
    inv_p = 1.0 / p
    radial = spec.radial
    x_f = radial.upper_endpoint

    if spec.d == 1:
        log_val = radial.log_survival(min(tn ** inv_p, 1e300))
        return Estimate(p_hat=math.exp(log_val), log_p_hat=log_val, stderr=0.0,
                        n=1, seed=0, method="quadrature")

    lam = np.asarray(spec.lam)
    z_sup = _z_sup(lam, p)
    u_min = (tn / z_sup) ** inv_p
    if u_min >= x_f:
        return Estimate(p_hat=0.0, log_p_hat=-math.inf, stderr=0.0, n=0,
                        seed=0, method="quadrature")
    log_top = radial.log_survival(u_min)

    a = spec.alpha

    # for p >= 1 the integrand concentrates in O(1/u_min) layers at the simplex
    # corners; hint the adaptive rule at them
    edge = min(0.4, 1.0 / max(u_min, 2.5))

    if spec.d == 2:
        def integrand(b):
            z = lam[0] * b ** p + lam[1] * (1.0 - b) ** p
            u = min((tn / z) ** inv_p, 1e300)
            return math.exp(_log_beta_pdf_arr(a[0], a[1], b) + radial.log_survival(u) - log_top)

        points = ([saddle_geometry(lam[0], lam[1], p).theta] if 0 < p < 1
                  else [edge, 1.0 - edge])
        val, _err, info = integrate.quad(integrand, 0.0, 1.0, points=points,
                                         limit=300, epsabs=1e-14, epsrel=1e-10,
                                         full_output=True)[:3]
    else:
        # d == 3: split off the last index; B3 ~ Beta(a1+a2, a3), inner B2 ~ Beta(a1, a2)
        if 0 < p < 1:
            inner_points = [saddle_geometry(lam[0], lam[1], p).theta]
            lt2 = lambda_tilde(lam[:2], p)
            outer_points = [saddle_geometry(lt2, lam[2], p).theta]
        else:
            inner_points = [edge, 1.0 - edge]
            outer_points = [edge, 1.0 - edge]

        def outer(b3):
            head = b3 ** p
            tail = lam[2] * (1.0 - b3) ** p

            def inner(b2):
                z = head * (lam[0] * b2 ** p + lam[1] * (1.0 - b2) ** p) + tail
                u = min((tn / z) ** inv_p, 1e300)
                return math.exp(_log_beta_pdf_arr(a[0], a[1], b2) + radial.log_survival(u)
                                - log_top)

            val, _ = integrate.quad(inner, 0.0, 1.0, points=inner_points,
                                    limit=200, epsabs=1e-14, epsrel=1e-9)
            return val * math.exp(_log_beta_pdf_arr(a[0] + a[1], a[2], b3))

        val, _err, info = integrate.quad(outer, 0.0, 1.0, points=outer_points,
                                         limit=200, epsabs=1e-14, epsrel=1e-8,
                                         full_output=True)[:3]
    # u_min < x_f here, so the true integral is positive: a zero is the
    # adaptive rule missing the integrand's support, not an answer
    if not val > 0:
        raise NumericError(f"quadrature integral came out {val} at t={t}: "
                           f"the rule missed the integrand's support")
    log_val = log_top + math.log(val)
    return Estimate(p_hat=math.exp(log_val), log_p_hat=log_val, stderr=0.0,
                    n=int(info["neval"]), seed=0, method="quadrature")


# ----------------------------------------------------------------------
# diagnostics built on the conditional estimator
# ----------------------------------------------------------------------

def max_sum_ratio(spec: AggregateSpec, t_grid, n: int, seed: int) -> np.ndarray:
    """P(max_i lambda_i X_i^p > t) / P(S_p > t) on a threshold grid.

    Both tails use the conditional estimator with shared simplex draws, so
    the ratio is a smooth function of the noise and always <= 1.  Columns:
    (t, log numerator, log denominator, ratio).
    """
    seed = _check_seed(seed)
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0 for t in t_grid):
        raise DomainError("thresholds must be positive")
    levels = [t / spec.scale for t in t_grid]

    def columns(rng, u):
        terms = np.asarray(spec.lam) * u ** spec.p
        return list(zip(_cond_logsums(spec.radial, terms.max(axis=1), levels, spec.p),
                        _cond_logsums(spec.radial, terms.sum(axis=1), levels, spec.p)))

    logs = _chunk_logsums(_chunked(seed, _chunk_sizes(n), spec.alpha, columns)) - math.log(n)
    return np.asarray([(t, num, den, math.exp(num - den)) for t, (num, den) in zip(t_grid, logs)])


@dataclass(frozen=True)
class NormingConstants:
    a_n: float
    b_n: float


def norming_constants(spec: AggregateSpec, n: int) -> NormingConstants:
    """Location b_n and scale a_n normalizing the maximum of n i.i.d. copies
    of S_p toward the Gumbel limit: b_n solves the tail asymptotic at 1/n,
    a_n = 1/w_p(b_n)."""
    if not n >= 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if spec.radial.mda_class != "gumbel":
        raise DomainError("norming constants need a Gumbel-class radial law")
    asym = tail_asymptotic(spec)
    b_n = asym.invert(-math.log(n))
    a_n = spec.scale / spec.radial.power_scaling_wp(spec.p, b_n / spec.scale)
    return NormingConstants(a_n=a_n, b_n=b_n)


def pairwise_asymindep(alpha, weights, p: float, radial: RadialModel, i: int, j: int,
                       n_grid, n: int, seed: int) -> np.ndarray:
    """Empirical conditional exceedance P(Y_i > b, Y_j > b) / P(Y_i > b).

    Y_k = sum_r weights[r, k] * X_r^p are linear transforms of the powered
    Dirichlet components.  Levels b are the asymptotic 1 - 1/n quantiles of
    Y_i for n in n_grid; the ratio trending to 0 is the empirical face of
    the joint max-stable limit with independent Gumbel margins.  Columns:
    (n_level, b, ratio).
    """
    seed = _check_seed(seed)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValidationError("weights must be a matrix (rows: components, cols: variables)")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be non-negative and finite")
    d, n_cols = w.shape
    if len(alpha) != d:
        raise ValidationError("weight matrix rows must match len(alpha)")
    if i == j or not (0 <= i < n_cols and 0 <= j < n_cols):
        raise ValidationError(f"need two distinct column indices in range, got ({i}, {j})")
    if p >= 1.0:
        unit_sets = [set(np.nonzero(w[:, c] == 1.0)[0]) for c in range(n_cols)]
        for c, s in enumerate(unit_sets):
            if not s:
                raise ValidationError(f"column {c} has no unit weight (required for p >= 1)")
        for c1 in range(n_cols):
            for c2 in range(c1 + 1, n_cols):
                if unit_sets[c1] & unit_sets[c2]:
                    raise ValidationError(
                        f"columns {c1} and {c2} share a unit-weight component (p >= 1)")
    else:
        q = 1.0 / (1.0 - p)
        norms = (w ** q).sum(axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValidationError(
                f"for p < 1 every column must have unit 1/(1-p)-norm, got norms {norms}")
        for c1 in range(n_cols):
            for c2 in range(c1 + 1, n_cols):
                if np.all(w[:, c1] == w[:, c2]):
                    raise ValidationError(f"columns {c1} and {c2} are identical")

    # the zero-weight components stay in the column's spec: their alphas
    # still shape the simplex law of the remaining coordinates
    asym_i = tail_asymptotic(validate_spec(alpha, w[:, i], p, radial))
    bs = [asym_i.invert(-math.log(nl)) for nl in n_grid]

    def columns(rng, u):
        up = u ** p
        z_i = up @ w[:, i]
        z_min = np.minimum(z_i, up @ w[:, j])
        return list(zip(_cond_logsums(radial, z_i, bs, p), _cond_logsums(radial, z_min, bs, p)))

    logs = _chunk_logsums(_chunked(seed, _chunk_sizes(n), alpha, columns)) - math.log(n)
    return np.asarray([(int(nl), b, math.exp(joint - single))
                       for nl, b, (single, joint) in zip(n_grid, bs, logs)])


def empirical_gumbel_mda(spec: AggregateSpec, x_grid, depth_grid, n: int,
                         seed: int) -> np.ndarray:
    """Estimates F_bar_S(v + x/w_p(v)) / F_bar_S(v) at asymptotic depths v.

    Convergence of the ratios to exp(-x) is the empirical face of the
    aggregate inheriting the Gumbel max-domain with scaling w_p.  Columns:
    (depth, v, x, ratio, exp(-x)).
    """
    seed = _check_seed(seed)
    if spec.radial.mda_class != "gumbel":
        raise DomainError("the Gumbel diagnostic needs a Gumbel-class radial law")
    asym = tail_asymptotic(spec)

    jobs = []
    for depth in depth_grid:
        v = asym.invert(math.log(depth))
        w_raw = spec.radial.power_scaling_wp(spec.p, v / spec.scale) / spec.scale
        levels = [t / spec.scale for t in [v] + [v + float(x) / w_raw for x in x_grid]]
        jobs.append((depth, v, levels))

    def columns(rng, u):
        z = _z(spec, u)
        return [list(_cond_logsums(spec.radial, z, levels, spec.p)) for _d, _v, levels in jobs]

    # the ratios take differences of raw log-sums: both sides share 1/n
    logs = _chunk_logsums(_chunked(seed, _chunk_sizes(n), spec.alpha, columns))
    rows = []
    for (depth, v, _levels), (log_base, *log_shifts) in zip(jobs, logs):
        for x, log_shift in zip(x_grid, log_shifts):
            rows.append((depth, v, float(x), math.exp(log_shift - log_base),
                         math.exp(-float(x))))
    return np.asarray(rows)


def gumbel_limit_check(spec: AggregateSpec, n: int, replicates: int, x_grid,
                       seed: int) -> np.ndarray:
    """Empirical P(max of n i.i.d. S_p <= a_n x + b_n) against exp(-exp(-x)).

    Block maxima are simulated directly (replicates blocks of n draws);
    the norming constants come from the tail asymptotic.  Columns:
    (x, empirical, limit).
    """
    seed = _check_seed(seed)
    consts = norming_constants(spec, n)
    x_arr = np.asarray([float(x) for x in x_grid])
    cut = consts.b_n + consts.a_n * x_arr

    # each chunk holds whole blocks of n draws
    sizes = [reps * n for reps in _chunk_sizes(replicates, max(1, CHUNK // n))]

    def block_counts(rng, u):
        r = _radius(rng, spec.radial, len(u))
        s = spec.scale * r ** spec.p * _z(spec, u)
        block_max = s.reshape(-1, n).max(axis=1)
        return (block_max[:, None] <= cut[None, :]).sum(axis=0)

    counts = sum(_chunked(seed, sizes, spec.alpha, block_counts))
    emp = counts / float(replicates)
    return np.asarray([(x, e, math.exp(-math.exp(-x))) for x, e in zip(x_arr, emp)])
