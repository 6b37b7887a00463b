"""Independent verification engines for the tail formulas.

The workhorse is the radially conditioned estimator: with the simplex part
Z = sum_i lambda_i U_i^p sampled and the radius integrated out exactly,

    P(S_p > t) = E[ F_bar((t_norm / Z)^{1/p}) ],

every sample contributes its exact log-scale survival value, so tail
probabilities down to ~1e-60 are estimable with ordinary sample sizes; all
of the rarity lives in F_bar, none in the indicator.  A crude frequency
estimator and, for d <= 3, a deterministic quadrature oracle cross-check it.

The oracle sums the same kernel along lines Z = lam0 B^p + lam1 (1-B)^p
against Beta laws, one vectorized log_survival call per line.  Its
Gauss-Legendre panels are graded geometrically toward the corners, the
saddle theta (the p < 1 peak, narrower the deeper the tail) and a finite
endpoint's support edges (where the integrand drops to 0), which keeps the
convergence exponential at any depth; the corner panels are Gauss-Jacobi,
whose weights carry the Beta density's powers, so alpha < 1 costs nothing.

Every sampler runs on one chunked engine: chunk k of a fixed partition
draws from a substream seeded by (seed, k) and is reduced on its own, and
the chunk results combine in index order; each chunk reduces every
threshold of the call, so one pass serves a whole grid.  Only
conditional_mc_tail and crude_mc_tail take a worker count; it changes
scheduling, never a result.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, roots_jacobi

from .aggtail import AggregateSpec, lambda_tilde, tail_asymptotic, validate_spec
from .errors import DomainError, NumericError, ValidationError
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

    For the deterministic quadrature method stderr = 0 means no error
    estimate, and n counts integrand evaluations; a conditional estimate has
    stderr 0 only when its sample variance vanishes identically; a crude one
    with no hit reports the rule-of-three bound 3/n.
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


def _levels(spec: AggregateSpec, thresholds) -> np.ndarray:
    """The normalized levels t / scale of one raw threshold or a sequence."""
    ts = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if not np.all(ts > 0):
        raise DomainError(f"thresholds must be positive, got {ts.tolist()}")
    return ts / spec.scale


def _chunk_sizes(n: int, chunk: int = CHUNK) -> list[int]:
    if not n >= 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    full, rest = divmod(int(n), chunk)
    return [chunk] * full + ([rest] if rest else [])


def _chunked(seed: int, sizes: list[int], alpha, fn, workers: int = 1) -> list:
    """fn(rng, u) for every chunk k, in chunk order.  u holds the chunk's
    sizes[k] simplex rows, drawn first from rng = default_rng([seed, k]);
    for d = 1 the simplex is the single point 1 and nothing is drawn.

    Raises NumericError when a row's gamma draws all underflow to 0, which
    small alpha makes likely: the row has no simplex point to normalize.
    """
    alpha = np.asarray(alpha, dtype=float)

    def one_chunk(k: int):
        rng = np.random.default_rng([seed, k])
        if alpha.size == 1:
            return fn(rng, np.ones((sizes[k], 1)))
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

    Each chunk draws its simplex rows, then one exact radius per row from
    RadialModel.sample on the same substream.
    """
    seed = _check_seed(seed)

    def draw(rng, u):
        r = spec.radial.sample(rng, len(u))
        return u * r[:, None], r

    parts = _chunked(seed, _chunk_sizes(n), spec.alpha, draw)
    x = np.vstack([part[0] for part in parts])
    if return_radius:
        return x, np.concatenate([part[1] for part in parts])
    return x


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

def _estimate_from_log_moments(ls1: float, ls2: float, n: int, seed: int) -> Estimate:
    log_mean, log_m2 = ls1 - math.log(n), ls2 - math.log(n)
    # log(m2 - mean^2) = log m2 + log1mexp(gap); an all-zero sample takes gap 0,
    # which gives it variance 0 where 2 log_mean - log_m2 would be -inf + inf
    gap = min(2.0 * log_mean - log_m2, 0.0) if log_mean > -math.inf else 0.0
    log_se = 0.5 * (log_m2 + log1mexp(gap) - math.log(n))
    return Estimate(p_hat=math.exp(log_mean), log_p_hat=log_mean, stderr=math.exp(log_se),
                    n=n, seed=seed, method="conditional")


def conditional_mc_tail(spec: AggregateSpec, t, n: int, seed: int,
                        workers: int = 1) -> Estimate | list[Estimate]:
    """Radially conditioned estimator of P(S_p > t) (t on the raw scale).

    Unbiased: averages the exact radial survival F_bar((t_norm/Z)^{1/p})
    over simplex draws, with the average taken by log-sum-exp because the
    per-sample values can span sixty orders of magnitude.  A sequence t
    gives a list, each entry equal to the scalar call, from one set of draws.
    """
    seed, levels = _check_seed(seed), _levels(spec, t)

    def moments(rng, u):
        z = _z(spec, u)
        return [(logsumexp(logs), logsumexp(2.0 * logs))
                for logs in (_log_cond(spec.radial, z, level, spec.p) for level in levels)]

    table = _chunk_logsums(_chunked(seed, _chunk_sizes(n), spec.alpha, moments, workers))
    ests = [_estimate_from_log_moments(ls1, ls2, int(n), seed) for ls1, ls2 in table.tolist()]
    return ests if np.ndim(t) else ests[0]


def crude_mc_tail(spec: AggregateSpec, t, n: int, seed: int,
                  workers: int = 1) -> Estimate | list[Estimate]:
    """Plain frequency estimator of P(S_p > t) with binomial standard error
    (3/n with no hit); t is one threshold or a sequence, as above."""
    seed, levels, n = _check_seed(seed), _levels(spec, t), int(n)

    def hits_in(rng, u):
        s = spec.radial.sample(rng, len(u)) ** spec.p * _z(spec, u)
        return [np.count_nonzero(s > level) for level in levels]

    hits = np.sum(_chunked(seed, _chunk_sizes(n), spec.alpha, hits_in, workers), axis=0)
    # with no hit the binomial stderr is 0; 3/n bounds p at 95 % confidence
    ests = [Estimate(p_hat=h / n, log_p_hat=math.log(h / n) if h else -math.inf,
                     stderr=math.sqrt(h / n * (1.0 - h / n) / n) if h else 3.0 / n,
                     n=n, seed=seed, method="crude") for h in hits.tolist()]
    return ests if np.ndim(t) else ests[0]


# ----------------------------------------------------------------------
# quadrature oracle (d <= 3)
# ----------------------------------------------------------------------

_POINTS = 12  # Gauss points per panel
_GRADE = 0.25  # size ratio of neighbouring graded panels
_LEVELS = 12  # graded panels per half-interval, before its end panel


def _graded_half(e: float):
    """Distances d in (0, 1] from a breakpoint, with log-weights integrating
    d^e * smooth(d); the end panel's weights carry -e log d against the d^e."""
    x, w = roots_jacobi(_POINTS, 0.0, 0.0)
    size = _GRADE ** np.arange(_LEVELS)
    d = np.outer(size, _GRADE + (1.0 - _GRADE) * 0.5 * (1.0 + x)).ravel()
    lw = np.add.outer(np.log(0.5 * (1.0 - _GRADE) * size), np.log(w)).ravel()
    x, w = roots_jacobi(_POINTS, 0.0, e)
    d_end = _GRADE ** _LEVELS * 0.5 * (1.0 + x)
    lw_end = np.log(w) + math.log(0.5 * _GRADE ** _LEVELS) - e * np.log1p(x)
    return np.append(d, d_end), np.append(lw, lw_end)


class _LineRule:
    """Graded rule on the line g(b) = lam0 b^p + lam1 (1-b)^p against Beta(a, c).
    Points are pairs (b, 1 - b), exact both ways, for nodes a hair from a corner."""

    def __init__(self, a: float, c: float, lam0: float, lam1: float, p: float):
        self.a, self.c, self.lam0, self.lam1, self.p = a, c, lam0, lam1, p
        self.log_norm = log_gamma(a + c) - log_gamma(a) - log_gamma(c)
        self.halves = {e: _graded_half(e) for e in {a - 1.0, c - 1.0, 0.0}}
        # g is monotone between the corners and its interior extremum: the
        # saddle theta (its maximum) for p < 1, a minimum for p > 1
        x = math.log(lam0 / lam1) / (1.0 - p) if p != 1.0 and lam1 > 0 else None
        ends = [(0.0, 1.0), (1.0, 0.0)]
        self.pieces = ends if x is None else [ends[0], (float(expit(x)), float(expit(-x))), ends[1]]
        self.breakpoints = self.pieces if p < 1.0 else ends

    def g(self, b, bc):
        return self.lam0 * b ** self.p + self.lam1 * bc ** self.p

    def nodes(self, level: float):
        """Points b, 1 - b and log-weights of the rule over {g > level}."""
        points = list(self.breakpoints)
        # the support edges: where g crosses a positive level on a monotone piece
        for lo, hi in zip(self.pieces, self.pieces[1:]):
            up = self.g(*lo) > level
            if level > 0 and up != (self.g(*hi) > level):
                for _ in range(64):
                    mid = (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))
                    lo, hi = (mid, hi) if (self.g(*mid) > level) == up else (lo, mid)
                points.append(lo)
        points.sort()
        parts = [(np.empty(0),) * 3]  # a line with no support gets no nodes
        for lo, hi in zip(points, points[1:]):
            half = 0.5 * (hi[0] - lo[0] if lo[0] < 0.5 else lo[1] - hi[1])
            if not (half > 0 and self.g(0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])) > level):
                continue
            for (s, sc), sign in ((lo, 1.0), (hi, -1.0)):
                d, lw = self.halves[self.a - 1.0 if s == 0 else self.c - 1.0 if sc == 0 else 0.0]
                parts.append((s + sign * half * d, sc - sign * half * d, lw + math.log(half)))
        b, bc, lw = (np.concatenate(x) for x in zip(*parts))
        return b, bc, lw + (self.a - 1.0) * np.log(b) + (self.c - 1.0) * np.log(bc) + self.log_norm


def quadrature_tail(spec: AggregateSpec, t: float) -> Estimate:
    """Deterministic oracle for P(S_p > t), d <= 3, by the graded Gauss rule
    of the module docstring.  n counts the integrand evaluations."""
    (tn,) = _levels(spec, t)
    if spec.d > 3:
        raise DomainError(f"quadrature oracle supports d <= 3, got d={spec.d}")
    p, lam, a, radial = spec.p, spec.lam, spec.alpha, spec.radial
    z_sup = _z_sup(np.asarray(lam), p)
    # Z <= level puts the radius past a finite endpoint (level 0 for none)
    level = tn / radial.upper_endpoint ** p
    if spec.d == 1 or level >= z_sup:
        # the radial tail itself, or 0 with the radius past its endpoint
        log_val, n = _log_cond(radial, z_sup, tn, p), 1
    else:
        inner = _LineRule(a[0], a[1], lam[0], lam[1], p)
        lines = [(0.0, 1.0, 0.0)]  # (log weight, head, tail) of each line
        if spec.d == 3:
            outer = _LineRule(a[0] + a[1], a[2], _z_sup(np.asarray(lam[:2]), p), lam[2], p)
            b, bc, lw = outer.nodes(level)
            lines = zip(lw, b ** p, lam[2] * bc ** p)
        logs, n = [], 0
        for lw_line, head, tail in lines:
            b, bc, lw = inner.nodes((level - tail) / head)
            z = head * inner.g(b, bc) + tail
            logs.append(lw_line + logsumexp(lw + _log_cond(radial, z, tn, p)))
            n += b.size
        log_val = logsumexp(logs)
        # level < z_sup, so the true integral is positive: 0 means a missed support
        if log_val == -math.inf:
            raise NumericError(f"quadrature integral came out 0 at t={t}: rule missed the support")
    return Estimate(p_hat=math.exp(log_val), log_p_hat=log_val, stderr=0.0,
                    n=n, seed=0, method="quadrature")


# ----------------------------------------------------------------------
# diagnostics built on the conditional estimator
# ----------------------------------------------------------------------

def max_sum_ratio(spec: AggregateSpec, t_grid, n: int, seed: int) -> np.ndarray:
    """P(max_i lambda_i X_i^p > t) / P(S_p > t) on a threshold grid.

    Both tails use the conditional estimator with shared simplex draws, so
    the ratio is a smooth function of the noise and always <= 1.  Columns:
    (t, log numerator, log denominator, ratio).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    seed, levels = _check_seed(seed), _levels(spec, t_grid)

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
        r = spec.radial.sample(rng, len(u))
        s = spec.scale * r ** spec.p * _z(spec, u)
        block_max = s.reshape(-1, n).max(axis=1)
        return (block_max[:, None] <= cut[None, :]).sum(axis=0)

    counts = sum(_chunked(seed, sizes, spec.alpha, block_counts))
    emp = counts / float(replicates)
    return np.asarray([(x, e, math.exp(-math.exp(-x))) for x, e in zip(x_arr, emp)])
