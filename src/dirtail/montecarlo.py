"""Independent verification engines for the tail formulas.

The workhorse is the radially conditioned estimator: with the simplex part
Z = sum_i lambda_i U_i^p sampled and the radius integrated out exactly,

    P(S_p > t) = E[ F_bar((t_norm / Z)^{1/p}) ],

every sample contributes its exact log-scale survival value, so tail
probabilities down to ~1e-60 are reachable with ordinary sample sizes; all
of the rarity lives in F_bar, none in the indicator.  Where a few weights
dominate, the reported stderr can understate the error: for alpha (1, 2),
lambda (1, 0.5), p = 2, a Gamma(3) radius and depth 1e-30, +-2 stderr
covered the quadrature value in 79 % of 300 seeds at n = 2000 (94 % at
n = 20 000).  A crude frequency estimator and, for d <= 3, a deterministic
quadrature oracle cross-check it; the oracle (dirtail.quadrature) sums the
same kernel along lines.

Every sampler runs on one chunked engine: chunk k of a fixed partition
draws from a substream seeded by (seed, k) and is reduced on its own, and
the chunk results combine in index order; each chunk reduces every
threshold of the call, so one pass serves a whole grid.  A chunk's simplex
points arrive as a (d, n) block, one contiguous row per coordinate, drawn
row by row in coordinate order into a buffer each thread reuses, and every
reducer runs as a loop over those d rows.  Each row of gamma draws takes the
cheapest exact method for its shape (radial.standard_gamma): an exponential
row for alpha 1, a sum of exponential rows for alpha 2 and 3, the boost
G_{alpha+1} U^{1/alpha} for 0.05 <= alpha < 1, and numpy's standard_gamma
for any other alpha.  The conditional reducers form y = Z^{-1/p} once per
chunk; each level t_norm then asks the radial law for the weights
F_bar(t_norm^{1/p} y) / e^m (RadialModel.survival_weights: a whole-shape
GammaLaw's closed form, else log_survival shifted by its maximum) and sums
them and their squares.
The conditional estimate's mean combines the chunks' log-sums; its variance
combines their linear sums against the largest shift, so that equal weights
give a variance of exactly 0.
Every sampler runs its chunks on the CPUs this process may run on, within a
cgroup CPU quota (see _chunked); conditional_mc_tail, crude_mc_tail,
empirical_gumbel_mda and pairwise_asymindep also take a worker count.  The
count changes scheduling, never a result.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .aggtail import AggregateSpec, lambda_tilde, tail_asymptotic, validate_spec
from .errors import DomainError, NumericError, ValidationError
from .radial import RadialModel, standard_gamma
from .specfun import logsumexp

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
#: draws a call's threads hold at once by default: eight full chunks
_POOL_DRAWS = 8 * CHUNK


@dataclass(frozen=True)
class Estimate:
    """A tail-probability estimate with its uncertainty.

    For the deterministic quadrature method stderr is an error estimate,
    p_hat times the rule's nested differences in log plus rounding, and n
    counts kernel evaluations; a conditional estimate has stderr 0 only when
    its sample variance vanishes identically; a crude one with no hit reports
    the rule-of-three bound 3/n.

    A conditional estimate also reports rel_err = stderr / p_hat and ess, the
    effective sample size (sum w)^2 / sum w^2 of its weights w (Asmussen &
    Kroese 2006): n when every weight is equal, near 1 when one dominates.
    Both come from log-moments, so they stay finite where p_hat underflows;
    an estimate of 0 has rel_err inf and ess 0.  Other methods leave both None.
    """

    p_hat: float
    log_p_hat: float
    stderr: float
    n: int
    seed: int
    method: str
    rel_err: float | None = None
    ess: float | None = None


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _check_workers(workers) -> int | None:
    if workers is not None and (not isinstance(workers, (int, np.integer))
                                or isinstance(workers, bool) or workers < 1):
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")
    return None if workers is None else int(workers)


def _cpu_quota() -> int | None:
    """ceil(quota / period) of a cgroup v2 CPU quota, else None (none or unread)."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = (int(field) for field in f.read().split())
    except (OSError, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _levels(spec: AggregateSpec, thresholds) -> np.ndarray:
    """The normalized levels t / scale of one raw threshold or a sequence."""
    ts = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if not np.all(ts > 0):
        raise DomainError(f"thresholds must be positive, got {ts.tolist()}")
    return ts / spec.scale


def _chunked(seed: int, n: int, alpha, fn, workers: int | None = None,
             block: int = 1) -> list:
    """fn(rng, u, ws) for every chunk k of n draws, in chunk order, on up to
    workers threads, never more than there are chunks.  The chunks hold
    CHUNK draws rounded down to whole blocks of block draws (one block when
    a block is longer), and the last one holds the rest.  Each thread keeps
    buffers of about d + 1 doubles per draw of the largest chunk, so peak
    memory grows with the thread count.  None reads the CPUs this process
    may run on (its affinity mask, cut to ceil(quota / period) under a
    cgroup v2 CPU quota), but takes no more threads than hold _POOL_DRAWS
    draws between them, and at least one.

    u is the chunk's (d, m) block of simplex points, m its draws, one column
    per point, drawn first from rng = default_rng([seed, k]); for d = 1 the
    simplex is the single point 1 and nothing is drawn.  ws(key, rows=1) is
    the thread's buffer named key, made at the largest chunk's length on its
    first use, cut to rows * m doubles; for d >= 2, ws("u", rows <= d)
    is the first rows of u, which fn may take as scratch once it is done
    with u (for d = 1 it is a buffer of its own: fn must not write to u
    then).  u and the buffers are reused for the thread's next chunk and
    freed when the call returns, so fn must not keep them.

    The substream gives coordinate 0's m Gamma(alpha_0) draws, then
    coordinate 1's, and so on, each row drawn straight into its row of u by
    radial.standard_gamma, with the thread's total row as its scratch; the
    rows are then summed in coordinate order into that total row, and u is
    divided by it in place.

    Raises ValidationError for a sample count below 1 or a worker count
    that is neither None nor an integer >= 1, and NumericError when a row's
    gamma draws all underflow to 0, which small alpha makes likely: the row
    has no simplex point to normalize.
    """
    if not n >= 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    workers = _check_workers(workers)
    n, per = int(n), max(1, CHUNK // block) * block
    chunks, size = -(-n // per), min(n, per)
    if workers is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        workers = min(cpus, _cpu_quota() or cpus, max(1, _POOL_DRAWS // size))
    workers = min(workers, chunks)
    alpha = np.asarray(alpha, dtype=float)
    d, local = alpha.size, threading.local()
    ones = np.ones((1, size)) if d == 1 else None

    def one_chunk(k: int):
        rng, m, bufs = np.random.default_rng([seed, k]), min(per, n - k * per), vars(local)

        def ws(key: str, rows: int = 1) -> np.ndarray:
            if key not in bufs:
                bufs[key] = np.empty(rows * size)
            return bufs[key][:rows * m]

        if d == 1:
            return fn(rng, ones[:, :m], ws)
        u, total = ws("u", d).reshape(d, m), ws("total")
        for a_j, u_j in zip(alpha.tolist(), u):
            standard_gamma(rng, a_j, u_j, total)
        np.add(u[0], u[1], out=total)
        for u_j in u[2:]:
            total += u_j
        if not np.all(total > 0):
            raise NumericError(
                f"simplex row sum underflowed to 0 at alpha={alpha.tolist()}: every "
                f"standard_gamma draw of a row was 0 (alpha too small to sample)")
        u /= total
        return fn(rng, u, ws)

    if workers == 1:
        return [one_chunk(k) for k in range(chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_chunk, range(chunks)))


def _chunk_logsums(parts) -> np.ndarray:
    """Equal-shaped per-chunk tables of log-sums, log-summed entry by entry."""
    table = np.asarray(parts)
    cols = np.ascontiguousarray(table.reshape(len(table), -1).T)
    return logsumexp(cols, axis=1).reshape(table.shape[1:])


def _log_moments(radial: RadialModel, z: np.ndarray, levels, p: float, ws,
                 squares: bool = False) -> list:
    """log sum over points of the conditional kernel F_bar((level / z)^{1/p}) at
    each level, or with squares (m, sum w, sum w^2) for the weights w below
    (sums of 0 where m is -inf).

    y = (1/z)^{1/p} is formed once, over z (which is overwritten), with its
    least and greatest entries; z = 0, or a power past DBL_MAX, is an unbounded
    radius y = inf.  Each level asks the radial law for its weights
    w = F_bar(level^{1/p} y) / e^m
    (RadialModel.survival_weights) and sums them, and their squares,
    pairwise: m + log sum w.  Their scratch is the first two rows of the
    simplex block (ws("u", 2)), which every caller is done with, so the
    kernel takes no memory of its own from d = 2 on.  An m that is not
    finite is the answer, as in logsumexp.  A NaN z reaches log_survival and
    fails there rather than being read as no exceedance.  NumericError where
    level^{1/p} is not a positive finite double: its product with y would
    round to 0, inf or NaN (0 * inf) for every point.
    """
    with np.errstate(divide="ignore", over="ignore"):
        y = np.divide(1.0, z, out=z)
        y **= 1.0 / p
    lo, hi, out = float(y.min()), float(y.max()), ws("u", 2).reshape(2, y.size)
    sums = []
    for level in levels:
        with np.errstate(over="ignore"):  # numpy's power gives inf, a float's raises
            c = float(np.float64(level) ** (1.0 / p))
        if not 0.0 < c < math.inf:
            raise NumericError(f"level^(1/p) at p={p!r} and level {float(level)!r} is not a "
                               f"positive finite double: {c!r}")
        m, w = radial.survival_weights(y, c, lo, hi, out)
        if not math.isfinite(m):
            sums.append((m, 0.0, 0.0) if squares else m)
            continue
        s1 = float(w.sum())
        if not squares:
            sums.append(m + math.log(s1))
            continue
        # squared in place and summed pairwise: a BLAS dot adds in an order
        # that depends on its thread count
        w *= w
        sums.append((m, s1, float(w.sum())))
    return sums


def _terms(spec: AggregateSpec, u: np.ndarray):
    """lambda_i U_i^p for each coordinate row U_i of the (d, n) block u."""
    for lam_i, u_i in zip(spec.lam, u):
        term = u_i ** spec.p
        term *= lam_i
        yield term


def _z(spec: AggregateSpec, u: np.ndarray) -> np.ndarray:
    """The simplex part Z = sum_i lambda_i U_i^p of each column of u, summed
    in coordinate order."""
    terms = _terms(spec, u)
    z = next(terms)
    for term in terms:
        z += term
    return z


def _z_sup(lam: np.ndarray, p: float) -> float:
    """Supremum of sum lam_i b_i^p over the simplex."""
    if p >= 1.0:
        return float(np.max(lam))
    positive = lam[lam > 0]
    return lambda_tilde(positive, p)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def sample_dirichlet(spec: AggregateSpec, n: int, seed: int):
    """i.i.d. draws of the Dirichlet vector (R*U_1, ..., R*U_d).

    Each chunk draws its simplex rows, then one exact radius per row from
    RadialModel.sample on the same substream.
    """
    seed = _check_seed(seed)

    def draw(rng, u, ws):
        return (u * spec.radial.sample(rng, u.shape[1])).T

    return np.vstack(_chunked(seed, n, spec.alpha, draw))


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

def _estimate_from_moments(ls1: float, chunks, n: int, seed: int) -> Estimate:
    """The estimate from the log-sum ls1 of the weights over the chunks and
    each chunk's (m, sum w, sum w^2) of _log_moments.  The chunks' sums combine
    against the largest shift, so equal weights give (sum w)^2 = n sum w^2
    exactly: stderr 0 and ess n."""
    log_mean = ls1 - math.log(n)
    if not log_mean > -math.inf:  # an all-zero sample
        return Estimate(p_hat=0.0, log_p_hat=log_mean, stderr=0.0, n=n, seed=seed,
                        method="conditional", rel_err=math.inf, ess=0.0)
    top, s1, s2 = max(m for m, _, _ in chunks), 0.0, 0.0
    for m, c1, c2 in chunks:  # in chunk order
        scale = math.exp(m - top)
        s1 += c1 * scale
        s2 += c2 * scale * scale
    # the variance m2 - mean^2 is e^(2 top) s2 / n times 1 - s1^2 / (n s2)
    frac = 1.0 - s1 * s1 / (n * s2)
    log_se = 0.5 * (2.0 * top + math.log(s2 * frac) - 2.0 * math.log(n)) if frac > 0 \
        else -math.inf
    return Estimate(p_hat=math.exp(log_mean), log_p_hat=log_mean, stderr=math.exp(log_se),
                    n=n, seed=seed, method="conditional", rel_err=math.exp(log_se - log_mean),
                    ess=s1 * s1 / s2)


def conditional_mc_tail(spec: AggregateSpec, t, n: int, seed: int,
                        workers: int | None = None) -> Estimate | list[Estimate]:
    """Radially conditioned estimator of P(S_p > t) (t on the raw scale).

    Unbiased: averages the exact radial survival F_bar((t_norm/Z)^{1/p})
    over simplex draws, with the average taken by log-sum-exp because the
    per-sample values can span sixty orders of magnitude.  A sequence t
    gives a list, each entry equal to the scalar call, from one set of draws.
    """
    seed, levels = _check_seed(seed), _levels(spec, t)

    def moments(rng, u, ws):
        return _log_moments(spec.radial, _z(spec, u), levels, spec.p, ws, squares=True)

    parts = _chunked(seed, n, spec.alpha, moments, workers)
    # the log-sums as max_sum_ratio takes them, so both give the same mean
    ls1 = _chunk_logsums([[m + math.log(s1) if s1 else m for m, s1, _ in part] for part in parts])
    ests = [_estimate_from_moments(ls, chunks, int(n), seed)
            for ls, chunks in zip(ls1.tolist(), zip(*parts))]
    return ests if np.ndim(t) else ests[0]


def crude_mc_tail(spec: AggregateSpec, t, n: int, seed: int,
                  workers: int | None = None) -> Estimate | list[Estimate]:
    """Plain frequency estimator of P(S_p > t) with binomial standard error
    (3/n with no hit); t is one threshold or a sequence, as above."""
    seed, levels, n = _check_seed(seed), _levels(spec, t), int(n)

    def hits_in(rng, u, ws):
        s = spec.radial.sample(rng, u.shape[1])
        s **= spec.p
        s *= _z(spec, u)
        return [np.count_nonzero(s > level) for level in levels]

    hits = np.sum(_chunked(seed, n, spec.alpha, hits_in, workers), axis=0)
    # with no hit the binomial stderr is 0; 3/n bounds p at 95 % confidence
    ests = [Estimate(p_hat=h / n, log_p_hat=math.log(h / n) if h else -math.inf,
                     stderr=math.sqrt(h / n * (1.0 - h / n) / n) if h else 3.0 / n,
                     n=n, seed=seed, method="crude") for h in hits.tolist()]
    return ests if np.ndim(t) else ests[0]


# ----------------------------------------------------------------------
# diagnostics built on the conditional estimator
# ----------------------------------------------------------------------

def max_sum_ratio(spec: AggregateSpec, t_grid, n: int, seed: int) -> np.ndarray:
    """P(max_i lambda_i X_i^p > t) / P(S_p > t) on a threshold grid.

    Both tails use the conditional estimator with shared simplex draws, so
    the ratio is a smooth function of the noise and always <= 1.  Columns:
    (t, log numerator, log denominator, ratio), one row per threshold (a
    scalar is a one-row grid).  A threshold past the support of S_p, where
    both tails are exact zeros, is a DomainError.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    seed, levels = _check_seed(seed), _levels(spec, t_grid)
    top = _z_sup(np.asarray(spec.lam), spec.p) * spec.radial.upper_endpoint ** spec.p
    past = levels >= top
    if past.any():
        raise DomainError(f"thresholds {t_grid[past].tolist()} lie past the "
                          f"support of S_p (t / scale >= {top!r}): both tails are 0 there")

    def columns(rng, u, ws):
        terms = _terms(spec, u)
        top, total = next(terms), ws("sum")
        total[:] = top
        for term in terms:
            np.maximum(top, term, out=top)
            total += term
        return list(zip(_log_moments(spec.radial, top, levels, spec.p, ws),
                        _log_moments(spec.radial, total, levels, spec.p, ws)))

    logs = _chunk_logsums(_chunked(seed, n, spec.alpha, columns)) - math.log(n)
    return np.asarray([(t, num, den, math.exp(num - den)) for t, (num, den) in zip(t_grid, logs)])


@dataclass(frozen=True)
class NormingConstants:
    a_n: float
    b_n: float


def norming_constants(spec: AggregateSpec, n: int) -> NormingConstants:
    """Location b_n and scale a_n normalizing the maximum of n i.i.d. copies
    of S_p toward the Gumbel limit: TailAsymptotic.norming at level 1/n."""
    if not n >= 2:
        raise DomainError(f"n must be >= 2, got {n}")
    b_n, a_n = tail_asymptotic(spec).norming(-math.log(n))
    return NormingConstants(a_n=a_n, b_n=b_n)


def pairwise_asymindep(alpha, weights, p: float, radial: RadialModel, i: int, j: int,
                       n_grid, n: int, seed: int, workers: int | None = None) -> np.ndarray:
    """Empirical conditional exceedance P(Y_i > b, Y_j > b) / P(Y_i > b).

    Y_k = sum_r weights[r, k] * X_r^p are linear transforms of the powered
    Dirichlet components.  Levels b are the asymptotic 1 - 1/n quantiles of
    Y_i for n in n_grid (TailAsymptotic.norming's b, so a radius outside the
    Gumbel class is a DomainError before any draw); the ratio trending to 0
    is the empirical face of the joint max-stable limit with independent
    Gumbel margins.  Columns: (n_level, b, a, ratio), with a the norming
    scale at b, one row per level (a scalar is a one-row grid).
    """
    seed, n_grid = _check_seed(seed), np.atleast_1d(n_grid)
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
    norms = [asym_i.norming(-math.log(nl)) for nl in n_grid]
    bs = [b for b, _ in norms]

    def columns(rng, u, ws):
        z_i, z_j, up = (ws(key) for key in ("z_i", "z_j", "up"))
        z_i[:] = z_j[:] = 0.0
        for u_r, w_r in zip(u, w):
            np.copyto(up, u_r)
            up **= p  # the operator takes u_r ** p's fast paths (sqrt, square)
            z_i += w_r[i] * up
            z_j += w_r[j] * up
        z_min = np.minimum(z_j, z_i, out=z_j)
        return list(zip(_log_moments(radial, z_i, bs, p, ws),
                        _log_moments(radial, z_min, bs, p, ws)))

    logs = _chunk_logsums(_chunked(seed, n, alpha, columns, workers)) - math.log(n)
    return np.asarray([(int(nl), b, a, math.exp(joint - single))
                       for nl, (b, a), (single, joint) in zip(n_grid, norms, logs)])


def empirical_gumbel_mda(spec: AggregateSpec, x_grid, depth_grid, n: int,
                         seed: int, workers: int | None = None) -> np.ndarray:
    """Estimates F_bar_S(v + x/w_p(v)) / F_bar_S(v) at asymptotic depths v.

    Convergence of the ratios to exp(-x) is the empirical face of the
    aggregate inheriting the Gumbel max-domain with scaling w_p.  Columns:
    (depth, v, x, ratio, exp(-x)); either grid may be a scalar.
    """
    seed = _check_seed(seed)
    x_grid, depth_grid = np.atleast_1d(x_grid), np.atleast_1d(depth_grid)
    asym = tail_asymptotic(spec)

    jobs, levels = [], []
    for depth in depth_grid:
        v, a = asym.norming(math.log(depth))
        levels += [t / spec.scale for t in [v] + [v + float(x) * a for x in x_grid]]
        jobs.append((depth, v))

    def columns(rng, u, ws):
        return _log_moments(spec.radial, _z(spec, u), levels, spec.p, ws)

    # the ratios take differences of raw log-sums: both sides share 1/n
    logs = _chunk_logsums(_chunked(seed, n, spec.alpha, columns, workers))
    rows = []
    for (depth, v), (log_base, *log_shifts) in zip(jobs, logs.reshape(len(jobs), len(x_grid) + 1)):
        for x, log_shift in zip(x_grid, log_shifts):
            rows.append((depth, v, float(x), math.exp(log_shift - log_base),
                         math.exp(-float(x))))
    return np.asarray(rows)


def gumbel_limit_check(spec: AggregateSpec, n: int, replicates: int, x_grid,
                       seed: int) -> np.ndarray:
    """Empirical P(max of n i.i.d. S_p <= a_n x + b_n) against exp(-exp(-x)).

    Block maxima are simulated directly (replicates blocks of n draws);
    the norming constants come from the tail asymptotic.  Columns:
    (x, empirical, limit), one row per x (a scalar is a one-row grid).
    """
    seed = _check_seed(seed)
    consts = norming_constants(spec, n)
    x_arr = np.atleast_1d(np.asarray(x_grid, dtype=float))
    cut = consts.b_n + consts.a_n * x_arr

    def block_counts(rng, u, ws):
        s = spec.radial.sample(rng, u.shape[1])
        s **= spec.p
        s *= spec.scale
        s *= _z(spec, u)
        block_max = s.reshape(-1, n).max(axis=1)
        return (block_max[:, None] <= cut[None, :]).sum(axis=0)

    counts = sum(_chunked(seed, replicates * n, spec.alpha, block_counts, block=n))
    emp = counts / float(replicates)
    return np.asarray([(x, e, math.exp(-math.exp(-x))) for x, e in zip(x_arr, emp)])


# the oracle builds on Estimate and the kernel above; it is public here too
from .quadrature import quadrature_tail  # noqa: E402
