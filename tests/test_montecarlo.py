"""Tests for the simulation and quadrature verification engines."""

import hashlib
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import dirtail as dt
from dirtail import BetaLaw, GammaLaw, UnitGumbel, WeibullTail
from dirtail.errors import DomainError, NumericError, ValidationError
from dirtail import montecarlo as mc
from dirtail import quadrature as quad
from dirtail import specfun
from dirtail.montecarlo import CHUNK, NormingConstants
from test_radial import standard_gamma_row

GAMMA21 = GammaLaw(2, 1)
KOTZ2 = dt.validate_spec([1, 1], [1, 1], 1.0, GAMMA21)          # iid Exp(1) pair
REGIME_A = dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21)
READ_CPU_QUOTA = mc._cpu_quota  # the real reader, which some classes stand in for


class HalfGamma(GammaLaw):
    """Gamma survival halved: a sub-law with an atom of mass 1/2 at zero."""

    def log_survival(self, u):
        return math.log(0.5) + super().log_survival(u)


class RecordingGamma(GammaLaw):
    """GammaLaw that records the size of every log_survival argument."""

    sizes = []

    def log_survival(self, u):
        self.sizes.append(np.size(u))
        return super().log_survival(u)


class RecordingBeta(BetaLaw):
    """BetaLaw that records the size of every log_survival argument."""

    sizes = []

    def log_survival(self, u):
        self.sizes.append(np.size(u))
        return super().log_survival(u)


def _half_sums(rule, panels, k, kind, lo, hi, kernel):
    """The log-sums of half k of row 0 of panels graded hi levels deep: whole
    for lo = 0 (its levels but the last two, the last two, its end panel, its
    check end panel), else its levels lo..hi-1 and end panel; and its nodes."""
    d, lw = rule.table(lo, hi)
    b, bc, w = rule.nodes(panels, np.zeros(1, dtype=int), np.array([k]), d[:, [kind]],
                          lw[:, [kind]])
    f = w[:, 0] + kernel(b[:, 0], bc[:, 0])
    cuts = [quad._POINTS * (hi - 2), quad._POINTS * hi, quad._POINTS * (hi + 1)] if lo == 0 else \
        [2 * quad._POINTS]
    return [specfun.logsumexp(part) for part in np.split(f, cuts)], f.size


class _Line:
    """One line of a rule at its level, graded kind by kind: each live half's
    four log-sums, deepened two levels at a time as quadrature_tail does."""

    def __init__(self, rule, level, kernel, depth):
        self.rule, self.kernel, self.depth = rule, kernel, list(depth)
        self.panels = rule.panels(np.array([level]))[0]
        kinds = self.panels[-1][0]
        self.halves, self.n = {}, 0
        for k in np.flatnonzero(kinds >= 0):
            self.halves[k] = kinds[k], self._sums(k, kinds[k], 0)

    def _sums(self, k, kind, lo):
        sums, n = _half_sums(self.rule, self.panels, k, kind, lo,
                             self.depth[kind] + (2 if lo else 0), self.kernel)
        self.n += n
        return sums

    def deepen(self, grow):
        for k, (kind, old) in self.halves.items():
            if grow[kind]:
                new = self._sums(k, kind, self.depth[kind])
                self.halves[k] = kind, [np.logaddexp(old[0], old[1]), *new, old[2]]
        self.depth = [d + 2 * g for d, g in zip(self.depth, grow)]

    def value(self):
        return specfun.logsumexp([s for _, sums in self.halves.values() for s in sums[:3]])

    def errors(self):
        """|I_L - I_{L-2}| relative to the value, summed by kind."""
        v, err = self.value(), [0.0] * 3
        for kind, sums in self.halves.values():
            err[kind] += abs(math.exp(np.logaddexp(sums[1], sums[2]) - v) - math.exp(sums[3] - v))
        return err


def _line_by_line(spec, t):
    """log P(S_p > t), its truncation error and its node count for d = 3 by the
    adaptive rule of quadrature_tail, one inner line at a time: each half of
    the outer line keeps its nodes (log-weight, slot, inner line), and each
    round deepens first the inner kinds, then the outer ones, whose error is
    above tolerance."""
    (tn,) = mc._levels(spec, t)
    p, lam, a = spec.p, spec.lam, spec.alpha
    level = tn / spec.radial.upper_endpoint ** p
    inner = quad._LineRule(a[0], a[1], lam[0], lam[1], p)
    outer = quad._LineRule(a[0] + a[1], a[2], mc._z_sup(np.asarray(lam[:2]), p), lam[2], p)
    depth_in, depth_out, dropped = [quad._START] * 3, [quad._START] * 3, 0

    def line(b, bc):
        head, tail = b ** p, lam[2] * bc ** p
        def kernel(ib, ibc):
            return quad._log_cond(spec.radial, head * inner.g(ib, ibc) + tail, tn, p)
        return _Line(inner, (level - tail) / head, kernel, depth_in)

    def outer_nodes(k, kind, lo, hi):
        d, lw = outer.table(lo, hi)
        b, bc, w = outer.nodes(panels, np.zeros(1, dtype=int), np.array([k]), d[:, [kind]],
                               lw[:, [kind]])
        cuts = [hi - 2, hi, hi + 1] if lo == 0 else [2]
        sizes = np.diff([0] + [quad._POINTS * c for c in cuts] + [w.size])
        slots = np.repeat([0, 1, 2, 3] if lo == 0 else [1, 2], sizes)
        return [[wi, si, line(bi, bci)]
                for wi, si, bi, bci in zip(w[:, 0], slots, b[:, 0], bc[:, 0])]

    panels = outer.panels(np.array([level]))[0]
    kinds = panels[-1][0]
    nodes = {k: outer_nodes(k, kinds[k], 0, quad._START) for k in np.flatnonzero(kinds >= 0)}
    while True:
        vals = {k: [w + ln.value() for w, _, ln in ns] for k, ns in nodes.items()}
        sums = {k: [specfun.logsumexp([v for v, (_, s, _) in zip(vals[k], ns) if s == slot])
                    for slot in range(4)] for k, ns in nodes.items()}
        value = specfun.logsumexp([x for ss in sums.values() for x in ss[:3]])
        err_out, err_in = [0.0] * 3, [0.0] * 3
        for k, ss in sums.items():
            err_out[kinds[k]] += abs(math.exp(np.logaddexp(ss[1], ss[2]) - value)
                                     - math.exp(ss[3] - value))
            for v, (_, s, ln) in zip(vals[k], nodes[k]):
                for kind, e in enumerate(ln.errors() if s < 3 else []):
                    err_in[kind] += math.exp(v - value) * e
        grow_in = [e > quad._TOL and d < quad._CAP for e, d in zip(err_in, depth_in)]
        grow_out = [e > quad._TOL and d < quad._CAP for e, d in zip(err_out, depth_out)]
        if not any(grow_in + grow_out):
            n = dropped + sum(ln.n for ns in nodes.values() for _, _, ln in ns)
            return value, sum(err_out) + sum(err_in), n, nodes
        for ns in nodes.values():
            for _, _, ln in ns:
                ln.deepen(grow_in)
        depth_in = [d + 2 * g for d, g in zip(depth_in, grow_in)]
        for k, ns in nodes.items():
            if grow_out[kinds[k]]:
                dropped += sum(ln.n for _, s, ln in ns if s == 3)
                kept = [[w, {1: 0, 2: 3}.get(s, s), ln] for w, s, ln in ns if s != 3]
                lo = depth_out[kinds[k]]
                nodes[k] = kept + outer_nodes(k, kinds[k], lo, lo + 2)
        depth_out = [d + 2 * g for d, g in zip(depth_out, grow_out)]


class TestSampleDirichlet:
    def test_row_sums_equal_radius(self):
        # the row sums are the radii: KS distance to Gamma(2, 1) below the
        # 1% critical value
        spec = dt.validate_spec([1, 2, 0.5], [1, 0.7, 0.1], 1.0, GAMMA21)
        n = 5000
        x = dt.sample_dirichlet(spec, n, seed=7)
        assert x.shape == (n, 3) and np.all(x >= 0)
        cdf = -np.expm1(GAMMA21.log_survival(np.sort(x.sum(axis=1))))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
        assert ks < 1.63 / math.sqrt(n)

    def test_kotz_marginals_are_exponential(self):
        # alpha = (1,1) with a Gamma(2,1) radius makes the components
        # iid unit exponentials; KS distance below the 1% critical value
        n = 10 ** 5
        x = dt.sample_dirichlet(KOTZ2, n, seed=11)
        sample = np.sort(x[:, 0])
        cdf = 1.0 - np.exp(-sample)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
        assert ks < 1.63 / math.sqrt(n)

    def test_component_means(self):
        # E[X_i] = E[R] * alpha_i / alpha_bar; Gamma(2,1) has mean 2
        n = 10 ** 5
        x = dt.sample_dirichlet(KOTZ2, n, seed=13)
        for i in range(2):
            mean = x[:, i].mean()
            se = x[:, i].std(ddof=1) / math.sqrt(n)
            assert abs(mean - 1.0) < 3 * se

    def test_reproducible(self):
        a = dt.sample_dirichlet(KOTZ2, 1000, seed=5)
        b = dt.sample_dirichlet(KOTZ2, 1000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_prefix_equals_shorter_call(self):
        # the engine's buffers are reused chunk after chunk: the first chunk
        # of a longer call must not see what its later chunks write there
        spec = dt.validate_spec([0.7, 1.3, 2.0], [1.0, 0.6, 0.3], 1.5, GAMMA21)
        long = dt.sample_dirichlet(spec, 3 * CHUNK + 5, seed=9)
        assert np.array_equal(long[:CHUNK], dt.sample_dirichlet(spec, CHUNK, seed=9))

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            dt.sample_dirichlet(KOTZ2, 10, seed=-1)
        with pytest.raises(ValidationError):
            dt.sample_dirichlet(KOTZ2, 10, seed=1.5)


class TestChunkBlock:
    """The engine's (d, n) block and Z against the same draws made row by row."""

    @staticmethod
    def _blocks(seed, n, alpha):
        return mc._chunked(seed, n, alpha, lambda rng, u, ws: u.copy())

    @pytest.mark.parametrize("n, block, sizes", [
        (1, 1, [1]), (CHUNK, 1, [CHUNK]), (2 * CHUNK + 5, 1, [CHUNK, CHUNK, 5]),
        (7 * 1000, 1000, [7000]), (200 * 1000, 1000, [65000, 65000, 65000, 5000]),
        (3 * 70000, 70000, [70000] * 3)])
    def test_partition_holds_whole_blocks(self, n, block, sizes):
        # chunks of CHUNK draws rounded down to whole blocks, one block when a
        # block is longer, and the rest in the last chunk
        assert mc._chunked(1, n, [1.0], lambda rng, u, ws: u.shape[1], block=block) == sizes

    @pytest.mark.parametrize("alpha", [[1.5], [1.0, 2.0], [0.5, 1.0, 3.0],
                                       [1.0, 0.3, 2.0, 0.7, 1.2], [1.0, 1.0, 1.0], [2.0, 2.0],
                                       [0.04, 0.999, 3.5]])
    def test_block_and_z_equal_row_form_bit_for_bit(self, alpha):
        # each coordinate's draws come in order, one row each, by the method
        # for its shape, and the rows sum in coordinate order; the second
        # chunk is a partial one
        d, sizes = len(alpha), [CHUNK, 17161]
        spec = dt.validate_spec(alpha, np.linspace(1.0, 0.2, d), 1.7, GAMMA21)
        got = mc._chunked(13, sum(sizes), spec.alpha,
                          lambda rng, u, ws: (u.copy(), mc._z(spec, u)))
        for k, (u, z) in enumerate(got):
            if d == 1:
                rows = np.ones((1, sizes[k]))
            else:
                rng = np.random.default_rng([13, k])
                g = [standard_gamma_row(rng, a_j, sizes[k]) for a_j in spec.alpha]
                total = g[0] + g[1]
                for g_j in g[2:]:
                    total = total + g_j
                rows = np.array([g_j / total for g_j in g])
            assert u.shape == (d, sizes[k]) and u.flags.c_contiguous
            assert np.array_equal(u, rows)
            want = spec.lam[0] * rows[0] ** spec.p
            for lam_j, row in zip(spec.lam[1:], rows[1:]):
                want = want + lam_j * row ** spec.p
            assert np.array_equal(z, want)

    def test_unit_alpha_block_is_numpys_shape_one_gamma(self):
        # alpha 1 draws numpy's own Gamma(1) bits: this block is the one the
        # engine drew before each shape took its own method
        sizes = [CHUNK, 999]
        for k, u in enumerate(self._blocks(4, sum(sizes), [1.0, 1.0, 1.0])):
            rng = np.random.default_rng([4, k])
            g = [rng.standard_gamma(1.0, sizes[k]) for _ in range(3)]
            assert u.tobytes() == np.array([g_j / (g[0] + g[1] + g[2]) for g_j in g]).tobytes()

    def test_stream_fingerprint(self):
        # the sha256 of the first two chunks' blocks at seed 1, for alpha sets
        # that take every branch of radial.standard_gamma between them: a
        # change to the random stream fails here and has to be declared.  The
        # boost runs at 0.5, whose U^2 is a plain square on every CPU
        fingerprints = {
            (0.04, 1.0): "9e0333fdd79e9c83e38a0990cb226c1b13b28e2360b41609ba90a993f82f9bdd",
            (0.5, 2.0, 3.0): "9b68f73e5fe84e5667270a8d1f3d5c93db2d1c13423cffa9e41cd1c6b9b414b6",
            (1.5, 1.0, 3.5): "9fe0673f253aa84d32db7881ab98a679636392329eaebbfd2088969968df8f54",
        }
        for alpha, digest in fingerprints.items():
            blocks = self._blocks(1, 2 * CHUNK, alpha)
            got = hashlib.sha256(b"".join(u.tobytes() for u in blocks)).hexdigest()
            assert got == digest, alpha

    @pytest.mark.parametrize("estimator", [dt.conditional_mc_tail, dt.crude_mc_tail],
                             ids=["conditional", "crude"])
    def test_every_branch_is_worker_invariant(self, estimator):
        # alpha takes every branch of radial.standard_gamma, over two full
        # chunks and a partial one
        spec = dt.validate_spec([0.04, 0.5, 1.0, 2.0, 3.5], [1.0, 0.8, 0.6, 0.4, 0.2], 1.5,
                                GammaLaw(3, 1))
        one, two = (repr(estimator(spec, [2.0, 5.0], 2 * CHUNK + 77, seed=3, workers=w))
                    for w in (1, 2))
        assert one == two

    def test_small_alpha_row_sum_underflow_is_numeric_error(self):
        # at alpha = 0.001 most gamma draws underflow to 0, and some row has
        # no simplex point to normalize
        spec = dt.validate_spec([0.001, 0.001], [1.0, 0.5], 2.0, GammaLaw(3, 1))
        with pytest.raises(NumericError, match="simplex row sum underflowed"):
            dt.conditional_mc_tail(spec, 30.0, 10 ** 5, seed=1)


class GivenLogs(dt.RadialModel):
    """A law whose log_survival is a fixed array of log-weights, one per point,
    whatever the radii: it drives the kernel's sums with chosen values."""

    def __init__(self, logs):
        self.logs = logs

    upper_endpoint = math.inf

    def log_survival(self, u):
        return self.logs.copy()

    def quantile_survival(self, s):
        raise NotImplementedError

    def sample(self, rng, size):
        raise NotImplementedError


def _moments(radial, z, levels, p, squares=False):
    """mc._log_moments on a copy of z, with buffers of its own."""
    return mc._log_moments(radial, np.array(z, dtype=float), levels, p,
                           lambda key, rows=1: np.empty(rows * np.size(z)), squares)


def _log_pairs(moments):
    """(log sum w, log sum w^2) from _log_moments' (m, sum w, sum w^2) triples."""
    return [(m + math.log(s1), 2.0 * m + math.log(s2)) if s1 else (m, 2.0 * m)
            for m, s1, s2 in moments]


class TestLogMoments:
    """The conditional estimator's two log-moments of one chunk's weights."""

    @pytest.mark.parametrize("spread", [1e-3, 1.0, 140.0])
    def test_match_two_logsumexps(self, spread):
        logs = np.random.default_rng(41).uniform(-spread, 0.0, CHUNK) - 5.0
        logs[::7] = -math.inf
        want = (specfun.logsumexp(logs), specfun.logsumexp(2.0 * logs))
        (got,) = _log_pairs(_moments(GivenLogs(logs), np.ones(CHUNK), [1.0], 1.0, squares=True))
        assert got == pytest.approx(want, rel=1e-15)

    def test_all_zero_weights(self):
        # z = 0 is an unbounded radius: past BetaLaw's endpoint, every weight is 0
        assert _moments(BetaLaw(2, 3), np.zeros(9), [1.0], 0.5, squares=True) == \
            [(-math.inf, 0.0, 0.0)]

    @pytest.mark.parametrize("spread", [1e-3, 1.0, 140.0])
    def test_log_sum_is_logsumexp_bit_for_bit(self, spread):
        logs = np.random.default_rng(43).uniform(-spread, 0.0, CHUNK) - 5.0
        logs[::7] = -math.inf
        for arr in (logs, np.full(CHUNK, -math.inf)):
            assert _moments(GivenLogs(arr), np.ones(CHUNK), [1.0], 1.0) == \
                [specfun.logsumexp(arr)]


class TestKernelEquivalence:
    """The per-chunk log-moments against the kernel formed one level at a time,
    log F_bar((level / z)^{1/p}) summed by logsumexp: within 1e-13 in log, on
    levels below, inside and above GammaLaw's closed-form range."""

    RADIALS = [GammaLaw(3, 1), GammaLaw(2, 0.5), GammaLaw(1, 2), GammaLaw(40, 1.5),
               GammaLaw(2.5, 2), HalfGamma(3, 1), WeibullTail(2, 1.5), BetaLaw(2, 3),
               UnitGumbel(2)]

    @staticmethod
    def _z(p, zeros):
        u = np.random.default_rng(7).dirichlet([1.0, 0.5, 2.0], 5000).T
        z = 1.0 * u[0] ** p + 0.7 * u[1] ** p + 0.4 * u[2] ** p
        if zeros:
            z[::97] = 0.0
        return z

    @staticmethod
    def _levels(radial, z, p):
        """Levels whose radii c y, y = (1/z)^{1/p}, fall below GammaLaw's
        closed-form range [n, cap], at its foot, inside it (twice: the least
        rate c y at 4 n and at 1e20, whose spacing is wider than the weight
        floor) and above it."""
        y = (1.0 / z[z > 0]) ** (1.0 / p)
        n, cap = radial._erlang if isinstance(radial, GammaLaw) and radial._erlang[0] else (3, 1e154)
        rate = getattr(radial, "rate", 1.0)
        with np.errstate(over="ignore"):
            cs = np.array([0.5 * n / (rate * y.min()), n / (rate * y.min()),
                           4.0 * n / (rate * y.min()), 1e20 / (rate * y.min()),
                           2.0 * cap / (rate * y.max())])
            levels = cs ** p
        return levels[np.isfinite(levels)].tolist()  # a level past DBL_MAX is left out

    @pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zeros"])
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("radial", RADIALS, ids=lambda r: repr(r))
    def test_matches_the_per_level_kernel(self, radial, p, zeros):
        z = self._z(p, zeros)
        levels = self._levels(radial, z, p)
        got = _log_pairs(_moments(radial, z, levels, p, squares=True))
        for level, pair in zip(levels, got):
            with np.errstate(over="ignore"):  # level / z and 2 logs may pass DBL_MAX
                logs = quad._log_cond(radial, z.copy(), level, p)
                want = specfun.logsumexp(logs), specfun.logsumexp(2.0 * logs)
            for g, w in zip(pair, want):
                assert g == w or abs(g - w) <= 1e-13 * abs(w), (level, g, w)
        assert [ls for ls, _ in got] == _moments(radial, z, levels, p)

    def test_closed_form_skips_log_survival(self, monkeypatch):
        # inside the range no level reaches the banded tail; below it they do
        z = self._z(0.5, False)
        below, _foot, inside, _far, _above = self._levels(GAMMA21, z, 0.5)
        want = _moments(GAMMA21, z, [inside], 0.5)
        calls = []
        real = specfun.log_regularized_gamma_upper
        monkeypatch.setattr(specfun, "log_regularized_gamma_upper",
                            lambda a, x: calls.append(np.size(x)) or real(a, x))
        assert _moments(GAMMA21, z, [inside], 0.5) == want and calls == []
        _moments(GAMMA21, z, [below], 0.5)
        assert calls == [z.size]

    @pytest.mark.parametrize("radial", RADIALS, ids=lambda r: repr(r))
    def test_nan_is_domain_error(self, radial):
        z = self._z(1.0, False)
        z[5] = math.nan
        for kernel in (lambda: _moments(radial, z, [1.0], 1.0),
                       lambda: quad._log_cond(radial, z.copy(), 1.0, 1.0)):
            with pytest.raises(DomainError, match="radius argument must be non-negative"):
                kernel()

    @pytest.mark.parametrize("radial", [GammaLaw(2, 1), GammaLaw(3, 1), WeibullTail(2, 1)],
                             ids=lambda r: repr(r))
    def test_d1_weights_are_exactly_one(self, radial):
        # at d = 1 every point has the same radius: a chunk's estimate is that of
        # n equal values of the survival, and its ess is n.  At 11.25 the closed
        # form's weight P(x) / P(x) rounds away from 1 for shapes 2 and 3.
        spec, n, ts = dt.validate_spec([1.0], [1.0], 1.0, radial), 1000, [4.0, 9.0, 11.25, 20.0]
        for t, est in zip(ts, dt.conditional_mc_tail(spec, ts, n, seed=3)):
            m = float(radial.log_survival(np.full(n, t))[0])
            assert est == mc._estimate_from_moments(m + math.log(n), [(m, n, n)], n, 3)
            assert (est.stderr, est.rel_err, est.ess) == (0.0, 0.0, n)
        m, w = radial.survival_weights(np.ones(9), 11.25, 1.0, 1.0, np.empty((2, 9)))
        assert m == radial.log_survival(np.full(9, 11.25))[0] and np.all(w == 1.0)

    @pytest.mark.parametrize("shape, n", [(3, 1000), (2, CHUNK + 5)])
    def test_equal_weights_report_zero_error(self, shape, n):
        # the chunks' linear sums combine against the largest shift, so equal
        # weights give (sum w)^2 = n sum w^2 exactly, in one chunk and in two
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(shape, 1))
        est = dt.conditional_mc_tail(spec, 4.0, n, seed=3)
        assert (est.stderr, est.rel_err, est.ess) == (0.0, 0.0, n)
        assert dt.conditional_mc_tail(spec, 4.0, n, seed=3, workers=2) == est


@pytest.fixture
def no_cpu_quota(monkeypatch):
    """No cgroup CPU quota, whatever the host's: it must not cut the thread
    counts under test."""
    monkeypatch.setattr(mc, "_cpu_quota", lambda: None)


@pytest.mark.usefixtures("no_cpu_quota")
class TestBufferReuse:
    """Every sampler through the engine's reused per-thread buffers: a d = 4,
    unequal-alpha spec over three equal chunks and a short one gives the same
    bits on one, two and four threads."""

    SPEC = dt.validate_spec([0.7, 1.3, 2.0, 0.9], [1.0, 0.8, 0.5, 0.3], 2.0, GAMMA21)
    N = 3 * CHUNK + 123


    @staticmethod
    def _bits(result) -> str:
        """Every bit of a result: an array's bytes, or the repr of Estimates,
        whose floats print round-trip exact."""
        return result.tobytes().hex() if isinstance(result, np.ndarray) else repr(result)

    @pytest.mark.parametrize("run", [
        lambda s, n: dt.conditional_mc_tail(s, [8.0, 20.0], n, seed=5),
        lambda s, n: dt.crude_mc_tail(s, [8.0, 20.0], n, seed=5),
        lambda s, n: mc.max_sum_ratio(s, [8.0, 20.0], n, seed=5),
        lambda s, n: mc.pairwise_asymindep(s.alpha, [[1, 0], [0, 1], [0.5, 0.3], [0.2, 0.7]],
                                           s.p, s.radial, 0, 1, [100, 1000], n, seed=5),
        lambda s, n: mc.empirical_gumbel_mda(s, [0.5, 1.0], [1e-3, 1e-5], n, seed=5),
        # blocks of 1000 draws: four chunks of 65, 65, 65 and 55 blocks
        lambda s, n: mc.gumbel_limit_check(s, 1000, 250, [-1.0, 0.0, 2.0], seed=5),
        lambda s, n: mc.sample_dirichlet(s, n, seed=5),
    ], ids=["conditional", "crude", "max_sum_ratio", "pairwise", "gumbel_mda", "gumbel_limit",
            "sample_dirichlet"])
    def test_workers_agree_bit_for_bit(self, monkeypatch, run):
        # the default runs on the CPUs the process may run on: one, two and
        # four here, whatever the host has
        bits = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                raising=False)
            bits.append(self._bits(run(self.SPEC, self.N)))
        assert bits[0] == bits[1] == bits[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_buffer_outlives_the_call(self, workers):
        def run():
            return dt.conditional_mc_tail(self.SPEC, 8.0, self.N, seed=5, workers=workers)

        run()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < CHUNK  # bytes: one chunk row alone is 8 * CHUNK


@pytest.mark.usefixtures("no_cpu_quota")
class TestWorkerCount:
    """The engine checks the worker count and never starts more threads than
    there are chunks; None reads the CPUs the process may run on and keeps
    within a budget of draws."""

    N = 2 * CHUNK + 5  # three chunks

    def _pool_sizes(self, monkeypatch, **kw) -> list:
        """The max_workers of every pool one call makes, through a stand-in
        executor that runs the chunks in turn, so no thread starts."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
        est = dt.conditional_mc_tail(KOTZ2, 4.0, self.N, seed=3, **kw)
        assert est == dt.conditional_mc_tail(KOTZ2, 4.0, self.N, seed=3, workers=1)
        return sizes

    def test_pool_capped_at_chunk_count(self, monkeypatch):
        assert self._pool_sizes(monkeypatch, workers=8) == [3]
        assert self._pool_sizes(monkeypatch, workers=2) == [2]
        assert self._pool_sizes(monkeypatch, workers=1) == []

    def test_default_reads_usable_cpus_on_each_call(self, monkeypatch):
        for cpus, sizes in [(16, [3]), (2, [2]), (1, [])]:
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                raising=False)
            assert self._pool_sizes(monkeypatch) == sizes

    def test_default_holds_at_most_pool_draws(self, monkeypatch):
        # the chunks hold CHUNK, CHUNK and 5 draws: the default takes as many
        # threads as _POOL_DRAWS covers at the largest, and at least one
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(16)),
                            raising=False)
        for draws, sizes in [(2 * CHUNK + 1, [2]), (CHUNK, []), (CHUNK - 1, [])]:
            monkeypatch.setattr(mc, "_POOL_DRAWS", draws)
            assert self._pool_sizes(monkeypatch) == sizes
        assert self._pool_sizes(monkeypatch, workers=8) == [3]  # a given count is kept

    def test_default_without_affinity_reads_cpu_count(self, monkeypatch):
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        for count, sizes in [(5, [3]), (None, [])]:
            monkeypatch.setattr(mc.os, "cpu_count", lambda c=count: c)
            assert self._pool_sizes(monkeypatch) == sizes

    def test_default_takes_cpu_quota(self, monkeypatch):
        # a quota cuts the CPUs the affinity mask gives; it never adds any
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(16)),
                            raising=False)
        for quota, sizes in [(2, [2]), (1, []), (5, [3]), (None, [3])]:
            monkeypatch.setattr(mc, "_cpu_quota", lambda q=quota: q)
            assert self._pool_sizes(monkeypatch) == sizes
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(mc, "_cpu_quota", lambda: 8)
        assert self._pool_sizes(monkeypatch) == [2]
        assert self._pool_sizes(monkeypatch, workers=3) == [3]  # a given count is kept

    @pytest.mark.parametrize("text, quota", [
        ("150000 100000\n", 2), ("100000 100000\n", 1), ("50000 100000\n", 1),
        ("400000 100000\n", 4), ("max 100000\n", None), ("", None), ("garbage\n", None),
        ("1 2 3\n", None), ("0 100000\n", None), ("100000 0\n", None), (None, None)])
    def test_cpu_quota_reads_cgroup_v2_limit(self, monkeypatch, text, quota):
        # the reader's file is stood in for; None is a missing file
        def fake_open(path):
            assert path == "/sys/fs/cgroup/cpu.max"
            if text is None:
                raise FileNotFoundError(path)
            return io.StringIO(text)

        monkeypatch.setattr(mc, "open", fake_open, raising=False)
        assert READ_CPU_QUOTA() == quota

    @pytest.mark.parametrize("workers", [0, -3, True, False, 1.0, 2.5, "2"])
    def test_invalid_count_is_validation_error(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "ThreadPoolExecutor", None)
        with pytest.raises(ValidationError, match="workers must be an integer >= 1"):
            dt.crude_mc_tail(KOTZ2, 4.0, self.N, seed=3, workers=workers)

    def test_numpy_integer_count(self):
        assert dt.crude_mc_tail(KOTZ2, 4.0, self.N, seed=3, workers=np.int64(2)) \
            == dt.crude_mc_tail(KOTZ2, 4.0, self.N, seed=3, workers=1)


class TestConditionalEstimator:
    def test_d1_deterministic(self):
        spec = dt.validate_spec([1.0], [1.0], 2.0, GammaLaw(1, 1))
        est = dt.conditional_mc_tail(spec, 49.0, 1000, seed=3)
        assert est.log_p_hat == pytest.approx(-7.0, rel=1e-12)
        assert est.stderr == 0.0

    def test_kotz_pair_exact_reference(self):
        # S_1 = X_1 + 0*X_2 ~ Exp(1) exactly
        spec = dt.validate_spec([1, 1], [1, 0], 1.0, GAMMA21)
        t = 5.0
        est = dt.conditional_mc_tail(spec, t, 10 ** 5, seed=17)
        assert abs(est.p_hat - math.exp(-t)) < 3 * est.stderr

    def test_deep_tail_reachable(self):
        spec = dt.validate_spec([1, 1], [1, 0], 1.0, GAMMA21)
        t = 140.0   # exact tail e^{-140} ~ 1e-61
        est = dt.conditional_mc_tail(spec, t, 10 ** 4, seed=19)
        assert est.log_p_hat == pytest.approx(-t, abs=0.2)
        assert est.p_hat == 0.0 or est.p_hat < 1e-60

    def test_exact_zero_beyond_endpoint(self):
        spec = dt.validate_spec([1, 1], [1, 1], 0.5, BetaLaw(2, 3))
        est = dt.conditional_mc_tail(spec, 1.5, 100, seed=1)
        assert est.p_hat == 0.0 and est.log_p_hat == -math.inf and est.stderr == 0.0

    def test_worker_count_never_changes_results(self):
        n = 2 * CHUNK + 12345
        t = 30.319
        base = dt.conditional_mc_tail(REGIME_A, t, n, seed=101, workers=1)
        for workers in [2, 4]:
            other = dt.conditional_mc_tail(REGIME_A, t, n, seed=101, workers=workers)
            assert other.log_p_hat == base.log_p_hat
            assert other.p_hat == base.p_hat
            assert other.stderr == base.stderr

    def test_reproducible_across_calls(self):
        a = dt.conditional_mc_tail(REGIME_A, 20.0, 5000, seed=42)
        b = dt.conditional_mc_tail(REGIME_A, 20.0, 5000, seed=42)
        assert a == b

    def test_tiny_alpha_fails_loudly_or_lands(self):
        # alpha = 0.001 drives standard_gamma to exact zeros, so simplex rows
        # can come out 0/0; they must not be read as "never exceeds", and a
        # failure must name alpha as its cause.
        # 0.0531756 is the mpmath value, matched by quadrature_tail
        spec = dt.validate_spec([0.001, 0.001], [1, 0.5], 2.0, GammaLaw(3, 1))
        for estimator in (dt.conditional_mc_tail, dt.crude_mc_tail):
            try:
                est = estimator(spec, 30.0, 10 ** 5, seed=3)
            except dt.DirtailError as err:
                assert "alpha" in str(err), err
                continue
            assert abs(est.p_hat - 0.0531756) <= 5 * est.stderr, estimator.__name__

    def test_d1_tiny_alpha_is_the_radial_tail(self):
        # at d = 1 the simplex is the point 1 whatever alpha is, so no gamma
        # draw can underflow: both estimators see the radial tail exp(-5)
        spec = dt.validate_spec([0.001], [1], 1.0, GammaLaw(1, 1))
        assert dt.quadrature_tail(spec, 5.0).p_hat == math.exp(-5)
        cond = dt.conditional_mc_tail(spec, 5.0, 10 ** 5, seed=3)
        assert (cond.p_hat, cond.stderr) == (math.exp(-5), 0.0)
        crude = dt.crude_mc_tail(spec, 5.0, 10 ** 5, seed=3)
        assert abs(crude.p_hat - math.exp(-5)) <= 5 * crude.stderr

    def test_overflowing_power_is_an_unbounded_radius(self):
        # at p = 1e-6, (1/z)^{1/p} leaves the double range for most points: those are
        # radii past any threshold, not an overflow warning
        spec = dt.validate_spec([1e-3, 1e3], [1, 1e-300], 1e-6, GammaLaw(2.5))
        t = dt.tail_asymptotic(spec).threshold_at_depth(1e-8)
        est = dt.conditional_mc_tail(spec, t, 2000, 1)
        assert math.isfinite(est.log_p_hat) and est.p_hat >= 0.0

    def test_unrepresentable_level_power_is_numeric_error(self):
        # 1.5^{1e6} is inf and (1/z)^{1e6} rounds to 0: their product would be NaN
        spec = dt.validate_spec([1e-3, 1e3], [1, 1 - 1e-12], 1e-6, GammaLaw(2.5))
        with pytest.raises(NumericError, match=r"p=1e-06 and level 1\.5 "):
            dt.conditional_mc_tail(spec, 1.5, 2000, 1)


class TestCrudeEstimator:
    def test_everything_above_zero_threshold(self):
        est = dt.crude_mc_tail(REGIME_A, 1e-9, 2000, seed=23)
        assert est.p_hat == 1.0

    def test_agrees_with_conditional_at_moderate_depth(self):
        t = 30.319   # P ~ 1e-2 for the regime-a pair
        crude = dt.crude_mc_tail(REGIME_A, t, 2 * 10 ** 5, seed=29)
        cond = dt.conditional_mc_tail(REGIME_A, t, 10 ** 5, seed=31)
        gap = abs(crude.p_hat - cond.p_hat)
        assert gap < 3 * math.hypot(crude.stderr, cond.stderr)

    def test_zero_samples_is_validation_error(self):
        with pytest.raises(ValidationError, match="sample count must be >= 1"):
            dt.crude_mc_tail(REGIME_A, 25.0, 0, seed=37)

    def test_overflowing_radius_is_numeric_error(self):
        # WeibullTail(0.001) draws radii past e^709: an error, not inf exceedances
        spec = dt.validate_spec([1, 1], [1, 0.5], 1.0, WeibullTail(index=0.001))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sampler in (lambda: dt.crude_mc_tail(spec, 10.0, 1000, seed=5),
                            lambda: dt.sample_dirichlet(spec, 1000, seed=5)):
                with pytest.raises(NumericError, match="draw overflows"):
                    sampler()

    def test_worker_invariance(self):
        n = CHUNK + 999
        a = dt.crude_mc_tail(REGIME_A, 25.0, n, seed=37, workers=1)
        b = dt.crude_mc_tail(REGIME_A, 25.0, n, seed=37, workers=4)
        assert a == b


class TestThresholdGrid:
    @pytest.mark.parametrize("estimator", [dt.conditional_mc_tail, dt.crude_mc_tail])
    @pytest.mark.parametrize("spec, grid", [
        (REGIME_A, [10.0, 30.319, 60.0]),
        # sup Z = sqrt(2) with a radius below 1: nothing exceeds 1.5
        (dt.validate_spec([1, 1], [1, 1], 0.5, BetaLaw(2, 3)), [0.5, 1.2, 1.5]),
        (dt.validate_spec([1.0], [1.0], 2.0, GammaLaw(1, 1)), [4.0, 49.0]),   # d = 1
    ])
    def test_grid_equals_scalar_calls(self, estimator, spec, grid):
        n = CHUNK + 4321
        scalar = [estimator(spec, t, n, seed=71) for t in grid]
        for workers in [1, 2]:
            assert estimator(spec, grid, n, seed=71, workers=workers) == scalar

    def test_crude_without_hits_reports_rule_of_three(self):
        spec = dt.validate_spec([1, 1], [1, 1], 0.5, BetaLaw(2, 3))
        est = dt.crude_mc_tail(spec, 1.5, 1000, seed=1)
        assert (est.p_hat, est.log_p_hat, est.stderr) == (0.0, -math.inf, 3 / 1000)

    def test_grid_rejects_a_nonpositive_threshold(self):
        for estimator in (dt.conditional_mc_tail, dt.crude_mc_tail):
            with pytest.raises(DomainError):
                estimator(REGIME_A, [10.0, float("nan")], 100, seed=1)


class TestQuadratureOracle:
    def test_unit_weights_p1_is_radial_tail(self):
        # with all weights one and p = 1 the aggregate *is* the radius: the
        # reported error covers the measured one and stays small
        spec = dt.validate_spec([1, 1], [1, 1], 1.0, GAMMA21)
        est = dt.quadrature_tail(spec, 10.0)
        assert est.p_hat == pytest.approx(11 * math.exp(-10), rel=1e-9)
        assert abs(est.p_hat - 11 * math.exp(-10)) <= est.stderr <= 1e-9 * est.p_hat
        assert est.method == "quadrature"

    def test_d1_exact(self):
        # d = 1 and a level past a finite endpoint pass a scalar z to the kernel
        for p in (0.5, 1.0, 2.0):
            spec = dt.validate_spec([2.0], [1.0], p, GAMMA21)
            est = dt.quadrature_tail(spec, 7.0 ** p)
            assert est.log_p_hat == pytest.approx(GAMMA21.log_survival(7.0), rel=1e-12)
        spec = dt.validate_spec([1, 1], [1, 1], 0.5, BetaLaw(2, 3))
        assert dt.quadrature_tail(spec, 1.5).log_p_hat == -math.inf

    def test_never_below_conditional(self):
        # both target the same probability; agreement within 4 stderr
        for t in [10.0, 30.319, 80.0]:
            quad = dt.quadrature_tail(REGIME_A, t)
            cond = dt.conditional_mc_tail(REGIME_A, t, 10 ** 5, seed=41)
            if cond.stderr > 0:
                assert abs(quad.p_hat - cond.p_hat) < 4 * cond.stderr

    def test_d3_matches_conditional(self):
        spec = dt.validate_spec([1, 1, 1], [1, 1, 1], 0.5, GammaLaw(3, 1))
        t = 1.6 * math.sqrt(3)
        quad = dt.quadrature_tail(spec, t)
        cond = dt.conditional_mc_tail(spec, t, 2 * 10 ** 5, seed=43)
        assert abs(quad.p_hat - cond.p_hat) < 4 * cond.stderr

    def test_d3_large_power_matches_conditional(self):
        # at p >= 1 the integrand lives in thin layers at the simplex corners
        spec = dt.validate_spec([1, 1, 1], [1, 0.7, 0.4], 2.0, GammaLaw(3, 1))
        t = 60.0
        quad = dt.quadrature_tail(spec, t)
        cond = dt.conditional_mc_tail(spec, t, 2 * 10 ** 5, seed=44)
        assert abs(quad.p_hat - cond.p_hat) < 4 * cond.stderr

    @pytest.mark.parametrize("alpha, lam, p, radial, t, want", [
        # alpha < 1: Beta density singular at both corners
        ([0.2, 0.4], [1, 0.3], 2.0, GammaLaw(3, 1), 80.0, -6.962748720956),
        # beta radius: the support ends where the radius would pass 1
        ([1, 2, 1], [1, 0.5, 0.3], 1.0, BetaLaw(2, 3), 0.9, -13.593366162052),
        ([1, 2, 1], [1, 0.5, 0.3], 1.0, BetaLaw(2, 3), 0.99, -27.488890611431),
        ([1, 1, 1], [1, 0.7, 0.4], 0.5, BetaLaw(2, 3), 1.2, -7.116066371027),
    ])
    def test_pinned_values(self, alpha, lam, p, radial, t, want):
        # pinned from adaptive scipy quad, which agrees with this rule to 3.6e-9
        est = dt.quadrature_tail(dt.validate_spec(alpha, lam, p, radial), t)
        assert est.log_p_hat == pytest.approx(want, abs=1e-8)

    def test_n_counts_every_integrand_node(self):
        # with an infinite endpoint every d = 3 line is the d = 2 rule, run
        # once per node of the outer line, which has the same size at p >= 1
        n2 = dt.quadrature_tail(REGIME_A, 30.0).n
        n3 = dt.quadrature_tail(dt.validate_spec([1, 1, 1], [1, 1, 1], 2.0, GAMMA21), 30.0).n
        assert n2 > 100 and n3 >= n2 * n2

    @pytest.mark.parametrize("lam, p, t", [
        ([1, 0.5, 0.3], 1.0, 0.9),
        ([1, 0.7, 0.4], 0.5, 1.2),
        ([1, 0.7, 0.4], 2.5, 0.5),
    ])
    def test_d3_blocks_equal_line_by_line(self, lam, p, t):
        # with a beta radius the inner level, and with it the support edges,
        # changes from line to line; the blocked rule must not notice
        spec = dt.validate_spec([1, 2, 1], lam, p, BetaLaw(2, 3))
        want, _, n, nodes = _line_by_line(spec, t)
        assert len({tuple(ln.panels[0][0]) for ns in nodes.values() for _, _, ln in ns}) > 10
        est = dt.quadrature_tail(spec, t)
        assert est.log_p_hat == pytest.approx(want, abs=1e-13)
        assert est.n == n

    def test_n_counts_only_live_halves(self):
        # at p > 1 the level cuts each inner line near both corners (panels 0
        # and 2 live, halves 0, 1, 4, 5) or near one (panel 2); an empty
        # panel's halves are never evaluated, and n counts the nodes of the others
        spec = dt.validate_spec([1, 2, 1], [1, 0.7, 0.4], 2.5, BetaLaw(2, 3))
        _, _, n, nodes = _line_by_line(spec, 0.5)
        live = {tuple(ln.halves.keys()) for ns in nodes.values() for _, _, ln in ns}
        assert live == {(0, 1, 4, 5), (4, 5)}
        assert dt.quadrature_tail(spec, 0.5).n == n

    @pytest.mark.parametrize("radial, alpha, lam, p, t", [
        (RecordingGamma(3, 1), [1, 1, 1], [1, 1, 1], 0.5, 20.0),
        (RecordingGamma(3, 1), [1, 1, 1], [1, 0.7, 0.4], 2.0, 40.0),
        (RecordingBeta(2, 3), [1, 2, 1], [1, 0.5, 0.3], 1.0, 0.9),
        # a d = 3 grid of four thresholds (quad._NEST): their inner lines share one batch
        (RecordingGamma(3, 1), [1, 1, 1], [1, 1, 1], 0.5, [3.0, 8.0, 20.0, 40.0]),
    ])
    def test_kernel_calls_stay_within_a_chunk(self, radial, alpha, lam, p, t):
        radial.sizes.clear()
        dt.quadrature_tail(dt.validate_spec(alpha, lam, p, radial), t)
        assert len(radial.sizes) > 1 and max(radial.sizes) <= CHUNK

    def test_overflowing_quotient_is_an_unbounded_radius(self):
        # at p = 50 the threshold is near 1e68, and level / z overflows where z is tiny
        spec = dt.validate_spec([1e-3, 1e3], [1, 1e-300], 50.0, GammaLaw(2.5))
        est = dt.quadrature_tail(spec, dt.tail_asymptotic(spec).threshold_at_depth(1e-8))
        assert math.isfinite(est.log_p_hat) and est.p_hat > 0.0

    def test_dimension_cap(self):
        spec = dt.validate_spec([1, 1, 1, 1], [1, 1, 1, 1], 2.0, GAMMA21)
        with pytest.raises(DomainError):
            dt.quadrature_tail(spec, 5.0)

    def test_d3_endpoint_memory_stays_within_blocks(self):
        # every line has its own level; the inner rule is built a block of
        # lines at a time, where all lines at once peaked at 18.9 MB
        spec = dt.validate_spec([1, 1, 1], [1, 0.7, 0.4], 0.5, BetaLaw(2, 3))
        dt.quadrature_tail(spec, 1.2)  # the half rules are built once, on the first call
        tracemalloc.start()
        try:
            dt.quadrature_tail(spec, 1.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * CHUNK * 8  # eight chunk-sized float arrays

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5])
    def test_support_edges_against_mpmath(self, p):
        # with a beta radius a level cuts the line where g(b) = level; each edge
        # must lie within an ulp of the mpmath root in the coordinate exact
        # there (b, or 1 - b past 1/2), widened by twice the rounding of g -
        # level's terms, eps / 2 * S / |g'| (S the sum of their sizes), which no
        # double evaluation of g beats; and on the live side, or past the root
        # by no more than that rounding
        mp = pytest.importorskip("mpmath")
        spec = dt.validate_spec([1, 2], [1, 0.5], p, BetaLaw(2, 3))
        (lam0, lam1), rule = spec.lam, quad._LineRule(*spec.alpha, *spec.lam, p)
        lo, hi = rule.g_grid.min(), rule.g_grid.max()
        levels = lo + (hi - lo) * np.array([1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6])
        (s, sc, _, _), rows = rule.panels(levels)
        edges = 0
        with mp.workdps(40):
            for level, row in zip(levels.tolist(), rows):
                for b, bc in zip(s[row, rule.slot], sc[row, rule.slot]):
                    if b in (0.0, 1.0):  # no edge on this piece
                        continue
                    x, la, lb = (b, lam0, lam1) if b < 0.5 else (bc, lam1, lam0)
                    h = lambda t: la * mp.mpf(t) ** p + lb * (1 - mp.mpf(t)) ** p - level
                    width = mp.mpf(math.ulp(x))
                    while (h(max(x - width, 0)) > 0) == (h(min(x + width, 1)) > 0):
                        width *= 2
                    left, right = max(x - width, 0), min(x + width, 1)
                    for _ in range(130):  # bisection to far below an ulp
                        mid = (left + right) / 2
                        left, right = (mid, right) if (h(mid) > 0) == (h(left) > 0) else (left, mid)
                    root = left
                    terms = abs(lb - level) + abs(lb * ((1 - root) ** p - 1)) + abs(la * root ** p)
                    slope = p * (la * root ** (p - 1) - lb * (1 - root) ** (p - 1))
                    rounding = 2.0 ** -53 * terms / abs(slope)
                    assert abs(x - root) <= math.ulp(x) + 2 * rounding
                    assert h(x) > 0 or abs(x - root) <= rounding
                    # and it is the search's last live point: a double next to it
                    # is dead, g - level taken as the search takes it
                    near = np.array([x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)])
                    g_less = (lb - level) + lb * np.expm1(p * np.log1p(-near)) + la * near ** p
                    assert g_less[0] > 0 and min(g_less[1:]) <= 0
                    edges += 1
        assert edges >= len(levels)  # every level cuts the line

    def test_half_rules_are_cached_read_only(self):
        d, lw = quad._graded_half(0.5, 0, 6)
        assert quad._graded_half(0.5, 0, 6)[0] is d
        for arr in (d, lw):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the rules nest: 6 levels share 4 with the rule 4 deep and add the two
        # of its step; its last end panel is the check of the rule 8 deep
        p = quad._POINTS
        assert np.array_equal(d[:4 * p], quad._graded_half(0.5, 0, 4)[0][:4 * p])
        assert np.array_equal(d[4 * p:7 * p], quad._graded_half(0.5, 4, 6)[0])
        assert np.array_equal(d[6 * p:7 * p], quad._graded_half(0.5, 0, 8)[0][-p:])


def _errors_accumulate(sums, kind):
    """The line errors with their sums over halves taken by np.add.accumulate, whose
    order does not depend on the number of lines: the reference for quad._errors."""
    top = sums[:3].max(axis=(0, 1))
    live = np.isfinite(top)
    w = np.exp(np.maximum(sums - np.where(live, top, 0.0), -700.0))
    total = np.add.accumulate(w[:3].reshape(3 * len(kind), top.size))[-1]
    value = np.where(live, np.log(total) + top, -math.inf)
    diff = np.abs(w[1] + w[2] - w[3])
    diff *= live / total
    by_kind = np.where(kind[:, None] == np.arange(3)[:, None], diff[:, None], 0.0)
    return value, np.add.accumulate(by_kind)[-1]


class TestLineErrors:
    """quad._errors sums over halves row after row, bit for bit as the accumulate form."""

    @pytest.mark.parametrize("lines", [1, 2, 39, 40, 41, 288])
    def test_matches_accumulate_and_lines_alone(self, lines):
        rng = np.random.default_rng(lines)
        halves = 8
        kind = rng.integers(-1, 3, (halves, lines))  # -1: an empty panel's half
        sums = rng.normal(-30.0, 20.0, (4, halves, lines))
        sums[1:3] = sums[3] + rng.normal(0.0, 1e-3, (2, halves, lines))  # the nested rules agree
        sums[:, kind < 0] = -math.inf
        sums[:, :, 3::7] = -math.inf  # lines of -inf
        value, err = quad._errors(sums, kind)
        want_value, want_err = _errors_accumulate(sums, kind)
        assert np.array_equal(value, want_value) and np.array_equal(err, want_err)
        assert np.all(value[3::7] == -math.inf) and np.all(err[:, 3::7] == 0.0)
        assert np.isfinite(value[:3]).all()
        for j in range(lines):  # each line alone gives the bits it has among the others
            alone_value, alone_err = quad._errors(sums[..., j:j + 1], kind[:, j:j + 1])
            assert alone_value[0] == value[j] and np.array_equal(alone_err[:, 0], err[:, j])


class TestQuadratureError:
    """The reported error, stderr / p_hat in log, against the measured one."""

    PINNED = [  # test_pinned_values' cases
        ([0.2, 0.4], [1, 0.3], 2.0, GammaLaw(3, 1), 80.0),
        ([1, 2, 1], [1, 0.5, 0.3], 1.0, BetaLaw(2, 3), 0.9),
        ([1, 2, 1], [1, 0.5, 0.3], 1.0, BetaLaw(2, 3), 0.99),
        ([1, 1, 1], [1, 0.7, 0.4], 0.5, BetaLaw(2, 3), 1.2),
    ]
    # alpha 0.3 at a corner, p < 1 and a heavy Weibull tail at depth 1e-4: the
    # fixed 12-level rule erred by up to 1.3e-7 in log here
    HARD = [([a0, a1], [1, 0.4], p, WeibullTail(0.5), 1e-4)
            for a0, a1 in [(0.3, 2.5), (2.5, 0.3), (0.3, 0.3)] for p in (0.3, 0.5)]

    @pytest.mark.parametrize("alpha, lam, p, radial, t", PINNED + HARD)
    def test_bounds_deepest_rule(self, alpha, lam, p, radial, t, monkeypatch):
        spec = dt.validate_spec(alpha, lam, p, radial)
        if t < 1e-3:  # a depth
            t = dt.tail_asymptotic(spec).invert(math.log(t))
        est = dt.quadrature_tail(spec, t)
        with monkeypatch.context() as m:
            m.setattr(quad, "_TOL", 0.0)  # every kind graded to the cap
            deepest = dt.quadrature_tail(spec, t)
        err = abs(est.log_p_hat - deepest.log_p_hat)
        assert err <= est.stderr / est.p_hat and err <= 2.6e-10

    def test_bounds_mpmath_at_an_endpoint(self):
        # Q8b: the radius ends 6.3e-5 above the smallest one on the line, so
        # rounding the radii, not the rule, sets the error (1.3e-12)
        spec = dt.validate_spec([1, 2], [1, 0.5], 1.0, BetaLaw(2, 3))
        est = dt.quadrature_tail(spec, 0.9999370034198778)
        assert abs(est.log_p_hat - -47.89211545592941) <= est.stderr / est.p_hat < 1e-10

    @pytest.mark.parametrize("alpha, lam, p, depths, want", [
        ([1, 1, 1], [1, 1, 1], 0.5, [1e-8], [115776]),  # Q4; 389 376 took the 12-level rule
        ([2, 1, 0.5], [1, 0.8, 0.6], 0.4, [1e-8], [124416]),  # Q5, whose corner b = 1 goes 12 deep
        ([1, 1, 1], [1, 0.7, 0.4], 2.0, [1e-12], [20736]),  # Q6
        ([1, 1, 1], [1, 0.7, 0.4], 1.0, [1e-8], [20736]),  # Q7
        ([1, 1], [1, 0.5], 0.5, [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14],
         [396, 360, 360, 360, 360, 324]),  # Q3's grid
    ])
    def test_evaluations(self, alpha, lam, p, depths, want):
        # the benchmark's quadrature ops at its thresholds (the ratio command's)
        spec = dt.validate_spec(alpha, lam, p, GammaLaw(3, 1))
        ts = [dt.tail_asymptotic(spec).threshold_at_depth(d) for d in depths]
        assert [est.n for est in dt.quadrature_tail(spec, ts)] == want


class TestQuadratureGrid:
    @pytest.mark.parametrize("alpha, lam, p, radial, ts", [
        ([2.0], [1.0], 0.5, GAMMA21, [1.0, 7.0, 20.0]),
        ([1, 1], [1, 0.5], 0.5, GammaLaw(3, 1), [2.0, 10.0, 30.0, 10.0]),
        ([1, 1], [1, 1], 2.0, GAMMA21, [30.0, 5.0]),
        # beta radius: each level its own panels; 1.5 lies past the endpoint
        ([1, 2], [1, 0.5], 2.0, BetaLaw(1, 0.5), [0.3, 0.95, 1.5, 0.7]),
        ([1, 1], [1, 0.5], 0.5, BetaLaw(2, 3), [0.5, 1.4, 1.0]),
        ([1, 1, 1], [1, 1, 1], 0.5, GammaLaw(3, 1), [3.0, 8.0]),
        ([1, 2, 1], [1, 0.5, 0.3], 1.0, BetaLaw(2, 3), [0.9, 2.0, 0.5, 0.99]),
    ])
    def test_entries_equal_scalar_calls(self, alpha, lam, p, radial, ts):
        spec = dt.validate_spec(alpha, lam, p, radial)
        grid = dt.quadrature_tail(spec, ts)
        assert isinstance(grid, list) and len(grid) == len(ts)
        for t, est in zip(ts, grid):
            assert est == dt.quadrature_tail(spec, t)

    def test_sequence_types(self):
        ts = [10.0, 30.0]
        want = dt.quadrature_tail(REGIME_A, ts)
        assert dt.quadrature_tail(REGIME_A, tuple(ts)) == want
        assert dt.quadrature_tail(REGIME_A, np.array(ts)) == want
        assert dt.quadrature_tail(REGIME_A, []) == []
        assert dt.quadrature_tail(REGIME_A, np.float64(10.0)) == want[0]

    def test_d3_grid_holds_one_batch_of_lines(self):
        # a d = 3 grid runs quad._NEST thresholds at a time: three batches of the same
        # thresholds peak no higher than one, and give the scalar calls' values
        spec = dt.validate_spec([1, 1, 1], [1, 1, 1], 0.5, GammaLaw(3, 1))
        ts = np.geomspace(3.0, 40.0, quad._NEST).tolist()
        peaks = []
        for grid in (ts, ts * 3):
            dt.quadrature_tail(spec, grid)
            tracemalloc.start()
            try:
                ests = dt.quadrature_tail(spec, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert ests == [dt.quadrature_tail(spec, t) for t in ts] * 3
        assert peaks[1] < 1.2 * peaks[0]


class TestQuadratureBits:
    # the benchmark's quadrature specs Q1-Q8b, each at its ratio command's deepest threshold;
    # log p_hat and n pinned bit for bit, so a rewrite of the rule's bookkeeping that claims
    # the same kernel evaluations and sums must give exactly these
    @pytest.mark.parametrize("alpha, lam, p, radial, t, log_p, n", [
        ([1, 1], [1, 1], 2.0, GammaLaw(2, 1), "0x1.e399ded4fdd92p+9", "-0x1.e5f0961cf9b80p+4", 144),
        ([1, 1], [1, 1], 0.5, GammaLaw(2, 1), "0x1.d0771b3fabda6p+2", "-0x1.8204dc35f78efp+4", 288),
        ([1, 1], [1, 0.5], 0.5, GammaLaw(3, 1), "0x1.be61b03429e83p+2", "-0x1.0dd993ea3507cp+5",
         324),
        ([1, 1, 1], [1, 1, 1], 0.5, GammaLaw(3, 1), "0x1.108d80589bed4p+3", "-0x1.4222e787bf93ap+4",
         115776),
        ([2, 1, 0.5], [1, 0.8, 0.6], 0.4, GammaLaw(3, 1), "0x1.66d953969396ap+2",
         "-0x1.45e984e4b4e99p+4", 124416),
        ([1, 1, 1], [1, 0.7, 0.4], 2.0, GammaLaw(3, 1), "0x1.21e41ba7e7b9fp+10",
         "-0x1.1023112b9d56dp+5", 20736),
        ([1, 1, 1], [1, 0.7, 0.4], 1.0, GammaLaw(3, 1), "0x1.82e6a943e710ep+4",
         "-0x1.6776f93a15918p+4", 20736),
        ([1, 2], [1, 0.5], 1.0, BetaLaw(2, 3), "0x1.ff4e0c295be3dp-1", "-0x1.04505f657f0fbp+5",
         144),
        ([1, 2], [1, 0.5], 1.0, BetaLaw(2, 3), "0x1.fff7be2f7f4a8p-1", "-0x1.7f230d6d9bc12p+5",
         144),
    ])
    def test_benchmark_specs_pinned(self, alpha, lam, p, radial, t, log_p, n):
        est = dt.quadrature_tail(dt.validate_spec(alpha, lam, p, radial), float.fromhex(t))
        assert est.log_p_hat.hex() == log_p and est.n == n and type(est.n) is int


class TestTwoRadialEquivalence:
    def test_tail_ratio_tracks_radial_ratio(self):
        # halving the radial survival halves every aggregate tail
        base = dt.validate_spec([1, 1], [1, 0.5], 2.0, GAMMA21)
        half = dt.validate_spec([1, 1], [1, 0.5], 2.0, HalfGamma(2, 1))
        for depth in [1e-4, 1e-8]:
            t = GAMMA21.quantile_survival(depth) ** 2
            a = dt.conditional_mc_tail(base, t, 10 ** 4, seed=47)
            b = dt.conditional_mc_tail(half, t, 10 ** 4, seed=47)
            assert math.exp(b.log_p_hat - a.log_p_hat) == pytest.approx(0.5, rel=1e-9)


class TestMaxSumRatio:
    def test_d1_identity(self):
        spec = dt.validate_spec([1.5], [1.0], 2.0, GAMMA21)
        table = dt.max_sum_ratio(spec, [4.0, 16.0], 1000, seed=53)
        np.testing.assert_allclose(table[:, 3], 1.0, rtol=1e-12)

    def test_single_big_jump_above_one(self):
        t = GAMMA21.quantile_survival(1e-8) ** 2
        table = dt.max_sum_ratio(REGIME_A, [t], 10 ** 5, seed=59)
        ratio = table[0, 3]
        assert 0.85 <= ratio <= 1.0

    def test_denominator_is_the_conditional_estimate(self):
        # both draw the same chunks and reduce the same kernel, bit for bit
        for spec, t, n in [(REGIME_A, 30.319, CHUNK + 777), (KOTZ2, 9.0, 3000)]:
            table = dt.max_sum_ratio(spec, [t], n, seed=57)
            assert table[0, 2] == dt.conditional_mc_tail(spec, t, n, seed=57).log_p_hat

    def test_threshold_past_the_support_is_domain_error(self, monkeypatch):
        # past z_sup * x_F^p both tails are exact zeros; raised before any draw
        spec = dt.validate_spec([1, 1], [1, 1], 0.5, BetaLaw(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = dt.max_sum_ratio(spec, [0.5], 1000, 1)
            assert np.all(np.isfinite(table))
            monkeypatch.setattr(mc, "_chunked", None)
            with pytest.raises(DomainError, match=re.escape("thresholds [1.5] lie past the support")):
                dt.max_sum_ratio(spec, [0.5, 1.5], 1000, 1)

    def test_m8_exact_references(self):
        """The benchmark's M8 (M1's spec at thresholds 4.8, 6.3 and 7.5)
        against exact references.  Its components are iid Exp(1), a Gamma(3)
        radius over alpha (1, 1, 1), so the numerator is
        log(1 - prod_i (1 - e^{-(t/lam_i)^2})), taken through expm1 and log1p
        because 1 - prod rounds to 0 here; the denominator's reference is
        quadrature.  Over seeds 1-20 at n = 1e5 the numerator's error had sd
        0.022, 0.045 and 0.068 (max 0.17), so the tolerances 0.09, 0.18 and
        0.28 are 4 sd; the denominator's largest |z| in its reported stderr (the
        conditional estimate's, which it equals bit for bit) was 3.3, so it
        gets 4 stderr."""
        lam, ts = [1.0, 0.7, 0.4], [4.8, 6.3, 7.5]
        spec = dt.validate_spec([1, 1, 1], lam, 0.5, GammaLaw(3, 1))
        exact = [math.log(-math.expm1(sum(math.log1p(-math.exp(-(t / l) ** 2)) for l in lam)))
                 for t in ts]
        assert exact == pytest.approx([-23.04, -39.69, -56.25], abs=1e-9)
        quads = dt.quadrature_tail(spec, ts)
        for seed in (1, 2, 3):
            table = dt.max_sum_ratio(spec, ts, 10 ** 5, seed=seed)
            ests = dt.conditional_mc_tail(spec, ts, 10 ** 5, seed=seed)
            for row, want, tol, ref, est in zip(table, exact, (0.09, 0.18, 0.28), quads, ests):
                assert abs(row[1] - want) <= tol, (seed, row)
                assert abs(row[2] - ref.log_p_hat) <= 4 * est.rel_err, (seed, row)

    def test_scalar_threshold_is_one_row(self):
        table = dt.max_sum_ratio(REGIME_A, 30.0, 2000, seed=5)
        assert table.shape == (1, 4)
        assert table.tobytes() == dt.max_sum_ratio(REGIME_A, [30.0], 2000, seed=5).tobytes()

    def test_no_single_big_jump_at_unit_power(self):
        spec = dt.validate_spec([1, 1, 1], [1, 1, 1], 1.0, GammaLaw(3, 1))
        radial = GammaLaw(3, 1)
        ts = [radial.quantile_survival(d) for d in [1e-6, 1e-8]]
        table = dt.max_sum_ratio(spec, ts, 10 ** 5, seed=61)
        assert table[0, 3] < 0.05
        assert table[1, 3] < table[0, 3]


class TestNormingConstants:
    def test_exponential(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        c = dt.norming_constants(spec, 10 ** 4)
        assert c.b_n == pytest.approx(math.log(10 ** 4), rel=1e-9)
        assert c.a_n == pytest.approx(1.0, rel=1e-9)

    def test_squared_exponential(self):
        spec = dt.validate_spec([1.0], [1.0], 2.0, GammaLaw(1, 1))
        c = dt.norming_constants(spec, 10 ** 4)
        assert c.b_n == pytest.approx(math.log(10 ** 4) ** 2, rel=1e-9)
        assert c.a_n == pytest.approx(2 * math.log(10 ** 4), rel=1e-9)

    def test_preconditions(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        with pytest.raises(DomainError):
            dt.norming_constants(spec, 1)
        weib = dt.validate_spec([1, 1], [1, 0], 1.0, BetaLaw(1, 1))
        with pytest.raises(DomainError):
            dt.norming_constants(weib, 100)


class TestPairwiseAsymptoticIndependence:
    def test_identity_weights_squared(self):
        table = dt.pairwise_asymindep([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], 2.0,
                                      GAMMA21, 0, 1, [10 ** 4], 2 * 10 ** 5, seed=67)
        assert table[0, 3] <= 0.05

    def test_small_power_columns_decreasing(self):
        # p = 1/2: columns need unit 2-norm and (to invert the level from
        # the small-power asymptotic) strictly positive entries
        weights = [[0.8, 0.6], [0.6, 0.8]]
        table = dt.pairwise_asymindep([1.0, 1.0], weights, 0.5, GAMMA21,
                                      0, 1, [10 ** 2, 10 ** 3, 10 ** 4],
                                      2 * 10 ** 5, seed=71)
        ratios = table[:, 3]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_m4_exact_reference(self):
        """The benchmark's M4: identity weights at p = 2 over alpha (1, 1) and
        a Gamma(2) radius, whose components are iid Exp(1), so the pair ratio
        P(X_2^2 > b | X_1^2 > b) is exactly exp(-sqrt(b)).  Over seeds 1-20 at
        n = 1e5 the log-ratio error had sd 0.010, 0.012 and 0.013 at the three
        levels (max 0.026): the tolerance 0.06 is over 4 sd at each."""
        for seed in (1, 2, 3):
            table = dt.pairwise_asymindep([1, 1], [[1, 0], [0, 1]], 2.0, GAMMA21, 0, 1,
                                          [100, 1000, 10000], 10 ** 5, seed=seed)
            for _, b, _, ratio in table:
                assert abs(math.log(ratio) + math.sqrt(b)) <= 0.06, (seed, b, ratio)

    def test_no_gumbel_norming_raises_before_sampling(self, monkeypatch):
        # a Beta radius has no Gumbel norming: the levels raise, so no draw is made
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before raising")

        monkeypatch.setattr(mc, "_chunked", no_draws)
        with pytest.raises(DomainError, match="Gumbel-class"):
            dt.pairwise_asymindep([1, 1], [[1, 0], [0, 1]], 1.0, BetaLaw(2, 3), 0, 1,
                                  [100], 10 ** 6, seed=1)

    def test_scalar_n_grid_is_one_row(self):
        args = ([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], 2.0, GAMMA21, 0, 1)
        table = dt.pairwise_asymindep(*args, 100, 2000, seed=67)
        assert table.shape == (1, 4)
        assert table.tobytes() == dt.pairwise_asymindep(*args, [100], 2000, seed=67).tobytes()

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):   # same column twice
            dt.pairwise_asymindep([1, 1], [[1.0, 0.0], [0.0, 1.0]], 2.0,
                                  GAMMA21, 0, 0, [100], 1000, seed=1)
        with pytest.raises(ValidationError):   # shared unit component for p >= 1
            dt.pairwise_asymindep([1, 1], [[1.0, 1.0], [0.0, 1.0]], 2.0,
                                  GAMMA21, 0, 1, [100], 1000, seed=1)
        with pytest.raises(ValidationError):   # column norms off for p < 1
            dt.pairwise_asymindep([1, 1], [[1.0, 0.9], [0.0, 0.8]], 0.5,
                                  GAMMA21, 0, 1, [100], 1000, seed=1)
        for alpha, weights, p, match in [
                ([1, 1], [1.0, 0.0], 2.0, "must be a matrix"),
                ([1, 1], [[1.0, -0.5], [0.0, 1.0]], 2.0, "non-negative and finite"),
                ([1, 1, 1], [[1.0, 0.0], [0.0, 1.0]], 2.0, "rows must match"),
                ([1, 1], [[1.0, 0.5], [0.0, 0.5]], 1.0, "column 1 has no unit weight"),
                ([1, 1], [[0.8, 0.8], [0.6, 0.6]], 0.5, "columns 0 and 1 are identical")]:
            with pytest.raises(ValidationError, match=match):
                dt.pairwise_asymindep(alpha, weights, p, GAMMA21, 0, 1, [100], 1000, seed=1)


class TestEmpiricalGumbelDiagnostics:
    def test_memoryless_exact(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        table = dt.empirical_gumbel_mda(spec, [0.5, 1.0, 2.0], [1e-4, 1e-6],
                                        1000, seed=73)
        np.testing.assert_allclose(table[:, 3], table[:, 4], rtol=1e-10)

    def test_ratio_decreasing_in_shift(self):
        table = dt.empirical_gumbel_mda(REGIME_A, [0.5, 1.0, 2.0], [1e-6],
                                        5 * 10 ** 4, seed=79)
        assert table[0, 3] > table[1, 3] > table[2, 3]

    def test_regime_a_close_to_limit(self):
        table = dt.empirical_gumbel_mda(REGIME_A, [1.0], [1e-8], 2 * 10 ** 5, seed=83)
        assert abs(table[0, 3] - math.exp(-1)) <= 0.05

    def test_scalar_grids_are_one_row(self):
        table = dt.empirical_gumbel_mda(REGIME_A, 1.0, 1e-6, 2000, seed=79)
        assert table.shape == (1, 5)
        want = dt.empirical_gumbel_mda(REGIME_A, [1.0], [1e-6], 2000, seed=79)
        assert table.tobytes() == want.tobytes()

    def test_beta_radius_is_domain_error(self):
        spec = dt.validate_spec([1, 1], [1, 0.5], 1.0, BetaLaw(2, 3))
        with pytest.raises(DomainError, match="Gumbel-class"):
            dt.empirical_gumbel_mda(spec, [1.0], [1e-4], 1000, seed=1)


class TestGumbelLimitCheck:
    def test_exponential_blocks(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        table = dt.gumbel_limit_check(spec, 1000, 3000, [-1.0, 0.0, 2.0], seed=89)
        for x, emp, limit in table:
            assert abs(emp - limit) <= 0.05

    def test_scalar_x_is_one_row(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        table = dt.gumbel_limit_check(spec, 100, 50, 0.0, seed=89)
        assert table.shape == (1, 3)
        assert table.tobytes() == dt.gumbel_limit_check(spec, 100, 50, [0.0], seed=89).tobytes()


class TestPredictionOracleConvergence:
    """Each regime's prediction/quadrature ratio approaches 1 monotonically
    across the depth grid."""

    @pytest.mark.parametrize("spec", [
        dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21),          # regime a
        dt.validate_spec([1, 1], [1, 0.5], 1.0, GAMMA21),        # regime b
        dt.validate_spec([1, 1], [1, 0.5], 0.5, GAMMA21),        # regime c
    ])
    def test_monotone_approach(self, spec):
        asym = dt.tail_asymptotic(spec)
        gaps = []
        for depth in [1e-6, 1e-8, 1e-10]:
            t = asym.threshold_at_depth(depth)
            est = dt.quadrature_tail(spec, t)
            gaps.append(abs(math.exp(asym.evaluate_log(t) - est.log_p_hat) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1


class TestEstimateRecord:
    def test_effective_sample_size(self):
        # d = 1: every weight is the same survival value
        spec = dt.validate_spec([1.0], [1.0], 2.0, GammaLaw(1, 1))
        est = dt.conditional_mc_tail(spec, 49.0, 1000, seed=3)
        assert est.ess == pytest.approx(1000, rel=1e-12) and est.rel_err == 0.0
        for t in [20.0, 30.319, 60.0]:
            est = dt.conditional_mc_tail(REGIME_A, t, 2 * CHUNK + 99, seed=5)
            assert 1.0 <= est.ess <= est.n
            assert est.rel_err == pytest.approx(est.stderr / est.p_hat, rel=1e-12)
        zero = dt.conditional_mc_tail(dt.validate_spec([1, 1], [1, 1], 0.5, BetaLaw(2, 3)),
                                      1.5, 100, seed=1)
        assert (zero.ess, zero.rel_err) == (0.0, math.inf)
        assert dt.crude_mc_tail(REGIME_A, 20.0, 1000, seed=5).ess is None
