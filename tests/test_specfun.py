"""Tests for the special-function kernels.

Deep-tail reference values were frozen from 40-digit mpmath evaluations at
exactly representable double inputs.  The kernels take their tails from
scipy.special outside the deep band, so the scipy grids check the band
logic more than the digits; the independent oracle is the mpmath grid,
which covers every band of both tails.
"""

import hashlib
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import __version__ as sp_version
from scipy import special as sp

from dirtail import GammaLaw
from dirtail import specfun as sf
from dirtail.errors import DomainError


class TestLogGamma:
    def test_exact_values(self):
        assert sf.log_gamma(1.0) == 0.0
        assert sf.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert sf.log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)

    def test_wide_range_accuracy(self):
        for a in [1e-6, 1e-3, 0.1, 1.5, 20.0, 1e3, 1e6]:
            assert sf.log_gamma(a) == pytest.approx(sp.gammaln(a), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.log_gamma(0.0)
        with pytest.raises(DomainError):
            sf.log_gamma(-1.5)


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) through the log-gamma kernel."""
    return math.exp(sf.log_gamma(a) - sf.log_gamma(b))


def beta_survival(a, b, x):
    return np.exp(sf.log_beta_survival(a, b, x))


def rowwise(kernel, *columns):
    """The kernel at each row of equal-length (shape..., x) columns, one
    shape per call."""
    return np.array([kernel(*row) for row in zip(*(np.asarray(c).tolist() for c in columns))])


class TestGammaRatio:
    def test_examples(self):
        assert gamma_ratio(5, 4) == pytest.approx(4.0, rel=1e-13)
        assert gamma_ratio(1, 1) == 1.0
        # Gamma(2.5) = 1.5 * 0.5 * Gamma(0.5)
        assert gamma_ratio(2.5, 0.5) == pytest.approx(0.75, rel=1e-13)

    def test_recurrence(self):
        for a in np.geomspace(0.5, 100.0, 25):
            assert abs(gamma_ratio(a + 1.0, a) - a) / a <= 1e-12


class TestBetaSurvival:
    def test_examples(self):
        assert beta_survival(1, 1, 0.75) == pytest.approx(0.25, rel=1e-12)
        # int_{0.9}^{1} 2(1-t) dt = 0.01
        assert beta_survival(1, 2, 0.9) == pytest.approx(0.01, rel=1e-10)
        assert beta_survival(3.0, 4.0, 0.0) == 1.0
        assert beta_survival(3.0, 4.0, 1.0) == 0.0

    def test_frozen_reference_values(self):
        # mpmath, 40 digits, inputs exactly representable as doubles
        cases = [
            (2, 3, 1 - 2.0**-40, -81.79136730607422863226),
            (5, 2, 1 - 2.0**-26, -33.33560322775137599732),
            (0.5, 0.5, 0.999999, -7.359337817590486301918),
            (1.5, 4.5, 0.3, -1.086801552566153917057),
        ]
        for a, b, x, want in cases:
            assert sf.log_beta_survival(a, b, x) == pytest.approx(want, rel=1e-13)
        assert beta_survival(2.5, 3.5, 0.6) == pytest.approx(0.1803149341322161991729, rel=1e-12)

    def test_grid_against_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.2, 25.0, 500)
        b = rng.uniform(0.2, 25.0, 500)
        x = rng.uniform(1e-3, 1.0 - 1e-3, 500)
        mine = np.exp(rowwise(sf.log_beta_survival, a, b, x))
        ref = sp.betainc(b, a, 1.0 - x)
        assert np.max(np.abs(mine - ref) / np.maximum(ref, 1e-280)) < 1e-10

    def test_symmetry_grid(self):
        grid = [0.3, 0.7, 1.0, 2.5, 8.0]
        for a in grid:
            for b in grid:
                for x in [0.05, 0.37, 0.5, 0.93]:
                    total = beta_survival(a, b, x) + beta_survival(b, a, 1.0 - x)
                    assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.3, 20), b=st.floats(0.3, 20), x=st.floats(0.01, 0.99))
    def test_symmetry_property(self, a, b, x):
        total = beta_survival(a, b, x) + beta_survival(b, a, 1.0 - x)
        assert abs(total - 1.0) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.log_beta_survival(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            sf.log_beta_survival(1.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            sf.log_beta_survival(1.0, 1.0, -0.1)
        # a float argument is checked by plain comparisons, with the array path's messages
        for a, b, x, msg in [(math.nan, 1.0, 0.5, "beta parameters must be positive, got a=nan"),
                             (1.0, -2.0, 0.5, "beta parameters must be positive, got a=1.0, b=-2.0"),
                             (2, 3, math.nan, "beta argument must lie in [0, 1], got x=nan")]:
            for arg in (x, np.asarray(x)):
                with pytest.raises(DomainError, match=re.escape(msg)):
                    sf.log_beta_survival(a, b, arg)


class TestBetaPowerSurvival:
    # P(B^p > x) = P(B > x^{1/p})
    def test_examples(self):
        # P(B^2 > 0.81) = P(B > 0.9) for uniform B
        assert beta_survival(1, 1, 0.81 ** (1 / 2)) == pytest.approx(0.1, rel=1e-12)
        assert beta_survival(1, 1, 0.0 ** (1 / 3.7)) == 1.0
        # B ~ Beta(2, 1) has P(B > y) = 1 - y^2
        for p in [0.5, 2.0, 3.7]:
            for x in [0.1, 0.5, 0.9]:
                assert beta_survival(2, 1, x ** (1 / p)) == pytest.approx(
                    1.0 - x ** (2 / p), rel=1e-12)

    def test_near_one_tail_constant(self):
        # P(B_{a,b}^p > 1-u) / [Gamma(a+b)/(p^b Gamma(a) Gamma(b+1)) u^b] -> 1
        # monotonically as u decreases
        for a, b, p in [(1.0, 1.0, 2.0), (2.0, 3.0, 0.5), (1.5, 0.7, 3.0)]:
            log_c = (sf.log_gamma(a + b) - b * math.log(p) - sf.log_gamma(a)
                     - sf.log_gamma(b + 1.0))
            ratios = []
            for u in [1e-3, 1e-4, 1e-5]:
                log_asym = log_c + b * math.log(u)
                ratios.append(math.exp(sf.log_beta_survival(a, b, (1.0 - u) ** (1.0 / p))
                                       - log_asym))
            gaps = [abs(r - 1.0) for r in ratios]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-3


class TestGammaTails:
    def test_frozen_reference_values(self):
        cases = [
            (2, 200.0, -194.6966950919409242489),
            (0.5, 700.0, -703.8486181251223174112),
            (3.5, 50.0, -41.37068424595460782774),
            (1e-3, 30.0, -40.33675213617636520012),
            (100, 180.0, -24.24720913580772107184),
        ]
        for a, x, want in cases:
            assert sf.log_regularized_gamma_upper(a, x) == pytest.approx(want, rel=1e-13)
        assert math.exp(sf.log_regularized_gamma_upper(2.5, 3.7)) == pytest.approx(
            0.1925504330793957314981, rel=1e-12)

    def test_grid_against_scipy(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.2, 60.0, 500)
        x = rng.uniform(0.0, 150.0, 500)
        mine = np.exp(rowwise(sf.log_regularized_gamma_upper, a, x))
        ref = sp.gammaincc(a, x)
        assert np.max(np.abs(mine - ref) / np.maximum(ref, 1e-280)) < 1e-10

    def test_closed_forms(self):
        # shape 1 is the exponential law
        for x in [0.1, 1.0, 30.0, 500.0]:
            assert sf.log_regularized_gamma_upper(1.0, x) == pytest.approx(-x, rel=1e-13)
        # shape 2: (1+x) e^{-x}
        for x in [0.5, 5.0, 40.0]:
            want = math.log1p(x) - x
            assert sf.log_regularized_gamma_upper(2.0, x) == pytest.approx(want, rel=1e-13)

    def test_infinite_argument_is_minus_inf(self):
        # u * rate overflows to inf in the radial law; both must return -inf
        # without a warning, not run the fraction into inf / inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sf.log_regularized_gamma_upper(2.0, math.inf) == -math.inf
            assert GammaLaw(2, 1e10).log_survival(1e300) == -math.inf
            got = sf.log_regularized_gamma_upper(2.0, np.array([math.inf, 800.0]))
        assert got[0] == -math.inf and got[1] == pytest.approx(math.log(801.0) - 800.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.log_regularized_gamma_upper(-1.0, 2.0)
        with pytest.raises(DomainError):
            sf.log_regularized_gamma_upper(2.0, -1.0)


def banded_gamma(a, x):
    """log Q(a, x) by the banded scipy/Lentz path alone."""
    return sf._log_tail(sp.gammaincc, sp.gammainc, sf._gamma_cf_upper_log, (float(a),),
                        np.asarray(x, dtype=float))


class TestErlangTail:
    """The closed form for a whole shape n <= _ERLANG_N_MAX and x >= n."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, sf._ERLANG_N_MAX])
    def test_mpmath_grid(self, n):
        x = np.concatenate([n * (1.0 + np.geomspace(1e-9, 1.0, 25)),
                            np.geomspace(2.0 * n, 1e300, 25)])
        with mp.workdps(40):
            ref = np.array([float(mp.log(mp.gammainc(n, mp.mpf(xi), mp.inf, regularized=True)))
                            for xi in x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = sf.log_regularized_gamma_upper(n, x)
            scal = np.array([sf.log_regularized_gamma_upper(float(n), float(xi)) for xi in x])
            assert sf.log_regularized_gamma_upper(n, math.inf) == -math.inf
            assert sf.log_regularized_gamma_upper(n, np.array([math.inf]))[0] == -math.inf
        for got in (vec, scal):
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-14

    @pytest.mark.parametrize("a", [2.5, float(sf._ERLANG_N_MAX + 1)], ids=["2.5", "n_max+1"])
    def test_other_shapes_take_the_bands(self, a):
        # every band: q > 1/2, log q and the deep fraction, and x = inf
        x = np.append(np.geomspace(1e-3, 2e3, 59), math.inf)
        want = banded_gamma(a, x)
        assert np.array_equal(sf.log_regularized_gamma_upper(a, x), want)
        for xi, wi in zip(x, want):
            assert sf.log_regularized_gamma_upper(a, float(xi)) == wi

    def test_mixed_vector(self):
        # x < 3 and x past the sum's overflow cap (x = inf among them) take the bands
        cap = sf._ERLANG_X_MAX[3]
        x = np.append(np.linspace(0.0, 12.0, 241), [700.0, cap, 1e200, math.inf])
        got = sf.log_regularized_gamma_upper(3, x)
        banded = (x < 3.0) | (x > cap)
        assert np.array_equal(got[banded], banded_gamma(3.0, x)[banded])
        assert np.array_equal(got[~banded], sf._log_erlang_tail(3, x[~banded]))
        assert got[-1] == -math.inf and x[~banded].max() == cap
        # the two routes agree where they meet, at both ends
        ref = banded_gamma(3.0, x[~banded])
        assert np.max(np.abs(got[~banded] - ref) / np.abs(ref)) < 1e-13

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, sf._ERLANG_N_MAX),
           st.lists(st.one_of(st.floats(0.0, 1e300), st.just(math.inf)), min_size=2, max_size=2))
    def test_monotone_property(self, n, xs):
        # every route (bands below n, the sum, the fraction past the cap) is a
        # log survival: never NaN, <= 0, and not increasing in x.  Points a few
        # ulps apart can invert by rounding (below 1e-14 relative, measured)
        lo, hi = sorted(xs)
        vec = sf.log_regularized_gamma_upper(n, np.array([lo, hi]))
        for f_lo, f_hi in (vec, [sf.log_regularized_gamma_upper(n, x) for x in (lo, hi)]):
            assert f_lo <= 0.0 and f_hi <= 0.0  # fails on NaN too
            if hi >= lo * (1.0 + 1e-9):
                assert f_hi <= f_lo
            else:
                assert f_hi <= f_lo + 1e-13 * abs(f_lo)


def banded_beta(a, b, x):
    """log P(B_{a,b} > x) by the banded scipy/Lentz path alone."""
    return sf._log_tail(sp.betaincc, sp.betainc, sf._beta_cf_upper_log, (float(a), float(b)),
                        np.asarray(x, dtype=float))


class TestBetaFiniteSum:
    """The finite sum for a whole first shape a <= _ERLANG_N_MAX where q < 1/2."""

    @pytest.mark.parametrize("b", [0.5, 3.0, 40.0])
    @pytest.mark.parametrize("a", [1, 2, 3, 5, 10, 20, sf._ERLANG_N_MAX])
    def test_mpmath_grid(self, a, b):
        # from just past the median into the deep band, and up to a hair from 1
        x = np.concatenate([sp.betainccinv(a, b, np.geomspace(0.49, 1e-300, 40)),
                            1.0 - np.geomspace(1e-15, 1e-3, 10)])
        x = np.unique(x[(x > 0) & (x < 1)])
        with mp.workdps(50):  # the sum itself, exact for a whole a
            ref = np.array([float(mp.log((1 - mp.mpf(xi)) ** b * mp.fsum(
                mp.rf(b, j) / mp.factorial(j) * mp.mpf(xi) ** j for j in range(a)))) for xi in x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = sf.log_beta_survival(a, b, x)
            scal = np.array([sf.log_beta_survival(float(a), b, float(xi)) for xi in x])
            assert sf.log_beta_survival(a, b, 1.0) == -math.inf
            assert sf.log_beta_survival(a, b, np.array([0.9, 1.0]))[1] == -math.inf
        for got in (vec, scal):
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-14

    def test_other_entries_take_the_bands(self):
        # q >= 1/2 and other shapes keep the bands bit for bit
        x = np.linspace(0.0, 1.0, 401)
        got = sf.log_beta_survival(2, 3.0, x)
        summed = sf._log_beta_sum(sf._beta_series(2, 3.0), 3.0, x) < sf._LOG_HALF
        assert 100 < summed.sum() < 400
        assert np.array_equal(got[~summed], banded_beta(2, 3.0, x)[~summed])
        assert np.array_equal(got[summed], sf._log_beta_sum([1.0, 3.0], 3.0, x[summed]))
        for a, b in [(2.5, 3.0), (sf._ERLANG_N_MAX + 1, 3.0)]:
            assert np.array_equal(sf.log_beta_survival(a, b, x), banded_beta(a, b, x))
        # a sum past e^700 (a = 40, b = 1e20) is left to the bands too
        assert sf._beta_series(40, 1e20) is None


class TestFractionBatches:
    """A continued-fraction entry does not depend on the entries beside it."""

    def test_gamma_fraction_entry_is_its_lone_value(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rng.uniform(0.01, 50.0)
            x = a + 1.0 + rng.exponential(20.0, 8)
            got = sf._gamma_cf_upper_log(a, x)
            lone = [sf._gamma_cf_upper_log(a, x[i:i + 1])[0] for i in range(8)]
            assert got.tolist() == lone

    def test_beta_fraction_entry_is_its_lone_value(self):
        # P(B_{b,a} > 1 - x) takes the fraction of I_x(a, b) in its fast range
        rng = np.random.default_rng(37)
        for _ in range(50):
            a, b = rng.uniform(0.01, 50.0, 2).tolist()
            x = 1.0 - rng.uniform(0.0, 1.0, 8) * (a + 1.0) / (a + b + 2.0)
            got = sf._beta_cf_upper_log(b, a, x)
            lone = [sf._beta_cf_upper_log(b, a, x[i:i + 1])[0] for i in range(8)]
            assert got.tolist() == lone

    def test_gamma_deep_band_pins(self):
        # the bits of the deep band (q < 1e-280) for shapes the Erlang sum
        # does not take, scalar and vector; each is within 2e-16 of mpmath
        pins = [(0.3, 700.0, "-0x1.60d75ddfc05b3p+9"), (2.5, 680.0, "-0x1.4f3fea53ccd6ap+9"),
                (2.5, 5000.0, "-0x1.37b8233284464p+12"), (41.0, 900.0, "-0x1.7116f7ea2e776p+9"),
                (500.0, 2000.0, "-0x1.95fd46f9a05adp+9"), (7.25, 1e5, "-0x1.865f18a9a8becp+16")]
        for a, x, want in pins:
            want = float.fromhex(want)
            assert sf.log_regularized_gamma_upper(a, np.array([x]))[0] == want
            assert sf.log_regularized_gamma_upper(a, x) == want


#: x for the gamma pins: 0, every band of each shape, past the Erlang caps, and inf
PIN_GAMMA_X = [0.0, 0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.9, 3.0, 5.0, 10.0, 30.0, 100.0, 300.0,
               700.0, 1000.0, 2000.0, 5000.0, 1e5, 1e200, 1e308, math.inf]
#: x for the beta pins: 0, every band of each pair, and 1
PIN_BETA_X = [0.0, 1e-300, 1e-10, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-8,
              1 - 1e-12, 1 - 2.0 ** -52, 1.0]
#: sha256 of the float.hex of every pinned value, float calls first
PIN_DIGEST = "6f883958428c6675abddad8bd409bd0ea32deb8ed0440de9312d28fa1816deec"


class TestKernelBits:
    """The bits of both kernels in every band, as float calls and array calls."""

    @pytest.mark.skipif((np.__version__, sp_version) != ("2.4.6", "1.17.1"),
                        reason="the digest is taken with numpy 2.4.6 and scipy 1.17.1")
    def test_band_bits_pinned(self):
        # non-whole shapes take the bands at every x; the whole shapes 2 and 3
        # take them below n and past the sum's cap, and the pair (2, 3) where
        # q > 1/2.  Only a large b takes a beta below the floor.  Each x is
        # pinned as a float call and inside one array call per shape (the
        # finite sums' float and array logs may differ by an ulp)
        gamma = [(sf.log_regularized_gamma_upper, (a,), PIN_GAMMA_X)
                 for a in [0.3, 2.5, 7.25, 41.0, 500.0, 2, 3]]
        beta = [(sf.log_beta_survival, ab, PIN_BETA_X)
                for ab in [(0.5, 0.5), (2.5, 3.0), (41.0, 3.0), (50.0, 0.01), (2, 3.0),
                           (7.25, 60.0), (0.5, 300.0)]]
        lone, vec = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in gamma, beta:
                lone.append([kernel(*shapes, xi) for kernel, shapes, x in rows for xi in x])
                vec += [v for kernel, shapes, x in rows
                        for v in kernel(*shapes, np.array(x)).tolist()]
        # each kernel's entries in each band of q: > 1/2, [floor, 1/2] and (0, floor)
        for log_q in lone:
            assert all(type(v) is float for v in log_q)
            log_q = np.array(log_q)
            assert np.sum(log_q > sf._LOG_HALF) >= 20
            assert np.sum((log_q <= sf._LOG_HALF) & (log_q >= math.log(sf._FLOOR))) >= 20
            assert np.sum((log_q < math.log(sf._FLOOR)) & (log_q > -math.inf)) >= 8
        values = lone[0] + lone[1] + vec
        digest = hashlib.sha256("\n".join(v.hex() for v in values).encode()).hexdigest()
        assert digest == PIN_DIGEST


class TestLogHelpers:
    def test_logsumexp_basic(self):
        vals = [math.log(0.25), math.log(0.5), math.log(0.125)]
        assert sf.logsumexp(vals) == pytest.approx(math.log(0.875), rel=1e-14)

    def test_logsumexp_all_neginf(self):
        assert sf.logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_logsumexp_rows(self):
        # a row of all -inf sums to 0, so -inf; every row is the flat call
        rows = np.array([[-math.inf, -math.inf, -math.inf],
                         [math.log(0.25), math.log(0.5), -math.inf],
                         [-1e5, -1e5 + 1.0, -1e5 - 3.0]])
        got = sf.logsumexp(rows, axis=1)
        assert got.shape == (3,) and got[0] == -math.inf
        assert got[1] == pytest.approx(math.log(0.75), rel=1e-14)
        assert got.tolist() == [sf.logsumexp(row) for row in rows]
        assert sf.logsumexp(rows.T, axis=0).tolist() == got.tolist()

    def test_logsumexp_no_overflow(self):
        assert sf.logsumexp([-1e5, -1e5 + 1.0]) == pytest.approx(
            -1e5 + math.log(1 + math.e), rel=1e-12)

    def test_logprob_value(self):
        assert sf.LogProb(-2.0).value == pytest.approx(math.exp(-2.0))
        assert sf.LogProb(-math.inf).value == 0.0


def mp_log_tail(upper, lower):
    """log of an upper tail from mpmath, with 40 digits to spare beyond
    the leading digits that log(q) ~ -(1 - q) loses when q is near 1."""
    with mp.workdps(40):
        small = lower()
    extra = int(-mp.log10(small)) if 0 < small < 0.5 else 0
    with mp.workdps(40 + extra):
        return float(mp.log(upper()))


def assert_bands_within(q, got, ref, tol=1e-12):
    """Every band of q is populated and within tol relative error in log."""
    rel = np.abs(got - ref) / np.abs(ref)
    bands = {"q > 1/2": q > 0.5,
             "floor <= q <= 1/2": (q <= 0.5) & (q >= sf._FLOOR),
             "q < floor": q < sf._FLOOR}
    for name, band in bands.items():
        assert band.sum() >= 20, name
        assert rel[band].max() < tol, (name, rel[band].max())


class TestMpmathGrid:
    """Both tails against 40-digit mpmath in all three bands, including
    points straddling q = 1/2 and the underflow floor."""

    def test_gamma_upper(self):
        rng = np.random.default_rng(2024)
        floor = sf._FLOOR
        a_all, x_all, got = [], [], []
        for a in np.geomspace(1e-3, 1e3, 13).tolist():
            x = np.concatenate([
                sp.gammaincinv(a, 10.0 ** -rng.uniform(1, 300, 4)),
                sp.gammainccinv(a, 10.0 ** -rng.uniform(0.4, 279, 4)),
                sp.gammainccinv(a, [0.5 * (1 - 1e-6), 0.5 * (1 + 1e-6)]),
                sp.gammainccinv(a, [floor * 1.001, floor * 0.999]),
                sp.gammainccinv(a, 1e-300) * np.array([1.0, 1.1, 2.0, 10.0]),
            ])
            x = x[x > 0]
            a_all += [a] * x.size
            x_all += list(x)
            got += sf.log_regularized_gamma_upper(a, x).tolist()
        a, x = np.array(a_all), np.array(x_all)
        ref = np.array([mp_log_tail(lambda: mp.gammainc(ai, xi, mp.inf, regularized=True),
                                    lambda: mp.gammainc(ai, 0, xi, regularized=True))
                        for ai, xi in zip(a, x)])
        assert_bands_within(sp.gammaincc(a, x), np.array(got), ref)

    def test_beta_survival(self):
        # the reference is the lower tail of B_{b,a} at 1 - x, taken exactly:
        # mpmath's betainc(a, b, x, 1) is wrong near x = 1
        rng = np.random.default_rng(2025)
        floor = sf._FLOOR
        cols, got = [], []
        for a in np.geomspace(1e-2, 1e2, 7).tolist():
            for b in np.geomspace(1e-2, 1e2, 7).tolist():
                x = np.concatenate([
                    sp.betaincinv(a, b, 10.0 ** -rng.uniform(1, 300, 2)),
                    sp.betainccinv(a, b, 10.0 ** -rng.uniform(0.4, 279, 2)),
                    sp.betainccinv(a, b, [0.5 * (1 - 1e-6), 0.5 * (1 + 1e-6)]),
                    sp.betainccinv(a, b, [floor * 1.001, floor * 0.999]),
                    1.0 - 10.0 ** -np.arange(1, 16),
                ])
                x = x[(x > 0) & (x < 1)]
                got += sf.log_beta_survival(a, b, x).tolist()
                cols.append(np.stack([np.full(x.size, a), np.full(x.size, b), x]))
        a, b, x = np.concatenate(cols, axis=1)
        ref = np.array([mp_log_tail(
            lambda: mp.betainc(bi, ai, 0, mp.fsub(1, xi, exact=True), regularized=True),
            lambda: mp.betainc(ai, bi, 0, xi, regularized=True))
            for ai, bi, xi in zip(a, b, x)])
        assert_bands_within(sp.betaincc(a, b, x), np.array(got), ref)
