"""Tests for the radial-law families and the MDA diagnostics.

The limit diagnostics are checked at family-specific depths: the Davis-
Resnick and Gumbel-ratio convergence rates differ wildly between families
(a flat 1e-8 depth is nowhere near the limit for slowly thinning tails),
so each family gets a grid deep enough for its own second-order terms.
"""

import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from dirtail import BetaLaw, GammaLaw, RadialModel, UnitGumbel, WeibullTail, mda_diagnostic
from dirtail import radial, specfun
from dirtail.errors import DomainError, NumericError, UnsupportedClassError, ValidationError

GUMBEL_FAMILIES = [
    GammaLaw(1, 1),
    GammaLaw(2, 1),
    GammaLaw(0.5, 2.0),
    WeibullTail(2, 0.5),
    WeibullTail(0.5, 1.0),
    UnitGumbel(1.0),
]


def standard_gamma_row(rng, a, n):
    """n Gamma(a) draws as radial.standard_gamma makes them, every branch
    written out from numpy's primitives: the reference for its bits."""
    if a == 1.0:
        return rng.standard_exponential(n)
    if a == 2.0:
        return rng.standard_exponential(n) + rng.standard_exponential(n)
    if a == 3.0:
        e1, e2 = rng.standard_exponential(n), rng.standard_exponential(n)
        return e1 + e2 + rng.standard_exponential(n)
    if 0.05 <= a < 1.0:
        g = rng.standard_gamma(a + 1.0, n)
        return g * rng.random(n) ** (1.0 / a)
    return rng.standard_gamma(a, n)


class TestSurvival:
    def test_examples(self):
        assert math.exp(GammaLaw(1, 1).log_survival(1.0)) == pytest.approx(math.exp(-1), rel=1e-13)
        assert math.exp(BetaLaw(1, 1).log_survival(0.25)) == pytest.approx(0.75, rel=1e-12)
        assert math.exp(WeibullTail(2, 0.5).log_survival(2.0)) == pytest.approx(math.exp(-2), rel=1e-13)
        assert math.exp(UnitGumbel(1.0).log_survival(0.0)) == pytest.approx(1.0, rel=1e-13)

    def test_weibull_power_overflow_is_minus_inf(self):
        # u^index past DBL_MAX is a log survival of -inf, with no warning
        law = WeibullTail(2, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law.log_survival(1e300) == -math.inf
            assert law.log_survival(np.array([1e300, 2.0])).tolist() == [-math.inf, -2.0]
            assert law.log_survival(np.float64(1e160)) == -math.inf

    def test_beyond_endpoint(self):
        assert math.exp(BetaLaw(2, 3).log_survival(1.0)) == 0.0
        assert math.exp(UnitGumbel(2.0).log_survival(1.0)) == 0.0
        assert math.exp(UnitGumbel(2.0).log_survival(5.0)) == 0.0

    def test_monotone_non_increasing(self):
        for model in GUMBEL_FAMILIES + [BetaLaw(2, 3)]:
            hi = model.upper_endpoint if math.isfinite(model.upper_endpoint) else 50.0
            grid = np.linspace(0.0, hi - 1e-9, 200)
            vals = model.log_survival(grid)
            assert np.all(np.diff(vals) <= 1e-12)
            assert math.exp(model.log_survival(0.0)) <= 1.0

    def test_negative_argument_rejected(self):
        for model in GUMBEL_FAMILIES:
            with pytest.raises(DomainError):
                math.exp(model.log_survival(-0.5))

    @pytest.mark.parametrize("model", [GammaLaw(3, 1), WeibullTail(2, 0.5), BetaLaw(2, 3),
                                       UnitGumbel(1.0)], ids=lambda m: m.family_name)
    def test_nan_or_negative_vector_rejected(self, model):
        # the vector check is one pass for the minimum, which a NaN reaches
        for u in (np.array([0.5, math.nan, 0.2]), np.array([0.5, -1e-300]), np.array([math.nan])):
            with pytest.raises(DomainError, match=re.escape(
                    f"radius argument must be non-negative, got {u}")):
                model.log_survival(u)

    @pytest.mark.parametrize("model", [GammaLaw(2.5), BetaLaw(2, 3), UnitGumbel(1.0)],
                             ids=lambda m: m.family_name)
    def test_nan_or_negative_float_rejected(self, model):
        # the float fast paths leave these to the shared check
        for u in (math.nan, -0.5, -1e-300, -math.inf):
            with pytest.raises(DomainError, match=re.escape(
                    f"radius argument must be non-negative, got {u}")):
                model.log_survival(u)

    # per law, radii in each band of the linear tail q: q > 1/2, log q, q below
    # _FLOOR (the continued fraction), and at or past a finite endpoint
    @pytest.mark.parametrize("model, q, bands", [
        (BetaLaw(2, 3), lambda u: sp.betaincc(2, 3, u), [[0.0, 0.1], [0.7, 0.999], [], [1.0, 1.5]]),
        (BetaLaw(2, 300), lambda u: sp.betaincc(2, 300, u), [[1e-3], [0.05], [0.9, 0.999], []]),
        (GammaLaw(2.5), lambda u: sp.gammaincc(2.5, u), [[0.5], [5.0, 400.0], [700.0, 1e5], []]),
        (UnitGumbel(1.0), None, [[0.0, 1e-12, 0.3], [0.999], [], [1.0, 5.0, math.inf]]),
    ], ids=["beta23", "beta2-300", "gamma2.5", "unitgumbel"])
    def test_float_equals_array_in_every_band(self, model, q, bands):
        body, log_q, deep, past = bands
        if q is not None:
            assert all(q(u) > 0.5 for u in body)
            assert all(specfun._FLOOR <= q(u) <= 0.5 for u in log_q)
            assert all(q(u) < specfun._FLOOR for u in deep)
        for u in body + log_q + deep + past:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = model.log_survival(u)
                want = model.log_survival(np.array([u]))
            assert type(got) is float
            assert np.array(got).tobytes() == want.tobytes(), u
            assert np.array(model.log_survival(np.float64(u))).tobytes() == want.tobytes(), u
        assert all(model.log_survival(u) == -math.inf for u in past)

    def test_vectorized_matches_scalar(self):
        for model in GUMBEL_FAMILIES + [BetaLaw(1.5, 2.5)]:
            hi = 0.999 if math.isfinite(model.upper_endpoint) else 30.0
            grid = np.linspace(0.01, hi, 37)
            vec = model.log_survival(grid)
            scal = np.array([model.log_survival(float(u)) for u in grid])
            np.testing.assert_allclose(vec, scal, rtol=1e-14)

    def test_unit_gumbel_small_u_against_mpmath(self):
        # -kappa u / (1 - u) carries no cancellation at small u, where
        # kappa - kappa / (1 - u) was 1.4e-11 relative off at u = 6.4e-7
        mp = pytest.importorskip("mpmath")
        model = UnitGumbel(3.53)
        grid = [1e-12, 6.4e-7, 0.5, 0.95]
        with mp.workdps(40):
            exact = [float(-mp.mpf(3.53) * mp.mpf(u) / (1 - mp.mpf(u))) for u in grid]
        for u, want in zip(grid, exact):
            assert model.log_survival(u) == pytest.approx(want, rel=1e-14)
        np.testing.assert_allclose(model.log_survival(np.array(grid)), exact, rtol=1e-14)

    def test_gamma_float_equals_array(self):
        # a float gives a float with the 0-d array's bits; a product past the
        # double range is survival 0, quietly
        for law in (GammaLaw(3, 1), GammaLaw(2.5, 0.7), GammaLaw(2, 1e10)):
            for u in (0.0, 0.3, 2.0, 7.5, 40.0, 1e300):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = law.log_survival(u)
                assert type(got) is float
                assert got == law.log_survival(np.asarray(u))
        assert GammaLaw(2, 1e10).log_survival(1e300) == -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = GammaLaw(2, 1e10).log_survival(np.array([1e300, 1e-10]))
        assert got[0] == -math.inf and got[1] == GammaLaw(2, 1e10).log_survival(1e-10)
        with pytest.raises(DomainError):
            GammaLaw(3, 1).log_survival(math.nan)


class TestScalingFunction:
    def test_examples(self):
        for u in [0.5, 3.0, 40.0]:
            assert GammaLaw(2.5, 1.0).scaling_w(u) == 1.0
        assert WeibullTail(2, 0.5).scaling_w(3.0) == pytest.approx(3.0, rel=1e-14)
        assert UnitGumbel(1.0).scaling_w(0.5) == pytest.approx(4.0, rel=1e-14)

    def test_weibull_class_has_no_scaling(self):
        with pytest.raises(UnsupportedClassError):
            BetaLaw(1, 2).scaling_w(0.5)

    def test_power_scaling(self):
        model = GammaLaw(1, 1)
        for x in [0.5, 2.0, 9.0]:
            assert model.power_scaling_wp(1.0, x) == pytest.approx(model.scaling_w(x), rel=1e-14)
        assert GammaLaw(3, 1).power_scaling_wp(2.0, 4.0) == pytest.approx(0.25, rel=1e-14)
        # w(3) = 3 for WeibullTail(2, 0.5), so w_2(9) = 9^{-1/2} * 3 / 2
        assert WeibullTail(2, 0.5).power_scaling_wp(2.0, 9.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("model, p, x, match", [
        (GammaLaw(1, 1), 0.0, 1.0, "power must be positive"),
        (GammaLaw(1, 1), -1.0, 1.0, "power must be positive"),
        (GammaLaw(1, 1), 2.0, 0.0, "argument must be positive"),
        (GammaLaw(1, 1), 2.0, -3.0, "argument must be positive"),
        (UnitGumbel(1.0), 2.0, 1.0, "at or beyond the endpoint"),   # x^(1/p) = x_F
    ])
    def test_power_scaling_domain(self, model, p, x, match):
        with pytest.raises(DomainError, match=match):
            model.power_scaling_wp(p, x)

    def test_power_scaling_overflow_is_numeric_error(self):
        with pytest.raises(NumericError, match="overflows at x=2.1, p=1e-06"):
            GammaLaw(2.5).power_scaling_wp(1e-6, 2.1)


class TestQuantile:
    def test_examples(self):
        assert GammaLaw(1, 1).quantile_survival(math.exp(-1)) == pytest.approx(1.0, rel=1e-10)
        assert BetaLaw(1, 1).quantile_survival(0.7) == pytest.approx(0.3, rel=1e-12)
        model = GammaLaw(2, 1)
        v = model.quantile_survival(0.5)
        assert math.exp(model.log_survival(v)) == pytest.approx(0.5, abs=1e-10)

    def test_roundtrip_all_families(self):
        # |F(quantile_survival(1 - q)) - q| <= 1e-9, log-scale comparison
        # near q = 1.  BetaLaw(0.7, 0.4) is capped at q = 1 - 1e-4: with
        # tail exponent 0.4, deeper levels put 1 - x below the double-
        # precision resolution of the endpoint, which no inversion can recover.
        deep = [1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12]
        cases = [(m, deep) for m in GUMBEL_FAMILIES + [BetaLaw(2, 3)]]
        cases.append((BetaLaw(0.7, 0.4), [1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-4]))
        for model, levels in cases:
            for q in levels:
                s = 1.0 - q
                x = model.quantile_survival(s)
                if s <= 1e-6:
                    got = model.log_survival(x)
                    assert got == pytest.approx(math.log(s), rel=1e-9)
                else:
                    assert math.exp(model.log_survival(x)) == pytest.approx(s, abs=1e-9)

    def test_survival_quantile_deep(self):
        for model in GUMBEL_FAMILIES:
            for s in [1e-8, 1e-40, 1e-120]:
                x = model.quantile_survival(s)
                assert model.log_survival(x) == pytest.approx(math.log(s), rel=1e-9)

    def test_domain(self):
        for model in GUMBEL_FAMILIES + [BetaLaw(2, 3)]:
            for s in [0.0, 1.0]:
                with pytest.raises(DomainError):
                    model.quantile_survival(s)

    @pytest.mark.parametrize("model", [WeibullTail(index=1e-300), WeibullTail(1.0, 1e-310)],
                             ids=["tiny-index", "tiny-scale"])
    @pytest.mark.parametrize("level", [1e-6, 0.01, np.array([0.5, 1e-6])])
    def test_weibull_quantile_overflow_is_numeric_error(self, model, level):
        # (-log s / scale)^(1/index) passes DBL_MAX: an error, not an inf radius and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="quantile at level .* overflows"):
                model.quantile_survival(level)

    @pytest.mark.parametrize("model, level", [
        (GammaLaw(1e308, 1e-308), 1e-6),      # past DBL_MAX in the division by the rate
        (GammaLaw(1e308, 1e-308), np.array([0.5, 1e-6])),
        (BetaLaw(1e306, 2), 0.5),             # scipy's inverse gives NaN
    ])
    def test_non_finite_quantile_is_numeric_error(self, model, level):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="quantile at level .* is not a finite number"):
                model.quantile_survival(level)

    @pytest.mark.parametrize("model", [GammaLaw(3, 1), WeibullTail(2, 0.5), BetaLaw(2, 3),
                                       UnitGumbel(1.0)], ids=lambda m: m.family_name)
    def test_nan_level_rejected(self, model):
        # a NaN level fails both range comparisons, on the vector path too
        with pytest.raises(DomainError):
            model.quantile_survival(math.nan)
        with pytest.raises(DomainError):
            model.quantile_survival(np.array([math.nan, 0.5]))


class TestSample:
    N = 2 * 10 ** 5

    @pytest.mark.parametrize("model", GUMBEL_FAMILIES + [BetaLaw(2, 3), BetaLaw(0.7, 0.4)],
                             ids=repr)
    def test_exceedance_frequencies(self, model):
        # the empirical P(R > u) at the survival quantile of s is s, within
        # 5 binomial standard errors
        r = model.sample(np.random.default_rng(2024), self.N)
        assert r.shape == (self.N,)
        assert np.all(np.isfinite(r))
        assert np.all((r >= 0) & (r <= model.upper_endpoint))
        for s in [0.5, 1e-2, 1e-3]:
            freq = np.count_nonzero(r > model.quantile_survival(s)) / self.N
            assert abs(freq - s) <= 5 * math.sqrt(s * (1 - s) / self.N), s

    def test_gamma_draws_are_standard_gamma_over_rate(self):
        # radial.standard_gamma's draws, one law per branch: rate 1 skips the
        # division, another rate divides in place: the same bits
        for law in (GammaLaw(3, 1), GammaLaw(2.5, 0.7), GammaLaw(1, 1), GammaLaw(2, 0.3),
                    GammaLaw(0.3, 2.0), GammaLaw(0.01, 1.5)):
            got = law.sample(np.random.default_rng(7), 1000)
            want = standard_gamma_row(np.random.default_rng(7), law.shape, 1000) / law.rate
            assert got.tobytes() == want.tobytes()

    def test_gamma_stream_fingerprint(self):
        # the sha256 of GammaLaw's draws at seed 1: a change to how radii are
        # drawn fails here and has to be declared.  The boost runs at 0.5,
        # whose U^2 is a plain square on every CPU
        fingerprints = {
            3.0: "3dd7e02a35a6c1068b4d3305fd8be0dc98dc2c24cb39aeaf5b6ff4bc02758cec",
            0.5: "e0616d3f4509a00588aeea3a1f08cd7d6149fda8ab3ba4dab643d2b873b493ae",
        }
        for shape, digest in fingerprints.items():
            r = GammaLaw(shape).sample(np.random.default_rng(1), 1 << 16)
            assert hashlib.sha256(r.tobytes()).hexdigest() == digest, shape

    def test_weibull_draws_keep_their_bits(self):
        # the overflow bound binds for index 0.009 (e^(709 * 0.009) < 745) but
        # no draw reaches it: the checked draws equal the unchecked formula
        for law in (WeibullTail(2, 0.5), WeibullTail(0.009, 1.0)):
            got = law.sample(np.random.default_rng(11), 1000)
            e = np.random.default_rng(11).exponential(size=1000)
            assert got.tobytes() == ((e / law.scale) ** (1.0 / law.index)).tobytes()

    def test_weibull_overflowing_draw_is_numeric_error(self):
        # with index 1e-3 an exponential draw above e^0.709 ~ 2.03 is a radius
        # past e^709: an error before the power, not an inf radius and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="draw overflows"):
                WeibullTail(index=0.001).sample(np.random.default_rng(3), 1000)
            assert WeibullTail(index=0.001).sample(np.random.default_rng(3), 0).size == 0

    def test_custom_law_must_implement_sample(self):
        class SurvivalOnly(RadialModel):
            upper_endpoint = math.inf

            def log_survival(self, u):
                return -u

            def quantile_survival(self, s):
                return -math.log(s)

        with pytest.raises(TypeError):
            SurvivalOnly()


class TestStandardGamma:
    """radial.standard_gamma: one exact method per shape."""

    N = 2 * 10 ** 5
    SHAPES = [0.04, 0.05, 0.3, 0.5, 0.999, 1.0, 2.0, 3.0, 3.5]

    @pytest.mark.parametrize("a", SHAPES)
    def test_law_is_gamma(self, a):
        # every branch against scipy's Gamma(a): a KS test, and the mean and
        # variance within 5 standard errors of a (the variance's from the
        # fourth moment, 3 a^2 + 6 a)
        g = radial.standard_gamma(np.random.default_rng(31), a, np.empty(self.N))
        assert stats.kstest(g, stats.gamma(a).cdf).pvalue > 1e-4
        assert abs(g.mean() - a) <= 5 * math.sqrt(a / self.N)
        assert abs(g.var() - a) <= 5 * a * math.sqrt((2 + 6 / a) / self.N)

    @pytest.mark.parametrize("a", SHAPES)
    def test_bits_and_stream_position_equal_the_row_form(self, a):
        # with or without a scratch row, the draws and the stream position
        # after them equal the row form's
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for scratch in (None, np.empty(1000)):
            out = np.empty(1000)
            assert radial.standard_gamma(rng, a, out, scratch) is out
            assert out.tobytes() == standard_gamma_row(ref, a, 1000).tobytes()
        assert rng.random() == ref.random()


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            GammaLaw(0.0, 1.0)
        with pytest.raises(ValidationError):
            WeibullTail(1.0, -2.0)
        with pytest.raises(ValidationError):
            BetaLaw(1.0, 0.0)
        with pytest.raises(ValidationError):
            UnitGumbel(0.0)

    @pytest.mark.parametrize("family, params", [
        ("gamma", {"shape": math.inf}), ("gamma", {"shape": 2.0, "rate": math.inf}),
        ("gamma", {"shape": math.nan}), ("weibulltail", {"index": math.inf}),
        ("weibulltail", {"index": 2.0, "scale": math.inf}), ("beta", {"a": math.inf, "b": 2.0}),
        ("beta", {"a": 2.0, "b": math.inf}), ("unitgumbel", {"kappa": math.inf}),
    ])
    def test_non_finite_parameters(self, family, params):
        # JSON Infinity parses to a float: every law needs positive, finite parameters
        with pytest.raises(ValidationError, match="positive and finite"):
            RadialModel.from_json(json.loads(json.dumps({"family": family, "params": params})))

    def test_json_roundtrip(self):
        models = [GammaLaw(2.5, 0.7), WeibullTail(0.5, 1.2), BetaLaw(1.5, 3.0), UnitGumbel(2.0)]
        for model in models:
            doc = {"family": model.family_name, "params": dataclasses.asdict(model)}
            again = RadialModel.from_json(json.loads(json.dumps(doc)))
            assert again == model

    def test_json_errors(self):
        with pytest.raises(ValidationError):
            RadialModel.from_json({"params": {}})
        with pytest.raises(ValidationError):
            RadialModel.from_json({"family": "cauchy", "params": {}})
        with pytest.raises(ValidationError):
            RadialModel.from_json({"family": "gamma", "params": {"nope": 1}})


class TestMdaDiagnostics:
    def test_gumbel_ratio_memoryless_exact(self):
        table = mda_diagnostic(GammaLaw(1, 1), "gumbel_ratio", {"x": 1.0})
        np.testing.assert_allclose(table[:, 1], math.exp(-1), rtol=1e-12)

    def test_gumbel_ratio_convergence(self):
        # second-order corrections differ per family; depth chosen so the
        # worst x = 2 case sits inside the 0.01 band
        cases = [
            (GammaLaw(1, 1), 1e-8),
            (GammaLaw(2, 1), 1e-16),
            (WeibullTail(2, 0.5), 1e-8),
            (WeibullTail(0.5, 1.0), 1e-14),
            (UnitGumbel(1.0), 1e-25),
        ]
        for model, depth in cases:
            for x in [0.5, 1.0, 2.0]:
                table = mda_diagnostic(model, "gumbel_ratio", {"x": x, "depths": [depth]})
                assert abs(table[0, 1] - math.exp(-x)) <= 0.01, (model, x)

    def test_weibull_ratio_beta12_exact(self):
        # survival of Beta(1,2) is (1-x)^2, so the ratio is exactly t^2 up to
        # the double rounding of the 1 - t*u arguments themselves
        table = mda_diagnostic(BetaLaw(1, 2), "weibull_ratio", {"t": 2.0})
        np.testing.assert_allclose(table[:, 1], 4.0, rtol=1e-5)

    def test_weibull_ratio_convergence(self):
        for model in [BetaLaw(2, 3), BetaLaw(0.5, 1.5)]:
            for t in [0.5, 2.0]:
                table = mda_diagnostic(model, "weibull_ratio",
                                       {"t": t, "depths": [1e-4, 1e-5]})
                for _u, ratio in table:
                    assert abs(ratio - t ** model.weibull_index) <= 0.01

    def test_davis_resnick_closed_form(self):
        # Gamma(1,1), mu=1, c=2: (u*1)^1 * e^{-2u}/e^{-u} = u e^{-u}
        table = mda_diagnostic(GammaLaw(1, 1), "davis_resnick",
                               {"mu": 1.0, "c": 2.0, "depths": [1e-2, 1e-4, 1e-6]})
        for u, ratio in table:
            assert ratio == pytest.approx(u * math.exp(-u), rel=1e-10)

    def test_davis_resnick_vanishes(self):
        # depth grids per family: positive mu with a slowly growing u*w(u)
        # needs extremely deep levels before the ratio dips below 1e-6
        grids = {
            GammaLaw(1, 1): np.geomspace(1e-4, 1e-115, 12),
            GammaLaw(2, 1): np.geomspace(1e-4, 1e-115, 12),
            WeibullTail(2, 0.5): np.geomspace(1e-4, 1e-62, 12),
            WeibullTail(0.5, 1.0): np.geomspace(1e-4, 1e-270, 14),
            UnitGumbel(1.0): np.geomspace(1e-2, 1e-8, 7),
        }
        for model, depths in grids.items():
            for mu in [-2.0, 0.0, 2.0]:
                for c in [1.1, 2.0]:
                    table = mda_diagnostic(model, "davis_resnick",
                                           {"mu": mu, "c": c, "depths": list(depths)})
                    ratios = table[:, 1]
                    assert ratios[-1] < 1e-6, (model, mu, c, ratios[-1])
                    tail = ratios[-4:]
                    assert np.all(np.diff(tail) <= 0), (model, mu, c, tail)

    def test_davis_resnick_overflow_raises(self):
        # mu = 400 puts the log ratio near 750, past the largest double
        with pytest.raises(NumericError):
            mda_diagnostic(GammaLaw(2, 1), "davis_resnick",
                           {"mu": 400.0, "c": 2.0, "depths": [1e-2, 1e-10]})

    @pytest.mark.parametrize("law, t, depth", [(BetaLaw(1, 2), 2.0, 1e-17),
                                               (BetaLaw(2, 3), 0.5, 1e-16)])
    def test_weibull_ratio_at_the_endpoint_raises(self, law, t, depth):
        # 1 - t*u (and at 1e-17 also 1 - u) rounds to 1, where the survival is
        # 0: the ratio would be a silent NaN or 0
        with pytest.raises(NumericError, match=re.escape("1 - t*u or 1 - u rounds to 1")):
            mda_diagnostic(law, "weibull_ratio", {"t": t, "depths": [1e-2, depth]})

    def test_non_finite_quantile_raises(self):
        with pytest.raises(NumericError, match="not a finite number"):
            mda_diagnostic(GammaLaw(1e308, 1e-308), "gumbel_ratio", {"x": 1.0, "depths": [1e-6]})

    def test_weibull_ratio_skips_depths_past_the_origin(self):
        # t * u >= 1 would ask for F_bar at or below 0: those depths are left out
        table = mda_diagnostic(BetaLaw(1, 2), "weibull_ratio",
                               {"t": 4.0, "depths": [0.5, 0.25, 0.1, 1e-3]})
        np.testing.assert_array_equal(table[:, 0], [0.1, 1e-3])

    def test_mode_errors(self):
        with pytest.raises(DomainError):
            mda_diagnostic(GammaLaw(1, 1), "davis_resnick", {"mu": 0.0, "c": 1.0})
        with pytest.raises(UnsupportedClassError):
            mda_diagnostic(BetaLaw(1, 2), "davis_resnick", {"mu": 0.0, "c": 2.0})
        for t in [0.0, -1.0]:
            with pytest.raises(DomainError, match="weibull_ratio needs t > 0"):
                mda_diagnostic(BetaLaw(1, 2), "weibull_ratio", {"t": t})
        with pytest.raises(ValidationError, match="unknown diagnostic parameters"):
            mda_diagnostic(BetaLaw(1, 2), "weibull_ratio", {"t": 2.0, "x": 1.0})
        with pytest.raises(UnsupportedClassError):
            mda_diagnostic(BetaLaw(1, 2), "gumbel_ratio", {"x": 1.0})
        with pytest.raises(UnsupportedClassError):
            mda_diagnostic(GammaLaw(1, 1), "weibull_ratio", {"t": 2.0})
        with pytest.raises(ValidationError):
            mda_diagnostic(GammaLaw(1, 1), "nonsense", {})
        with pytest.raises(ValidationError):
            mda_diagnostic(GammaLaw(1, 1), "gumbel_ratio", {"x": 1.0, "bogus": 2})
