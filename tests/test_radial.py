"""Tests for the radial-law families and the MDA diagnostics.

The limit diagnostics are checked at family-specific depths: the Davis-
Resnick and Gumbel-ratio convergence rates differ wildly between families
(a flat 1e-8 depth is nowhere near the limit for slowly thinning tails),
so each family gets a grid deep enough for its own second-order terms.
"""

import json
import math

import numpy as np
import pytest

from dirtail import BetaLaw, GammaLaw, RadialModel, UnitGumbel, WeibullTail, mda_diagnostic
from dirtail.errors import DomainError, NumericError, UnsupportedClassError, ValidationError

GUMBEL_FAMILIES = [
    GammaLaw(1, 1),
    GammaLaw(2, 1),
    GammaLaw(0.5, 2.0),
    WeibullTail(2, 0.5),
    WeibullTail(0.5, 1.0),
    UnitGumbel(1.0),
]


class TestSurvival:
    def test_examples(self):
        assert GammaLaw(1, 1).survival(1.0) == pytest.approx(math.exp(-1), rel=1e-13)
        assert BetaLaw(1, 1).survival(0.25) == pytest.approx(0.75, rel=1e-12)
        assert WeibullTail(2, 0.5).survival(2.0) == pytest.approx(math.exp(-2), rel=1e-13)
        assert UnitGumbel(1.0).survival(0.0) == pytest.approx(1.0, rel=1e-13)

    def test_beyond_endpoint(self):
        assert BetaLaw(2, 3).survival(1.0) == 0.0
        assert UnitGumbel(2.0).survival(1.0) == 0.0
        assert UnitGumbel(2.0).survival(5.0) == 0.0

    def test_monotone_non_increasing(self):
        for model in GUMBEL_FAMILIES + [BetaLaw(2, 3)]:
            hi = model.upper_endpoint if math.isfinite(model.upper_endpoint) else 50.0
            grid = np.linspace(0.0, hi - 1e-9, 200)
            vals = model.log_survival(grid)
            assert np.all(np.diff(vals) <= 1e-12)
            assert model.survival(0.0) <= 1.0

    def test_negative_argument_rejected(self):
        for model in GUMBEL_FAMILIES:
            with pytest.raises(DomainError):
                model.survival(-0.5)

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


class TestQuantile:
    def test_examples(self):
        assert GammaLaw(1, 1).quantile_survival(math.exp(-1)) == pytest.approx(1.0, rel=1e-10)
        assert BetaLaw(1, 1).quantile_survival(0.7) == pytest.approx(0.3, rel=1e-12)
        model = GammaLaw(2, 1)
        v = model.quantile_survival(0.5)
        assert model.survival(v) == pytest.approx(0.5, abs=1e-10)

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
                    assert model.survival(x) == pytest.approx(s, abs=1e-9)

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

    def test_custom_law_must_implement_sample(self):
        class SurvivalOnly(RadialModel):
            upper_endpoint = math.inf

            def log_survival(self, u):
                return -u

            def quantile_survival(self, s):
                return -math.log(s)

        with pytest.raises(TypeError):
            SurvivalOnly()


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

    def test_json_roundtrip(self):
        models = [GammaLaw(2.5, 0.7), WeibullTail(0.5, 1.2), BetaLaw(1.5, 3.0), UnitGumbel(2.0)]
        for model in models:
            again = RadialModel.from_json(json.loads(json.dumps(model.to_json())))
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

    def test_mode_errors(self):
        with pytest.raises(DomainError):
            mda_diagnostic(GammaLaw(1, 1), "davis_resnick", {"mu": 0.0, "c": 1.0})
        with pytest.raises(UnsupportedClassError):
            mda_diagnostic(BetaLaw(1, 2), "gumbel_ratio", {"x": 1.0})
        with pytest.raises(UnsupportedClassError):
            mda_diagnostic(GammaLaw(1, 1), "weibull_ratio", {"t": 2.0})
        with pytest.raises(ValidationError):
            mda_diagnostic(GammaLaw(1, 1), "nonsense", {})
        with pytest.raises(ValidationError):
            mda_diagnostic(GammaLaw(1, 1), "gumbel_ratio", {"x": 1.0, "bogus": 2})
