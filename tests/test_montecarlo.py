"""Tests for the simulation and quadrature verification engines."""

import math

import numpy as np
import pytest

import dirtail as dt
from dirtail import BetaLaw, GammaLaw
from dirtail.errors import DomainError, ValidationError
from dirtail.montecarlo import CHUNK, NormingConstants

GAMMA21 = GammaLaw(2, 1)
KOTZ2 = dt.validate_spec([1, 1], [1, 1], 1.0, GAMMA21)          # iid Exp(1) pair
REGIME_A = dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21)


class HalfGamma(GammaLaw):
    """Gamma survival halved: a sub-law with an atom of mass 1/2 at zero."""

    def log_survival(self, u):
        return math.log(0.5) + super().log_survival(u)


class TestSampleDirichlet:
    def test_row_sums_equal_radius(self):
        spec = dt.validate_spec([1, 2, 0.5], [1, 0.7, 0.1], 1.0, GAMMA21)
        x, r = dt.sample_dirichlet(spec, 5000, seed=7, return_radius=True)
        np.testing.assert_allclose(x.sum(axis=1), r, rtol=1e-12)
        assert np.all(x >= 0)

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

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            dt.sample_dirichlet(KOTZ2, 10, seed=-1)
        with pytest.raises(ValidationError):
            dt.sample_dirichlet(KOTZ2, 10, seed=1.5)


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
        # with all weights one and p = 1 the aggregate *is* the radius
        spec = dt.validate_spec([1, 1], [1, 1], 1.0, GAMMA21)
        est = dt.quadrature_tail(spec, 10.0)
        assert est.p_hat == pytest.approx(11 * math.exp(-10), rel=1e-9)
        assert est.stderr == 0.0 and est.method == "quadrature"

    def test_d1_exact(self):
        spec = dt.validate_spec([2.0], [1.0], 2.0, GAMMA21)
        est = dt.quadrature_tail(spec, 49.0)
        assert est.log_p_hat == pytest.approx(GAMMA21.log_survival(7.0), rel=1e-12)

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

    def test_dimension_cap(self):
        spec = dt.validate_spec([1, 1, 1, 1], [1, 1, 1, 1], 2.0, GAMMA21)
        with pytest.raises(DomainError):
            dt.quadrature_tail(spec, 5.0)


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
        assert table[0, 2] <= 0.05

    def test_small_power_columns_decreasing(self):
        # p = 1/2: columns need unit 2-norm and (to invert the level from
        # the small-power asymptotic) strictly positive entries
        weights = [[0.8, 0.6], [0.6, 0.8]]
        table = dt.pairwise_asymindep([1.0, 1.0], weights, 0.5, GAMMA21,
                                      0, 1, [10 ** 2, 10 ** 3, 10 ** 4],
                                      2 * 10 ** 5, seed=71)
        ratios = table[:, 2]
        assert ratios[0] > ratios[1] > ratios[2]

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


class TestGumbelLimitCheck:
    def test_exponential_blocks(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        table = dt.gumbel_limit_check(spec, 1000, 3000, [-1.0, 0.0, 2.0], seed=89)
        for x, emp, limit in table:
            assert abs(emp - limit) <= 0.05


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
            u = spec.radial.quantile_survival(depth)
            t = asym.base_to_threshold(u)
            est = dt.quadrature_tail(spec, t)
            gaps.append(abs(math.exp(asym.evaluate_log(t) - est.log_p_hat) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1


class TestEstimateRecord:
    def test_json_fields(self):
        est = dt.conditional_mc_tail(REGIME_A, 20.0, 1000, seed=97)
        doc = est.to_json()
        assert set(doc) == {"method", "seed", "n", "p_hat", "log_p_hat", "stderr"}
        assert doc["method"] == "conditional" and doc["seed"] == 97 and doc["n"] == 1000
