"""Tests for the aggregation tail asymptotics.

Constants with hand derivations are asserted at machine precision; the
simplex recursion is additionally pinned by a live quadrature oracle built
only from scipy primitives (root-finding the exceedance interval of the
two-term mixture and integrating the Beta split variable), which shares
nothing with the implementation path it checks.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

import dirtail as dt
from dirtail import BetaLaw, GammaLaw, UnitGumbel, WeibullTail
from dirtail.aggtail import TailAsymptotic
from dirtail.errors import (DirtailError, DomainError, NumericError, ValidationError,
                            WrongRegimeError)

GAMMA21 = GammaLaw(2, 1)


def asymptotic_in(regime, spec):
    """tail_asymptotic(spec), after checking that it records `regime`."""
    asym = dt.tail_asymptotic(spec)
    assert asym.regime == regime
    return asym


class TestValidateSpec:
    # the unit-weight block (multiplicity m, largest alpha ahat and its count m*)
    # shows in tail_asymptotic's log K and rho
    def test_normalization_and_multiplicity(self):
        spec = dt.validate_spec([1, 2], [3.0, 1.5], 2.0, GAMMA21)
        assert spec.lam == (1.0, 0.5)
        assert spec.scale == 3.0
        asym = asymptotic_in("a", spec)  # m = 1, ahat = 1, m* = 1
        assert asym.log_constant == pytest.approx(math.lgamma(3.0) - math.lgamma(1.0), rel=1e-15)
        assert asym.rho == 1.0 - 3.0

    def test_all_equal_weights(self):
        spec = dt.validate_spec([1, 1, 1], [1, 1, 1], 1.0, GAMMA21)
        asym = asymptotic_in("degenerate", spec)  # m = d
        assert (asym.log_constant, asym.rho) == (0.0, 0.0)
        asym = asymptotic_in("a", dt.validate_spec([1, 1, 1], [1, 1, 1], 2.0, GAMMA21))
        assert asym.log_constant == pytest.approx(
            math.log(3.0) + math.lgamma(3.0) - math.lgamma(1.0), rel=1e-15)  # m* = 3
        assert asym.rho == 1.0 - 3.0

    def test_top_block_max_alpha(self):
        spec = dt.validate_spec([2, 1, 1], [1, 1, 0.2], 1.0, GAMMA21)
        asym = asymptotic_in("b", spec)  # m = 2: the block's alphas sum to 3, one is left out
        assert asym.log_constant == pytest.approx(
            -math.log1p(-0.2) + math.lgamma(4.0) - math.lgamma(3.0), rel=1e-15)
        assert asym.rho == -1.0
        asym = asymptotic_in("a", dt.validate_spec([2, 1, 1], [1, 1, 0.2], 2.0, GAMMA21))
        assert asym.log_constant == pytest.approx(
            math.lgamma(4.0) - math.lgamma(2.0), rel=1e-15)  # ahat = 2, m* = 1
        assert asym.rho == 2.0 - 4.0

    def test_sorting_is_joint(self):
        spec = dt.validate_spec([5, 7], [0.5, 1.0], 1.0, GAMMA21)
        assert spec.alpha == (7.0, 5.0)
        assert spec.lam == (1.0, 0.5)

    def test_weight_tolerance_flag(self):
        # the multiplicity counts weights equal to 1 exactly: m = 1, so not degenerate
        spec = dt.validate_spec([1, 1], [1.0, 1.0 - 1e-12], 1.0, GAMMA21)
        asym = asymptotic_in("b", spec)
        assert asym.log_constant == pytest.approx(
            -math.log1p(-(1.0 - 1e-12)) + math.lgamma(2.0) - math.lgamma(1.0), rel=1e-15)
        assert asym.rho == -1.0

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            dt.validate_spec([], [], 1.0, GAMMA21)
        with pytest.raises(ValidationError):
            dt.validate_spec([1, -1], [1, 1], 1.0, GAMMA21)
        with pytest.raises(ValidationError):
            dt.validate_spec([1, 1], [0.0, 0.0], 1.0, GAMMA21)
        with pytest.raises(ValidationError):
            dt.validate_spec([1, 1], [1.0], 1.0, GAMMA21)
        with pytest.raises(ValidationError):
            dt.validate_spec([1], [1], -2.0, GAMMA21)


class TestLambdaTilde:
    def test_examples(self):
        assert dt.lambda_tilde([1, 1], 0.5) == pytest.approx(math.sqrt(2), rel=1e-14)
        assert dt.lambda_tilde([1.0], 0.37) == pytest.approx(1.0, rel=1e-14)
        assert dt.lambda_tilde([1, 0.5], 0.5) == pytest.approx(math.sqrt(1.25), rel=1e-14)

    def test_exceeds_max_weight(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.integers(2, 6)
            lam = rng.uniform(0.05, 1.0, d)
            p = rng.uniform(0.05, 0.95)
            assert dt.lambda_tilde(lam, p) > lam.max()

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(0.01, 100.0), p=st.floats(0.05, 0.95))
    def test_homogeneity(self, c, p):
        lam = [1.0, 0.7, 0.3]
        left = dt.lambda_tilde([c * l for l in lam], p)
        right = c * dt.lambda_tilde(lam, p)
        assert left == pytest.approx(right, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dt.lambda_tilde([1, 0], 0.5)
        with pytest.raises(DomainError):
            dt.lambda_tilde([1, 1], 1.5)


class TestRegimeAbove1:
    def test_constants(self):
        spec = dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21)
        asym = asymptotic_in("a", spec)
        assert math.exp(asym.log_constant) == pytest.approx(2.0, rel=1e-13)
        assert asym.rho == -1.0
        spec = dt.validate_spec([2, 1], [1, 0.3], 3.0, GammaLaw(3, 1))
        asym = asymptotic_in("a", spec)
        assert math.exp(asym.log_constant) == pytest.approx(2.0, rel=1e-13)
        assert asym.rho == -1.0

    def test_d1_identity(self):
        for p in [1.5, 2.0, 7.0]:
            spec = dt.validate_spec([2.7], [1.0], p, GAMMA21)
            asym = asymptotic_in("a", spec)
            assert (asym.log_constant, asym.rho) == (0.0, 0.0)
            for t in [2.0, 30.0]:
                assert asym.evaluate_log(t) == pytest.approx(
                    GAMMA21.log_survival(t ** (1 / p)), rel=1e-13)

    def test_p_independence(self):
        base = asymptotic_in("a", dt.validate_spec([2, 1], [1, 0.3], 1.5, GAMMA21))
        for p in [2.0, 5.0, 11.0]:
            other = asymptotic_in("a", dt.validate_spec([2, 1], [1, 0.3], p, GAMMA21))
            assert other.log_constant == base.log_constant
            assert other.rho == base.rho

    def test_small_weights_do_not_matter(self):
        base = asymptotic_in("a", dt.validate_spec([1, 2, 3], [1, 0.9, 0.1], 2.0, GAMMA21))
        for eps in [0.5, 0.01]:
            other = asymptotic_in(
                "a", dt.validate_spec([1, 2, 3], [1, eps, eps / 2], 2.0, GAMMA21))
            assert other.log_constant == pytest.approx(base.log_constant, rel=1e-13)
            assert other.rho == base.rho

    def test_finite_endpoint_gumbel_family(self):
        # the theory also covers Gumbel-attracted radii with endpoint 1;
        # convergence is slower (u w(u) grows like 1/(1-u)^2)
        from dirtail import UnitGumbel
        spec = dt.validate_spec([1, 1], [1, 1], 2.0, UnitGumbel(1.0))
        asym = asymptotic_in("a", spec)
        gaps = []
        for depth in [1e-4, 1e-6, 1e-8]:
            u = UnitGumbel(1.0).quantile_survival(depth)
            est = dt.quadrature_tail(spec, u * u)
            gaps.append(abs(math.exp(asym.evaluate_log(u * u) - est.log_p_hat) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.15

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 1], 2.0, BetaLaw(1, 1)))


class TestRegimeUnitPower:
    def test_kotz_constant(self):
        spec = dt.validate_spec([1, 1], [1, 0], 1.0, GAMMA21)
        asym = asymptotic_in("b", spec)
        assert math.exp(asym.log_constant) == pytest.approx(1.0, rel=1e-13)
        assert asym.rho == -1.0

    def test_partial_weight_constant(self):
        spec = dt.validate_spec([1, 1], [1, 0.5], 1.0, GAMMA21)
        asym = asymptotic_in("b", spec)
        assert math.exp(asym.log_constant) == pytest.approx(2.0, rel=1e-13)
        assert asym.rho == -1.0

    def test_all_unit_weights_exact(self):
        spec = dt.validate_spec([1, 1, 1], [1, 1, 1], 1.0, GammaLaw(3, 1))
        asym = asymptotic_in("degenerate", spec)
        assert (asym.log_constant, asym.rho) == (0.0, 0.0)
        for t in [5.0, 26.0]:
            assert asym.evaluate_log(t) == pytest.approx(
                GammaLaw(3, 1).log_survival(t), rel=1e-13)

    def test_kotz_ratio_trends_to_one(self):
        # prediction against the exact Gamma(a1, 1) tail of the retained
        # component; the true second-order gap decays like a2/u
        for (a1, a2) in [(1.0, 1.0), (2.0, 1.0), (0.5, 1.5)]:
            radial = GammaLaw(a1 + a2, 1)
            spec = dt.validate_spec([a1, a2], [1, 0], 1.0, radial)
            asym = asymptotic_in("b", spec)
            gaps = []
            for depth in [1e-6, 1e-8, 1e-10]:
                t = radial.quantile_survival(depth)
                pred = asym.evaluate_log(t)
                exact = dt.specfun.log_regularized_gamma_upper(a1, t)
                gaps.append(abs(math.exp(pred - exact) - 1.0))
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 0.08


class TestSimplexRecursion:
    def test_d2_hand_values(self):
        geom = dt.simplex_tail_geometry([1, 1], [1, 1], 0.5)
        assert geom.theta[0] == pytest.approx(0.5, rel=1e-14)
        assert geom.curvature[0] == pytest.approx(math.sqrt(2), rel=1e-13)
        assert geom.c_tilde[0] == pytest.approx(2 ** 1.25, rel=1e-13)
        assert geom.lambda_tilde[-1] == pytest.approx(math.sqrt(2), rel=1e-14)
        assert geom.rv_index == (0.5,)

    def test_d3_equal_closed_form(self):
        # two-dimensional Laplace integral at the simplex center gives
        # exactly 16*pi/9 for the equal-weight, unit-alpha, p = 1/2 case
        geom = dt.simplex_tail_geometry([1, 1, 1], [1, 1, 1], 0.5)
        assert geom.c_tilde[-1] == pytest.approx(16 * math.pi / 9, rel=1e-12)
        assert geom.lambda_tilde_final == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_saddle_chain_identity(self):
        # h(lambda_tilde_{k-1}, theta_k) = lambda_tilde_k at every level
        alpha, lam, p = [2, 1, 0.5], [1, 0.8, 0.6], 0.4
        geom = dt.simplex_tail_geometry(alpha, lam, p)
        for k in range(2, 4):
            c = geom.lambda_tilde[k - 2]
            th = geom.theta[k - 2]
            h = c * th ** p + lam[k - 1] * (1 - th) ** p
            assert h == pytest.approx(geom.lambda_tilde[k - 1], abs=1e-10)

    def test_frozen_regression_asymmetric(self):
        # pinned by the exceedance-interval quadrature oracle (see
        # test_oracle_agreement_asymmetric) and frozen
        geom = dt.simplex_tail_geometry([2, 1, 0.5], [1, 0.8, 0.6], 0.4)
        assert geom.c_tilde[-1] == pytest.approx(5.804160392561394, rel=1e-10)
        assert geom.lambda_tilde_final == pytest.approx(1.5679771402522726, rel=1e-12)

    def test_oracle_agreement_asymmetric(self):
        # live oracle: P(Z_3 > lt - u)/u at u = 1e-6 using only scipy
        # primitives; the finite-u bias is ~1e-5 relative at this depth
        alpha, lam, p = [2.0, 1.0, 0.5], [1.0, 0.8, 0.6], 0.4
        geom = dt.simplex_tail_geometry(alpha, lam, p)
        oracle = _z3_tail_oracle(alpha, lam, p, 1e-6) / 1e-6
        assert geom.c_tilde[-1] == pytest.approx(oracle, rel=5e-4)

    def test_permutation_invariance(self):
        alpha, lam = [2, 1, 0.5], [1, 0.8, 0.6]
        results = []
        for perm in itertools.permutations(range(3)):
            geom = dt.simplex_tail_geometry([alpha[i] for i in perm],
                                            [lam[i] for i in perm], 0.4)
            results.append((geom.lambda_tilde_final, geom.c_tilde[-1]))
        lts = [r[0] for r in results]
        cts = [r[1] for r in results]
        assert (max(lts) - min(lts)) / min(lts) <= 1e-8
        assert (max(cts) - min(cts)) / min(cts) <= 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dt.simplex_tail_geometry([1], [1], 0.5)
        with pytest.raises(DomainError):
            dt.simplex_tail_geometry([1, 1], [1, 0], 0.5)
        with pytest.raises(DomainError):
            dt.simplex_tail_geometry([1, 1], [1, 1], 1.5)


class TestRegimeBelow1:
    def test_equal_case_constant_is_sqrt_pi(self):
        spec = dt.validate_spec([1, 1], [1, 1], 0.5, GAMMA21)
        asym = asymptotic_in("c", spec)
        assert math.exp(asym.log_constant) == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert asym.rho == -0.5
        assert asym.pivot == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_frozen_constant_unequal_weights(self):
        # pinned by the d = 2 tail quadrature oracle and frozen
        spec = dt.validate_spec([1, 1], [1, 0.5], 0.5, GAMMA21)
        asym = asymptotic_in("c", spec)
        assert math.exp(asym.log_constant) == pytest.approx(1.417963080724413, rel=1e-12)

    def test_d1_identity(self):
        spec = dt.validate_spec([1.3], [2.0], 0.5, GAMMA21)
        asym = asymptotic_in("c", spec)
        assert (asym.log_constant, asym.rho) == (0.0, 0.0)
        # raw threshold maps through the retained scale
        assert asym.evaluate_log(2.0 * 9.0) == pytest.approx(
            GAMMA21.log_survival(81.0), rel=1e-13)

    def test_prediction_vs_quadrature(self):
        spec = dt.validate_spec([1, 1], [1, 0.5], 0.5, GAMMA21)
        asym = asymptotic_in("c", spec)
        u = GAMMA21.quantile_survival(1e-10)
        t = asym.pivot * math.sqrt(u)
        est = dt.quadrature_tail(spec, t)
        assert math.exp(asym.evaluate_log(t) - est.log_p_hat) == pytest.approx(1.0, abs=0.06)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.01, 1 - 1e-9),
           terms=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(1e-6, 1.0)),
                          min_size=2, max_size=5))
    @example(p=1 - 1e-9, terms=[(0.1, 1.0), (10.0, 1e-3), (0.1, 0.5)])
    def test_log_constant_finite_up_to_unit_power(self, p, terms):
        # the saddle crowds an endpoint and the curvature grows like
        # exp(|log(c/lam)|/(1-p)); in log scale both stay finite
        alpha, lam = zip(*terms)
        asym = asymptotic_in("c", dt.validate_spec(alpha, lam, p, GAMMA21))
        assert math.isfinite(asym.log_constant)
        assert math.isfinite(asym.pivot) and asym.pivot >= 1.0

    @pytest.mark.parametrize("p", [1 - 1e-3, 1 - 1e-6])
    @pytest.mark.parametrize("alpha,lam", [([1, 1, 1], [1, 0.7, 0.4]), ([1, 1, 1], [1, 1, 1]),
                                           ([2, 1, 0.5], [1, 0.8, 0.6]),
                                           ([0.3, 5, 2, 1, 0.7], [1, 0.9, 0.9, 0.2, 0.05])])
    def test_near_unit_power_against_mpmath(self, alpha, lam, p):
        mp = pytest.importorskip("mpmath")
        spec = dt.validate_spec(alpha, lam, p, GAMMA21)
        asym = asymptotic_in("c", spec)
        with mp.workdps(40):
            log_k, lt = _mp_regime_c(mp, spec.alpha, spec.lam, spec.p)
        assert asym.log_constant == pytest.approx(float(log_k), rel=1e-11)
        assert asym.pivot == pytest.approx(float(lt), rel=1e-11)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0], 0.5, GAMMA21))


class TestWeibullEndpoint:
    def test_double_uniform_constant(self):
        spec = dt.validate_spec([1, 1], [1, 0], 1.0, BetaLaw(1, 1))
        asym = asymptotic_in("weibull", spec)
        assert math.exp(asym.log_constant) == pytest.approx(0.5, rel=1e-13)
        assert asym.rho == 1.0

    def test_double_uniform_against_exact_integral(self):
        spec = dt.validate_spec([1, 1], [1, 0], 1.0, BetaLaw(1, 1))
        asym = asymptotic_in("weibull", spec)
        for u in [1e-2, 1e-3]:
            pred = math.exp(asym.evaluate_log(1.0 - u))
            exact = u + (1 - u) * math.log1p(-u)
            assert pred / exact == pytest.approx(1.0, abs=u)

    def test_positive_exponent_decreases_tail(self):
        # the aggregate's tail at the endpoint must be *thinner* than the
        # radius's tail: the prediction vanishes faster than F_bar(1-u)
        spec = dt.validate_spec([1, 2], [1, 0.4], 1.0, BetaLaw(2, 3))
        asym = asymptotic_in("weibull", spec)
        assert asym.rho > 0
        for u in [1e-2, 1e-4]:
            assert asym.evaluate_log(1.0 - u) < BetaLaw(2, 3).log_survival(1.0 - u)

    def test_vanishing_radial_index_matches_simplex_constant(self):
        # gamma -> 0: the constant collapses to the pure simplex factor
        spec_template = ([1.0, 1.5], [1, 0.3], 1.0)
        asym = asymptotic_in("weibull", dt.validate_spec(*spec_template, BetaLaw(2, 1e-9)))
        abar, abar_m, a_out = 2.5, 1.0, 1.5
        want = (-a_out * math.log1p(-0.3)
                + special.gammaln(abar) - special.gammaln(abar_m)
                - special.gammaln(a_out + 1.0))
        assert asym.log_constant == pytest.approx(want, rel=1e-6)

    def test_degenerate_all_units(self):
        spec = dt.validate_spec([1, 1], [1, 1], 1.0, BetaLaw(2, 3))
        asym = asymptotic_in("degenerate", spec)
        assert (asym.log_constant, asym.rho) == (0.0, 0.0)
        assert asym.evaluate_log(0.9) == pytest.approx(BetaLaw(2, 3).log_survival(0.9), rel=1e-13)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0], 2.0, BetaLaw(1, 1)))


class TestMarginalComponentTail:
    """A single weighted component is the aggregate of a one-hot weight
    vector: P(X_i > u) ~ Gamma(abar)/Gamma(alpha_i) (u w(u))^{alpha_i-abar} F_bar(u)."""

    def test_d1_identity(self):
        asym = dt.tail_asymptotic(dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1)))
        assert asym.evaluate_log(7.0) == pytest.approx(-7.0, rel=1e-13)

    def test_kotz_pair_form(self):
        # alpha = (1,1), radius Gamma(2,1): the formula reads
        # (u w(u))^{-1} * (1+u) e^{-u} = (1 + 1/u) e^{-u}
        asym = dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0], 1.0, GAMMA21))
        for u in [5.0, 25.0]:
            want = math.log1p(1.0 / u) - u
            assert asym.evaluate_log(u) == pytest.approx(want, rel=1e-12)

    def test_exact_gamma_marginal(self):
        # alpha = (2,1), radius Gamma(3,1): X_1 ~ Gamma(2,1) exactly; the
        # prediction ratio tends to 1
        asym = dt.tail_asymptotic(dt.validate_spec([2, 1], [1, 0], 1.0, GammaLaw(3, 1)))
        gaps = []
        for depth in [1e-6, 1e-8, 1e-10]:
            u = GammaLaw(3, 1).quantile_survival(depth)
            pred = asym.evaluate_log(u)
            exact = dt.specfun.log_regularized_gamma_upper(2.0, u)
            gaps.append(abs(math.exp(pred - exact) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05


class TestVarEs:
    def test_exponential_closed_form(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        for b in [0.99, 0.999999]:
            res = dt.var_es_asymptotic(spec, b)
            assert res.var == pytest.approx(-math.log1p(-b), rel=1e-9)
            assert res.es_minus_var == pytest.approx(1.0, rel=1e-12)
            assert not res.accuracy_warning

    def test_squared_exponential(self):
        spec = dt.validate_spec([1.0], [1.0], 2.0, GammaLaw(1, 1))
        res = dt.var_es_asymptotic(spec, 1 - 1e-6)
        assert res.var == pytest.approx(math.log(1e6) ** 2, rel=1e-9)
        assert res.es_minus_var == pytest.approx(2 * math.sqrt(res.var), rel=1e-12)

    def test_levels_ordering(self):
        spec = dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21)
        r1 = dt.var_es_asymptotic(spec, 0.999)
        r2 = dt.var_es_asymptotic(spec, 0.9999)
        assert r2.var > r1.var
        assert r2.es_minus_var / r2.var < r1.es_minus_var / r1.var

    def test_accuracy_warning_and_domain(self):
        spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
        assert dt.var_es_asymptotic(spec, 0.5).accuracy_warning
        with pytest.raises(DomainError):
            dt.var_es_asymptotic(spec, 1.0)
        with pytest.raises(WrongRegimeError):
            dt.var_es_asymptotic(dt.validate_spec([1, 1], [1, 0], 1.0, BetaLaw(1, 1)), 0.99)

    def test_small_power_overflow_is_numeric_error(self):
        # at p = 1e-6, VaR / scale includes the pivot lt ~ 2.1, so (VaR / scale)^{1/p}
        # leaves the double range
        spec = dt.validate_spec([1, 1, 1], [1, 0.7, 0.4], 1e-6, GammaLaw(2.5))
        with pytest.raises(NumericError, match="overflows"):
            dt.var_es_asymptotic(spec, 0.99)


class TestRegimeClassify:
    def test_examples(self):
        assert dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21)).regime == "a"
        assert dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0.5], 1.0, GAMMA21)).regime == "b"
        assert dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0.5], 0.5, GAMMA21)).regime == "c"
        assert dt.tail_asymptotic(
            dt.validate_spec([1, 1], [1, 1], 1.0, GAMMA21)).regime == "degenerate"
        assert dt.tail_asymptotic(
            dt.validate_spec([1, 1], [1, 0.5], 1.0, BetaLaw(1, 2))).regime == "weibull"

    @pytest.mark.parametrize("p, regime", [(2.0, "a"), (1.0, "degenerate"), (0.5, "c")])
    @pytest.mark.parametrize("alpha", [1.7, 1e306])
    def test_d1_is_labelled_by_p_and_is_the_exact_law(self, p, regime, alpha):
        # the exact law needs no Gamma(alpha), which overflows at alpha = 1e306
        asym = dt.tail_asymptotic(dt.validate_spec([alpha], [2.0], p, GAMMA21))
        assert (asym.regime, asym.log_constant, asym.rho, asym.pivot) == (regime, 0.0, 0.0, 1.0)

    def test_unsupported_combinations(self):
        with pytest.raises(WrongRegimeError):
            dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0], 0.5, GAMMA21))
        with pytest.raises(WrongRegimeError):
            dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 1], 2.0, BetaLaw(1, 1)))


class TestTailAsymptoticObject:
    def test_evaluate_strictly_decreasing(self):
        spec = dt.validate_spec([1, 1], [1, 0.5], 0.5, GAMMA21)
        asym = dt.tail_asymptotic(spec)
        ts = np.linspace(1.0, 40.0, 60)
        vals = [asym.evaluate_log(t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_invert_roundtrip(self):
        for spec in [
            dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21),
            dt.validate_spec([1, 1], [1, 0.5], 0.5, GAMMA21),
            dt.validate_spec([2, 1], [1, 0.5], 1.0, GammaLaw(3, 1)),
            dt.validate_spec([1, 1], [1, 0], 1.0, BetaLaw(1, 1)),
        ]:
            asym = dt.tail_asymptotic(spec)
            for target in [-5.0, -15.0]:
                t = asym.invert(target)
                assert asym.evaluate_log(t) == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("spec", [
        dt.validate_spec([1, 1], [1, 1], 2.0, GAMMA21),                       # "a"
        dt.validate_spec([2, 1], [1, 0.5], 1.0, WeibullTail(1.5, 1)),         # "b"
        dt.validate_spec([1, 2, 0.5], [2, 1.4, 0.8], 0.5, GammaLaw(3.5, 2)),  # "c", scale 2
        dt.validate_spec([1, 1], [1, 0.7], 0.3, UnitGumbel(1.0)),              # "c", endpoint 1
    ])
    def test_depth_round_trip_on_the_gumbel_base(self, spec):
        asym = dt.tail_asymptotic(spec)
        for depth in [0.5, 1e-2, 1e-6, 1e-12, 1e-30, 1e-100]:
            t = asym.threshold_at_depth(depth)
            assert asym.depth_at(t) == pytest.approx(depth, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(case=st.tuples(
        st.sampled_from(["a", "b", "c", "endpoint"]),
        st.sampled_from(["gamma", "weibulltail", "unitgumbel"]),
        st.floats(0.3, 4.0), st.floats(0.3, 4.0),
        st.lists(st.floats(0.3, 3.0), min_size=2, max_size=4),
        st.floats(0.05, 0.95), st.floats(0.0, 1.0), st.floats(-6.0, 3.0)))
    @example(case=("a", "gamma", 2.0, 1.0, [1.0, 2.0], 0.5, 0.5, math.log10(800.0)))
    @example(case=("b", "weibulltail", 1.5, 1.0, [1.0, 2.0, 0.5], 0.3, 0.5, 3.0))
    @example(case=("c", "unitgumbel", 1.0, 1.0, [1.0, 1.0, 1.0], 0.7, 0.5, 3.0))
    @example(case=("endpoint", "gamma", 0.3125, 3.25, [0.3125, 0.3125], 0.328125, 0.0, 0.0))
    @example(case=("c", "unitgumbel", 0.3, 1.0, [1.25, 1.0], 0.5, 0.0, 3.0))
    def test_invert_roundtrip_property(self, case):
        """evaluate_log(invert(y)) == y over every family and regime, including
        targets below -745 where exp(y), and so the quantile start, underflows.

        The absolute 1e-13 covers targets near 0, where y is a sum of O(1)
        terms that cancel; it is a relative error of 1e-13 in the probability.
        Where the doubles next to t already step over that tolerance, y must
        lie between their values, as close to y as the double grid of t
        allows: at p = 0.3, u = (t/scale)^(1/p) moves about 3 ulps per ulp of
        t, so the doubles next to u = threshold_to_base(t) can both miss y.
        Near t = 0 on the endpoint base the grid of u = 1 - t/scale is the
        coarser one (y moves 1.3e-11 per ulp of u), so there the doubles next
        to u may bracket y instead.
        """
        regime, family, s1, s2, alpha, lam_min, frac, log10_depth = case
        y = -(10.0 ** log10_depth)
        lam = [1.0] + [lam_min + (1.0 - lam_min) * frac * k / len(alpha)
                       for k in range(len(alpha) - 1, 0, -1)]
        if regime == "endpoint":
            radial, p = BetaLaw(s1, s2), 1.0
        else:
            radial = {"gamma": GammaLaw(s1, s2), "weibulltail": WeibullTail(s1, s2),
                      "unitgumbel": UnitGumbel(s1)}[family]
            p = {"a": 1.2 + 2.8 * frac, "b": 1.0, "c": 0.3 + 0.6 * frac}[regime]
        asym = dt.tail_asymptotic(dt.validate_spec(alpha, lam, p, radial))
        if regime == "endpoint":
            if y >= asym.log_constant:  # the endpoint asymptotic tops out at t = 0
                with pytest.raises(DomainError):
                    asym.invert(y)
                return
            # deeper, the gap 1 - t/scale keeps too few digits in t (see ROADMAP)
            assume(y >= asym.evaluate_log(asym.scale * (1.0 - 1e-3)))
        t = asym.invert(y)
        if asym.evaluate_log(t) != pytest.approx(y, rel=1e-12, abs=1e-13):
            u = asym.threshold_to_base(t)
            brackets = ([asym.evaluate_log(math.nextafter(t, side)) for side in (0.0, math.inf)],
                        [asym._log_at_base(math.nextafter(u, side)) for side in (0.0, math.inf)])
            assert any(min(ends) <= y <= max(ends) for ends in brackets)

    def test_invert_evaluation_count(self, monkeypatch):
        """At most 20 evaluations per inversion on the benchmark's VaR levels
        and norming n, over its eight Gumbel-class specs."""
        m1 = ([1, 1, 1], [1, 0.7, 0.4])
        specs = [
            (*m1, 2.0, GammaLaw(3, 1)),
            ([1, 2, 0.5, 1, 3], [1, 1, 0.6, 0.3, 0.1], 1.5, WeibullTail(1.5, 1)),
            ([1, 2], [1, 0.5], 3.0, UnitGumbel(1)),
            (*m1, 1.0, GammaLaw(3, 1)),
            ([1, 2, 0.5, 1], [1, 1, 0.5, 0.2], 1.0, WeibullTail(0.5, 1)),
            ([0.5, 1, 1.5, 2, 0.7, 1.2, 3, 1], [1, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3], 0.5,
             GammaLaw(3, 1)),
            ([1, 2, 0.5, 1, 3], [1, 0.8, 0.6, 0.3, 0.1], 0.3, WeibullTail(2, 0.5)),
            (*m1, 0.7, UnitGumbel(2)),
        ]
        targets = ([math.log1p(-b) for b in [0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8]]
                   + [-math.log(n) for n in [1e2, 1e3, 1e4, 1e5, 1e6]])
        calls = []
        original = TailAsymptotic._log_at_base

        def counted(self, u):
            calls.append(u)
            return original(self, u)

        monkeypatch.setattr(TailAsymptotic, "_log_at_base", counted)
        for spec in specs:
            asym = dt.tail_asymptotic(dt.validate_spec(*spec))
            for y in targets:
                calls.clear()
                asym.invert(y)
                assert len(calls) <= 20, (spec, y, len(calls))

    def test_invert_next_to_finite_endpoint(self):
        asym = dt.tail_asymptotic(dt.validate_spec([1, 2], [1, 0.5], 3.0, UnitGumbel(1)))
        # base points next to u = 1 lie ~11 % apart in this asymptotic; the
        # nearest to the target is within 0.1 % of it
        assert asym.evaluate_log(asym.invert(-1e15)) == pytest.approx(-1e15, rel=1e-2)
        # the last base point below u = 1, 1 - 2**-53, only reaches -9e15
        with pytest.raises(NumericError):
            asym.invert(-1e17)

    def test_invert_unreachable(self):
        # the endpoint asymptotic is exp(K) = 0.4 at t -> 0
        asym = dt.tail_asymptotic(dt.validate_spec([1, 2], [1, 0.5], 1.0, BetaLaw(2, 3)))
        with pytest.raises(DomainError):
            asym.invert(-0.1)
        with pytest.raises(DomainError):
            asym.invert(0.0)

    def test_raw_threshold_scaling(self):
        raw = dt.validate_spec([1, 1], [4.0, 2.0], 2.0, GAMMA21)
        unit = dt.validate_spec([1, 1], [1.0, 0.5], 2.0, GAMMA21)
        for t in [40.0, 100.0]:
            assert dt.tail_asymptotic(raw).evaluate_log(t) == pytest.approx(
                dt.tail_asymptotic(unit).evaluate_log(t / 4.0), rel=1e-13)

    def test_logprob_type(self):
        asym = dt.tail_asymptotic(dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1)))
        lp = asym.evaluate(10.0)
        assert lp.log_value == pytest.approx(-10.0, rel=1e-13)
        assert lp.value == pytest.approx(math.exp(-10.0), rel=1e-12)

    @pytest.mark.parametrize("call, match", [
        (lambda: dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0.5], 30.0, WeibullTail(0.1)))
         .threshold_at_depth(1e-30), r"u\^p overflows at u=.*, p=30.0"),
        (lambda: dt.tail_asymptotic(dt.validate_spec([1, 1], [1, 0.5], 0.01, GammaLaw(2)))
         .evaluate_log(1e4), r"\^\(1/p\) overflows at t=10000.0, p=0.01"),
        (lambda: dt.norming_constants(dt.validate_spec([1, 1], [1, 1], 0.01, WeibullTail(25.0)),
                                      10 ** 15), r"u\^\(index-1\) overflows at u="),
        (lambda: dt.tail_asymptotic(dt.validate_spec([1e306, 1], [1, 0.5], 2.0, GammaLaw(2))),
         r"log Gamma\(a\) overflows at a=1e\+306"),
        # the power is finite, but not its product with a scale near the largest double
        (lambda: dt.tail_asymptotic(dt.validate_spec([1, 1], [1e308, 5e307], 1.0, GammaLaw(2)))
         .threshold_at_depth(1e-6), r"scale \* pivot \* u\^p overflows at u="),
    ], ids=["base_to_threshold", "threshold_to_base", "scaling_w", "log_gamma", "threshold"])
    def test_float_overflow_is_numeric_error(self, call, match):
        # Python's float power and math.lgamma raise OverflowError, which is no DirtailError
        with pytest.raises(NumericError, match=match):
            call()


_PARAM = st.floats(1e-3, 1e3)
#: (alpha, weight) pairs, p, the radius, a depth, and the diagnostics' x (or t), mu and c
_CLOSED_FORM_CASE = st.tuples(
    st.lists(st.tuples(_PARAM, st.one_of(st.just(1.0), st.floats(1e-300, 1.0))),
             min_size=1, max_size=4),
    st.sampled_from([1e-3, 0.01, 0.3, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 30.0]),
    st.one_of(st.builds(GammaLaw, _PARAM, _PARAM),
              st.builds(WeibullTail, st.floats(1e-2, 30.0), _PARAM),
              st.builds(BetaLaw, _PARAM, _PARAM), st.builds(UnitGumbel, _PARAM)),
    st.floats(1e-300, 0.5), st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(1.01, 10.0))


class TestClosedFormIsFiniteOrAnError:
    """Every closed-form entry point returns finite numbers or raises a DirtailError,
    over the whole range of valid-looking inputs (a bare OverflowError, a NaN or a numpy
    warning fails)."""

    @staticmethod
    def _check(call, *args):
        try:
            out = call(*args)
        except DirtailError:
            return None
        values = ([v for v in vars(out).values() if isinstance(v, float)]
                  if dataclasses.is_dataclass(out) else out)  # a record's numbers, or a table
        assert np.all(np.isfinite(values)), (call, args, out)
        return out

    @settings(max_examples=300, deadline=None)
    @given(case=_CLOSED_FORM_CASE)
    @example(case=([(1, 1), (1, 0.5)], 30.0, WeibullTail(0.1), 1e-30, 1.0, 1.0, 2.0))
    @example(case=([(1, 1), (1, 1)], 0.01, WeibullTail(25.0), 1e-15, 1.0, 1.0, 2.0))
    @example(case=([(1e3, 1), (1, 1e-300)], 2.0, GammaLaw(1e3, 1e-3), 1e-300, 1.0, 1.0, 2.0))
    def test_entry_points(self, case):
        pairs, p, radial, depth, x, mu, c = case
        self._check(radial.quantile_survival, depth)
        for mode, params in [("gumbel_ratio", {"x": x}), ("weibull_ratio", {"t": x}),
                             ("davis_resnick", {"mu": mu, "c": c})]:
            self._check(dt.mda_diagnostic, radial, mode, {**params, "depths": [depth]})
        spec = dt.validate_spec(*zip(*pairs), p, radial)
        self._check(dt.var_es_asymptotic, spec, 1.0 - depth)
        self._check(dt.norming_constants, spec, max(2, int(1.0 / depth)))
        asym = self._check(dt.tail_asymptotic, spec)
        if asym is not None and (t := self._check(asym.threshold_at_depth, depth)) is not None:
            self._check(asym.evaluate_log, t)
            self._check(asym.depth_at, t)


# ----------------------------------------------------------------------
# 40-digit reference for the p < 1 recursion
# ----------------------------------------------------------------------

def _mp_regime_c(mp, alpha, lam, p):
    """(log K, lambda_tilde) of the p < 1 asymptotic by the linear-scale Laplace
    recursion in mpmath, whose exponent range holds the saddle data at any p < 1."""
    p, alpha, lam = mp.mpf(p), [mp.mpf(a) for a in alpha], [mp.mpf(v) for v in lam]
    q, d = 1 / (1 - p), len(alpha)
    lt, prefix, c_tilde = lam[0], alpha[0], None
    for k in range(1, d):
        r = (lam[k] / lt) ** (1 / (p - 1))
        theta, comp = r / (1 + r), 1 / (1 + r)
        curv = p * (1 - p) * (lt * theta ** (p - 2) + lam[k] * comp ** (p - 2))
        g = mp.exp((prefix - 1) * mp.log(theta) + (alpha[k] - 1) * mp.log(comp)
                   + mp.loggamma(prefix + alpha[k]) - mp.loggamma(prefix) - mp.loggamma(alpha[k]))
        if k == 1:
            c_tilde = 2 ** mp.mpf(1.5) * g / mp.sqrt(curv)
        else:
            gam = mp.mpf(k - 1) / 2
            c_tilde *= (mp.sqrt(2 * mp.pi) * g / mp.sqrt(curv) * mp.gamma(gam + 1)
                        / mp.gamma(gam + mp.mpf(1.5)) * theta ** (-gam * p))
        lt = sum(v ** q for v in lam[: k + 1]) ** (1 - p)
        prefix += alpha[k]
    return (mp.loggamma(mp.mpf(d + 1) / 2) + mp.log(c_tilde)
            + mp.mpf(d - 1) / 2 * mp.log(p * lt)), lt


# ----------------------------------------------------------------------
# scipy-only oracle for the d = 3 simplex tail
# ----------------------------------------------------------------------

def _z2_tail_oracle(v, a1, a2, l1, l2, p):
    q = 1.0 / (1.0 - p)
    lt = (l1 ** q + l2 ** q) ** (1.0 - p)
    if v >= lt:
        return 0.0
    r = (l2 / l1) ** (1.0 / (p - 1.0))
    th = r / (1.0 + r)
    f = lambda b: l1 * b ** p + l2 * (1 - b) ** p - v
    if f(1e-14) >= 0 and f(1 - 1e-14) >= 0:
        return 1.0
    lo = optimize.brentq(f, 1e-14, th, xtol=1e-16) if f(1e-14) < 0 else 0.0
    hi = optimize.brentq(f, th, 1 - 1e-14, xtol=1e-16) if f(1 - 1e-14) < 0 else 1.0
    return special.betainc(a1, a2, hi) - special.betainc(a1, a2, lo)


def _z3_tail_oracle(alpha, lam, p, u):
    a1, a2, a3 = alpha
    l1, l2, l3 = lam
    q = 1.0 / (1.0 - p)
    lt2 = (l1 ** q + l2 ** q) ** (1.0 - p)
    lt3 = (l1 ** q + l2 ** q + l3 ** q) ** (1.0 - p)
    v = lt3 - u

    def inner(b3):
        if b3 <= 0.0 or b3 >= 1.0:
            return 0.0
        need = (v - l3 * (1.0 - b3) ** p) / b3 ** p
        tail = _z2_tail_oracle(need, a1, a2, l1, l2, p)
        dens = math.exp((a1 + a2 - 1) * math.log(b3) + (a3 - 1) * math.log1p(-b3)
                        - special.betaln(a1 + a2, a3))
        return tail * dens

    r3 = (l3 / lt2) ** (1.0 / (p - 1.0))
    th3 = r3 / (1.0 + r3)
    f = lambda b: lt2 * b ** p + l3 * (1 - b) ** p - v
    lo = optimize.brentq(f, 1e-12, th3, xtol=1e-15)
    hi = optimize.brentq(f, th3, 1 - 1e-12, xtol=1e-15)
    val, _ = integrate.quad(inner, lo, hi, points=[th3], limit=400,
                            epsabs=1e-18, epsrel=1e-11)
    return val
