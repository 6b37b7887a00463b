"""Tests for the product-tail lemmas and the saddle-point mixture constants.

The product-tail lemmas behind the simplex recursion are stated here as
first-order formulas (no library code computes them) and checked against
exact values and quadrature.  The asymptotic-equivalence claims (dominance
of the endpoint-reaching part, additivity of two endpoint-reaching parts,
the sqrt(u) mixture tails) are verified against direct quadrature built
from scipy primitives, which shares no code with the implementation under
test.
"""

import math

import pytest
from scipy import integrate, optimize, special

from dirtail import GammaLaw, tail_asymptotic, validate_spec
from dirtail.errors import DomainError
from dirtail.producttail import mixture_tail_constant_c, mixture_tail_constant_d, saddle_geometry


def beta_sf(a, b, x):
    if x <= 0:
        return 1.0
    if x >= 1:
        return 0.0
    return special.betainc(b, a, 1 - x)


def beta_pdf(a, b, x):
    return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                    - special.betaln(a, b))


def beta_power_tail_asym(a, b, p, u):
    """First-order tail of a powered Beta variable near 1:

    P(B_{a,b}^p > 1-u) ~ Gamma(a+b) / (p^b Gamma(a) Gamma(b+1)) * u^b.
    """
    return math.exp(special.gammaln(a + b) - b * math.log(p) - special.gammaln(a)
                    - special.gammaln(b + 1.0) + b * math.log(u))


def product_tail_gumbel(beta, big_l, radial, u):
    """log of the first-order tail of S*Y at a Gumbel-attracted Y:

    P(S*Y > u) ~ Gamma(beta+1) * P(S > 1 - 1/(u*w(u))) * P(Y > u),

    where P(S > 1-eps) = big_l * eps^beta.
    """
    uw = u * radial.scaling_w(u)
    return (special.gammaln(beta + 1.0) + math.log(big_l) - beta * math.log(uw)
            + radial.log_survival(u))


def product_tail_weibull(beta, gamma, lam, tails_at):
    """log of the near-endpoint tail of the shifted product of two
    endpoint-1 factors, given tails_at = (P(S > 1-1/u), P(Y > 1-1/u)):

    constant * P(S > 1-1/u) * P(Y > 1-1/u), with
    constant = (1-lam)^gamma * Gamma(beta+1)*Gamma(gamma+1)/Gamma(beta+gamma+1).
    """
    p_s, p_y = tails_at
    return (gamma * math.log1p(-lam) + special.gammaln(beta + 1.0)
            + special.gammaln(gamma + 1.0) - special.gammaln(beta + gamma + 1.0)
            + math.log(p_s) + math.log(p_y))


class TestSaddleGeometry:
    def test_symmetric_case(self):
        g = saddle_geometry(1.0, 1.0, 0.5)
        assert g.theta == pytest.approx(0.5, rel=1e-14)
        assert g.theta_tilde == pytest.approx(math.sqrt(2), rel=1e-14)
        assert g.curvature == pytest.approx(math.sqrt(2), rel=1e-13)

    def test_stationarity(self):
        # h'(theta) = 0 within 1e-12 across a parameter sweep (using the
        # stored complement: near-endpoint saddles have no representable
        # complement through the bare difference)
        for c in [0.3, 1.0, 2.5]:
            for lam in [0.2, 1.0, 1.7]:
                for p in [0.2, 0.5, 0.8]:
                    g = saddle_geometry(c, lam, p)
                    complement = math.exp(g.log_theta_complement)
                    h1 = (p * g.theta ** (p - 1) * c - p * lam * complement ** (p - 1))
                    scale = p * c * g.theta ** (p - 1)
                    assert abs(h1) <= 1e-12 * max(1.0, abs(scale))
                    assert g.theta + complement == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_second_weight(self):
        # as lam -> 0 the maximum moves to the c-side endpoint: theta -> 1
        # and the attained maximum tends to c
        g = saddle_geometry(1.0, 1e-8, 0.5)
        assert g.theta > 0.999999
        assert g.theta_tilde == pytest.approx(1.0, abs=1e-7)

    def test_swap_symmetry(self):
        a = saddle_geometry(1.3, 0.4, 0.35)
        b = saddle_geometry(0.4, 1.3, 0.35)
        assert a.theta_tilde == pytest.approx(b.theta_tilde, rel=1e-14)
        assert a.theta == pytest.approx(1 - b.theta, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            saddle_geometry(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            saddle_geometry(1.0, 1.0, 1.5)


class TestBetaPowerTailAsym:
    def test_uniform_cases(self):
        for u in [1e-2, 1e-4]:
            assert beta_power_tail_asym(1, 1, 1, u) == pytest.approx(u, rel=1e-12)
            assert beta_power_tail_asym(1, 2, 1, u) == pytest.approx(u * u, rel=1e-12)
            # exact P(B^2 > 1-u) = 1 - sqrt(1-u) ~ u/2 for uniform B
            assert beta_power_tail_asym(1, 1, 2, u) == pytest.approx(u / 2, rel=1e-12)

    def test_matches_exact_uniform_power(self):
        u = 1e-6
        exact = 1 - math.sqrt(1 - u)
        assert beta_power_tail_asym(1, 1, 2, u) == pytest.approx(exact, rel=1e-6)


class TestProductTailGumbel:
    def test_uniform_times_exponential(self):
        # S uniform (beta=1, L=1), Y ~ Exp(1): prediction e^{-u}/u;
        # exact P(SY > u) = e^{-u} - u*E1(u)
        y = GammaLaw(1, 1)
        ratios = []
        for u in [30.0, 60.0, 120.0]:
            pred = product_tail_gumbel(1.0, 1.0, y, u)
            exact = math.log(math.exp(-u) - u * special.exp1(u))
            assert pred == pytest.approx(-u - math.log(u), rel=1e-12)
            ratios.append(math.exp(pred - exact))
        gaps = [abs(r - 1) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02

    def test_degenerate_index(self):
        # beta = 0 with constant mass c0 at the endpoint: prediction c0 * F_bar
        y = GammaLaw(2, 1)
        u = 25.0
        pred = product_tail_gumbel(0.0, 0.25, y, u)
        assert pred == pytest.approx(math.log(0.25) + y.log_survival(u), rel=1e-13)

    def test_matches_marginal_component_tail(self):
        # S ~ Beta(a, beta) with L = Gamma(a+beta)/(Gamma(a)Gamma(beta+1))
        # reproduces the component-tail formula, the aggregate of a one-hot
        # weight vector, exactly
        radial = GammaLaw(2, 1)
        spec = validate_spec([1.0, 1.0], [1.0, 0.0], 1.0, radial)
        a_i = spec.alpha[0]
        beta = spec.alpha_bar - a_i
        big_l = math.exp(special.gammaln(a_i + beta) - special.gammaln(a_i)
                         - special.gammaln(beta + 1))
        marg = tail_asymptotic(spec)
        for u in [5.0, 15.0, 30.0]:
            assert product_tail_gumbel(beta, big_l, radial, u) == pytest.approx(
                marg.evaluate_log(u), rel=1e-12)

    def test_quadrature_convergence_beta_times_gamma(self):
        # prediction/quadrature -> 1, monotone on the sampled grid; the
        # second-order gap decays like 1/u, so the grid must go deep (the
        # conditional representation keeps the quadrature exact there)
        a, beta = 2.0, 1.5
        y = GammaLaw(2, 1)
        big_l = math.exp(special.gammaln(a + beta) - special.gammaln(a)
                         - special.gammaln(beta + 1))
        gaps = []
        for depth in [1e-8, 1e-30, 1e-120]:
            u = y.quantile_survival(depth)
            def integrand(s):
                return beta_pdf(a, beta, s) * special.gammaincc(2, u / s)
            exact, _ = integrate.quad(integrand, 0, 1, limit=400,
                                      epsabs=1e-280, epsrel=1e-11)
            pred = product_tail_gumbel(beta, big_l, y, u)
            gaps.append(abs(math.exp(pred - math.log(exact)) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.015


class TestProductTailWeibull:
    def test_double_uniform(self):
        # beta = gamma = 1, lam = 0: constant 1/2; exact tail of a product of
        # two uniforms is eps + (1-eps)ln(1-eps) ~ eps^2/2
        for eps in [1e-2, 1e-3]:
            got = product_tail_weibull(1.0, 1.0, 0.0, (eps, eps))
            assert got == pytest.approx(math.log(0.5 * eps * eps), rel=1e-12)
            exact = eps + (1 - eps) * math.log1p(-eps)
            assert math.exp(got) / exact == pytest.approx(1.0, abs=2 * eps)

    def test_gamma_zero_reduction(self):
        # gamma = 0 leaves only the Gamma(beta+1) cancellation: factor 1
        got = product_tail_weibull(2.0, 0.0, 0.7, (1e-3, 0.5))
        assert got == pytest.approx(math.log(1e-3 * 0.5), rel=1e-12)

    def test_shift_factor(self):
        # (1-lam)^gamma: lam = -1, gamma = 1 doubles the lam = 0 value
        base = product_tail_weibull(1.0, 1.0, 0.0, (1e-3, 1e-3))
        shifted = product_tail_weibull(1.0, 1.0, -1.0, (1e-3, 1e-3))
        assert shifted - base == pytest.approx(math.log(2.0), rel=1e-12)


class TestMixtureConstants:
    # both constants take log g(theta) and return the log of the prefactor
    def test_hand_values(self):
        g = saddle_geometry(1.0, 1.0, 0.5)
        assert math.exp(mixture_tail_constant_c(0.0, g)) == pytest.approx(2 ** 1.25, rel=1e-13)
        # gamma = 1/2 at the symmetric saddle: sqrt(2*pi)*sqrt(pi)/2 = pi/sqrt(2)
        assert math.exp(mixture_tail_constant_d(0.0, g, 0.5)) == pytest.approx(
            math.pi / math.sqrt(2), rel=1e-13)

    def test_density_linearity(self):
        g = saddle_geometry(1.0, 0.5, 0.3)
        assert math.exp(mixture_tail_constant_c(math.log(2.0), g)) == pytest.approx(
            2 * math.exp(mixture_tail_constant_c(0.0, g)), rel=1e-14)

    def test_gamma_to_zero_seam(self):
        # constant_d converges to constant_c as the factor's index vanishes
        # and equals it at gamma = 0: sqrt(2 pi) Gamma(1) / Gamma(3/2) = 2^{3/2}
        g = saddle_geometry(1.0, 0.5, 0.3)
        c_val = math.exp(mixture_tail_constant_c(math.log(1.3), g))
        d_val = math.exp(mixture_tail_constant_d(math.log(1.3), g, 1e-8))
        assert abs(d_val / c_val - 1.0) <= 1e-6
        assert mixture_tail_constant_d(math.log(1.3), g, 0.0) == pytest.approx(
            1.5 * math.log(2.0) + math.log(1.3) - 0.5 * math.log(g.curvature), rel=1e-15)

    def test_constant_c_against_quadrature(self):
        # B ~ Beta(2,2), c = 1, lam = 0.5, p = 0.3: the exceedance set of the
        # mixture is an interval around theta whose Beta probability is exact
        a, b = 2.0, 2.0
        c, lam, p = 1.0, 0.5, 0.3
        geom = saddle_geometry(c, lam, p)
        const = math.exp(mixture_tail_constant_c(math.log(beta_pdf(a, b, geom.theta)), geom))

        def h(x):
            return c * x ** p + lam * (1 - x) ** p

        gaps = []
        for u in [1e-4, 1e-6, 1e-8]:
            lo = optimize.brentq(lambda x: h(x) - (geom.theta_tilde - u),
                                 1e-12, geom.theta, xtol=1e-16)
            hi = optimize.brentq(lambda x: h(x) - (geom.theta_tilde - u),
                                 geom.theta, 1 - 1e-12, xtol=1e-16)
            prob = special.betainc(a, b, hi) - special.betainc(a, b, lo)
            gaps.append(abs(prob / (const * math.sqrt(u)) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_gamma_domain(self):
        # gamma = 0 is the degenerate-factor constant; a negative index and a
        # zero density (log density -inf) are outside the lemma
        g = saddle_geometry(1.0, 0.5, 0.3)
        assert math.isfinite(mixture_tail_constant_d(0.0, g, 0.0))
        with pytest.raises(DomainError):
            mixture_tail_constant_d(0.0, g, -0.5)
        with pytest.raises(DomainError):
            mixture_tail_constant_c(-math.inf, g)


class TestEndpointRegimeLemmas:
    """Dominance and additivity of endpoint-reaching mixture parts (p > 1),
    verified purely by quadrature."""

    def test_dominant_part_when_other_endpoint_below_one(self):
        # B ~ Beta(2, 1.5), X ~ Beta(2, 0.5), Y = 0.3 V with V uniform, p = 2:
        # P(B^p X + (1-B)^p Y > 1-u) ~ P(B^p X > 1-u); within 1% at a depth
        # where the dominant tail is ~1e-6
        p, w_y = 2.0, 0.3
        a_b, b_b, a_x, b_x = 2.0, 1.5, 2.0, 0.5

        def dominant(u):
            lo = (1 - u) ** (1 / p)
            f = lambda s: beta_pdf(a_b, b_b, s) * beta_sf(a_x, b_x, (1 - u) / s ** p)
            return integrate.quad(f, lo, 1, limit=200, epsabs=1e-16, epsrel=1e-10)[0]

        def full(u):
            lo = optimize.brentq(lambda s: s ** p + (1 - s) ** p * w_y - (1 - u), 0.5, 1.0)

            def inner(s):
                def fy(v):
                    return beta_sf(a_x, b_x, (1 - u - (1 - s) ** p * w_y * v) / s ** p)
                val = integrate.quad(fy, 0, 1, limit=100, epsabs=1e-16, epsrel=1e-9)[0]
                return val * beta_pdf(a_b, b_b, s)

            return integrate.quad(inner, lo, 1, limit=200, epsabs=1e-16, epsrel=1e-9)[0]

        u = 1e-3
        dom = dominant(u)
        assert dom <= 1e-6
        assert full(u) / dom == pytest.approx(1.0, abs=0.01)

    def test_additivity_when_both_parts_reach_one(self):
        # B uniform, X, Y ~ Beta(2, 0.6), p = 2: the mixture tail splits into
        # the sum of the two part tails within 2% at ~1e-6 depth
        p, a_x, b_x = 2.0, 2.0, 0.6

        def part(u):
            lo = (1 - u) ** (1 / p)
            f = lambda s: beta_sf(a_x, b_x, (1 - u) / s ** p)
            return integrate.quad(f, lo, 1, limit=200, epsabs=1e-16, epsrel=1e-10)[0]

        def full(u):
            lo = optimize.brentq(lambda s: s ** p + (1 - s) ** p - (1 - u), 0.51, 1.0)

            def near_one(s):
                def fy(y):
                    return (beta_sf(a_x, b_x, (1 - u - (1 - s) ** p * y) / s ** p)
                            * beta_pdf(a_x, b_x, y))
                return integrate.quad(fy, 0, 1, limit=100, epsabs=1e-16, epsrel=1e-9)[0]

            def near_zero(s):
                def fy(y):
                    return (beta_sf(a_x, b_x, (1 - u - s ** p * y) / (1 - s) ** p)
                            * beta_pdf(a_x, b_x, y))
                return integrate.quad(fy, 0, 1, limit=100, epsabs=1e-16, epsrel=1e-9)[0]

            v1 = integrate.quad(near_one, lo, 1, limit=200, epsabs=1e-16, epsrel=1e-9)[0]
            v0 = integrate.quad(near_zero, 0, 1 - lo, limit=200, epsabs=1e-16, epsrel=1e-9)[0]
            return v1 + v0

        u = 5e-4
        parts = 2 * part(u)
        assert parts <= 1e-5
        assert full(u) / parts == pytest.approx(1.0, abs=0.02)
