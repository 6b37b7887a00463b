"""Acceptance gates: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Every tolerance is pinned in this file; nothing is deferred to later
calibration.  Two gates carry target tolerances tighter than the true
second-order convergence at the depths they probe, and fail by that
verified margin of mathematics, not of implementation:

  * AC-2's +-2% band at depth 1e-8: the exact prediction/exact-tail gap
    there is the 1/u correction term, 4.3%-7.0% for the three cases;
  * AC-8's 5% band at level 1-1e-6 for p = 2: the exact mean-excess
    correction is 1/sqrt(var) = 7.24% at that level (5% first holds
    around level 1 - 2e-9).

Both are left red deliberately, with the measured values printed;
loosening them would hide the real convergence rate.  Everything else
passes with margin.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import dirtail as dt
from dirtail import BetaLaw, GammaLaw, cli

SEED = 20240808


def asymptotic_in(regime, spec):
    """tail_asymptotic(spec), after checking that it records `regime`."""
    asym = dt.tail_asymptotic(spec)
    assert asym.regime == regime
    return asym


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# AC-1: degenerate exactness, all three Gumbel regimes at d = 1
# ----------------------------------------------------------------------

def test_ac1_degenerate_exactness():
    worst = 0.0
    for p in [2.0, 1.0, 0.5]:
        for radial in [GammaLaw(1, 1), GammaLaw(2.5, 0.7), dt.WeibullTail(2, 0.5)]:
            spec = dt.validate_spec([1.7], [1.0], p, radial)
            asym = dt.tail_asymptotic(spec)
            for depth in [1e-2, 1e-10, 1e-40]:
                u = radial.quantile_survival(depth)
                got = asym.evaluate_log(u ** p)
                want = radial.log_survival(u)
                worst = max(worst, abs(got - want) / abs(want))
    report("AC-1 degenerate exactness", worst < 1e-13,
           f"max relative log deviation {worst:.2e}")


# ----------------------------------------------------------------------
# AC-2: Kotz p = 1 closed form
# ----------------------------------------------------------------------

def _kotz_ratios(a1, a2):
    radial = GammaLaw(a1 + a2, 1)
    spec = dt.validate_spec([a1, a2], [1, 0], 1.0, radial)
    asym = asymptotic_in("b", spec)
    out = []
    for depth in [1e-6, 1e-8, 1e-10]:
        t = radial.quantile_survival(depth)
        ratio = math.exp(asym.evaluate_log(t)
                         - dt.specfun.log_regularized_gamma_upper(a1, t))
        out.append(ratio)
    return out


def test_ac2_kotz_trend():
    ok = True
    details = []
    for a1, a2 in [(1.0, 1.0), (2.0, 1.0), (0.5, 1.5)]:
        ratios = _kotz_ratios(a1, a2)
        gaps = [abs(r - 1.0) for r in ratios]
        ok = ok and gaps[0] > gaps[1] > gaps[2]
        details.append(f"a=({a1:g},{a2:g}): " + "->".join(f"{r:.4f}" for r in ratios))
    report("AC-2 Kotz trend to 1 across depths", ok, "; ".join(details))


def test_ac2_kotz_tolerance_at_1e8():
    # stated tolerance +-2% at radial depth 1e-8; the exact second-order
    # gap there is a2/u ~ 4.3%-7.0%, so this criterion is red by analysis
    worst = 0.0
    details = []
    for a1, a2 in [(1.0, 1.0), (2.0, 1.0), (0.5, 1.5)]:
        ratio = _kotz_ratios(a1, a2)[1]
        worst = max(worst, abs(ratio - 1.0))
        details.append(f"a=({a1:g},{a2:g}): ratio {ratio:.4f}")
    report("AC-2 Kotz +-2% at depth 1e-8", worst <= 0.02,
           "; ".join(details) + f"; worst |ratio-1| = {worst:.4f} vs stated 0.02")


# ----------------------------------------------------------------------
# AC-3: regime a against quadrature
# ----------------------------------------------------------------------

def test_ac3_regime_a_quadrature():
    spec = dt.validate_spec([1, 1], [1, 1], 2.0, GammaLaw(2, 1))
    asym = asymptotic_in("a", spec)
    u = GammaLaw(2, 1).quantile_survival(1e-8)
    t = u * u
    est = dt.quadrature_tail(spec, t)
    ratio = math.exp(asym.evaluate_log(t) - est.log_p_hat)
    report("AC-3 regime a vs quadrature at depth 1e-8", abs(ratio - 1.0) <= 0.05,
           f"ratio {ratio:.4f}, tolerance 5%")


# ----------------------------------------------------------------------
# AC-4: regime c constants
# ----------------------------------------------------------------------

def test_ac4_regime_c_constants():
    # d = 2 equal weights: the constant is sqrt(pi) exactly
    spec2 = dt.validate_spec([1, 1], [1, 1], 0.5, GammaLaw(2, 1))
    asym2 = asymptotic_in("c", spec2)
    k2 = math.exp(asym2.log_constant)
    ok_k = abs(k2 - math.sqrt(math.pi)) <= 1e-10

    u2 = GammaLaw(2, 1).quantile_survival(1e-10)
    t2 = asym2.pivot * math.sqrt(u2)
    ratio2 = math.exp(asym2.evaluate_log(t2) - dt.quadrature_tail(spec2, t2).log_p_hat)
    ok_2 = abs(ratio2 - 1.0) <= 0.10

    # d = 3 equal weights with the matching Kotz radius Gamma(3,1)
    spec3 = dt.validate_spec([1, 1, 1], [1, 1, 1], 0.5, GammaLaw(3, 1))
    asym3 = asymptotic_in("c", spec3)
    u3 = GammaLaw(3, 1).quantile_survival(1e-8)
    t3 = asym3.pivot * math.sqrt(u3)
    ratio3 = math.exp(asym3.evaluate_log(t3) - dt.quadrature_tail(spec3, t3).log_p_hat)
    ok_3 = abs(ratio3 - 1.0) <= 0.15

    report("AC-4 regime c constants", ok_k and ok_2 and ok_3,
           f"K2-sqrt(pi) = {k2 - math.sqrt(math.pi):.2e} (tol 1e-10); "
           f"d2 ratio {ratio2:.4f} (tol 10%); d3 ratio {ratio3:.4f} (tol 15%)")


# ----------------------------------------------------------------------
# AC-5: endpoint regime with the corrected exponent sign
# ----------------------------------------------------------------------

def test_ac5_weibull_sign_correction():
    spec = dt.validate_spec([1, 1], [1, 0], 1.0, BetaLaw(1, 1))
    asym = asymptotic_in("weibull", spec)
    u = 1e-3
    pred = math.exp(asym.evaluate_log(1.0 - u))
    exact = u + (1 - u) * math.log1p(-u)
    ratio = pred / exact
    report("AC-5 endpoint regime vs exact integral", abs(ratio - 1.0) <= 0.01,
           f"prediction u^2/2 vs u+(1-u)log(1-u): ratio {ratio:.5f} at u=1e-3, tol 1%")


# ----------------------------------------------------------------------
# AC-6: permutation invariance of the simplex constant
# ----------------------------------------------------------------------

def test_ac6_permutation_invariance():
    import itertools
    alpha, lam, p = [2.0, 1.0, 0.5], [1.0, 0.8, 0.6], 0.4
    lts, cts = [], []
    for perm in itertools.permutations(range(3)):
        geom = dt.simplex_tail_geometry([alpha[i] for i in perm],
                                        [lam[i] for i in perm], p)
        lts.append(geom.lambda_tilde_final)
        cts.append(geom.c_tilde[-1])
    lt_spread = (max(lts) - min(lts)) / min(lts)
    ct_spread = (max(cts) - min(cts)) / min(cts)
    report("AC-6 permutation invariance", lt_spread <= 1e-8 and ct_spread <= 1e-8,
           f"all 6 permutations: lt spread {lt_spread:.2e}, C spread {ct_spread:.2e}, tol 1e-8")


# ----------------------------------------------------------------------
# AC-7: single-big-jump dichotomy
# ----------------------------------------------------------------------

def test_ac7_single_big_jump():
    n = 10 ** 6
    # p = 2: the maximum carries the whole tail
    spec_a = dt.validate_spec([1, 1], [1, 1], 2.0, GammaLaw(2, 1))
    t_a = GammaLaw(2, 1).quantile_survival(1e-8) ** 2
    ratio_a = dt.max_sum_ratio(spec_a, [t_a], n, seed=SEED)[0, 3]
    ok_a = ratio_a >= 0.8

    # p = 1 iid exponentials, d = 3: the ratio collapses and keeps falling
    spec_b = dt.validate_spec([1, 1, 1], [1, 1, 1], 1.0, GammaLaw(3, 1))
    ts = [GammaLaw(3, 1).quantile_survival(d) for d in [1e-6, 1e-8]]
    table = dt.max_sum_ratio(spec_b, ts, n, seed=SEED)
    ok_b = table[1, 3] <= 0.3 and table[1, 3] < table[0, 3]

    report("AC-7 single big jump dichotomy", ok_a and ok_b,
           f"p=2 ratio {ratio_a:.3f} (>=0.8); "
           f"p=1 ratios {table[0, 3]:.4f} -> {table[1, 3]:.4f} (<=0.3, decreasing)")


# ----------------------------------------------------------------------
# AC-8: VaR / ES asymptotics
# ----------------------------------------------------------------------

def test_ac8_var_es_exponential():
    spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
    res = dt.var_es_asymptotic(spec, 0.999)
    ok = (abs(res.es_minus_var - 1.0) < 1e-12
          and abs(res.var + math.log(1e-3)) < 1e-9)
    report("AC-8 exponential mean excess", ok,
           f"es_minus_var = {res.es_minus_var!r} (exactly 1), var = {res.var:.6f}")


def test_ac8_squared_exponential_mean_excess():
    # stated tolerance 5% at b = 1-1e-6; the exact mean excess of the
    # squared exponential is 2*sqrt(var) + 2, so the true gap is
    # 1/sqrt(var) = 7.24% at this level: red by analysis
    spec = dt.validate_spec([1.0], [1.0], 2.0, GammaLaw(1, 1))
    res = dt.var_es_asymptotic(spec, 1 - 1e-6)
    v = res.var
    # numerical mean excess of the exact law: int_v^inf e^{-sqrt(s)} ds / e^{-sqrt(v)}
    me_num = integrate.quad(lambda s: math.exp(-math.sqrt(s) + math.sqrt(v)),
                            v, np.inf, limit=400)[0]
    ratio = res.es_minus_var / me_num
    formula_ok = abs(res.es_minus_var - 2 * math.sqrt(v)) <= 1e-9
    report("AC-8 squared-exponential mean excess within 5% at b=1-1e-6",
           formula_ok and abs(ratio - 1.0) <= 0.05,
           f"es_minus_var = 2*sqrt(var) holds ({formula_ok}); "
           f"vs numerical mean excess {me_num:.4f}: ratio {ratio:.4f}, stated tol 5%")


# ----------------------------------------------------------------------
# AC-9: max-stable / asymptotic-independence diagnostics
# ----------------------------------------------------------------------

def test_ac9_prop_diagnostics():
    # pairwise exceedance at the n = 1e4 asymptotic level, identity weights
    table = dt.pairwise_asymindep([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], 2.0,
                                  GammaLaw(2, 1), 0, 1, [10 ** 4], 10 ** 6, seed=SEED)
    pair_ratio = table[0, 3]
    ok_pair = pair_ratio <= 0.05

    # Gumbel-limit CDF check on the exponential norming example
    spec = dt.validate_spec([1.0], [1.0], 1.0, GammaLaw(1, 1))
    limit_table = dt.gumbel_limit_check(spec, 10 ** 4, 10 ** 4, [-1.0, 0.0, 2.0],
                                        seed=SEED)
    diffs = [abs(emp - limit) for _x, emp, limit in limit_table]
    ok_limit = max(diffs) <= 0.02

    report("AC-9 max-stable diagnostics", ok_pair and ok_limit,
           f"pairwise ratio {pair_ratio:.2e} (<=0.05); "
           f"Gumbel CDF diffs {['%.4f' % d for d in diffs]} (<=0.02)")


# ----------------------------------------------------------------------
# AC-10: estimator integrity
# ----------------------------------------------------------------------

def test_ac10_estimator_integrity(tmp_path):
    import json
    spec = dt.validate_spec([1, 1], [1, 1], 2.0, GammaLaw(2, 1))
    t = 30.319   # P(S_2 > t) = 1e-2
    cond = dt.conditional_mc_tail(spec, t, 10 ** 5, seed=SEED)
    crude = dt.crude_mc_tail(spec, t, 4 * 10 ** 5, seed=SEED + 1)
    gap = abs(cond.p_hat - crude.p_hat)
    bound = 3 * math.hypot(cond.stderr, crude.stderr)
    ok_ci = gap < bound

    cfg = {"alpha": [1.0, 1.0], "lambda": [1.0, 1.0], "p": 2.0,
           "radial": {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
           "thresholds": [t], "n": 170000, "seed": SEED}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}.csv"
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out),
                       "--workers", str(workers)])
        assert rc == 0
        blobs.append(out.read_bytes())
    ok_workers = blobs[0] == blobs[1]

    report("AC-10 estimator integrity", ok_ci and ok_workers,
           f"conditional {cond.p_hat:.5f}+-{cond.stderr:.5f} vs crude "
           f"{crude.p_hat:.5f}+-{crude.stderr:.5f}, gap {gap:.2e} < {bound:.2e}; "
           f"worker bytes identical: {ok_workers}")
