"""End-to-end acceptance suite.

One test per criterion (criteria with independent clauses are split into
lettered parts).  Each test prints a PASS/FAIL line with the measured
numbers; run with ``pytest tests/test_acceptance.py -v -s`` to see them.

Two parts check a target derived from the model rather than the figure
first quoted for them, because the quoted figures contradict the model:

* criterion 2b checks the gamma -> 0 endpoint of the unit-mean
  normalizer theta(gamma).  The quoted endpoint 1 + sigma^2/J = 1.5 is
  not the limit of the defining formula; by Stirling the limit is
  (1 + sigma^2/J)**(1 + J/sigma^2) / e ~= 1.2416, and only the formula
  keeps the stationary mean at one, which criterion 8 verifies by
  simulation.
* criterion 11b checks that the ensemble mean does not drift.  The
  quoted band of 5% around 1 cannot hold at N=1000: the mean is a
  driftless martingale with quadratic variation
  V(t) = (2 sigma^2 / N) * int_0^t mean(w^2) ds ~= 0.04 at t=200, so
  its wander has sd ~= 0.2.  The test bounds the wander by a multiple
  of each run's own sqrt(V) instead.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from bmnet.distributions import (GIGaParams, LNParams, giga_cdf, giga_sample,
                                 ln_sample, stationary_giga, theta_of_gamma)
from bmnet.engine import (EFTDynamics, MeanFieldDynamics, ModelParams,
                          SimConfig, simulate, strong_convergence_study)
from bmnet.fitting import fit_giga
from bmnet.gof import ks_pvalue_bootstrap, ks_statistic
from bmnet.topology import (build_complete, build_random_smallworld,
                            build_regular_ring)
from oracles import to_unscaled
from test_distributions import PARAM_GRID, quad_log_space
from test_gof import ranked_reports

BASE_PARAMS = ModelParams.from_sigma2(0.05, 0.1)
EQUILIBRATION_TIMES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0,
                       300.0, 400.0, 500.0)


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- shared heavy runs -------------------------------------------------------

@pytest.fixture(scope="module")
def meanfield_runs():
    """Five complete-network runs to t=200 (criteria 1 and 11b)."""
    times = tuple(float(t) for t in range(0, 201, 5))
    runs = []
    for seed in (101, 102, 103, 104, 105):
        cfg = SimConfig(params=BASE_PARAMS,
                        dynamics=build_complete(1000),
                        scheme="milstein", N=1000, dt=0.01, t_end=200.0,
                        snapshot_times=times, seed=seed)
        runs.append(simulate(cfg))
    return runs


@pytest.fixture(scope="module")
def rann_trajectory():
    """Random small-world run (p_sw=0.003, N=1e4) fitted on a time grid.

    p_sw * N must sit well above 1 for the published stationary behavior
    to exist at all: at p_sw * N ~ 3 the graph fragments and low-degree
    agents (restoring rate deg*J/n < sigma^2) never become stationary.
    """
    n_agents = 10_000
    top = build_random_smallworld(n_agents, 0.003, seed=71)
    cfg = SimConfig(params=BASE_PARAMS, dynamics=top,
                    scheme="milstein", N=n_agents, dt=0.01, t_end=500.0,
                    snapshot_times=EQUILIBRATION_TIMES, seed=71)
    snaps = simulate(cfg)
    gammas = [float(fit_giga(s.w).params.gamma) for s in snaps]
    return snaps, gammas, cfg


@pytest.fixture(scope="module")
def regn_trajectory():
    """Ring run at the same mean degree (z=0.003, n=30, N=1e4)."""
    n_agents = 10_000
    top = build_regular_ring(n_agents, 30)
    cfg = SimConfig(params=BASE_PARAMS, dynamics=top,
                    scheme="taylor15", N=n_agents, dt=0.01, t_end=500.0,
                    snapshot_times=EQUILIBRATION_TIMES, seed=71)
    snaps = simulate(cfg)
    gammas = [float(fit_giga(s.w).params.gamma) for s in snaps]
    return snaps, gammas


# -- criterion 1: mean-field stationarity ------------------------------------

def test_criterion_01_mean_field_stationarity(meanfield_runs):
    gammas, alpha_gammas = [], []
    for snaps in meanfield_runs:
        final = snaps[-1]
        assert final.t == 200.0
        fit = fit_giga(final.w)
        gammas.append(fit.params.gamma)
        alpha_gammas.append(fit.alpha_gamma)
    med_g = float(np.median(gammas))
    med_ag = float(np.median(alpha_gammas))
    ok = 0.85 <= med_g <= 1.15 and 2.6 <= med_ag <= 3.4
    report(1, ok, f"median gamma_hat={med_g:.3f} (target [0.85, 1.15]), "
                  f"median alpha_gamma={med_ag:.3f} (target [2.6, 3.4])")
    assert 0.85 <= med_g <= 1.15
    assert 2.6 <= med_ag <= 3.4


# -- criterion 2: analytic endpoints -----------------------------------------

def test_criterion_02a_theta_at_one_exact():
    value = theta_of_gamma(0.1, 0.05, 1.0)
    report("2a", value == 1.0, f"theta(1) = {value!r} (target exactly 1)")
    assert value == 1.0


def test_criterion_02b_theta_small_gamma_endpoint():
    # theta = (gamma s2/J) * (Gamma(a + 1/gamma) / Gamma(a))**gamma with
    # s2 = sigma^2, k = J/s2 and a = k/gamma.  Stirling,
    # ln Gamma(z) = (z - 1/2) ln z - z + ln sqrt(2 pi) + O(1/z), turns
    # gamma times the log-ratio into
    # (k+1) ln(k+1) - k ln k - ln gamma - 1 + O(gamma), so
    # theta -> (1 + 1/k)**(k+1) / e = (1 + s2/J)**(1 + J/s2) / e.
    # The O(gamma) term is -(gamma/2) ln(1 + 1/k), so theta(1e-4) lies
    # about 2.5e-5 below the limit here.  The endpoint first quoted,
    # 1 + s2/J = 1.5, is not this limit and would break the unit mean.
    J, sigma2 = 0.1, 0.05
    limit = (1.0 + sigma2 / J) ** (1.0 + J / sigma2) / math.e
    value = theta_of_gamma(J, sigma2, 1e-4)
    ok = abs(value - limit) <= 1e-3
    report("2b", ok, f"theta(1e-4) = {value:.6f} vs gamma->0 limit "
                     f"(1 + sigma^2/J)**(1 + J/sigma^2)/e = {limit:.6f}")
    assert ok, (
        f"theta(1e-4) = {value:.6f} is not within 1e-3 of the gamma->0 "
        f"limit {limit:.6f} of the unit-mean normalizer")


def test_criterion_02c_stationary_mean_field_parameters():
    p = stationary_giga(0.1, 0.05, 1.0)
    ok = abs(p.alpha - 3.0) < 1e-12 and abs(p.beta - 2.0) < 1e-12
    report("2c", ok, f"stationary (alpha, beta) = ({p.alpha!r}, {p.beta!r}) "
                     f"(target (3, 2) to 1e-12)")
    assert abs(p.alpha - 3.0) < 1e-12
    assert abs(p.beta - 2.0) < 1e-12


# -- criterion 3: integrator strong orders ------------------------------------

def test_criterion_03_integrator_orders():
    dts = [2.0 ** -k for k in range(4, 10)]
    mil = strong_convergence_study("milstein", dts, 1000, seed=42)
    tay = strong_convergence_study("taylor15", dts, 1000, seed=42)
    ok = abs(mil["fitted_slope"] - 1.0) <= 0.15 and \
        abs(tay["fitted_slope"] - 1.5) <= 0.2
    report(3, ok, f"milstein slope={mil['fitted_slope']:.3f} (1.0 +- 0.15), "
                  f"taylor15 slope={tay['fitted_slope']:.3f} (1.5 +- 0.2)")
    assert abs(mil["fitted_slope"] - 1.0) <= 0.15
    assert abs(tay["fitted_slope"] - 1.5) <= 0.2


# -- criterion 4: transient lognormal ----------------------------------------

def test_criterion_04_transient_lognormal():
    cfg = SimConfig(params=ModelParams.from_sigma2(0.05, 0.0),
                    dynamics=MeanFieldDynamics(), scheme="milstein",
                    N=10 ** 4, dt=0.01, t_end=5.0, snapshot_times=(5.0,),
                    seed=4)
    w = simulate(cfg)[0].w
    mu, s = -0.05 * 5.0, math.sqrt(2 * 0.05 * 5.0)
    d = ks_statistic(np.log(w), lambda v: ndtr((v - mu) / s))
    crit = 1.358 / math.sqrt(w.size)
    report(4, d < crit, f"KS D={d:.5f} vs 5% critical {crit:.5f} "
                        f"(log w vs Normal(-0.25, 0.5))")
    assert d < crit


# -- criterion 5: GIGa machinery ---------------------------------------------

def test_criterion_05_density_quadrature_and_sampler():
    worst_norm = 0.0
    worst_mean = 0.0
    for p in PARAM_GRID:
        worst_norm = max(worst_norm, abs(quad_log_space(p) - 1.0))
        if p.alpha * p.gamma > 1.0:
            mean_cf = p.beta * math.exp(
                math.lgamma(p.alpha - 1.0 / p.gamma) - math.lgamma(p.alpha))
            worst_mean = max(worst_mean,
                             abs(quad_log_space(p, moment=1) - mean_cf))
    n = 10 ** 5
    crit = 1.63 / math.sqrt(n)
    worst_ks = 0.0
    for p in (GIGaParams(3, 2, 1), GIGaParams(6, 20, 0.5),
              GIGaParams(0.5, 0.5, 2.0)):
        x = giga_sample(p, n, seed=7)
        worst_ks = max(worst_ks, ks_statistic(x, lambda v: giga_cdf(p, v)))
    ok = worst_norm < 1e-8 and worst_mean < 1e-8 and worst_ks < crit
    report(5, ok, f"worst |norm-1|={worst_norm:.2e}, worst mean "
                  f"error={worst_mean:.2e} (targets 1e-8), sampler "
                  f"KS={worst_ks:.5f} vs 1% critical {crit:.5f}")
    assert worst_norm < 1e-8
    assert worst_mean < 1e-8
    assert worst_ks < crit


# -- criterion 6: MLE recovery -------------------------------------------------

def test_criterion_06_giga_mle_recovery():
    truth = GIGaParams(6, 20, 0.5)
    passes = 0
    results = []
    for seed in range(10):
        fit = fit_giga(giga_sample(truth, 10 ** 5, seed=seed))
        g_ok = abs(fit.params.gamma - 0.5) / 0.5 <= 0.10
        ag_ok = abs(fit.alpha_gamma - 3.0) / 3.0 <= 0.05
        passes += g_ok and ag_ok
        results.append((round(fit.params.gamma, 4), round(fit.alpha_gamma, 4)))
    report(6, passes >= 9, f"{passes}/10 seeds recovered gamma within 10% "
                           f"and alpha*gamma within 5%: {results}")
    assert passes >= 9


# -- criterion 7: bootstrap calibration ----------------------------------------

def test_criterion_07_bootstrap_calibration():
    true = LNParams(mu=-0.05, s=math.sqrt(0.1))
    pvals = []
    for trial in range(200):
        x = ln_sample(true, 2000, seed=np.random.SeedSequence([9100, trial]))
        trial_seed = int(np.random.SeedSequence(
            [9200, trial]).generate_state(1)[0])
        pvals.append(ks_pvalue_bootstrap(x, "LN", 99, seed=trial_seed).p_value)
    pvals = np.asarray(pvals)
    rate = float(np.mean(pvals <= 0.05))
    # under the null the p-values are also uniform (1% KS check)
    d_unif = ks_statistic(pvals + 1e-12, lambda v: np.clip(v, 0.0, 1.0))
    crit = 1.63 / math.sqrt(len(pvals))
    ok = 0.02 <= rate <= 0.10 and d_unif < crit
    report(7, ok, f"null rejection rate at 5% = {rate:.3f} "
                  f"(target [0.02, 0.10]); uniformity KS {d_unif:.4f} "
                  f"vs 1% critical {crit:.4f}")
    assert 0.02 <= rate <= 0.10
    assert d_unif < crit


# -- criterion 8: EFT closed-form match ----------------------------------------

def test_criterion_08_eft_stationary_match():
    cfg = SimConfig(params=BASE_PARAMS, dynamics=EFTDynamics(0.5),
                    scheme="milstein", N=10 ** 4, dt=0.01, t_end=200.0,
                    snapshot_times=(200.0,), seed=11)
    w = simulate(cfg)[0].w
    target = stationary_giga(0.1, 0.05, 0.5)
    assert target.alpha == pytest.approx(6.0, rel=1e-12)
    assert target.beta == pytest.approx(20.0, rel=1e-10)
    d = ks_statistic(w, lambda v: giga_cdf(target, v))
    crit = 1.358 / math.sqrt(w.size)
    gamma_hat = fit_giga(w).params.gamma
    ok = d < crit and abs(gamma_hat - 0.5) < 0.1
    report(8, ok, f"KS D={d:.5f} vs 5% critical {crit:.5f} "
                  f"(EFT gamma=0.5 vs GIGa(6, 20, 0.5)); refit "
                  f"gamma_hat={gamma_hat:.3f}")
    assert d < crit
    assert abs(gamma_hat - 0.5) < 0.1


# -- criterion 9: qualitative figure reproduction ------------------------------

def test_criterion_09a_short_time_ring_prefers_lognormal():
    top = build_regular_ring(1000, 10)  # z = 0.01
    cfg = SimConfig(params=BASE_PARAMS, dynamics=top,
                    scheme="taylor15", N=1000, dt=0.01, t_end=1.0,
                    snapshot_times=(1.0,), seed=1)
    ranked, failures = ranked_reports(cfg, simulate(cfg)[0], B=999)
    assert not failures
    detail = ", ".join(f"{r.family}={r.p_value:.3f}" for r in ranked)
    report("9a", ranked[0].family == "LN", f"ring z=0.01 at t=1: {detail} "
                                           f"(LN must rank first)")
    assert ranked[0].family == "LN"


def test_criterion_09b_stationary_smallworld_prefers_giga(rann_trajectory):
    snaps, _, cfg = rann_trajectory
    final = snaps[-1]
    assert final.t == 500.0
    ranked, failures = ranked_reports(cfg, final, B=999)
    assert not failures
    by_family = {r.family: r for r in ranked}
    detail = ", ".join(f"{r.family}={r.p_value:.4f}" for r in ranked)
    ok = (ranked[0].family == "GIGa" and by_family["GIGa"].p_value > 0.1
          and by_family["LN"].p_value < 0.01)
    report("9b", ok, f"small-world p_sw=0.003 at t=500: {detail} "
                     f"(GIGa first with p>0.1, LN p<0.01)")
    assert ranked[0].family == "GIGa"
    assert by_family["GIGa"].p_value > 0.1
    assert by_family["LN"].p_value < 0.01


# -- criterion 10: equilibration ordering --------------------------------------

def _reach_time(times, gammas, band=0.05):
    """First time from which the smoothed exponent trajectory stays
    within ``band`` of its long-run plateau.

    Smoothing is a centered median of three (fit noise on a single
    cross-section is comparable to the band); the plateau is the median
    of the last three smoothed values.
    """
    smoothed = [float(np.median(gammas[max(i - 1, 0):i + 2]))
                for i in range(len(gammas))]
    plateau = float(np.median(smoothed[-3:]))
    reach = None
    for i, value in enumerate(smoothed):
        if all(abs(v - plateau) <= band for v in smoothed[i:]):
            reach = times[i]
            break
    return reach, plateau, smoothed


def test_criterion_10_equilibration_ordering(rann_trajectory, regn_trajectory):
    _, ran_gammas, _ = rann_trajectory
    _, reg_gammas = regn_trajectory
    times = list(EQUILIBRATION_TIMES)
    ran_reach, ran_plateau, _ = _reach_time(times, ran_gammas)
    reg_reach, reg_plateau, _ = _reach_time(times, reg_gammas)
    ok = ran_reach is not None and reg_reach is not None and \
        ran_reach < reg_reach
    report(10, ok, f"small-world reaches plateau {ran_plateau:.3f} at "
                   f"t={ran_reach}, ring reaches plateau {reg_plateau:.3f} "
                   f"at t={reg_reach} (small-world must be strictly earlier)")
    assert ran_reach is not None and reg_reach is not None
    assert ran_reach < reg_reach


# -- criterion 11: conservation -------------------------------------------------

def test_criterion_11a_drift_conservation():
    params = ModelParams.from_sigma2(0.05, 0.1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(30):
        pick = trial % 3
        n = int(rng.integers(5, 400))
        if pick == 0:
            top = build_complete(n)
        elif pick == 1:
            top = build_regular_ring(2 * n, 2 * int(rng.integers(1, n)))
        else:
            top = build_random_smallworld(n, float(rng.uniform(0.05, 0.8)),
                                          seed=trial)
            if top.n_divisor == 0:
                continue
        w = rng.gamma(2.0, 1.0, top.N) + 1e-4
        f = top.drift(w, params)
        bound = top.N * np.finfo(float).eps * np.abs(w).max()
        worst = max(worst, abs(f.sum()) / bound)
        assert abs(f.sum()) <= bound
    report("11a", True, f"drift sums to zero on randomized topologies "
                        f"(worst |sum|/bound = {worst:.3f})")


def _mean_wander(times, ws, sigma2):
    """Wander of the ensemble mean in units of its own martingale sd.

    Returns (max_t |mean(w) - 1|, mean(w_end) - 1), both divided by
    sqrt(V(t_end)), where V(t) = (2 sigma^2 / N) * int_0^t mean(w^2) ds
    is the quadratic variation of the mean, integrated by the trapezoid
    rule over the snapshot grid.
    """
    means = np.array([w.mean() for w in ws])
    mean_sq = np.array([np.mean(w * w) for w in ws])
    sd = math.sqrt(2.0 * sigma2 / ws[-1].size * np.trapezoid(mean_sq, times))
    return float(np.abs(means - 1.0).max()) / sd, float(means[-1] - 1.0) / sd


def test_criterion_11b_ensemble_mean_within_5_percent(meanfield_runs):
    # The coupling conserves wealth and the noise has mean zero, so
    # mean(w) - 1 is a driftless martingale with quadratic variation V(t)
    # (see _mean_wander).  The model promises E[mean(w)] = 1, not the 5%
    # band first quoted: at N=1000, t=200, sqrt(V) ~= 0.2.  By the
    # reflection principle, P(max_t |M_t| >= c sqrt(V)) <= 2 P(|Z| >= c),
    # about 1.3e-4 per run for c = 4.  The pooled end z of the five
    # independent runs is close to standard normal, so |z| <= 4 is as
    # safe.  The pointwise ratio (mean(w_t) - 1) / sqrt(V(t)) is not
    # used: by the law of the iterated logarithm its maximum over t has
    # no bound.
    c = 4.0

    def check(unscaled):
        ratios, ends = [], []
        for snaps in meanfield_runs:
            times = [s.t for s in snaps]
            ws = [to_unscaled(s.w, BASE_PARAMS.sigma, s.t) if unscaled
                  else s.w for s in snaps]
            ratio, end = _mean_wander(times, ws, BASE_PARAMS.sigma2)
            ratios.append(ratio)
            ends.append(end)
        pooled = abs(sum(ends)) / math.sqrt(len(ends))
        return ratios, pooled, max(ratios) <= c and pooled <= c

    ratios, pooled, ok = check(unscaled=False)
    report("11b", ok, f"max_t |mean_w - 1| / sqrt(V(200)) per run = "
                      f"{', '.join(f'{r:.2f}' for r in ratios)}, pooled end "
                      f"z = {pooled:.2f} (bound {c:g})")
    assert ok, (
        f"ensemble mean drifts: max_t |mean_w - 1| / sqrt(V(200)) = "
        f"{', '.join(f'{r:.2f}' for r in ratios)}, pooled end z = "
        f"{pooled:.2f}; a driftless mean exceeds {c:g} with probability "
        f"about 1e-4")

    # Negative control: the unscaled wealth has mean growing like
    # exp(sigma^2 t), a secular drift the same statistic must reject.
    ctl_ratios, ctl_pooled, ctl_ok = check(unscaled=True)
    assert not ctl_ok, (
        f"the statistic accepts the drifting unscaled mean: ratios "
        f"{', '.join(f'{r:.2f}' for r in ctl_ratios)}, pooled end z = "
        f"{ctl_pooled:.2f}")
