"""MLE correctness: closed forms, synthetic recovery, profile structure."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmnet
from bmnet.distributions import GIGaParams, giga_logpdf, giga_sample, ln_sample, LNParams
from bmnet.errors import DegenerateSampleError
from bmnet.fitting import (GAMMA_SEARCH_RANGE, GAMMA_TOL, _minka_start,
                           _newton_shape, _newton_shape_array,
                           _power_means, _profile_scan, _profile_score,
                           fit_giga, fit_iga, fit_lognormal)
from oracles import _profile_at_gamma, gamma_shape_scale_mle


class TestLognormalFit:
    def test_closed_form(self):
        r = fit_lognormal([math.exp(-1.0), 1.0, math.exp(1.0)])
        assert r.params.mu == pytest.approx(0.0, abs=1e-14)
        assert r.params.s ** 2 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert r.family == "LN"
        assert r.gamma_hat is None and r.alpha_gamma is None

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_lognormal([2.5, 2.5, 2.5])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_lognormal([1.0, -2.0, 3.0])

    def test_synthetic_recovery(self):
        true = LNParams(mu=-0.05, s=math.sqrt(0.1))
        x = ln_sample(true, 10 ** 5, seed=31)
        r = fit_lognormal(x)
        n = x.size
        assert abs(r.params.mu - true.mu) < 3 * true.s / math.sqrt(n)
        assert abs(r.params.s - true.s) < 3 * true.s / math.sqrt(2 * n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -2.0])
@pytest.mark.parametrize("at", [0, 6, 11])
@pytest.mark.parametrize("fit", [fit_lognormal, fit_iga, fit_giga,
                                 gamma_shape_scale_mle])
def test_rejects_nonfinite_and_nonpositive_samples(fit, at, bad):
    x = np.linspace(0.5, 3.0, 12)
    x[at] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        fit(x)


@pytest.mark.parametrize("fit", [fit_lognormal, fit_iga, fit_giga])
def test_report_owns_its_sample(fit):
    # a later write to the caller's array leaves the report as it was
    x = np.random.default_rng(3).lognormal(size=1000)
    report = fit(x)
    loglik = report.loglik
    x *= 2
    assert report.loglik == loglik
    assert not report.sample.flags.writeable


class TestGammaMLE:
    def test_synthetic_recovery(self):
        y = np.random.default_rng(123).gamma(2.0, 3.0, 10 ** 5)
        shape, scale = gamma_shape_scale_mle(y)
        assert shape == pytest.approx(2.0, abs=0.03)
        assert scale == pytest.approx(3.0, abs=0.05)

    def test_exponential_special_case(self):
        y = np.random.default_rng(7).exponential(2.0, 5 * 10 ** 4)
        shape, _ = gamma_shape_scale_mle(y)
        assert shape == pytest.approx(1.0, abs=0.02)

    def test_all_equal_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            gamma_shape_scale_mle(np.full(100, 3.7))

    def test_score_equation_satisfied(self):
        y = np.random.default_rng(5).gamma(4.0, 0.5, 2000)
        shape, scale = gamma_shape_scale_mle(y)
        from scipy.special import digamma
        lhs = math.log(shape) - digamma(shape)
        rhs = math.log(y.mean()) - np.log(y).mean()
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert scale == pytest.approx(y.mean() / shape, rel=1e-12)


def _bisect_shape(s):
    # log k - digamma(k) decreases in k; bisect on log k
    from scipy.special import digamma
    lo, hi = 1e-12, 1e12
    for _ in range(300):
        mid = math.sqrt(lo * hi)
        if math.log(mid) - digamma(mid) > s:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestNewtonShape:
    @pytest.mark.parametrize("lo_exp,hi_exp,rtol", [(-3, 3, 1e-10),
                                                    (-6, -3, 1e-7)])
    def test_matches_bisection(self, lo_exp, hi_exp, rtol):
        for s in np.logspace(lo_exp, hi_exp, 61):
            s = float(s)
            k, _ = _newton_shape(s, float(_minka_start(s)))
            ref = _bisect_shape(s)
            assert abs(k - ref) <= rtol * ref, s

    def test_scalar_and_array_paths_agree_exactly(self):
        s = np.logspace(-6, 3, 200)
        starts = np.concatenate([_minka_start(s[:100]),
                                 0.5 * _minka_start(s[100:])])
        arr = _newton_shape_array(s, starts)
        for si, ki, ai in zip(s, starts, arr):
            assert _newton_shape(float(si), float(ki))[0] == ai

    def test_warm_start_far_off_converges(self):
        for s in (1e-3, 0.1, 1.0, 30.0):
            k_ref = _bisect_shape(s)
            for start in (k_ref / 3.0, 3.0 * k_ref):
                k, steps = _newton_shape(s, start)
                assert k == pytest.approx(k_ref, rel=1e-10)
                assert steps <= 8


class TestIGaFit:
    def test_synthetic_recovery(self):
        x = giga_sample(GIGaParams(3, 2, 1), 10 ** 5, seed=5)
        r = fit_iga(x)
        assert r.params.alpha == pytest.approx(3.0, abs=0.06)
        assert r.params.beta == pytest.approx(2.0, abs=0.05)
        assert r.params.gamma == 1.0

    def test_loglik_is_model_loglik(self):
        x = giga_sample(GIGaParams(3, 2, 1), 500, seed=9)
        r = fit_iga(x)
        assert r.loglik == float(np.sum(giga_logpdf(r.params, x)))

    def test_nested_model_dominance(self):
        x = giga_sample(GIGaParams(6, 20, 0.5), 10 ** 5, seed=11)
        assert fit_iga(x).loglik < fit_giga(x).loglik


class TestGIGaFit:
    def test_synthetic_recovery(self):
        x = giga_sample(GIGaParams(6, 20, 0.5), 10 ** 5, seed=11)
        r = fit_giga(x)
        assert abs(r.params.gamma - 0.5) / 0.5 < 0.10
        assert abs(r.alpha_gamma - 3.0) / 3.0 < 0.05
        assert r.converged and not r.at_boundary

    def test_recovers_inverse_gamma_member(self):
        x = giga_sample(GIGaParams(3, 2, 1), 10 ** 5, seed=5)
        r = fit_giga(x)
        assert 0.9 <= r.params.gamma <= 1.1

    def test_needs_ten_samples(self):
        with pytest.raises(ValueError):
            fit_giga(np.linspace(1, 2, 9))

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_profile_inner_solution_is_optimal(self, gamma):
        # the transform-based (alpha, beta) must beat a dense 2-D grid
        # around it at the same gamma
        x = giga_sample(GIGaParams(4, 3, 0.7), 500, seed=23)
        log_x = np.log(x)
        _, alpha, scale, _ = _profile_at_gamma(log_x, float(log_x.mean()),
                                               gamma)
        # y = w**-gamma has scale beta**-gamma
        beta = scale ** (-1.0 / gamma)
        inner_ll = float(np.sum(giga_logpdf(GIGaParams(alpha, beta, gamma), x)))
        best_grid = -np.inf
        for a in np.linspace(0.5 * alpha, 2.0 * alpha, 41):
            for b in np.linspace(0.5 * beta, 2.0 * beta, 41):
                ll = float(np.sum(giga_logpdf(GIGaParams(a, b, gamma), x)))
                best_grid = max(best_grid, ll)
        assert inner_ll >= best_grid - 1e-9 * abs(inner_ll)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=12, deadline=None)
    def test_monotone_dominance_over_iga(self, seed):
        rng = np.random.default_rng(seed)
        x = np.exp(rng.normal(0.0, 0.6, 400)) + 0.05 * rng.gamma(2.0, 1.0, 400)
        giga = fit_giga(x)
        iga = fit_iga(x)
        assert giga.loglik >= iga.loglik - 1e-6 * x.size

    def test_estimator_consistency(self):
        # median recovery error shrinks roughly as 1/sqrt(n)
        medians = {}
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            errs = [abs(fit_giga(giga_sample(GIGaParams(6, 20, 0.5), n,
                                             seed=200 + s)).params.gamma - 0.5)
                    for s in range(9)]
            medians[n] = float(np.median(errs))
        assert medians[10 ** 3] > 1.8 * medians[10 ** 4]
        assert medians[10 ** 4] > 1.8 * medians[10 ** 5]
        assert medians[10 ** 3] > 4.0 * medians[10 ** 5]

    def test_scale_equivariance(self):
        x = giga_sample(GIGaParams(6, 20, 0.5), 2 * 10 ** 4, seed=42)
        base = fit_giga(x)
        scaled = fit_giga(10.0 * x)
        assert scaled.params.gamma == pytest.approx(base.params.gamma, abs=1e-9)
        assert scaled.params.alpha == pytest.approx(base.params.alpha, rel=1e-9)
        assert scaled.params.beta == pytest.approx(10.0 * base.params.beta,
                                                   rel=1e-9)
        ln_base = fit_lognormal(x)
        ln_scaled = fit_lognormal(10.0 * x)
        assert ln_scaled.params.mu - ln_base.params.mu == pytest.approx(
            math.log(10.0), rel=1e-12)
        assert ln_scaled.params.s == pytest.approx(ln_base.params.s, rel=1e-12)

    def test_near_lognormal_data_flags_boundary(self):
        # near-lognormal data pushes gamma to the lower search boundary
        x = ln_sample(LNParams(mu=0.0, s=0.3), 5000, seed=3)
        r = fit_giga(x)
        assert r.at_boundary
        assert r.params.gamma == pytest.approx(0.05, abs=3e-4)


def _exact_profile(log_w, gamma, shape0=None):
    """Profile loglik and inner shape at gamma from its own exp() pass;
    -inf where the inner problem is degenerate."""
    try:
        ll, shape, _, _ = _profile_at_gamma(log_w, float(log_w.mean()), gamma,
                                            shape0)
    except DegenerateSampleError:
        return -np.inf, shape0
    return ll, shape


def _dense_argmax(log_w, lo, hi):
    grid = np.linspace(lo, hi, 4000)
    ll = [_exact_profile(log_w, g)[0] for g in grid]
    return grid[int(np.argmax(ll))], grid[1] - grid[0]


DENSE_ARGMAX_CASES = [
    (GIGaParams(6, 20, 0.5), 1), (GIGaParams(6, 20, 0.5), 2),
    (GIGaParams(3, 2, 1), 3), (GIGaParams(2, 1, 2.0), 4),
    (GIGaParams(40, 1, 0.2), 5)]


@pytest.mark.parametrize("params,seed", DENSE_ARGMAX_CASES)
def test_giga_gamma_is_dense_profile_argmax(params, seed):
    # a 4000-point profile over the whole search range locates the global
    # maximum to one grid step; a second 4000-point profile across that
    # step pins it far below GAMMA_TOL
    log_w = np.log(giga_sample(params, 2000, seed=seed))
    lo, hi = GAMMA_SEARCH_RANGE
    coarse, step = _dense_argmax(log_w, lo, hi)
    fine, _ = _dense_argmax(log_w, max(lo, coarse - step),
                            min(hi, coarse + step))
    r = fit_giga(np.exp(log_w))
    assert abs(r.params.gamma - fine) <= GAMMA_TOL
    if not r.at_boundary:
        # 28 scan points plus the score evaluations of the Newton search
        assert 28 < r.iterations <= 40


@pytest.mark.parametrize("params,seed", DENSE_ARGMAX_CASES)
def test_profile_score_matches_central_differences(params, seed):
    log_w = np.log(giga_sample(params, 2000, seed=seed))
    n = log_w.size
    y, z = np.empty_like(log_w), np.empty_like(log_w)
    for gamma in (0.3, 1.0, 2.5, fit_giga(np.exp(log_w)).params.gamma):
        d1, d2, _, _ = _profile_score(log_w, float(log_w.mean()), gamma, None,
                                      y, z)
        ll = {h: _exact_profile(log_w, gamma + h)[0]
              for h in (-1e-3, -1e-4, 0.0, 1e-4, 1e-3)}
        assert d1 == pytest.approx((ll[1e-4] - ll[-1e-4]) / 2e-4,
                                   abs=1e-9 * n)
        assert d2 == pytest.approx(
            (ll[1e-3] - 2.0 * ll[0.0] + ll[-1e-3]) / 1e-6, rel=1e-5)


def test_power_means_match_direct_exp():
    grid = np.linspace(*GAMMA_SEARCH_RANGE, 28)
    rng = np.random.default_rng(8)
    samples = [np.log(giga_sample(GIGaParams(6, 20, 0.5), 2000, seed=1)),
               30.0 + rng.normal(0.0, 1.0, 2000),
               -30.0 + rng.normal(0.0, 1.0, 2000),
               rng.uniform(-30.0, 30.0, 2000)]
    for log_w in samples:
        direct = [np.exp(-g * log_w).mean() for g in grid]
        np.testing.assert_allclose(_power_means(log_w, grid), direct,
                                   rtol=1e-13, atol=0.0)


def test_overflowing_powers_give_minus_inf_not_nan():
    # w = e**-200: w**-g overflows from g = 3.55, inside the search range
    grid = np.linspace(*GAMMA_SEARCH_RANGE, 28)
    log_w = np.r_[np.full(5, -200.0),
                  np.random.default_rng(9).normal(0.0, 1.0, 100)]
    with np.errstate(over="ignore"):
        direct = np.array([np.exp(-g * log_w).mean() for g in grid])
        means = _power_means(log_w, grid)
        ll, _ = _profile_scan(log_w, float(log_w.mean()), grid)
    overflow = np.isinf(direct)
    assert overflow.any() and not overflow.all()
    np.testing.assert_array_equal(np.isinf(means), overflow)
    np.testing.assert_allclose(means[~overflow], direct[~overflow],
                               rtol=1e-13, atol=0.0)
    assert not np.isnan(ll).any()
    assert np.all(ll[overflow] == -np.inf)
    assert np.all(np.isfinite(ll[~overflow]))


def test_maximum_at_upper_bound_returns_exactly_hi():
    # the profile still rises at gamma = 4 for data with gamma = 6
    x = giga_sample(GIGaParams(2, 1, 6.0), 2000, seed=0)
    r = fit_giga(x)
    assert r.params.gamma == GAMMA_SEARCH_RANGE[1]
    assert r.at_boundary and r.converged
    assert r.iterations == 29  # the scan plus one score evaluation
    # in units where w**-4 would overflow the fit is the same: it
    # centers log w before taking powers
    assert fit_giga(1e-90 * x).params.gamma == GAMMA_SEARCH_RANGE[1]
    log_w = np.log(x)
    d1, _, _, _ = _profile_score(log_w, float(log_w.mean()),
                                 GAMMA_SEARCH_RANGE[1], None,
                                 np.empty_like(log_w), np.empty_like(log_w))
    assert d1 > 0.0


def test_search_stops_short_of_overflowing_powers():
    # w**-gamma overflows above gamma = 1.86 for w = e**-400 (the fit
    # centers log w first) while the profile still rises: the search
    # must settle below that edge with finite parameters
    log_w = np.r_[np.full(5, -400.0),
                  np.random.default_rng(9).normal(0.0, 1.0, 100)]
    x = np.exp(log_w)
    centered = log_w - log_w.mean()
    with np.errstate(over="ignore"):
        r = fit_giga(x)
        with pytest.raises(DegenerateSampleError):
            _profile_at_gamma(centered, float(centered.mean()), 1.87)
    assert r.converged and not r.at_boundary
    assert 1.8 < r.params.gamma < 1.87
    assert np.isfinite(r.loglik)
    # and settles at the edge of the finite profile, found by bisection

    def finite(gamma):
        try:
            with np.errstate(over="ignore"):
                ll = _profile_at_gamma(centered, float(centered.mean()),
                                       gamma)[0]
        except DegenerateSampleError:
            return False
        return np.isfinite(ll)
    lo, hi = 1.8, 1.87
    assert finite(lo) and not finite(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    assert abs(r.params.gamma - lo) <= 2 * GAMMA_TOL


def _golden_section_reference(log_w):
    """The coarse scan plus golden-section search that the Newton search
    replaced, on exact profile evaluations; it gives the former fit's
    gamma to the bit."""
    lo, hi = GAMMA_SEARCH_RANGE
    grid = np.linspace(lo, hi, 28)
    scan = [_exact_profile(log_w, g) for g in grid]
    best = int(np.argmax([ll for ll, _ in scan]))
    shape = scan[best][1]
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, shape = _exact_profile(log_w, c, shape)
    fd, shape = _exact_profile(log_w, d, shape)
    while b - a > GAMMA_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc, shape = _exact_profile(log_w, c, shape)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd, shape = _exact_profile(log_w, d, shape)
    return 0.5 * (a + b)


def test_newton_search_refines_golden_section_answer():
    # 200 samples across the dense-argmax parameter sets: the Newton
    # answer lies within GAMMA_TOL of the golden-section one, and its
    # profile loglik is not below it beyond the rounding of the profile
    for i, (params, _) in enumerate(DENSE_ARGMAX_CASES):
        for s in range(40):
            log_w = np.log(giga_sample(params, 2000, seed=10000 + 100 * i + s))
            golden = _golden_section_reference(log_w)
            newton = fit_giga(np.exp(log_w)).params.gamma
            assert abs(newton - golden) <= GAMMA_TOL
            ll_golden = _exact_profile(log_w, golden)[0]
            assert (_exact_profile(log_w, newton)[0]
                    >= ll_golden - 1e-12 * abs(ll_golden))


def test_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmnet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bmnet; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_report_serialization_keys():
    x = giga_sample(GIGaParams(3, 2, 1), 200, seed=1)
    for report in (fit_lognormal(x), fit_iga(x), fit_giga(x)):
        d = report.to_json_dict()
        assert set(d) == {"family", "params", "loglik", "n", "converged",
                          "iterations", "at_boundary", "gamma",
                          "alpha_gamma"}
