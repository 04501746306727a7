"""Density, CDF, sampler and stationary-parameter checks.

Quadrature oracles integrate the density in log-wealth coordinates,
where the integrand is exponentially localized even for slowly decaying
power-law tails.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from bmnet.distributions import (GIGaParams, LNParams, giga_cdf, giga_logpdf,
                                 giga_sample, ln_cdf, ln_logpdf, ln_sample,
                                 stationary_giga, theta_of_gamma)
from bmnet.gof import ks_statistic
from oracles import (giga_mean, giga_pdf, giga_quantile, ln_pdf,
                     transient_lognormal_J0)

# NaN, alone or inside an array, is rejected like a non-positive value
NOT_POSITIVE = [0.0, -1.0, np.nan, np.array([1.0, np.nan, 2.0])]

PARAM_GRID = [GIGaParams(a, b, g)
              for a in (0.5, 1.0, 3.0, 6.0, 10.0)
              for g in (0.3, 0.5, 1.0, 2.0)
              for b in (0.5, 2.0, 20.0)]


def quad_log_space(p, moment=0):
    """Integral of w**moment * pdf over (0, inf), in x = log w coordinates."""
    def integrand(x):
        if abs(x) > 600.0:
            return 0.0
        value = giga_logpdf(p, math.exp(x)) + (moment + 1) * x
        return math.exp(value) if value > -700.0 else 0.0
    center = math.log(p.beta)
    lo, _ = quad(integrand, -np.inf, center, epsabs=1e-12, epsrel=1e-12,
                 limit=300)
    hi, _ = quad(integrand, center, np.inf, epsabs=1e-12, epsrel=1e-12,
                 limit=300)
    return lo + hi


class TestGIGaDensity:
    def test_direct_substitution(self):
        # (gamma/(beta Gamma(alpha))) e^{-2} 2^4 = 4 e^{-2}
        assert giga_pdf(GIGaParams(3, 2, 1), 1.0) == pytest.approx(
            0.5413411329464508, rel=1e-13)

    def test_density_vanishes_at_origin(self):
        p = GIGaParams(3, 2, 1)
        assert giga_pdf(p, 1e-8) == 0.0
        assert giga_logpdf(p, 1e-12) < -1e10
        assert giga_logpdf(p, 1e-320) == -np.inf

    def test_rejects_nonpositive_wealth(self):
        p = GIGaParams(3, 2, 1)
        for w in NOT_POSITIVE:
            for fn in (giga_logpdf, giga_cdf):
                with pytest.raises(ValueError):
                    fn(p, w)
        # +inf is a valid wealth: no density, all of the mass below it
        assert giga_logpdf(p, np.inf) == -np.inf
        assert giga_cdf(p, np.inf) == 1.0

    def test_power_law_tail_ratio(self):
        # tail exponent 1 + alpha*gamma = 4: pdf(2w)/pdf(w) -> 2^-4.
        # At w=10 the exponential factor still contributes e^{0.1} (about
        # 10%); by w=100 the ratio is within 2% of the pure power law.
        p = GIGaParams(3, 2, 1)
        ratio_10 = giga_pdf(p, 20.0) / giga_pdf(p, 10.0)
        assert ratio_10 == pytest.approx(2.0 ** -4 * math.exp(0.1), rel=1e-10)
        ratio_100 = giga_pdf(p, 200.0) / giga_pdf(p, 100.0)
        assert ratio_100 == pytest.approx(2.0 ** -4, rel=0.02)

    def test_extreme_arguments_stay_finite(self):
        p = GIGaParams(6, 20, 0.5)
        lp = giga_logpdf(p, np.array([1e-12, 1e-6, 1.0, 1e6, 1e12]))
        assert not np.any(np.isnan(lp))
        assert np.all(lp[2:] > -np.inf)

    @pytest.mark.parametrize("p", PARAM_GRID[::5])
    def test_normalization_subset(self, p):
        assert quad_log_space(p) == pytest.approx(1.0, abs=1e-8)


class TestGIGaCdf:
    def test_alpha_one_closed_form(self):
        # alpha=beta=gamma=1: CDF(w) = exp(-1/w)
        p = GIGaParams(1, 1, 1)
        for w in (0.2, 1.0, 5.0):
            assert giga_cdf(p, w) == pytest.approx(math.exp(-1.0 / w), rel=1e-12)
        assert giga_cdf(p, 1.0 / math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_and_limits(self):
        p = GIGaParams(6, 20, 0.5)
        w = np.geomspace(1e-6, 1e9, 400)
        c = giga_cdf(p, w)
        assert np.all(np.diff(c) >= 0)
        assert c[0] == pytest.approx(0.0, abs=1e-12)
        assert c[-1] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", [GIGaParams(3, 2, 1), GIGaParams(6, 20, 0.5),
                                   GIGaParams(0.5, 0.5, 2.0)])
    def test_quantile_round_trip(self, p):
        for u in (0.01, 0.5, 0.99):
            assert giga_cdf(p, giga_quantile(p, u)) == pytest.approx(u, abs=1e-8)

    @pytest.mark.parametrize("p", [GIGaParams(3, 2, 1), GIGaParams(6, 20, 0.5),
                                   GIGaParams(1, 0.5, 0.3)])
    def test_cdf_matches_pdf_quadrature(self, p):
        for u in (0.1, 0.5, 0.9):
            w = giga_quantile(p, u)
            def integrand(x):
                if abs(x) > 600.0:
                    return 0.0
                value = giga_logpdf(p, math.exp(x)) + x
                return math.exp(value) if value > -700.0 else 0.0
            val, _ = quad(integrand, -np.inf, math.log(w),
                          epsabs=1e-12, epsrel=1e-12, limit=300)
            assert val == pytest.approx(giga_cdf(p, w), abs=1e-8)


class TestGIGaSampler:
    def test_mean_matches_moment_formula(self):
        p = GIGaParams(3, 2, 1)
        x = giga_sample(p, 10 ** 6, seed=42)
        band = 3 * x.std() / math.sqrt(x.size)
        assert abs(x.mean() - giga_mean(p)) < band
        assert giga_mean(p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [GIGaParams(3, 2, 1), GIGaParams(6, 20, 0.5)])
    def test_ks_against_cdf(self, p):
        n = 10 ** 5
        x = giga_sample(p, n, seed=7)
        d = ks_statistic(x, lambda v: giga_cdf(p, v))
        assert d < 1.63 / math.sqrt(n)  # 1% asymptotic critical value

    def test_infinite_mean_regime_still_samples(self):
        x = giga_sample(GIGaParams(0.5, 1.0, 1.0), 10 ** 4, seed=3)
        assert np.all(x > 0)
        assert np.all(np.isfinite(x))

    def test_deterministic_in_seed(self):
        p = GIGaParams(6, 20, 0.5)
        assert np.array_equal(giga_sample(p, 100, seed=5),
                              giga_sample(p, 100, seed=5))


class TestThetaOfGamma:
    def test_mean_field_endpoint_exact(self):
        assert theta_of_gamma(0.1, 0.05, 1.0) == 1.0
        assert theta_of_gamma(0.3, 0.02, 1.0) == 1.0

    def test_disconnected_endpoint(self):
        # The gamma -> 0 limit of the unit-mean normalizer follows from
        # Stirling: with a = J/sigma^2, theta -> ((1+1/a)**(a+1))/e.
        # (This is what the normalization integral demands; see the
        # unit-mean quadrature tests below.)
        limit = (1.0 + 0.5) ** 3 / math.e
        assert theta_of_gamma(0.1, 0.05, 1e-4) == pytest.approx(limit, abs=1e-4)
        assert theta_of_gamma(0.1, 0.05, 1e-6) == pytest.approx(limit, abs=1e-6)

    def test_integer_gamma_arguments(self):
        # (J+s2)/(g s2) = 6, J/(g s2) = 4: Gamma(6)/Gamma(4) = 20
        assert theta_of_gamma(0.1, 0.05, 0.5) == pytest.approx(
            0.25 * math.sqrt(20.0), rel=1e-12)

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-3, 1.0, 100)
        vals = [theta_of_gamma(0.1, 0.05, g) for g in grid]
        assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_of_gamma(0.1, 0.05, 0.0)
        with pytest.raises(ValueError):
            theta_of_gamma(0.1, 0.05, 1.5)
        with pytest.raises(ValueError):
            theta_of_gamma(0.0, 0.05, 0.5)


class TestStationaryGIGa:
    def test_mean_field_member(self):
        p = stationary_giga(0.1, 0.05, 1.0)
        assert p.alpha == pytest.approx(3.0, abs=1e-12)
        assert p.beta == pytest.approx(2.0, abs=1e-12)

    def test_half_exponent(self):
        p = stationary_giga(0.1, 0.05, 0.5)
        assert p.alpha == pytest.approx(6.0, rel=1e-12)
        assert p.beta == pytest.approx(20.0, rel=1e-10)
        # beta equals the unit-mean value Gamma(alpha)/Gamma(alpha - 1/gamma)
        assert p.beta == pytest.approx(
            math.exp(gammaln(6.0) - gammaln(4.0)), rel=1e-10)
        assert giga_mean(p) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("J", [0.05, 0.1, 0.4])
    @pytest.mark.parametrize("sigma2", [0.01, 0.05])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.8, 1.0])
    def test_tail_exponent_independent_of_gamma(self, J, sigma2, gamma):
        p = stationary_giga(J, sigma2, gamma)
        assert p.alpha_gamma == pytest.approx(1.0 + J / sigma2, rel=1e-10)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8, 1.0])
    def test_unit_mean_by_quadrature(self, gamma):
        p = stationary_giga(0.1, 0.05, gamma)
        assert quad_log_space(p, moment=1) == pytest.approx(1.0, abs=1e-8)

    def test_mean_field_matches_direct_inverse_gamma_density(self):
        # independent form: c * exp(-(J/s2)/w) * w^(-2 - J/s2)
        J, s2 = 0.1, 0.05
        p = stationary_giga(J, s2, 1.0)
        a = (J + s2) / s2
        log_c = -a * math.log(s2 / J) - gammaln(a)
        for w in (0.1, 0.5, 1.0, 4.0, 50.0):
            direct = math.exp(log_c - (J / s2) / w - (2.0 + J / s2) * math.log(w))
            assert giga_pdf(p, w) == pytest.approx(direct, rel=1e-12)


class TestTransientLognormal:
    def test_median(self):
        p = transient_lognormal_J0(math.sqrt(0.05), 1.0)
        assert math.exp(p.mu) == pytest.approx(0.951229424500714, rel=1e-12)
        assert ln_cdf(p, math.exp(p.mu)) == pytest.approx(0.5, abs=1e-12)

    def test_density_at_one(self):
        # 1/(2 sqrt(pi t) sigma) * exp(-(sigma^2 t)^2 / (4 t sigma^2))
        p = transient_lognormal_J0(math.sqrt(0.05), 1.0)
        assert ln_pdf(p, 1.0) == pytest.approx(1.245894833225625, rel=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_normalization(self, t):
        p = transient_lognormal_J0(math.sqrt(0.05), t)
        def integrand(x):
            if abs(x) > 600.0:
                return 0.0
            return ln_pdf(p, math.exp(x)) * math.exp(x)
        lo, _ = quad(integrand, -np.inf, p.mu, epsabs=1e-13, limit=300)
        hi, _ = quad(integrand, p.mu, np.inf, epsabs=1e-13, limit=300)
        assert lo + hi == pytest.approx(1.0, abs=1e-10)

    def test_spread_grows_without_bound(self):
        sigma = math.sqrt(0.05)
        s_vals = [transient_lognormal_J0(sigma, t).s for t in (1, 10, 100, 1000)]
        assert np.all(np.diff(s_vals) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            transient_lognormal_J0(math.sqrt(0.05), 0.0)
        with pytest.raises(ValueError):
            transient_lognormal_J0(0.0, 1.0)


class TestLognormalFamily:
    def test_sample_mean(self):
        p = LNParams(mu=-0.05, s=math.sqrt(0.1))
        x = ln_sample(p, 10 ** 6, seed=11)
        expected = math.exp(p.mu + 0.5 * p.s ** 2)
        band = 3 * x.std() / math.sqrt(x.size)
        assert abs(x.mean() - expected) < band

    def test_pdf_cdf_consistency(self):
        p = LNParams(mu=0.3, s=0.7)
        w = np.geomspace(0.01, 100, 50)
        c = ln_cdf(p, w)
        assert np.all(np.diff(c) > 0)
        # central difference of the CDF reproduces the density
        for x in (0.5, 1.0, 2.0, 5.0):
            h = 1e-6 * x
            approx = (ln_cdf(p, x + h) - ln_cdf(p, x - h)) / (2 * h)
            assert approx == pytest.approx(ln_pdf(p, x), rel=1e-6)

    def test_rejects_nonpositive(self):
        p = LNParams(0.0, 1.0)
        for w in [-2.0, *NOT_POSITIVE]:
            for fn in (ln_logpdf, ln_cdf):
                with pytest.raises(ValueError):
                    fn(p, w)
        assert ln_logpdf(p, np.inf) == -np.inf
        assert ln_cdf(p, np.inf) == 1.0
        with pytest.raises(ValueError):
            LNParams(0.0, 0.0)
