"""Reference functions that only the tests use.

Densities, the quantile and the mean of the closed-form families, the
exact law of uncoupled wealth, the inverse of the engine's rescaling, a
plain gamma MLE on bmnet's inner solver and one evaluation of the GIGa
profile likelihood.  No bmnet command calls them, so they live with the
tests.
"""

import math

import numpy as np
from scipy.special import gammainccinv, gammaln

from bmnet.distributions import GIGaParams, LNParams, giga_logpdf, ln_logpdf
from bmnet.fitting import (_gamma_mle_from_stats, _profile_loglik,
                           _validate_samples)


def giga_pdf(p: GIGaParams, w):
    """Density of the GIGa family."""
    return np.exp(giga_logpdf(p, w))


def giga_quantile(p: GIGaParams, u):
    """Inverse CDF.  u=0 maps to 0, u=1 to +inf."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u > 1)):
        raise ValueError("quantile argument must lie in [0, 1]")
    x = gammainccinv(p.alpha, u)
    with np.errstate(divide="ignore"):
        out = p.beta * x ** (-1.0 / p.gamma)
    return out if out.ndim else float(out)


def giga_mean(p: GIGaParams) -> float:
    """Mean beta * Gamma(alpha - 1/gamma) / Gamma(alpha); inf when alpha*gamma <= 1."""
    if p.alpha * p.gamma <= 1.0:
        return math.inf
    return p.beta * math.exp(gammaln(p.alpha - 1.0 / p.gamma) - gammaln(p.alpha))


def transient_lognormal_J0(sigma: float, t: float) -> LNParams:
    """Lognormal law of uncoupled wealth at time t: mu=-sigma^2 t, s=sigma sqrt(2t).

    With no coupling there is no stationary limit; the spread grows with
    t without bound while the mean stays at one.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return LNParams(mu=-sigma * sigma * t, s=sigma * math.sqrt(2.0 * t))


def ln_pdf(p: LNParams, w):
    return np.exp(ln_logpdf(p, w))


def to_unscaled(w: np.ndarray, sigma: float, t: float) -> np.ndarray:
    """Undo the mean-growth rescaling: W_i = w_i exp(sigma^2 t)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return np.asarray(w, dtype=float) * math.exp(sigma * sigma * t)


def gamma_shape_scale_mle(samples):
    """MLE (shape, scale) of a gamma-distributed sample."""
    y = _validate_samples(samples, 2)
    shape, scale, _ = _gamma_mle_from_stats(float(y.mean()),
                                            float(np.log(y).mean()))
    return shape, scale


def _profile_at_gamma(log_w: np.ndarray, mean_log_w: float, gamma: float,
                      shape0=None):
    """Inner gamma MLE for y = w**-gamma plus the profiled GIGa loglik.

    The loglik is assembled from sufficient statistics only, so each
    profile evaluation costs one exp() pass over the data.
    """
    mean_y = float(np.exp(-gamma * log_w).mean())
    mean_log_y = -gamma * mean_log_w
    shape, scale, steps = _gamma_mle_from_stats(mean_y, mean_log_y, shape0)
    ll = _profile_loglik(log_w.size, gamma, mean_y, mean_log_y, mean_log_w,
                         shape)
    return float(ll), shape, scale, steps
