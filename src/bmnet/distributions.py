"""Closed-form distributions and stationary-parameter relations.

Implements the three-parameter generalized inverse gamma family (GIGa),
its inverse-gamma member (gamma = 1), the lognormal family, and the
analytic relations that tie the wealth-dynamics parameters (J, sigma^2,
gamma) to the stationary GIGa parameters: the unit-mean normalizer
theta(gamma) and the stationary (alpha, beta, gamma) triple.

All densities are evaluated in log space so that extreme wealth values
(w far above or below beta) neither overflow nor underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln, ndtr

# exp() overflows past ~709; anything above this threshold is density zero
_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class GIGaParams:
    """Generalized inverse gamma parameters (shape, scale, exponent).

    density(w) = gamma / (beta * Gamma(alpha))
                 * exp(-(beta/w)**gamma) * (beta/w)**(1 + alpha*gamma)

    The inverse gamma family is the gamma = 1 member.  The mean exists
    iff alpha * gamma > 1.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.gamma > 0):
            raise ValueError(
                f"GIGa parameters must be positive, got "
                f"({self.alpha}, {self.beta}, {self.gamma})")

    @property
    def alpha_gamma(self) -> float:
        """Tail exponent minus one: density falls as w**-(1 + alpha*gamma)."""
        return self.alpha * self.gamma


@dataclass(frozen=True)
class LNParams:
    """Lognormal parameters: log-location mu and log-scale s > 0."""

    mu: float
    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"lognormal scale must be positive, got {self.s}")


def _check_positive(w):
    w = np.asarray(w, dtype=float)
    # NaN fails w > 0, so it is rejected with the non-positive values
    if not np.all(w > 0):
        raise ValueError("wealth values must be positive")
    return w


def giga_logpdf(p: GIGaParams, w):
    """Log density of the GIGa family, overflow-safe for extreme w."""
    w = _check_positive(w)
    log_ratio = np.log(p.beta) - np.log(w)
    lr = p.gamma * log_ratio
    # (beta/w)**gamma via exp(gamma * log(beta/w)); past the overflow
    # threshold the essential singularity forces the density to zero.
    out = np.where(
        lr > _EXP_OVERFLOW,
        -np.inf,
        np.log(p.gamma) - np.log(p.beta) - gammaln(p.alpha)
        - np.exp(np.minimum(lr, _EXP_OVERFLOW))
        + (1.0 + p.alpha * p.gamma) * log_ratio,
    )
    return out if out.ndim else float(out)


def giga_cdf(p: GIGaParams, w):
    """CDF via the regularized upper incomplete gamma: Q(alpha, (beta/w)**gamma)."""
    w = _check_positive(w)
    lr = p.gamma * (np.log(p.beta) - np.log(w))
    out = gammaincc(p.alpha, np.exp(np.minimum(lr, _EXP_OVERFLOW)))
    return out if np.ndim(out) else float(out)


def giga_sample(p: GIGaParams, count: int, seed) -> np.ndarray:
    """IID GIGa draws by inverse power transform of unit-scale gamma draws."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    x = rng.standard_gamma(p.alpha, size=count)
    # a denormal gamma draw would map to inf; clip at the smallest normal
    np.maximum(x, np.finfo(float).tiny, out=x)
    # in place; an array ** scalar keeps numpy's reciprocal path at -1
    x **= -1.0 / p.gamma
    return np.multiply(x, p.beta, out=x)


def theta_of_gamma(J: float, sigma2: float, gamma: float) -> float:
    """Unit-mean normalizer of the stationary law.

    theta = (gamma sigma^2 / J)
            * (Gamma((J+sigma^2)/(gamma sigma^2)) / Gamma(J/(gamma sigma^2)))**gamma

    Monotone decreasing from (1 + sigma^2/J)**(1 + J/sigma^2) / e at
    gamma -> 0 (the Stirling limit) to 1 at gamma = 1.
    Evaluated through log-gamma differences since the Gamma arguments grow
    as 1/gamma.
    """
    if not (J > 0 and sigma2 > 0):
        raise ValueError(f"J and sigma2 must be positive, got J={J}, sigma2={sigma2}")
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if gamma == 1.0:
        # Gamma(x+1)/Gamma(x) = x with x = J/sigma2 cancels the prefactor
        return 1.0
    a_hi = (J + sigma2) / (gamma * sigma2)
    a_lo = J / (gamma * sigma2)
    return (gamma * sigma2 / J) * math.exp(gamma * (gammaln(a_hi) - gammaln(a_lo)))


def stationary_giga(J: float, sigma2: float, gamma: float) -> GIGaParams:
    """Stationary GIGa parameters of the interacting dynamics.

    alpha = (J + sigma^2) / (gamma sigma^2) and
    beta = (J theta / (sigma^2 gamma))**(1/gamma), which makes the mean
    exactly one.  gamma = 1 gives the mean-field inverse gamma member
    with alpha = 1 + J/sigma^2 and beta = J/sigma^2.
    """
    theta = theta_of_gamma(J, sigma2, gamma)
    alpha = (J + sigma2) / (gamma * sigma2)
    beta = (J * theta / (sigma2 * gamma)) ** (1.0 / gamma)
    return GIGaParams(alpha=alpha, beta=beta, gamma=gamma)


def ln_logpdf(p: LNParams, w):
    w = _check_positive(w)
    z = (np.log(w) - p.mu) / p.s
    out = -np.log(w) - np.log(p.s) - 0.5 * np.log(2.0 * np.pi) - 0.5 * z * z
    return out if out.ndim else float(out)


def ln_cdf(p: LNParams, w):
    w = _check_positive(w)
    out = ndtr((np.log(w) - p.mu) / p.s)
    return out if np.ndim(out) else float(out)


def ln_sample(p: LNParams, count: int, seed) -> np.ndarray:
    """IID lognormal draws, deterministic in seed."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return np.exp(p.mu + p.s * rng.standard_normal(count))
