"""Maximum-likelihood fitting for the LN, IGa and GIGa families.

The GIGa fit is a profile likelihood over the exponent: for fixed gamma,
y = w**-gamma is gamma-distributed, so the inner (shape, scale) problem
is an exact one-dimensional MLE, solved by a few Newton steps on
log(shape) from a closed-form start.  The outer search over gamma is a
coarse scan, whose powers w**-gamma come by recursion along the grid and
whose inner solves run as one vectorised Newton call, followed by
safeguarded Newton steps on the analytic profile score inside the best
bracket, where each inner solve starts from the previous shape.  The IGa
fit is the gamma = 1 profile, and the lognormal fit is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .distributions import GIGaParams, LNParams, giga_logpdf, ln_logpdf
from .errors import DegenerateSampleError

GAMMA_SEARCH_RANGE = (0.05, 4.0)
GAMMA_TOL = 1e-4
_SCAN_POINTS = 28
_NEWTON_RTOL = 1e-10
_NEWTON_MAX_STEPS = 8


@dataclass(frozen=True)
class FitReport:
    """Outcome of a maximum-likelihood fit.

    ``gamma_hat`` and ``alpha_gamma`` expose the tail observables of the
    inverse-gamma families; they are None for the lognormal fit.
    ``at_boundary`` flags a GIGa exponent pinned at the search boundary
    (typical for near-lognormal data, where the family is weakly
    identified).  ``iterations`` counts, for GIGa, the scan points plus
    the score evaluations of the exponent search; for IGa, the Newton
    steps of the inner shape solve; for LN it is 1.
    """

    family: str
    params: GIGaParams | LNParams
    loglik: float
    n: int
    converged: bool
    iterations: int
    at_boundary: bool = False

    @property
    def gamma_hat(self):
        if isinstance(self.params, GIGaParams):
            return self.params.gamma
        return None

    @property
    def alpha_gamma(self):
        if isinstance(self.params, GIGaParams):
            return self.params.alpha_gamma
        return None

    def to_json_dict(self) -> dict:
        if isinstance(self.params, GIGaParams):
            params = {"alpha": self.params.alpha, "beta": self.params.beta,
                      "gamma": self.params.gamma}
        else:
            params = {"mu": self.params.mu, "s": self.params.s}
        return {
            "family": self.family,
            "params": params,
            "loglik": self.loglik,
            "n": self.n,
            "converged": self.converged,
            "iterations": self.iterations,
            "at_boundary": self.at_boundary,
            "gamma": self.gamma_hat,
            "alpha_gamma": self.alpha_gamma,
        }


def _validate_samples(samples, min_n: int) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < min_n:
        raise ValueError(f"need at least {min_n} samples, got {x.size}")
    # argmin and argmax point at a NaN if there is one
    if not (x[x.argmin()] > 0 and x[x.argmax()] < np.inf):
        raise ValueError("samples must be positive and finite")
    return x


def _ln_mle(samples):
    """Validated sample and its lognormal MLE parameters."""
    x = _validate_samples(samples, 2)
    log_x = np.log(x)
    mu = float(log_x.mean())
    s2 = float(log_x.var())
    if s2 <= 0.0:
        raise DegenerateSampleError("all samples equal; lognormal fit undefined")
    return x, LNParams(mu=mu, s=float(np.sqrt(s2)))


def fit_lognormal(samples) -> FitReport:
    """Closed-form lognormal MLE: mu = mean(log w), s^2 = population var(log w)."""
    x, params = _ln_mle(samples)
    loglik = float(np.sum(ln_logpdf(params, x)))
    return FitReport(family="LN", params=params, loglik=loglik,
                     n=x.size, converged=True, iterations=1)


def _minka_start(s):
    # closed-form approximation to the shape (Minka 2002, "Estimating a
    # Gamma distribution"), within 1.5% for every s > 0
    return (3.0 - s + np.sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s)


def _newton_shape(s: float, k: float):
    """Solve log(k) - digamma(k) = s by Newton steps on u = log k from k.

    g(u) = u - digamma(e**u) - s is decreasing and convex, so from any
    start the steps converge, monotonically after the first; they stop
    once a step moves k by a relative 1e-10 or after _NEWTON_MAX_STEPS
    (reached only for s below about 5e-6, where rounding in g limits k
    to a relative 1e-9).  Runs on Python floats and applies the same
    numpy and scipy functions, in the same order, as
    :func:`_newton_shape_array`, so both give identical shapes.
    Returns (shape, steps).
    """
    u = float(np.log(k))
    for step in range(1, _NEWTON_MAX_STEPS + 1):
        k = float(np.exp(u))
        # g'(u) = 1 - k * trigamma(k), and trigamma(k) = zeta(2, k)
        du = (u - float(digamma(k)) - s) / (1.0 - k * float(zeta(2.0, k)))
        u -= du
        if abs(du) <= _NEWTON_RTOL:
            break
    return float(np.exp(u)), step


def _newton_shape_array(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Element-wise :func:`_newton_shape`; each element stops on its own,
    and each step evaluates only the elements that still move."""
    u = np.log(k)
    active = np.arange(u.size)
    for _ in range(_NEWTON_MAX_STEPS):
        k = np.exp(u[active])
        du = (u[active] - digamma(k) - s[active]) / (1.0 - k * zeta(2.0, k))
        u[active] -= du
        active = active[np.abs(du) > _NEWTON_RTOL]
        if not active.size:
            break
    return np.exp(u)


def _gamma_mle_from_stats(mean_y: float, mean_log_y: float, shape0=None):
    """Solve log(shape) - digamma(shape) = log(mean) - mean(log) by
    Newton steps from shape0 (default: the closed-form start); returns
    (shape, scale, steps)."""
    s = float(np.log(mean_y) - mean_log_y)
    if not np.isfinite(s) or s <= 0.0:
        raise DegenerateSampleError("no dispersion; gamma MLE undefined")
    shape, steps = _newton_shape(s, _minka_start(s) if shape0 is None
                                 else shape0)
    if mean_y / shape == np.inf:
        raise DegenerateSampleError("gamma MLE scale overflows")
    return shape, mean_y / shape, steps


def _profile_loglik(n, gamma, mean_y, mean_log_y, mean_log_w, shape):
    """Profiled GIGa loglik at exponent gamma from sufficient statistics;
    takes floats or arrays over gamma."""
    scale = mean_y / shape
    ll_gamma = n * ((shape - 1.0) * mean_log_y - mean_y / scale
                    - shape * np.log(scale) - gammaln(shape))
    # Jacobian of w -> w**-gamma: sum log(gamma * w**-(gamma+1))
    return ll_gamma + n * np.log(gamma) - (gamma + 1.0) * n * mean_log_w


def _power_means(log_w: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Mean of w**-g at every exponent g of an arithmetic grid.

    The powers come by recursion, w**-(g0 + j*dg) = w**-g0 * (w**-dg)**j:
    two exp() passes, then one in-place multiply per further exponent.
    """
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    buf = np.multiply(log_w, -grid[0])
    ratio = np.multiply(log_w, -step)
    np.exp(buf, out=buf)
    np.exp(ratio, out=ratio)
    sum_y = np.empty(grid.size)
    sum_y[0] = buf.sum()
    for j in range(1, grid.size):
        sum_y[j] = np.multiply(buf, ratio, out=buf).sum()
    return sum_y / log_w.size


def _profile_scan(log_w: np.ndarray, mean_log_w: float, grid: np.ndarray):
    """Profile loglik and inner shape at every point of an arithmetic grid.

    The means of w**-g come from :func:`_power_means`, and the inner MLEs
    are solved together.  Exponents where the inner problem is
    degenerate, an overflowing power included, get loglik -inf.
    """
    mean_y = _power_means(log_w, grid)
    mean_log_y = -grid * mean_log_w
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(mean_y) - mean_log_y
    ok = np.isfinite(s) & (s > 0.0)
    shape = np.full(grid.size, np.nan)
    shape[ok] = _newton_shape_array(s[ok], _minka_start(s[ok]))
    ll = np.full(grid.size, -np.inf)
    ll[ok] = _profile_loglik(log_w.size, grid[ok], mean_y[ok], mean_log_y[ok],
                             mean_log_w, shape[ok])
    return ll, shape


def _profile_score(log_w: np.ndarray, mean_log_w: float, gamma: float,
                   shape0, y: np.ndarray, z: np.ndarray):
    """Score and curvature of the profile loglik at gamma, with the inner
    (shape, scale) MLE solved from shape0.

    With L = log w, m = mean(L), r and q the means of L and L**2
    weighted by y = w**-gamma and k the inner shape, the envelope theorem
    gives the score P' = n (1/gamma - k m + k r); differentiating it, with
    k' = (m - r) / (1/k - trigamma(k)) from the inner likelihood equation,
    gives P'' = n (-1/gamma**2 + k' (r - m) + k (r**2 - q)).  y and z are
    scratch buffers, so an evaluation costs one exp() pass and the sums
    of y, L y and L**2 y.  These are numpy sums, not BLAS dot products,
    whose rounding above 1e4 elements depends on the thread count.
    Returns (P', P'', shape, scale); raises DegenerateSampleError where
    the inner problem is degenerate.
    """
    n = log_w.size
    np.multiply(log_w, -gamma, out=y)
    sum_y = float(np.exp(y, out=y).sum())
    shape, scale, _ = _gamma_mle_from_stats(sum_y / n, -gamma * mean_log_w,
                                            shape0)
    r = float(np.multiply(log_w, y, out=z).sum()) / sum_y
    q = float(np.multiply(z, log_w, out=z).sum()) / sum_y
    if not np.isfinite(r + q):
        # on a sample spanning e**380 or more the sums weighted by L
        # overflow before that of y; y / max(y) gives the same means
        sum_y = float(np.divide(y, y.max(), out=y).sum())
        r = float(np.multiply(log_w, y, out=z).sum()) / sum_y
        q = float(np.multiply(z, log_w, out=z).sum()) / sum_y
    dshape = (mean_log_w - r) / (1.0 / shape - float(zeta(2.0, shape)))
    score = n * (1.0 / gamma + shape * (r - mean_log_w))
    curvature = n * (-1.0 / (gamma * gamma) + dshape * (r - mean_log_w)
                     + shape * (r * r - q))
    return score, curvature, shape, scale


def _iga_mle(samples):
    """Validated sample, inverse-gamma MLE parameters and Newton steps."""
    x = _validate_samples(samples, 2)
    log_x = np.log(x)
    shape, scale, iters = _gamma_mle_from_stats(float(np.exp(-log_x).mean()),
                                                -float(log_x.mean()))
    return x, GIGaParams(alpha=shape, beta=1.0 / scale, gamma=1.0), iters


def fit_iga(samples) -> FitReport:
    """Inverse-gamma MLE via the reciprocal transform y = 1/w."""
    x, params, iters = _iga_mle(samples)
    loglik = float(np.sum(giga_logpdf(params, x)))
    return FitReport(family="IGa", params=params, loglik=loglik,
                     n=x.size, converged=True, iterations=iters)


def _giga_mle(samples):
    """Validated sample, GIGa MLE parameters, whether beta and the shape
    came out finite, profile evaluations and the boundary flag."""
    x = _validate_samples(samples, 10)
    lo, hi = GAMMA_SEARCH_RANGE
    # the profile of w / exp(shift) peaks where that of w does; with
    # centered logs the powers overflow only for a wide sample, not for
    # one in other units
    log_w = np.log(x)
    shift = float(log_w.mean())
    log_w -= shift
    mean_log_w = float(log_w.mean())
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    values, shapes = _profile_scan(log_w, mean_log_w, grid)
    evals = grid.size
    best = int(np.argmax(values))  # first max: smallest gamma on ties
    if not np.isfinite(values[best]):
        raise DegenerateSampleError("profile likelihood undefined everywhere")
    start, shape = grid[best], float(shapes[best])
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]

    # safeguarded Newton on the score inside the bracket [a, b]: a
    # bisection replaces any step that leaves the bracket, meets a
    # non-negative curvature or a degenerate inner problem, or does not
    # halve the previous move, so the moves shrink geometrically.  The
    # search stops at the first evaluation after a move of at most
    # GAMMA_TOL, or where the score points out of the search range.
    y, z = np.empty_like(log_w), np.empty_like(log_w)
    gam, move = start, b - a
    while True:
        evals += 1
        try:
            d1, d2, shape, scale = _profile_score(log_w, mean_log_w, gam,
                                                  shape, y, z)
        except DegenerateSampleError:
            d1 = d2 = scale = np.nan
        if (gam == lo and d1 <= 0.0) or (gam == hi and d1 >= 0.0):
            break
        # the maximum lies where the score points; a degenerate point
        # lies beyond the finite region around the start
        if d1 > 0.0 or (np.isnan(d1) and gam < start):
            a = gam
        elif d1 < 0.0 or np.isnan(d1):
            b = gam
        if move <= GAMMA_TOL:
            break
        step = -d1 / d2 if d2 < 0.0 else np.nan
        new = (gam + step if a < gam + step < b and abs(step) <= 0.5 * move
               else 0.5 * (a + b))
        move, gam = abs(new - gam), new

    if np.isnan(scale):
        raise DegenerateSampleError("degenerate sample at fitted gamma")
    log_beta = shift - np.log(scale) / gam
    beta = float(np.exp(log_beta)) if abs(log_beta) < 700.0 else np.inf
    converged = bool(np.isfinite(beta) and np.isfinite(shape))
    at_boundary = bool(gam - lo <= 2 * GAMMA_TOL or hi - gam <= 2 * GAMMA_TOL)
    # keep the report inspectable even when beta over/underflowed
    params = GIGaParams(alpha=shape, beta=beta if converged else 1.0,
                        gamma=float(gam))
    return x, params, converged, evals, at_boundary


def fit_giga(samples) -> FitReport:
    """Three-parameter GIGa MLE by profile likelihood over the exponent.

    Scans GAMMA_SEARCH_RANGE, [0.05, 4], on 28 points, then refines the
    best bracket by safeguarded Newton steps on the profile score until
    a step moves gamma by at most GAMMA_TOL, 1e-4 (three or four score
    evaluations).  Ties in the scan resolve to the smallest gamma (flat
    profiles arise for near-lognormal data).  Where the score at the best
    scan point points out of the range, the fit returns that end exactly;
    boundary solutions are flagged, not errored.
    """
    x, params, converged, evals, at_boundary = _giga_mle(samples)
    loglik = float(np.sum(giga_logpdf(params, x))) if converged else -np.inf
    return FitReport(family="GIGa", params=params, loglik=loglik,
                     n=x.size, converged=converged, iterations=evals,
                     at_boundary=at_boundary)
