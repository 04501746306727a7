"""Kolmogorov-Smirnov statistics and parametric-bootstrap p-values.

Because the candidate parameters are estimated from the data, the
asymptotic KS null distribution does not apply; significance is
calibrated by refitting the same family on synthetic replicates drawn
from the fitted law and comparing their KS statistics to the observed
one.  A p-value needs only whether each replicate's distance reaches
the observed one, so only the observed distance is computed exactly.
Replicate seeds derive from (seed, replicate index), so the procedure
is deterministic and a large bootstrap splits its replicates over
forked processes without changing a count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fork
from .distributions import giga_cdf, giga_sample, ln_cdf, ln_sample
from .errors import DegenerateSampleError
from .fitting import (FitReport, _giga_mle, _iga_mle, _ln_mle, fit_giga,
                      fit_iga, fit_lognormal)

FAMILIES = ("LN", "IGa", "GIGa")

_FIT = {"LN": fit_lognormal, "IGa": fit_iga, "GIGa": fit_giga}
# bootstrap refits: the same fits without the log-likelihood, which the
# bootstrap never reads; each returns (sample, params, ...)
_REFIT = {"LN": _ln_mle, "IGa": _iga_mle, "GIGa": _giga_mle}
_CDF = {"LN": ln_cdf, "IGa": giga_cdf, "GIGa": giga_cdf}
_SAMPLE = {"LN": ln_sample, "IGa": giga_sample, "GIGa": giga_sample}

# default bootstrap size of a config's [fit] section and of reproduce
DEFAULT_BOOTSTRAP_B = 99

# ks_statistic evaluates the CDF in full only inside blocks of this many
# sorted values whose bound can reach the maximum deviation
_KS_BLOCK = 16
_KS_SLACK = 1e-12
# below this sample size ks_statistic evaluates the CDF in one full pass:
# the block bookkeeping costs more than the CDF values it skips.  The
# blocked pass breaks even at about n = 1100-1700 for the GIGa and IGa
# CDFs and about n = 4000 for the cheaper LN CDF (2-core Xeon, numpy 2.4)
_KS_FULL_BELOW = 1024


@dataclass(frozen=True)
class GofReport:
    """A fitted family with its KS distance and bootstrap p-value.

    The p-value is exceed_count / B: the fraction of the B replicates
    whose KS statistic reached the observed one, so a reported 0 means
    p < 1/B.  The denominator is B, discarded replicates included: a
    replicate whose refit fails counts as not reaching the observed
    distance.
    """

    fit: FitReport
    ks_stat: float
    p_value: float
    bootstrap_count: int
    exceed_count: int
    discarded_replicates: int = 0

    @property
    def family(self) -> str:
        return self.fit.family

    def to_json_dict(self) -> dict:
        d = self.fit.to_json_dict()
        d.update({
            "ks_stat": self.ks_stat,
            "p_value": self.p_value,
            "B": self.bootstrap_count,
            "discarded_replicates": self.discarded_replicates,
        })
        return d


def ks_statistic(samples, cdf) -> float:
    """Two-sided KS distance between a sample and a distribution function.

    ``cdf`` must be monotone on the sample's domain.  Below 1024 values it
    is called once, on the whole sorted sample.  Otherwise it is called
    at most twice: first on every 16th sorted value and on the largest,
    then on the values between those anchors, but only in the blocks
    where monotonicity lets the deviation reach the largest one seen at
    an anchor (less 1e-12, for CDFs monotone only to within rounding).
    The result equals a full evaluation on the sorted sample bit for bit.
    Bootstrap replicates do not call it: a p-value needs only whether
    each replicate's distance reaches the observed one.
    """
    return _ks_distance(samples, cdf)


def _ks_distance(samples, cdf, reach=None) -> float:
    """:func:`ks_statistic`; given ``reach``, some v <= the distance with
    v >= reach exactly when the distance >= reach, from the anchors if
    they reach it, else also from the blocks whose bound reaches it."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("KS statistic needs a nonempty sample")
    n = x.size
    if n < _KS_FULL_BELOW:
        f = np.asarray(cdf(x), dtype=float)
        steps = np.arange(1, n + 1) / n
        return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))
    anchors = np.minimum(np.arange(0, n + _KS_BLOCK - 1, _KS_BLOCK), n - 1)
    f = np.asarray(cdf(x[anchors]), dtype=float)
    steps = (anchors + 1) / n
    lows = steps - 1.0 / n
    d = max(np.max(steps - f), np.max(f - lows))
    if reach is None:
        reach = d
    elif d >= reach:
        return float(d)
    # inside a block (a, b) the deviation is at most
    # max(steps[b] - F(x_a), F(x_b) - lows[a])
    bound = np.maximum(steps[1:] - f[:-1], f[1:] - lows[:-1])
    blocks = np.flatnonzero(bound >= reach - _KS_SLACK)
    idx = (anchors[blocks, None] + np.arange(1, _KS_BLOCK)).ravel()
    idx = idx[idx < n - 1]  # only the last block can be shorter
    if idx.size:
        f = np.asarray(cdf(x[idx]), dtype=float)
        steps = (idx + 1) / n
        lows = steps - 1.0 / n
        d = max(d, np.max(steps - f), np.max(f - lows))
    return float(d)


def ks_pvalue_bootstrap(samples, family: str, B: int, seed) -> GofReport:
    """Parametric-bootstrap KS p-value for one family.

    Fit the family, measure the observed KS distance, then refit on B
    synthetic samples of the same size drawn from the fitted law; the
    p-value is the fraction of the B replicates at least as extreme.
    Only that decision is made for each replicate, not its exact
    distance.  Replicates whose refit fails are discarded and counted;
    they stay in the denominator B as not extreme.  For at least
    ``_fork._FORK_MIN_DRAWS`` synthetic values in all, on two CPUs or
    more, forked processes take contiguous ranges of the replicates; the
    report is the same.
    """
    if family not in _FIT:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if B < 1:
        raise ValueError(f"bootstrap size must be >= 1, got {B}")
    x = np.asarray(samples, dtype=float).ravel()
    fit = _FIT[family](x)
    cdf = _CDF[family]
    d_obs = ks_statistic(x, lambda v: cdf(fit.params, v))
    n = x.size

    def counts(lo, hi):
        exceed = discarded = 0
        for b in range(lo, hi):
            rep_seed = np.random.SeedSequence([int(seed), b])
            synth = _SAMPLE[family](fit.params, n, rep_seed)
            try:
                refit_params = _REFIT[family](synth)[1]
            except (DegenerateSampleError, ValueError):
                discarded += 1
                continue
            d_b = _ks_distance(synth, lambda v: cdf(refit_params, v), d_obs)
            if d_b >= d_obs:
                exceed += 1
        return exceed, discarded

    # one contiguous range of replicates per process; only integer
    # counts come back, so the split cannot change the report
    parts = min(B, _fork.processes(B * n))
    exceed, discarded = map(sum, zip(*_fork.split(
        counts, [1 + B * i // parts for i in range(parts + 1)])))
    return GofReport(fit=fit, ks_stat=d_obs, p_value=exceed / B,
                     bootstrap_count=B, exceed_count=exceed,
                     discarded_replicates=discarded)

