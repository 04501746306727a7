"""KS statistic properties and parametric-bootstrap behavior."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmnet import cli, fitting, gof
from bmnet.config import ExperimentConfig
from bmnet.distributions import (GIGaParams, LNParams, giga_cdf, giga_sample,
                                 ln_cdf, ln_sample)
from bmnet.engine import (MeanFieldDynamics, ModelParams, SimConfig, Snapshot,
                          simulate)
from bmnet.errors import DegenerateSampleError
from bmnet.fitting import fit_giga
from bmnet.gof import ks_pvalue_bootstrap, ks_statistic


def uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


class TestKsStatistic:
    def test_single_sample_at_median(self):
        assert ks_statistic([0.5], uniform_cdf) == pytest.approx(0.5)

    def test_optimal_quantile_placement(self):
        for n in (1, 5, 50):
            x = (np.arange(1, n + 1) - 0.5) / n
            assert ks_statistic(x, uniform_cdf) == pytest.approx(1.0 / (2 * n))

    def test_hand_evaluated_two_points(self):
        assert ks_statistic([0.25, 0.75], uniform_cdf) == pytest.approx(0.25)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], uniform_cdf)

    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, n, seed):
        x = np.random.default_rng(seed).uniform(0.01, 10.0, n)
        d = ks_statistic(x, lambda v: ln_cdf(LNParams(0.0, 1.0), v))
        assert 0.0 < d <= 1.0

    @given(st.integers(min_value=5, max_value=300),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_invariance_under_monotone_transform(self, n, seed):
        # probability-integral-transform invariance: mapping samples and
        # CDF through w -> log w leaves D unchanged
        p = LNParams(mu=0.2, s=0.8)
        x = ln_sample(p, n, seed=seed)
        d_raw = ks_statistic(x, lambda v: ln_cdf(p, v))
        d_log = ks_statistic(np.log(x), lambda v: ln_cdf(p, np.exp(v)))
        assert d_raw == pytest.approx(d_log, abs=1e-12)


def full_ks(samples, cdf):
    # reference: the CDF evaluated at every sorted value
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def _ks_case(cdf_kind, n, seed, ties, misfit):
    """A sample and a CDF: exact law when misfit is 0, else a perturbed one."""
    rng = np.random.default_rng(seed)
    if cdf_kind == "identity":
        x = rng.uniform(0.0, 1.0, n)
        a = 1.0 + misfit
        cdf = lambda v: v ** a  # noqa: E731
    elif cdf_kind == "LN":
        x = ln_sample(LNParams(-0.1, 0.5), n, seed)
        p = LNParams(-0.1 + 0.2 * misfit, 0.5 * (1.0 + misfit))
        cdf = lambda v: ln_cdf(p, v)  # noqa: E731
    else:
        x = giga_sample(GIGaParams(6.0, 20.0, 0.5), n, seed)
        p = GIGaParams(6.0 * (1.0 + misfit), 20.0, 0.5)
        cdf = lambda v: giga_cdf(p, v)  # noqa: E731
    if ties:
        # few distinct values, so runs of equal values straddle blocks
        x = np.round(x, 1) if cdf_kind == "identity" else \
            np.exp(np.round(np.log(x), 1))
    return x, cdf


class TestBlockBoundedKs:
    @given(st.sampled_from(["identity", "LN", "GIGa"]),
           st.one_of(st.integers(1, 15), st.integers(16, 3000)),
           st.integers(0, 10 ** 6), st.booleans(),
           st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_equals_full_evaluation(self, cdf_kind, n, seed, ties, misfit):
        x, cdf = _ks_case(cdf_kind, n, seed, ties, misfit)
        assert ks_statistic(x, cdf) == full_ks(x, cdf)

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 47, 1001,
                                   2999, 3000])
    @pytest.mark.parametrize("cdf_kind", ["identity", "LN", "GIGa"])
    def test_block_edges_equal_full_evaluation(self, n, cdf_kind):
        for seed, ties in ((n, False), (n + 1, True)):
            x, cdf = _ks_case(cdf_kind, n, seed, ties, 0.0)
            assert ks_statistic(x, cdf) == full_ks(x, cdf)

    @given(st.sampled_from(["identity", "LN", "GIGa"]),
           st.integers(1, 2100), st.integers(0, 10 ** 6), st.booleans(),
           st.sampled_from([0.0, 1e-3, 0.5]), st.sampled_from([0, 2 ** 62]))
    @settings(max_examples=100, deadline=None)
    def test_full_and_blocked_passes_equal_full_evaluation(
            self, cdf_kind, n, seed, ties, misfit, full_below):
        # force every size onto the blocked pass (0) or the full pass
        x, cdf = _ks_case(cdf_kind, n, seed, ties, misfit)
        with mock.patch.object(gof, "_KS_FULL_BELOW", full_below):
            assert ks_statistic(x, cdf) == full_ks(x, cdf)

    @pytest.mark.parametrize("cdf_kind", ["identity", "LN", "GIGa"])
    def test_full_pass_below_threshold(self, cdf_kind):
        for n, calls in ((gof._KS_FULL_BELOW - 1, [gof._KS_FULL_BELOW - 1]),
                         (gof._KS_FULL_BELOW, None)):
            x, cdf = _ks_case(cdf_kind, n, n, False, 0.0)
            seen = []

            def counting_cdf(v):
                seen.append(np.size(v))
                return cdf(v)
            assert ks_statistic(x, counting_cdf) == full_ks(x, cdf)
            if calls is not None:
                assert seen == calls
            else:  # the anchor pass: every 16th value and the largest
                assert seen[0] == -(-n // 16) + 1 and len(seen) <= 2

    def test_maximum_inside_a_block_just_above_the_anchors(self):
        # n = 2048 values (i + 0.5)/n of the identity CDF, with two runs of
        # ties.  The run ending at anchor 512 gives the anchor maximum
        # d = 15.25/n.  The run from anchor 1024 to 1039 puts the maximum,
        # 15.75/n, inside the block (1024, 1040), whose bound 16.75/n
        # exceeds d by less than 1e-3: a block threshold of d + 1e-3
        # would skip it and return d.
        n = 2048
        x = (np.arange(n) + 0.5) / n
        x[497:513] = (512 - 14.25) / n
        x[1024:1040] = (1024 + 0.25) / n
        dev = np.maximum(np.arange(1, n + 1) / n - x, x - np.arange(n) / n)
        top = int(np.argmax(dev))
        anchors = np.append(np.arange(0, n, gof._KS_BLOCK), n - 1)
        d = dev[anchors].max()
        a = top - top % gof._KS_BLOCK
        b = a + gof._KS_BLOCK
        bound = max((b + 1) / n - x[a], x[b] - a / n)
        assert top % gof._KS_BLOCK and dev[top] > d
        assert 0 < bound - d < 1e-3
        assert ks_statistic(x, uniform_cdf) == full_ks(x, uniform_cdf) \
            == dev[top]

    def test_well_fitted_giga_evaluates_a_fraction(self):
        n = 10 ** 4
        x = giga_sample(GIGaParams(6.0, 20.0, 0.5), n, seed=21)
        params = fit_giga(x).params
        seen = []

        def counting_cdf(v):
            seen.append(np.size(v))
            return giga_cdf(params, v)

        d = ks_statistic(x, counting_cdf)
        assert d == full_ks(x, lambda v: giga_cdf(params, v))
        assert len(seen) <= 2
        assert sum(seen) < n / 4


def anchor_max(samples, cdf):
    """Largest deviation at every 16th sorted value and the largest."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    anchors = np.minimum(np.arange(0, n + 15, 16), n - 1)
    f = np.asarray(cdf(x[anchors]), dtype=float)
    steps = (anchors + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def test_ks_statistic_keeps_its_two_parameters():
    # benchmark/traced_evolve.py replaces gof.ks_statistic by a wrapper
    # taking exactly (samples, cdf); another parameter would make every
    # traced benchmark run fail
    assert list(inspect.signature(gof.ks_statistic).parameters) == \
        ["samples", "cdf"]


class TestKsDecision:
    @given(st.sampled_from(["identity", "LN", "GIGa"]),
           st.one_of(st.integers(1, 1023), st.integers(1024, 3000)),
           st.integers(0, 10 ** 6), st.booleans(),
           st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.5]),
           st.floats(0.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_decides_as_the_exact_distance(self, cdf_kind, n, seed, ties,
                                           misfit, u):
        x, cdf = _ks_case(cdf_kind, n, seed, ties, misfit)
        d = ks_statistic(x, cdf)
        for reach in (d, np.nextafter(d, np.inf), np.nextafter(d, 0.0),
                      anchor_max(x, cdf), u * d):
            v = gof._ks_distance(x, cdf, reach)
            assert v <= d
            assert (v >= reach) == (d >= reach)

    @pytest.mark.parametrize("cdf_kind", ["identity", "LN", "GIGa"])
    def test_distance_far_below_reach_stops_after_the_anchors(self,
                                                              cdf_kind):
        n = 4096
        x, cdf = _ks_case(cdf_kind, n, 5, False, 0.0)
        seen = []

        def counting_cdf(v):
            seen.append(np.size(v))
            return cdf(v)
        assert gof._ks_distance(x, counting_cdf, 0.5) < 0.5
        assert seen == [n // 16 + 1]


def brute_force_counts(x, family, B, seed):
    """Exceed and discard counts of ks_pvalue_bootstrap, with every
    replicate's exact KS distance."""
    fit = gof._FIT[family](x)
    cdf = gof._CDF[family]
    d_obs = ks_statistic(x, lambda v: cdf(fit.params, v))
    exceed = discarded = 0
    for b in range(1, B + 1):
        synth = gof._SAMPLE[family](fit.params, x.size,
                                    np.random.SeedSequence([int(seed), b]))
        try:
            params = gof._REFIT[family](synth)[1]
        except (DegenerateSampleError, ValueError):
            discarded += 1
            continue
        exceed += ks_statistic(synth, lambda v: cdf(params, v)) >= d_obs
    return exceed, discarded


class TestBootstrap:
    @pytest.mark.parametrize("n", [500, 2000])
    @pytest.mark.parametrize("family, truth", [
        ("LN", LNParams(-0.05, 0.3)), ("IGa", GIGaParams(3.0, 2.0, 1.0)),
        ("GIGa", GIGaParams(6.0, 20.0, 0.5))])
    def test_counts_equal_exact_distances(self, family, truth, n):
        x = gof._SAMPLE[family](truth, n, n + 1)
        r = ks_pvalue_bootstrap(x, family, 39, seed=n)
        assert (r.exceed_count, r.discarded_replicates) == \
            brute_force_counts(x, family, 39, n)

    def test_counts_equal_exact_distances_with_failed_refits(self,
                                                             monkeypatch):
        refit = gof._REFIT["GIGa"]

        def flaky(synth):
            if synth[0] < np.median(synth):
                raise DegenerateSampleError("forced")
            return refit(synth)
        monkeypatch.setitem(gof._REFIT, "GIGa", flaky)
        x = giga_sample(GIGaParams(6.0, 20.0, 0.5), 2000, seed=4)
        r = ks_pvalue_bootstrap(x, "GIGa", 39, seed=8)
        assert 0 < r.discarded_replicates < 39
        assert (r.exceed_count, r.discarded_replicates) == \
            brute_force_counts(x, "GIGa", 39, 8)

    def test_rejects_zero_replicates(self):
        x = ln_sample(LNParams(0.0, 1.0), 100, seed=0)
        with pytest.raises(ValueError):
            ks_pvalue_bootstrap(x, "LN", 0, seed=1)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            ks_pvalue_bootstrap([1.0, 2.0], "weibull", 9, seed=1)

    def test_deterministic(self):
        x = giga_sample(GIGaParams(6, 20, 0.5), 2000, seed=3)
        a = ks_pvalue_bootstrap(x, "GIGa", 29, seed=77)
        b = ks_pvalue_bootstrap(x, "GIGa", 29, seed=77)
        assert a == b

    def test_pvalue_is_fraction_of_b(self):
        x = ln_sample(LNParams(0.0, 0.5), 500, seed=4)
        r = ks_pvalue_bootstrap(x, "LN", 33, seed=5)
        assert r.bootstrap_count == 33
        assert r.p_value == r.exceed_count / 33
        assert 0 <= r.exceed_count <= 33

    def test_well_specified_family_gets_healthy_pvalue(self):
        x = ln_sample(LNParams(-0.05, math.sqrt(0.1)), 2000, seed=12)
        r = ks_pvalue_bootstrap(x, "LN", 99, seed=6)
        assert r.p_value > 0.05

    def test_wrong_family_gets_zero_pvalue(self):
        x = giga_sample(GIGaParams(6, 20, 0.5), 5000, seed=8)
        r = ks_pvalue_bootstrap(x, "LN", 99, seed=9)
        assert r.p_value == 0.0  # reported 0 means p < 1/B

    @pytest.mark.parametrize("family", ["LN", "IGa", "GIGa"])
    def test_refits_skip_the_log_likelihood(self, family, monkeypatch):
        # only the observed fit's loglik is reported; the B refits must
        # give the same parameters as the public fits without computing one
        x = giga_sample(GIGaParams(6, 20, 0.5), 400, seed=5)
        calls = []
        for name in ("ln_logpdf", "giga_logpdf"):
            def counted(*args, _fn=getattr(fitting, name)):
                calls.append(1)
                return _fn(*args)
            monkeypatch.setattr(fitting, name, counted)
        r = ks_pvalue_bootstrap(x, family, 9, seed=3)
        assert len(calls) == 1
        assert r.fit == gof._FIT[family](x)
        synth = gof._SAMPLE[family](r.fit.params, x.size, 11)
        assert gof._REFIT[family](synth)[1] == gof._FIT[family](synth).params

    def test_report_serialization_keys(self):
        x = ln_sample(LNParams(0.0, 1.0), 300, seed=2)
        d = ks_pvalue_bootstrap(x, "LN", 9, seed=3).to_json_dict()
        assert {"family", "params", "loglik", "ks_stat", "p_value", "B",
                "discarded_replicates"} <= set(d)


def ranked_reports(sim, snapshot, B):
    """Score one snapshot through the loop that ``bmnet evolve`` runs,
    with the bootstrap seeds it derives from the run seed, and rank the
    families by p-value, then log-likelihood.  Returns (ranked reports,
    error by failed family)."""
    config = ExperimentConfig(sim=sim, families=gof.FAMILIES,
                              fit_times=(snapshot.t,), bootstrap_b=B,
                              sections={})
    records = cli.evolution_records(config, [snapshot])
    ranked = sorted((r.gof for r in records if r.gof),
                    key=lambda g: (g.p_value, g.fit.loglik), reverse=True)
    return ranked, {r.family: r.error for r in records if not r.gof}


def drawn_run(x, seed):
    """A drawn sample as the t = 0 snapshot of a run with this seed; the
    scoring loop reads only the seed of the run."""
    sim = SimConfig(params=ModelParams.from_sigma2(0.05, 0.1),
                    dynamics=MeanFieldDynamics(), scheme="milstein",
                    N=x.size, dt=0.01, t_end=0.0, snapshot_times=(0.0,),
                    seed=seed)
    return sim, Snapshot(t=0.0, w=x)


class TestCompareFamilies:
    """The family ranking, made from the records of evolve's loop."""

    def test_giga_truth_ranked_first_by_both_criteria(self):
        x = giga_sample(GIGaParams(6, 20, 0.5), 20000, seed=3)
        ranked, failures = ranked_reports(*drawn_run(x, seed=10), B=49)
        assert not failures
        assert ranked[0].family == "GIGa"
        assert ranked[0].fit.loglik == max(r.fit.loglik for r in ranked)

    def test_early_uncoupled_ensemble_prefers_lognormal(self):
        # J=0 at t=1: the cross-section is (transient) lognormal.  The
        # GIGa family can mimic a lognormal near its small-gamma corner,
        # so the LN/GIGa order is seed-sensitive; the fixed seed pins a
        # representative draw.  IGa is always rejected here.
        cfg = SimConfig(params=ModelParams.from_sigma2(0.05, 0.0),
                        dynamics=MeanFieldDynamics(), scheme="milstein",
                        N=3000, dt=0.01, t_end=1.0, snapshot_times=(1.0,),
                        seed=1)
        ranked, _ = ranked_reports(cfg, simulate(cfg)[0], B=99)
        assert ranked[0].family == "LN"
        assert ranked[0].p_value > 0.05
        by_family = {r.family: r for r in ranked}
        assert by_family["IGa"].p_value == 0.0

    def test_deterministic_ranking(self):
        x = giga_sample(GIGaParams(3, 2, 1), 1500, seed=6)
        a, _ = ranked_reports(*drawn_run(x, seed=4), B=29)
        b, _ = ranked_reports(*drawn_run(x, seed=4), B=29)
        assert [(r.family, r.p_value, r.ks_stat) for r in a] == \
               [(r.family, r.p_value, r.ks_stat) for r in b]
