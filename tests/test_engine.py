"""Drift operators, integrator steps, noise streams and full runs."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from bmnet.engine import (EFTDynamics, MeanFieldDynamics, ModelParams,
                          NetworkDynamics, NoiseIncrement, SimConfig,
                          WealthState, eft_drift, interaction_drift, mf_drift,
                          milstein_step, simulate, step_noise,
                          strong_convergence_study, taylor15_step, to_unscaled)
from bmnet.errors import PositivityError
from bmnet.gof import ks_statistic
from bmnet.topology import (build_complete, build_random_smallworld,
                            build_regular_ring)

BASE_PARAMS = ModelParams.from_sigma2(0.05, 0.1)


class TestInteractionDrift:
    def test_uniform_wealth_gives_zero(self):
        top = build_complete(8)
        f = interaction_drift(np.ones(8), top, 0.1)
        assert np.allclose(f, 0.0, atol=1e-15)

    def test_pair_exchange(self):
        top = build_complete(2)
        f = interaction_drift(np.array([2.0, 0.0]), top, 0.1)
        assert f == pytest.approx([-0.1, 0.1])

    def test_ring_hand_evaluation(self):
        top = build_regular_ring(4, 2)
        f = interaction_drift(np.array([1.0, 2.0, 3.0, 4.0]), top, 0.1)
        assert f == pytest.approx([0.2, 0.0, 0.0, -0.2])
        assert f.sum() == pytest.approx(0.0, abs=1e-15)

    def test_isolated_agents_get_zero(self):
        top = build_random_smallworld(30, 0.0, seed=1)
        # n_divisor is zero here: coupling undefined
        with pytest.raises(ValueError):
            interaction_drift(np.ones(30), top, 0.1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            interaction_drift(np.ones(5), build_complete(4), 0.1)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_conservation_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 120))
        kind = seed % 3
        if kind == 0:
            top = build_complete(n)
        elif kind == 1:
            top = build_regular_ring(2 * n, int(rng.integers(1, n)) * 2)
        else:
            top = build_random_smallworld(n, float(rng.uniform(0.05, 0.9)),
                                          seed=seed)
            if top.n_divisor == 0:
                return
        w = rng.gamma(3.0, 0.4, top.N) + 1e-3
        f = interaction_drift(w, top, 0.1)
        assert abs(f.sum()) <= top.N * np.finfo(float).eps * np.abs(w).max()

    def test_fast_complete_path_matches_edge_sum(self):
        # the complete-graph shortcut must agree with the explicit edge sum
        rng = np.random.default_rng(5)
        w = rng.gamma(2.0, 0.5, 40)
        top = build_complete(40)
        explicit = np.array([
            (0.1 / top.n_divisor) * np.sum(w[top.neighbors(i)] - w[i])
            for i in range(top.N)])
        assert np.allclose(interaction_drift(w, top, 0.1), explicit,
                           rtol=1e-12, atol=1e-14)


def naive_ring_neighbors(N, n, i):
    """Agents at ring distance 1..n//2 from i, plus distance N/2 for odd n."""
    k = np.arange(N)
    d = np.minimum(np.abs(k - i), N - np.abs(k - i))
    return k[((d >= 1) & (d <= n // 2)) | ((n % 2 == 1) & (d == N // 2))]


# n = 1, 2, odd with antipode, and n = N - 1 for even and odd N
RING_CASES = [(4, 1), (2000, 1), (5, 2), (2000, 2), (1999, 2), (2000, 7),
              (10, 3), (1000, 101), (12, 11), (2000, 1999), (13, 12),
              (1999, 1998), (1001, 500), (300, 150)]


class TestRingOperator:
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("N, n", RING_CASES)
    def test_matches_explicit_neighbor_sum(self, N, n, offset):
        # a large common offset would swamp uncentred prefix sums
        rng = np.random.default_rng(N + n)
        w = rng.gamma(2.0, 1.0, N) + 1e-4 + offset
        explicit = np.array([
            (0.1 / n) * np.sum(w[naive_ring_neighbors(N, n, i)] - w[i])
            for i in range(N)])
        f = NetworkDynamics(build_regular_ring(N, n)).drift(w, BASE_PARAMS)
        assert np.abs(f - explicit).max() <= 1e-12 * np.abs(explicit).max()

    @pytest.mark.parametrize("N, n", RING_CASES)
    def test_conserves_wealth(self, N, n):
        rng = np.random.default_rng(7 * N + n)
        w = rng.gamma(2.0, 1.0, N) + 1e-4
        f = NetworkDynamics(build_regular_ring(N, n)).drift(w, BASE_PARAMS)
        assert abs(f.sum()) <= N * np.finfo(float).eps * np.abs(w).max()

    def test_ring_holds_no_sparse_matrix(self):
        ring = NetworkDynamics(build_regular_ring(1000, 10))
        assert not any(sp.issparse(v) for v in vars(ring).values())
        # the small-world graph has no closed form and keeps its matrix
        sw = NetworkDynamics(build_random_smallworld(100, 0.1, seed=1))
        assert any(sp.issparse(v) for v in vars(sw).values())


class TestMeanFieldDrift:
    def test_uniform_is_fixed(self):
        assert np.allclose(mf_drift(np.full(5, 3.3), 0.1), 0.0)

    def test_direct_substitution(self):
        assert mf_drift(np.array([0.0, 2.0]), 0.1) == pytest.approx([0.1, -0.1])

    def test_matches_complete_network_within_bound(self):
        rng = np.random.default_rng(11)
        w = rng.gamma(3.0, 1.0, 1000)
        top = build_complete(1000)
        diff = np.abs(mf_drift(w, 0.1) - interaction_drift(w, top, 0.1))
        bound = 0.1 * np.abs(w - w.mean()).max() / 1000
        assert diff.max() <= bound + 1e-15


class TestEFTDrift:
    def test_mean_field_endpoint(self):
        w = np.array([0.5, 1.0, 2.0])
        assert eft_drift(w, 0.1, 1.0, 1.0) == pytest.approx(0.1 * (1.0 - w))

    def test_deterministic_fixed_point(self):
        theta, gamma = 1.3, 0.4
        w_star = theta ** (1.0 / gamma)
        f = eft_drift(np.array([w_star]), 0.1, gamma, theta)
        assert f == pytest.approx([0.0], abs=1e-14)

    def test_arithmetic_example(self):
        theta = 0.25 * math.sqrt(20.0)  # unit-mean normalizer at gamma=0.5
        f = eft_drift(np.array([4.0]), 0.1, 0.5, theta)
        assert f[0] == pytest.approx(-0.17639320225002103, rel=1e-12)

    def test_rejects_nonpositive_wealth(self):
        with pytest.raises(ValueError):
            eft_drift(np.array([1.0, 0.0]), 0.1, 0.5, 1.1)


class TestMilsteinStep:
    def test_noise_free_reduction(self):
        w = np.array([0.5, 1.0, 2.0])
        state = WealthState(0.0, w)
        f = np.array([0.1, -0.2, 0.0])
        dt = 0.01
        out = milstein_step(state, f, BASE_PARAMS.sigma, dt,
                            NoiseIncrement(dB=np.zeros(3)))
        assert out.w == pytest.approx(w + f * dt - 0.05 * w * dt)
        assert out.t == pytest.approx(dt)

    def test_frozen_arithmetic(self):
        # w=1, f=0, sigma^2=0.05, dt=0.01, dB=0.1:
        # dw = sqrt(0.1)*0.1 + 0.05*(0.01 - 0.01) = 0.0316227766...
        state = WealthState(0.0, np.array([1.0]))
        out = milstein_step(state, np.zeros(1), BASE_PARAMS.sigma, 0.01,
                            NoiseIncrement(dB=np.array([0.1])))
        assert out.w[0] - 1.0 == pytest.approx(0.0316227766016838, rel=1e-12)

    def test_positivity_violation_raises_with_index(self):
        # a pathologically large mean-reverting kick drives agent 1 negative
        state = WealthState(0.0, np.array([0.1, 10.0]))
        f = mf_drift(state.w, 5.0)
        with pytest.raises(PositivityError) as err:
            milstein_step(state, f, BASE_PARAMS.sigma, 0.5, NoiseIncrement(np.zeros(2)))
        assert err.value.agent == 1
        assert err.value.finite
        assert "non-positive" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
def test_non_finite_state_raises(bad, scheme):
    # NaN fails every comparison, so a plain w <= 0 test lets it through
    w = np.array([1.0, 0.9, bad, 1.1])
    state = WealthState(0.0, w)
    noise = step_noise(2, 0, 4, 0.01, with_dz=True)
    dyn = MeanFieldDynamics()
    with pytest.raises(PositivityError) as err, \
            np.errstate(invalid="ignore", over="ignore"):
        if scheme == "milstein":
            milstein_step(state, np.zeros(4), BASE_PARAMS.sigma, 0.01, noise)
        else:
            taylor15_step(state, dyn, BASE_PARAMS, 0.01, noise)
    assert not err.value.finite
    assert "non-finite" in str(err.value)
    # milstein leaves the other agents finite; taylor15's mean-field
    # coupling spreads the bad value to agent 0
    assert err.value.agent == (2 if scheme == "milstein" else 0)


class TestTaylor15Step:
    def test_requires_dz(self):
        state = WealthState(0.0, np.ones(3))
        with pytest.raises(ValueError):
            taylor15_step(state, MeanFieldDynamics(), BASE_PARAMS, 0.01,
                          NoiseIncrement(dB=np.zeros(3)))

    def test_noise_free_second_order_reduction(self):
        # sigma -> 0: w + f dt + (1/2) (Jacobian f) dt^2
        params = ModelParams(sigma=1e-9, J=0.3)
        dyn = MeanFieldDynamics()
        w = np.array([0.5, 1.0, 2.0, 4.0])
        dt = 0.1
        out = taylor15_step(WealthState(0.0, w), dyn, params, dt,
                            NoiseIncrement(np.zeros(4), np.zeros(4)))
        f = dyn.drift(w, params)
        expected = w + f * dt + 0.5 * dyn.jacobian_apply(w, f, params) * dt * dt
        assert out.w == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_milstein_to_order_three_halves(self):
        # the scheme difference must shrink as dt^(3/2) on shared noise
        rng = np.random.default_rng(0)
        dyn = MeanFieldDynamics()
        mean_diff = {}
        for dt in (0.02, 0.01, 0.005):
            diffs = []
            for seed in range(120):
                w = rng.gamma(3.0, 0.4, 50) + 0.05
                state = WealthState(0.0, w)
                noise = step_noise(seed, 0, 50, dt, with_dz=True)
                f = dyn.drift(w, BASE_PARAMS)
                a = milstein_step(state, f, BASE_PARAMS.sigma, dt, noise).w
                b = taylor15_step(state, dyn, BASE_PARAMS, dt, noise).w
                diffs.append(np.max(np.abs(a - b)))
            mean_diff[dt] = np.mean(diffs)
        r1 = mean_diff[0.02] / mean_diff[0.01]
        r2 = mean_diff[0.01] / mean_diff[0.005]
        assert 2.0 < r1 < 4.0   # 2^(3/2) = 2.83
        assert 2.0 < r2 < 4.0

    def test_network_jacobian_contraction(self):
        # finite differences confirm the analytic Jacobian product
        top = build_regular_ring(10, 4)
        dyn = NetworkDynamics(top)
        rng = np.random.default_rng(3)
        w = rng.gamma(3.0, 0.4, 10)
        v = rng.normal(size=10)
        eps = 1e-7
        fd = (dyn.drift(w + eps * v, BASE_PARAMS) - dyn.drift(w - eps * v, BASE_PARAMS)) / (2 * eps)
        assert np.allclose(dyn.jacobian_apply(w, v, BASE_PARAMS), fd, atol=1e-7)

    def test_eft_jacobian_contraction(self):
        dyn = EFTDynamics(0.5)
        rng = np.random.default_rng(4)
        w = rng.gamma(3.0, 0.4, 20) + 0.1
        v = rng.normal(size=20)
        eps = 1e-7
        fd = (dyn.drift(w + eps * v, BASE_PARAMS) - dyn.drift(w - eps * v, BASE_PARAMS)) / (2 * eps)
        assert np.allclose(dyn.jacobian_apply(w, v, BASE_PARAMS), fd, atol=1e-6)


class TestNoiseStreams:
    def test_increment_statistics(self):
        dt = 0.04
        db_all, dz_all = [], []
        for step in range(400):
            noise = step_noise(9, step, 256, dt, with_dz=True)
            db_all.append(noise.dB)
            dz_all.append(noise.dZ)
        db = np.concatenate(db_all)
        dz = np.concatenate(dz_all)
        n = db.size
        assert db.var() == pytest.approx(dt, rel=0.02)
        assert dz.var() == pytest.approx(dt ** 3 / 3.0, rel=0.02)
        cov = float(np.mean(db * dz))
        assert cov == pytest.approx(dt ** 2 / 2.0, rel=0.03)

    def test_db_identical_with_and_without_dz(self):
        a = step_noise(5, 17, 64, 0.01, with_dz=False)
        b = step_noise(5, 17, 64, 0.01, with_dz=True)
        assert np.array_equal(a.dB, b.dB)

    def test_steps_are_independent_streams(self):
        a = step_noise(5, 0, 32, 0.01)
        b = step_noise(5, 1, 32, 0.01)
        assert not np.array_equal(a.dB, b.dB)

    def test_pure_function_of_seed_and_step(self):
        assert np.array_equal(step_noise(7, 3, 16, 0.01).dB,
                              step_noise(7, 3, 16, 0.01).dB)


def _mf_config(**kw):
    base = dict(params=BASE_PARAMS, dynamics=MeanFieldDynamics(), scheme="milstein",
                N=100, dt=0.01, t_end=1.0, snapshot_times=(0.0, 1.0), seed=3)
    base.update(kw)
    return SimConfig(**base)


class TestSimulate:
    def test_snapshot_zero_reflects_init(self):
        snaps = simulate(_mf_config())
        assert snaps[0].t == 0.0
        assert np.all(snaps[0].w == 1.0)

    def test_gaussian_init(self):
        snaps = simulate(_mf_config(init="gaussian", init_sd=0.05))
        w0 = snaps[0].w
        assert np.all(w0 > 0)
        assert w0.std() == pytest.approx(0.05, rel=0.5)
        assert w0.mean() == pytest.approx(1.0, abs=0.03)

    def test_bit_identical_reruns(self):
        a = simulate(_mf_config())
        b = simulate(_mf_config())
        assert all(np.array_equal(x.w, y.w) for x, y in zip(a, b))

    def test_misaligned_snapshot_rejected(self):
        with pytest.raises(ValueError):
            simulate(_mf_config(snapshot_times=(0.005,)))

    def test_zero_divisor_network_rejected(self):
        top = build_random_smallworld(50, 0.0, seed=2)
        cfg = _mf_config(dynamics=NetworkDynamics(top), N=50)
        with pytest.raises(ValueError):
            simulate(cfg)

    def test_positivity_abort_carries_partial_results(self):
        cfg = _mf_config(params=ModelParams.from_sigma2(0.05, 30.0),
                        dynamics=MeanFieldDynamics(), N=40, dt=0.2,
                        t_end=20.0, snapshot_times=(0.0, 0.2, 0.4),
                        init="gaussian", init_sd=0.4, seed=12)
        with pytest.raises(PositivityError) as err:
            simulate(cfg)
        assert err.value.step is not None
        assert len(err.value.snapshots) >= 1

    def test_positivity_message_names_failing_step(self):
        cfg = _mf_config(params=ModelParams.from_sigma2(0.05, 30.0),
                        dynamics=MeanFieldDynamics(), N=40, dt=0.2,
                        t_end=20.0, snapshot_times=(0.0, 0.2, 0.4),
                        init="gaussian", init_sd=0.4, seed=12)
        with pytest.raises(PositivityError) as err:
            simulate(cfg)
        assert err.value.step == 0
        assert "(step 0)" in str(err.value)

    def test_uncoupled_run_matches_transient_lognormal(self):
        # J=0 at t=5: log w ~ Normal(-sigma^2 t, 2 sigma^2 t)
        cfg = _mf_config(params=ModelParams.from_sigma2(0.05, 0.0),
                        N=4000, t_end=5.0, snapshot_times=(5.0,), seed=21)
        w = simulate(cfg)[0].w
        mu, s = -0.05 * 5.0, math.sqrt(2 * 0.05 * 5.0)
        d = ks_statistic(np.log(w), lambda v: ndtr((v - mu) / s))
        assert d < 1.358 / math.sqrt(w.size)  # 5% critical value

    def test_eft_agents_are_uncorrelated(self):
        cfg = _mf_config(dynamics=EFTDynamics(0.5), N=2000, t_end=5.0,
                        snapshot_times=(5.0,), seed=8)
        w = simulate(cfg)[0].w
        half = w.size // 2
        r = np.corrcoef(w[:half], w[half:])[0, 1]
        assert abs(r) < 3.0 / math.sqrt(half)

    def test_network_run_conserves_mean_roughly(self):
        top = build_regular_ring(200, 4)
        cfg = _mf_config(dynamics=NetworkDynamics(top), N=200, t_end=2.0,
                        snapshot_times=(0.0, 1.0, 2.0), seed=5)
        snaps = simulate(cfg)
        for snap in snaps:
            assert snap.w.mean() == pytest.approx(1.0, abs=0.05)


def test_long_run_stays_positive():
    # 250k steps at the study parameters: positivity violations must not
    # occur at dt=0.01 (and would raise, never silently clamp)
    top = build_regular_ring(1000, 10)
    cfg = SimConfig(params=BASE_PARAMS, dynamics=NetworkDynamics(top),
                    scheme="milstein", N=1000, dt=0.01, t_end=2500.0,
                    snapshot_times=(2500.0,), seed=19)
    w = simulate(cfg)[0].w
    assert np.all(w > 0)


class TestToUnscaled:
    def test_identity_at_origin(self):
        w = np.array([0.3, 1.0, 2.5])
        assert np.array_equal(to_unscaled(w, BASE_PARAMS.sigma, 0.0), w)

    def test_growth_factor(self):
        out = to_unscaled(np.ones(3), BASE_PARAMS.sigma, 20.0)
        assert out == pytest.approx(math.e)

    def test_round_trip(self):
        w = np.array([0.25, 1.0, 7.5])
        out = to_unscaled(w, BASE_PARAMS.sigma, 13.0) / math.exp(0.05 * 13.0)
        assert out == pytest.approx(w, rel=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            to_unscaled(np.ones(2), BASE_PARAMS.sigma, -1.0)


class TestConvergenceStudy:
    def test_errors_shrink_with_dt(self):
        dts = [2.0 ** -k for k in range(4, 8)]
        for scheme in ("milstein", "taylor15"):
            r = strong_convergence_study(scheme, dts, 400, seed=2)
            errs = r["strong_errors"]  # ordered by increasing dt
            assert all(a < b for a, b in zip(errs, errs[1:]))

    def test_rejects_non_divisible_steps(self):
        with pytest.raises(ValueError):
            strong_convergence_study("milstein", [0.3, 0.1], 10, seed=0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            strong_convergence_study("heun", [0.1], 10, seed=0)
