"""Drift operators, integrator steps, noise streams and full runs."""

import inspect
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from bmnet import engine
from bmnet.distributions import theta_of_gamma
from bmnet.engine import (EFTDynamics, MeanFieldDynamics, ModelParams,
                          SimConfig, milstein_step, simulate, step_noise,
                          strong_convergence_study, taylor15_step)
from bmnet.errors import PositivityError
from bmnet.gof import ks_statistic
from bmnet.topology import (build_complete, build_random_smallworld,
                            build_regular_ring)
from oracles import to_unscaled

BASE_PARAMS = ModelParams(sigma2=0.05, J=0.1)


class FixedDrift:
    """Dynamics stub whose drift is a given array, whatever the state."""

    def __init__(self, f):
        self.f = np.asarray(f, dtype=float)

    def drift(self, w, params):
        return self.f


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class ReadOnlyMeanField(MeanFieldDynamics):
    """Mean-field dynamics whose returned arrays refuse writes."""

    def drift(self, w, params):
        return _read_only(super().drift(w, params))

    def jacobian_apply(self, w, v, params, f):
        return _read_only(super().jacobian_apply(w, v, params, f))


def one_step(gen, step, n, dt, with_dz=False):
    """The increments of one step from ``gen``, as arrays of shape (n,)."""
    db, dz = step_noise(gen, step, dt,
                        np.empty((1, 2, n) if with_dz else (1, n)))
    return db[0], None if dz is None else dz[0]


def noise(seed, step, n, dt, with_dz=False):
    """The increments of one step, from a new generator for the seed."""
    return one_step(engine.NoiseGenerator(seed), step, n, dt, with_dz)


def philox_noise(seed, step, n, dt, with_dz):
    """The increments of one step as the noise-stream contract defines
    them: standard normals from a fresh Philox generator at counter
    (lane 0, step) keyed by the seed, dB = sqrt(dt) z0 and
    dZ = (dt^1.5 / 2)(z0 + z1 / sqrt(3))."""
    gen = np.random.Generator(np.random.Philox(counter=[0, 0, 0, step],
                                               key=np.uint64(seed)))
    z = gen.standard_normal((2, n) if with_dz else (1, n))
    db = math.sqrt(dt) * z[0]
    if not with_dz:
        return db, None
    return db, 0.5 * dt ** 1.5 * (z[0] + z[1] / math.sqrt(3.0))


def milstein(w, dyn, params, dt, db):
    """A Milstein step driven by the increment db."""
    m, = engine._step_coefficients("milstein", params, dt, db, None)
    return milstein_step(w, dyn, params, dt, m)


def taylor15(w, dyn, params, dt, db, dz):
    """An order-1.5 Taylor step driven by the increments db and dz."""
    return taylor15_step(w, dyn, params, dt,
                         *engine._step_coefficients("taylor15", params, dt,
                                                    db, dz))


def network_drift(w, top):
    return top.drift(np.asarray(w, dtype=float), BASE_PARAMS)


class TestInteractionDrift:
    def test_uniform_wealth_gives_zero(self):
        f = network_drift(np.ones(8), build_complete(8))
        assert np.allclose(f, 0.0, atol=1e-15)

    def test_pair_exchange(self):
        f = network_drift([2.0, 0.0], build_complete(2))
        assert f == pytest.approx([-0.1, 0.1])

    def test_ring_hand_evaluation(self):
        f = network_drift([1.0, 2.0, 3.0, 4.0], build_regular_ring(4, 2))
        assert f == pytest.approx([0.2, 0.0, 0.0, -0.2])
        assert f.sum() == pytest.approx(0.0, abs=1e-15)

    def test_isolated_agents_get_zero(self):
        # mean degree 1.5: some agents have no neighbor at all
        top = build_random_smallworld(30, 0.05, seed=1)
        isolated = top.degrees == 0
        assert isolated.any() and not isolated.all()
        w = np.random.default_rng(1).gamma(2.0, 1.0, 30) + 1e-3
        f = network_drift(w, top)
        assert np.all(f[isolated] == 0.0)
        assert np.all(f[~isolated] != 0.0)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_conservation_on_random_states(self, seed):
        # the drift, and the Jacobian product the Taylor step applies to a
        # signed vector, sum to zero within criterion 11a's bound on every
        # topology (ring degrees odd and even) and for mean-field
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 120))
        kind = seed % 4
        if kind == 0:
            top = build_complete(n)
        elif kind == 1:
            top = build_regular_ring(2 * n, int(rng.integers(1, 2 * n)))
        elif kind == 2:
            top = build_random_smallworld(n, float(rng.uniform(0.05, 0.9)),
                                          seed=seed)
            if top.n_divisor == 0:
                return
        size = n if kind != 1 else 2 * n
        dyn = MeanFieldDynamics() if kind == 3 else top
        w = rng.gamma(3.0, 0.4, size) + 1e-3
        v = rng.normal(size=size)
        eps = size * np.finfo(float).eps
        f = dyn.drift(w, BASE_PARAMS)
        assert abs(f.sum()) <= eps * np.abs(w).max()
        assert abs(dyn.jacobian_apply(w, v, BASE_PARAMS, f).sum()) <= \
            eps * np.abs(v).max()

    @pytest.mark.parametrize("size", [299, 301, 1])
    def test_smallworld_rejects_wrong_size(self, size):
        # a vector whose size is not N must raise, never be read past its
        # end or broadcast, in every apply of the operator and in both
        # steps (l0_drift applies none: a linear drift has no curvature)
        dyn = build_random_smallworld(300, 0.03, seed=1)
        v = np.ones(size)
        for apply in (lambda: dyn.drift(v, BASE_PARAMS),
                      lambda: dyn.jacobian_apply(np.ones(300), v, BASE_PARAMS,
                                                 np.zeros(300)),
                      lambda: milstein_step(v, dyn, BASE_PARAMS, 0.01,
                                            np.zeros(size)),
                      lambda: taylor15_step(v, dyn, BASE_PARAMS, 0.01,
                                            np.zeros(size), np.zeros(size),
                                            np.zeros(size))):
            with pytest.raises(ValueError):
                apply()

    def test_fast_complete_path_matches_edge_sum(self):
        # the complete-graph shortcut must agree with the explicit sum
        # over every other agent j != i
        rng = np.random.default_rng(5)
        w = rng.gamma(2.0, 0.5, 40)
        top = build_complete(40)
        explicit = np.array([
            (0.1 / top.n_divisor) * np.sum(np.delete(w, i) - w[i])
            for i in range(top.N)])
        assert np.allclose(network_drift(w, top), explicit,
                           rtol=1e-12, atol=1e-14)


def naive_ring_neighbors(N, n, i):
    """Agents at ring distance 1..n//2 from i, plus distance N/2 for odd n."""
    k = np.arange(N)
    d = np.minimum(np.abs(k - i), N - np.abs(k - i))
    return k[((d >= 1) & (d <= n // 2)) | ((n % 2 == 1) & (d == N // 2))]


def held(top):
    """What a network dynamics holds: its attributes and the variables
    that its coupling operator closes over."""
    return [*vars(top).values(),
            *inspect.getclosurevars(top._apply).nonlocals.values()]


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
        f = build_regular_ring(N, n).drift(w, BASE_PARAMS)
        assert np.abs(f - explicit).max() <= 1e-12 * np.abs(explicit).max()

    @pytest.mark.parametrize("N, n", RING_CASES)
    def test_conserves_wealth(self, N, n):
        rng = np.random.default_rng(7 * N + n)
        w = rng.gamma(2.0, 1.0, N) + 1e-4
        f = build_regular_ring(N, n).drift(w, BASE_PARAMS)
        assert abs(f.sum()) <= N * np.finfo(float).eps * np.abs(w).max()

    def test_ring_holds_no_sparse_matrix(self):
        ring = build_regular_ring(1000, 10)
        assert not any(sp.issparse(v) for v in held(ring))
        # the small-world graph has no closed form and keeps its matrix
        sw = build_random_smallworld(100, 0.1, seed=1)
        assert any(sp.issparse(v) for v in held(sw))


class TestMeanFieldDrift:
    def test_uniform_is_fixed(self):
        f = MeanFieldDynamics().drift(np.full(5, 3.3), BASE_PARAMS)
        assert np.allclose(f, 0.0)

    def test_direct_substitution(self):
        f = MeanFieldDynamics().drift(np.array([0.0, 2.0]), BASE_PARAMS)
        assert f == pytest.approx([0.1, -0.1])

    def test_matches_complete_network_within_bound(self):
        rng = np.random.default_rng(11)
        w = rng.gamma(3.0, 1.0, 1000)
        top = build_complete(1000)
        diff = np.abs(MeanFieldDynamics().drift(w, BASE_PARAMS)
                      - network_drift(w, top))
        bound = 0.1 * np.abs(w - w.mean()).max() / 1000
        assert diff.max() <= bound + 1e-15


class TestEFTDrift:
    def test_mean_field_endpoint(self):
        # theta(1) = 1
        w = np.array([0.5, 1.0, 2.0])
        f = EFTDynamics(1.0).drift(w, BASE_PARAMS)
        assert f == pytest.approx(0.1 * (1.0 - w))

    def test_deterministic_fixed_point(self):
        gamma = 0.4
        theta = theta_of_gamma(BASE_PARAMS.J, BASE_PARAMS.sigma2, gamma)
        w_star = theta ** (1.0 / gamma)
        f = EFTDynamics(gamma).drift(np.array([w_star]), BASE_PARAMS)
        assert f == pytest.approx([0.0], abs=1e-14)

    def test_arithmetic_example(self):
        # the unit-mean normalizer at gamma = 0.5 is 0.25 sqrt(20), so
        # f(4) = 0.1 (0.25 sqrt(20) * 2 - 4)
        f = EFTDynamics(0.5).drift(np.array([4.0]), BASE_PARAMS)
        assert f[0] == pytest.approx(-0.17639320225002103, rel=1e-12)


class TestMilsteinStep:
    def test_noise_free_reduction(self):
        w = np.array([0.5, 1.0, 2.0])
        f = np.array([0.1, -0.2, 0.0])
        dt = 0.01
        out = milstein(w, FixedDrift(f), BASE_PARAMS, dt, np.zeros(3))
        assert out == pytest.approx(w + f * dt - 0.05 * w * dt)

    def test_frozen_arithmetic(self):
        # w=1, f=0, sigma^2=0.05, dt=0.01, dB=0.1:
        # dw = sqrt(0.1)*0.1 + 0.05*(0.01 - 0.01) = 0.0316227766...
        out = milstein(np.array([1.0]), MeanFieldDynamics(),
                       BASE_PARAMS, 0.01, np.array([0.1]))
        assert out[0] - 1.0 == pytest.approx(0.0316227766016838, rel=1e-12)

    def test_positivity_violation_raises_with_index(self):
        # a steady outflow of 6 per unit time, noise-free, drains agent 1
        # from 10 in four steps of 0.5: 6.75, 3.58, 0.49, then below 0
        with pytest.raises(PositivityError) as err:
            engine._step_loop(np.array([0.1, 10.0]), FixedDrift([0.0, -6.0]),
                              BASE_PARAMS, "milstein", 0.5,
                              [(np.zeros((4, 2)), None)])
        assert err.value.agent == 1
        assert err.value.t == 2.0
        assert err.value.step == 3
        assert err.value.finite
        assert "non-positive" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
def test_non_finite_state_raises(bad, scheme):
    # NaN fails every comparison, so a plain w <= 0 test lets it through
    w = np.array([1.0, 0.9, bad, 1.1])
    db, dz = noise(2, 0, 4, 0.01, with_dz=True)
    dyn = FixedDrift(np.zeros(4)) if scheme == "milstein" \
        else MeanFieldDynamics()
    with pytest.raises(PositivityError) as err, \
            np.errstate(invalid="ignore", over="ignore"):
        engine._step_loop(w, dyn, BASE_PARAMS, scheme, 0.01,
                          [(db[None], dz[None])])
    assert err.value.t == 0.01
    assert err.value.step == 0
    assert not err.value.finite
    assert "non-finite" in str(err.value)
    # milstein leaves the other agents finite; taylor15's mean-field
    # coupling spreads the bad value to agent 0
    assert err.value.agent == (2 if scheme == "milstein" else 0)


class TestTaylor15Step:
    def test_noise_free_second_order_reduction(self):
        # sigma -> 0: w + f dt + (1/2) (Jacobian f) dt^2
        params = ModelParams(sigma2=1e-18, J=0.3)
        dyn = MeanFieldDynamics()
        w = np.array([0.5, 1.0, 2.0, 4.0])
        dt = 0.1
        out = taylor15(w, dyn, params, dt, np.zeros(4), np.zeros(4))
        f = dyn.drift(w, params)
        expected = w + f * dt + 0.5 * dyn.jacobian_apply(w, f, params, f) * dt * dt
        assert out == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_milstein_to_order_three_halves(self):
        # the scheme difference must shrink as dt^(3/2) on shared noise
        rng = np.random.default_rng(0)
        dyn = MeanFieldDynamics()
        mean_diff = {}
        for dt in (0.02, 0.01, 0.005):
            diffs = []
            for seed in range(120):
                w = rng.gamma(3.0, 0.4, 50) + 0.05
                db, dz = noise(seed, 0, 50, dt, with_dz=True)
                a = milstein(w, dyn, BASE_PARAMS, dt, db)
                b = taylor15(w, dyn, BASE_PARAMS, dt, db, dz)
                diffs.append(np.max(np.abs(a - b)))
            mean_diff[dt] = np.mean(diffs)
        r1 = mean_diff[0.02] / mean_diff[0.01]
        r2 = mean_diff[0.01] / mean_diff[0.005]
        assert 2.0 < r1 < 4.0   # 2^(3/2) = 2.83
        assert 2.0 < r2 < 4.0

    def test_network_jacobian_contraction(self):
        # finite differences confirm the analytic Jacobian product
        dyn = build_regular_ring(10, 4)
        rng = np.random.default_rng(3)
        w = rng.gamma(3.0, 0.4, 10)
        v = rng.normal(size=10)
        eps = 1e-7
        fd = (dyn.drift(w + eps * v, BASE_PARAMS) - dyn.drift(w - eps * v, BASE_PARAMS)) / (2 * eps)
        assert np.allclose(dyn.jacobian_apply(w, v, BASE_PARAMS,
                                              dyn.drift(w, BASE_PARAMS)),
                           fd, atol=1e-7)

    def test_eft_jacobian_contraction(self):
        dyn = EFTDynamics(0.5)
        rng = np.random.default_rng(4)
        w = rng.gamma(3.0, 0.4, 20) + 0.1
        v = rng.normal(size=20)
        eps = 1e-7
        fd = (dyn.drift(w + eps * v, BASE_PARAMS) - dyn.drift(w - eps * v, BASE_PARAMS)) / (2 * eps)
        assert np.allclose(dyn.jacobian_apply(w, v, BASE_PARAMS,
                                              dyn.drift(w, BASE_PARAMS)),
                           fd, atol=1e-6)


class TestDegreeSlot:
    """The small-world operator applies L = A - D through the degree slot
    of each CSR row."""

    @staticmethod
    def _neighbor_matrix(top):
        """A as a CSR matrix of the neighbor lists alone, without slots."""
        slots = top.indptr[1:] - 1
        return sp.csr_matrix(
            (np.ones(top.indices.size - top.N), np.delete(top.indices, slots),
             top.indptr - np.arange(top.N + 1)), shape=(top.N, top.N))

    @given(st.integers(2, 120), st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_product_equals_neighbor_sum_minus_degree(self, N, p, seed):
        top = build_random_smallworld(N, p, seed)
        A = self._neighbor_matrix(top)
        deg = top.degrees.astype(float)
        v = np.random.default_rng(seed).normal(size=N)
        # the operator's own matrix, also at p_sw = 0, which has no
        # divisor to scale by
        [laplacian] = [x for x in held(top) if sp.issparse(x)]
        assert np.array_equal(laplacian @ v, A @ v - deg * v)
        if top.n_divisor > 0:
            scale = BASE_PARAMS.J / top.n_divisor
            assert np.array_equal(top.drift(v, BASE_PARAMS),
                                  scale * (A @ v - deg * v))

    def test_isolated_agents(self):
        top = build_random_smallworld(30, 0.05, seed=1)
        isolated = top.degrees == 0
        assert isolated.any() and not isolated.all()
        A = self._neighbor_matrix(top)
        v = np.random.default_rng(3).gamma(2.0, 1.0, 30)
        # J = n scales L v by exactly 1
        out = top.drift(v, ModelParams(sigma2=1.0, J=top.n_divisor))
        expected = A @ v - top.degrees * v
        assert out.tobytes() == expected.tobytes()
        assert np.all(out[isolated] == 0.0)
        assert not np.signbit(out[isolated]).any()


def _dense_adjacency(case, top):
    """The adjacency matrix of an ``ORACLE_CASES`` topology, entry by
    entry."""
    N = top.N
    A = np.zeros((N, N))
    if case == "complete":
        A[:] = 1.0
        np.fill_diagonal(A, 0.0)
    elif case.startswith("ring"):
        for i in range(N):
            A[i, naive_ring_neighbors(N, int(top.n_divisor), i)] = 1.0
    else:
        rows = np.repeat(np.arange(N), np.diff(top.indptr))
        A[rows, top.indices] = 1.0
        np.fill_diagonal(A, 0.0)  # the degree slot of each row
    return A


ORACLE_PARAMS = ModelParams(sigma2=0.05, J=0.3)
ORACLE_CASES = {
    "complete": lambda: build_complete(40),
    "ring-even": lambda: build_regular_ring(40, 6),
    "ring-odd": lambda: build_regular_ring(40, 7),
    "smallworld": lambda: build_random_smallworld(60, 0.2, seed=4),
    "meanfield": MeanFieldDynamics,
    "eft": lambda: EFTDynamics(0.4),
}


def _derivatives(case, dyn, w, params):
    """Drift, Jacobian matrix and f'' (None if the drift is linear) of an
    ``ORACLE_CASES`` dynamics, written out from the model rather than
    from the dynamics' methods."""
    J, N = params.J, w.size
    if dyn.kind == "eft":
        g, th = dyn.gamma_eft, dyn._theta(params)
        f = J * (th * w ** (1.0 - g) - w)
        jac = np.diag(J * ((1.0 - g) * th * w ** (-g) - 1.0))
        return f, jac, -J * (1.0 - g) * g * th * w ** (-g - 1.0)
    if dyn.kind == "meanfield":
        jac = J * (np.full((N, N), 1.0 / N) - np.eye(N))
    else:
        A = _dense_adjacency(case, dyn)
        jac = (J / dyn.n_divisor) * (A - np.diag(A.sum(axis=1)))
    return jac @ w, jac, None


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_taylor15_step_matches_written_out_scheme(case):
    # the order-1.5 strong Taylor scheme (Kloeden & Platen 1992, sec.
    # 10.4) for g = c w, term by term, with dense Jacobian matrices
    dyn = ORACLE_CASES[case]()
    params, dt = ORACLE_PARAMS, 0.05
    rng = np.random.default_rng(len(case))
    N = 60 if case == "smallworld" else 40
    w = rng.gamma(3.0, 0.4, N) + 0.05
    db, dz = noise(11, 0, N, dt, with_dz=True)
    f, jac, fpp = _derivatives(case, dyn, w, params)
    s2, c = params.sigma2, math.sqrt(2.0) * params.sigma
    l0 = jac @ f + (0 if fpp is None else s2 * w * w * fpp)
    expected = (w + f * dt + c * w * db + s2 * w * (db * db - dt)
                + c * (jac @ (w * dz)) + 0.5 * dt * dt * l0
                + c * f * (db * dt - dz)
                + c * s2 * w * (db * db / 3.0 - dt) * db)
    out = taylor15(w, dyn, params, dt, db, dz)
    assert np.all(np.abs(out - expected) <= 1e-13 * np.abs(expected))
    curv = dyn.l0_drift(w, dyn.drift(w, params), params)
    assert (curv is None) == (fpp is None)


def test_eft_curvature_matches_second_difference():
    dyn = EFTDynamics(0.4)
    w = np.random.default_rng(6).gamma(3.0, 0.4, 30) + 0.1
    h = 1e-3 * w
    d2 = (dyn.drift(w + h, ORACLE_PARAMS) - 2.0 * dyn.drift(w, ORACLE_PARAMS)
          + dyn.drift(w - h, ORACLE_PARAMS)) / (h * h)
    curv = dyn.l0_drift(w, dyn.drift(w, ORACLE_PARAMS), ORACLE_PARAMS)
    assert curv == pytest.approx(ORACLE_PARAMS.sigma2 * w * w * d2, rel=1e-5)


@pytest.mark.parametrize("gamma", [0.1, 0.4, 0.5, 0.8, 1.0])
def test_eft_jacobian_from_the_drift_matches_the_power_form(gamma):
    # f' = (1 - g) (f + J w) / w - J from the drift f at w agrees with
    # J ((1 - g) theta w^(-g) - 1), relative to the size of its two terms
    dyn = EFTDynamics(gamma)
    rng = np.random.default_rng(8)
    w = np.concatenate((rng.gamma(3.0, 0.4, 2000) + 1e-3,
                        rng.lognormal(0.0, 3.0, 2000)))
    v = rng.normal(size=w.size)
    J, th = ORACLE_PARAMS.J, dyn._theta(ORACLE_PARAMS)
    first = J * (1.0 - gamma) * th * w ** (-gamma)
    power = (first - J) * v
    out = dyn.jacobian_apply(w, v, ORACLE_PARAMS, dyn.drift(w, ORACLE_PARAMS))
    assert np.all(np.abs(out - power) <= 1e-12 * (first + J) * np.abs(v))


class TestNoiseStreams:
    def test_increment_statistics(self):
        dt = 0.04
        db_all, dz_all = [], []
        gen = engine.NoiseGenerator(9)
        for step in range(400):
            db, dz = one_step(gen, step, 256, dt, with_dz=True)
            db_all.append(db)
            dz_all.append(dz)
        db = np.concatenate(db_all)
        dz = np.concatenate(dz_all)
        n = db.size
        assert db.var() == pytest.approx(dt, rel=0.02)
        assert dz.var() == pytest.approx(dt ** 3 / 3.0, rel=0.02)
        cov = float(np.mean(db * dz))
        assert cov == pytest.approx(dt ** 2 / 2.0, rel=0.03)

    def test_db_identical_with_and_without_dz(self):
        db_a, dz_a = noise(5, 17, 64, 0.01, with_dz=False)
        db_b, dz_b = noise(5, 17, 64, 0.01, with_dz=True)
        assert dz_a is None and dz_b.shape == (64,)
        assert np.array_equal(db_a, db_b)

    def test_steps_are_independent_streams(self):
        a, _ = noise(5, 0, 32, 0.01)
        b, _ = noise(5, 1, 32, 0.01)
        assert not np.array_equal(a, b)

    def test_pure_function_of_seed_and_step(self):
        assert np.array_equal(noise(7, 3, 16, 0.01)[0],
                              noise(7, 3, 16, 0.01)[0])

    @given(st.integers(0, 2 ** 64 - 1),
           st.lists(st.tuples(st.one_of(st.integers(0, 8),
                                        st.integers(0, 2 ** 63)),
                              st.booleans()), min_size=1, max_size=12),
           st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_reused_generator_matches_fresh(self, seed, draws, n):
        # steps repeat and come in any order; the one generator must give
        # what a fresh one at (seed, step) gives, with or without dZ
        gen = engine.NoiseGenerator(seed)
        for step, with_dz in draws:
            db, dz = one_step(gen, step, n, 0.01, with_dz)
            db_f, dz_f = philox_noise(seed, step, n, 0.01, with_dz)
            assert np.array_equal(db, db_f)
            if with_dz:
                assert np.array_equal(dz, dz_f)
            else:
                assert dz is None and dz_f is None
            db_o, _ = one_step(gen, step, n, 0.01, not with_dz)
            assert np.array_equal(db_o, db)


class TestNoiseBlocks:
    """The loop draws the noise of several steps at once; no output may
    depend on how many."""

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 40),
           st.integers(1, 9), st.integers(1, 40), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_block_rows_equal_single_steps(self, seed, step, steps, n,
                                           with_dz):
        z = np.empty((steps, 2, n) if with_dz else (steps, n))
        db, dz = step_noise(engine.NoiseGenerator(seed), step, 0.01, z)
        assert db.shape == (steps, n) and np.shares_memory(db, z)
        assert (dz is None) == (not with_dz)
        for j in range(steps):
            db_j, dz_j = philox_noise(seed, step + j, n, 0.01, with_dz)
            assert np.array_equal(db[j], db_j)
            if with_dz:
                assert dz.shape == (steps, n)
                assert np.array_equal(dz[j], dz_j)

    DEFAULT_BLOCK_DRAWS = engine._BLOCK_DRAWS

    def _with_block(self, monkeypatch, cfg, block):
        """Set the module constant so that cfg's run takes ``block`` steps
        per noise block (None: the default)."""
        draws = cfg.N * (1 if cfg.scheme == "milstein" else 2)
        monkeypatch.setattr(engine, "_BLOCK_DRAWS", self.DEFAULT_BLOCK_DRAWS
                            if block is None else block * draws)

    @pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
    @pytest.mark.parametrize("dynamics", ["smallworld", "eft"])
    def test_snapshots_do_not_depend_on_block_size(self, monkeypatch, scheme,
                                                   dynamics):
        # 50 steps: blocks of 7 end after steps 7, 14, ..., 49 and 50, so
        # the snapshots lie at block ends (0.07, 0.49, 0.5) and inside
        # blocks (0.03, 0.1); the default takes all 50 steps in one block
        dyn = (build_random_smallworld(100, 0.05, seed=2)
               if dynamics == "smallworld" else EFTDynamics(0.5))
        cfg = _mf_config(scheme=scheme, dynamics=dyn, t_end=0.5,
                         snapshot_times=(0.0, 0.03, 0.07, 0.1, 0.49, 0.5))
        runs = []
        for block in (1, None, 7):
            self._with_block(monkeypatch, cfg, block)
            runs.append([(s.t, s.w.tobytes()) for s in simulate(cfg)])
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0]) == 6

    @pytest.mark.parametrize("scheme, J, seed, step", [
        ("milstein", 9.0, 8, 15), ("taylor15", 10.0, 1, 12)])
    def test_positivity_error_mid_block_matches_single_steps(
            self, monkeypatch, scheme, J, seed, step):
        cfg = _mf_config(scheme=scheme, params=ModelParams(sigma2=0.05, J=J),
                         N=40, dt=0.2, t_end=20.0, init_sd=0.4,
                         seed=seed,
                         snapshot_times=(0.0, 0.2, 0.4, 1.0, 2.0))
        seen = []
        for block in (1, None, 7):  # a block of 7 holds the failing step
            self._with_block(monkeypatch, cfg, block)
            with pytest.raises(PositivityError) as err:
                simulate(cfg)
            seen.append((err.value.step, err.value.t, err.value.agent,
                         [(s.t, s.w.tobytes()) for s in err.value.snapshots]))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][0] == step and step % 7
        assert len(seen[0][3]) == 5


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
        snaps = simulate(_mf_config(init_sd=0.05))
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

    @pytest.mark.parametrize("field, value", [
        ("dt", math.inf), ("dt", math.nan),
        ("t_end", math.inf), ("t_end", math.nan)])
    def test_non_finite_time_rejected(self, field, value):
        # an infinite dt means zero steps: the initial state, labelled t_end
        cfg = _mf_config(**{"dynamics": build_complete(50), "N": 50,
                            "t_end": 5.0, "snapshot_times": (0.0, 5.0),
                            field: value})
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            simulate(cfg)

    def test_topology_size_mismatch_rejected(self):
        cfg = _mf_config(dynamics=build_complete(4), N=5)
        with pytest.raises(ValueError, match="does not match"):
            simulate(cfg)

    def test_zero_divisor_network_rejected(self):
        top = build_random_smallworld(50, 0.0, seed=2)
        cfg = _mf_config(dynamics=top, N=50)
        with pytest.raises(ValueError):
            simulate(cfg)

    def test_positivity_abort_carries_partial_results(self):
        cfg = _mf_config(params=ModelParams(sigma2=0.05, J=30.0),
                        dynamics=MeanFieldDynamics(), N=40, dt=0.2,
                        t_end=20.0, snapshot_times=(0.0, 0.2, 0.4),
                        init_sd=0.4, seed=12)
        with pytest.raises(PositivityError) as err:
            simulate(cfg)
        assert err.value.step is not None
        assert len(err.value.snapshots) >= 1

    def test_positivity_message_names_failing_step(self):
        cfg = _mf_config(params=ModelParams(sigma2=0.05, J=30.0),
                        dynamics=MeanFieldDynamics(), N=40, dt=0.2,
                        t_end=20.0, snapshot_times=(0.0, 0.2, 0.4),
                        init_sd=0.4, seed=12)
        with pytest.raises(PositivityError) as err:
            simulate(cfg)
        assert err.value.step == 0
        assert "(step 0)" in str(err.value)

    def test_uncoupled_run_matches_transient_lognormal(self):
        # J=0 at t=5: log w ~ Normal(-sigma^2 t, 2 sigma^2 t)
        cfg = _mf_config(params=ModelParams(sigma2=0.05, J=0.0),
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
        cfg = _mf_config(dynamics=top, N=200, t_end=2.0,
                        snapshot_times=(0.0, 1.0, 2.0), seed=5)
        snaps = simulate(cfg)
        for snap in snaps:
            assert snap.w.mean() == pytest.approx(1.0, abs=0.05)


class TestNoAliasing:
    """The steps read w, their noise coefficients and what the dynamics
    return, and write only into arrays of their own."""

    @pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
    @pytest.mark.parametrize("shared_drift", [False, True])
    def test_steps_accept_read_only_inputs(self, scheme, shared_drift):
        w = _read_only(np.linspace(0.5, 2.0, 6))
        db, dz = (_read_only(a) for a in noise(3, 0, 6, 0.01, with_dz=True))
        coefficients = [_read_only(a) for a in engine._step_coefficients(
            scheme, BASE_PARAMS, 0.01, db, dz)]
        f = _read_only(np.linspace(-0.1, 0.1, 6))
        if shared_drift:
            dyn = FixedDrift(f)
            dyn.jacobian_apply = lambda w, v, params, f_: f
            dyn.l0_drift = lambda w, f_, params: f
        else:
            dyn = ReadOnlyMeanField()
        step = milstein_step if scheme == "milstein" else taylor15_step
        out = step(w, dyn, BASE_PARAMS, 0.01, *coefficients)
        assert out.flags.writeable
        for a in (w, db, dz, f, *coefficients):
            assert not np.shares_memory(out, a)
        assert np.array_equal(f, np.linspace(-0.1, 0.1, 6))
        assert np.array_equal(w, np.linspace(0.5, 2.0, 6))
        again = step(w, dyn, BASE_PARAMS, 0.01, *coefficients)
        assert again is not out and np.array_equal(again, out)

    @pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
    def test_snapshots_are_distinct_and_stay_fixed(self, scheme):
        times = (0.0, 0.3, 0.3, 0.5, 1.0)
        snaps = simulate(_mf_config(scheme=scheme, snapshot_times=times))
        assert [s.t for s in snaps] == list(times)
        for i, a in enumerate(snaps):
            assert not a.w.flags.writeable
            for b in snaps[i + 1:]:
                assert not np.shares_memory(a.w, b.w)
        # a run that stops at t holds what the longer run recorded at t
        for snap in snaps[1:]:
            short = simulate(_mf_config(scheme=scheme, t_end=snap.t,
                                        snapshot_times=(snap.t,)))
            assert np.array_equal(short[0].w, snap.w)
        assert not np.array_equal(snaps[1].w, snaps[3].w)


def test_long_run_stays_positive():
    # 250k steps at the study parameters: positivity violations must not
    # occur at dt=0.01 (and would raise, never silently clamp)
    top = build_regular_ring(1000, 10)
    cfg = SimConfig(params=BASE_PARAMS, dynamics=top,
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


class TestStepSeams:
    """Every block of steps draws its noise through the module global
    ``step_noise``, and every step goes through ``milstein_step`` or
    ``taylor15_step``; the benchmark's tracer replaces all three with
    timed wrappers."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {}
        for name in ("step_noise", "milstein_step", "taylor15_step"):
            log = calls[name] = []

            def counted(*args, _fn=getattr(engine, name), _log=log, **kw):
                _log.append((args, kw))
                return _fn(*args, **kw)
            monkeypatch.setattr(engine, name, counted)
        return calls

    @pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
    def test_simulate_calls_each_seam_once_per_step(self, monkeypatch,
                                                    scheme):
        # the noise seam is called once per block of 7 steps here
        calls = self._count_calls(monkeypatch)
        draws = 100 if scheme == "milstein" else 200
        monkeypatch.setattr(engine, "_BLOCK_DRAWS", 7 * draws + 6)
        cfg = _mf_config(scheme=scheme, t_end=0.5, snapshot_times=(0.5,))
        simulate(cfg)
        other = "taylor15_step" if scheme == "milstein" else "milstein_step"
        # positional arguments: (gen, step, dt, z), z of K rows
        blocks = [(a[1], a[3].shape[0]) for a, _ in calls["step_noise"]]
        assert blocks == [(k, 7) for k in range(0, 49, 7)] + [(49, 1)]
        assert cfg.n_steps == 50
        assert len(calls[f"{scheme}_step"]) == cfg.n_steps
        assert calls[other] == []

    @pytest.mark.parametrize("init_sd", [None, 0.05],
                             ids=["ones", "gaussian"])
    @pytest.mark.parametrize("t_end", [0.05, 2.0])
    def test_simulate_builds_one_noise_generator(self, monkeypatch, init_sd,
                                                 t_end):
        # building a Philox generator costs several times what moving one
        # to the next step's counter does; the init lane may build its own
        philox = np.random.Philox
        lanes = []

        def counted(*args, **kw):
            lanes.append(int(kw["counter"][2]))
            return philox(*args, **kw)
        monkeypatch.setattr(np.random, "Philox", counted)
        cfg = _mf_config(t_end=t_end, snapshot_times=(t_end,),
                         init_sd=init_sd)
        simulate(cfg)
        assert lanes.count(engine._NOISE_LANE) == 1
        assert len(lanes) == (1 if init_sd is None else 2)

    @pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
    def test_convergence_study_steps_through_seams(self, monkeypatch, scheme):
        calls = self._count_calls(monkeypatch)
        dts = [2.0 ** -k for k in range(4, 7)]
        strong_convergence_study(scheme, dts, 20, seed=1)
        other = "taylor15_step" if scheme == "milstein" else "milstein_step"
        # positional arguments: (w, dynamics, params, dt, *coefficients)
        per_dt = Counter(args[3] for args, _ in calls[f"{scheme}_step"])
        assert per_dt == {d: round(1.0 / d) for d in dts}
        assert calls["step_noise"] == [] and calls[other] == []
