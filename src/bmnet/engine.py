"""Ensemble integrators for the coupled multiplicative-noise wealth SDE.

The simulated system is the rescaled Ito form

    dw_i = sqrt(2) sigma w_i dB_i + f_i(w) dt

where the drift f depends on the chosen dynamics: pairwise exchange on a
network (f_i = (J/n) sum_j (w_j - w_i) over neighbors), its mean-field
limit (f_i = J (wbar - w_i)), or the decoupled effective-field form
(f_i = J (theta w_i**(1-gamma) - w_i)).  Rescaling removes the secular
exp(sigma^2 t) growth of the raw wealth: W_i = w_i exp(sigma^2 t).

Each dynamics class holds the one implementation of its drift, and of
its Jacobian product and curvature term sigma^2 w^2 f'' for the order
1.5 scheme.  The complete graph and the mean-field limit share one
function for their common law.  A network dynamics applies the linear
coupling operator that its builder in :mod:`bmnet.topology` hands over,
so this module knows no graph and imports nothing from that one.  Both
strong integrators for diagonal noise, Milstein (order 1.0) and the
order 1.5 strong Taylor scheme, take the dynamics and share one loop.

Noise is counter-based: the Gaussian increments of step k come from a
Philox stream keyed by the run seed with the step index in the counter,
so a simulation is a pure function of its config no matter how the work
is scheduled.  A run builds one generator and moves it to each step's
counter.  One rule, ``_block_steps``, sets K = max(1, 2**14 // draws per
step), and a run's noise source draws the noise of K consecutive steps
at once, each from its own counter; no output depends on K.  The loop
iterates the blocks it is handed and turns each into per-step
coefficient rows (the Milstein factor m, the Taylor factors P and Q)
with a few ufunc calls over (K, N) arrays.  A step is the arithmetic
that depends on the state; the loop owns the time, the step index and
the one positivity check after each step.  On two CPUs or more, a long
run forks a producer that draws the blocks ahead of the steps into
shared memory; the bits are the same.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _fork
from .distributions import theta_of_gamma
from .errors import PositivityError

MILSTEIN = "milstein"
TAYLOR15 = "taylor15"
SCHEMES = (MILSTEIN, TAYLOR15)

# Philox counter lanes (word 2); word 3 carries the step index
_NOISE_LANE = 0
_INIT_LANE = 1

# a run's noise comes in blocks of _block_steps steps: 16 Milstein steps
# at N = 1e3, one at N = 1e4.  A block and its coefficients stay near
# 256 KB: at 2**15 draws, a Milstein run at N = 1e4 held 0.47 MiB more
# at its peak than one step at a time
_BLOCK_DRAWS = 2 ** 14
# noise blocks a forked producer may hold drawn ahead of the steps: at
# most 640 KB of shared memory, on the ring with N = 1e4
_NOISE_SLOTS = 4


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Noise variance sigma2 = sigma^2 and coupling strength J, both per
    time, as a config writes them; the amplitude sigma is derived."""

    sigma2: float
    J: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.J < 0:
            raise ValueError(f"J must be nonnegative, got {self.J}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class Snapshot:
    """Immutable copy of the wealth vector at a requested time."""

    t: float
    w: np.ndarray

    def __post_init__(self):
        self.w.setflags(write=False)


class NoiseGenerator:
    """One reusable Philox generator for one counter lane of one seed,
    the noise lane unless another is given.

    ``at(step)`` moves it to counter (lane, step) with an empty buffer,
    the state that a fresh ``Philox(counter=[0, 0, lane, step],
    key=seed)`` starts in, so its draws equal a fresh generator's bit
    for bit.  Only the counter word of a state dict read once at
    construction changes, which costs a fraction of building a
    generator.  The dict holds its words as lists of ints, which the
    state setter reads in about half the time it takes to read them from
    numpy arrays.
    """

    def __init__(self, seed: int, lane: int = _NOISE_LANE):
        self._bitgen = np.random.Philox(counter=[0, 0, lane, 0],
                                        key=np.uint64(seed))
        self._gen = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        words = {name: state["state"][name].tolist()
                 for name in ("counter", "key")}
        self._state = {**state, "state": words,
                       "buffer": state["buffer"].tolist()}
        self._counter = words["counter"]

    def at(self, step: int) -> np.random.Generator:
        self._counter[3] = step
        self._bitgen.state = self._state
        return self._gen


def step_noise(gen: NoiseGenerator, step: int, dt: float,
               z: np.ndarray) -> tuple:
    """Fill ``z`` with the counter-based Wiener increments of the K steps
    from ``step`` on and return them as (dB, dZ), views of ``z``.

    ``z`` has shape (K, n), for dB alone, or (K, 2, n), for dB and dZ;
    dB and dZ have shape (K, n), and dZ is None for a (K, n) buffer.  dB
    has variance dt.  dZ (only the order-1.5 scheme needs it) integrates
    over the step the Brownian increment since its start:
    Var(dZ) = dt^3/3, Cov(dB, dZ) = dt^2/2.  Row j holds the draws of
    step + j from ``gen``, the run's :class:`NoiseGenerator`, moved to
    counter (lane 0, step + j), so the stream is a pure function of the
    seed and the step, and the dB values are identical whether or not dZ
    is drawn.
    """
    for j in range(z.shape[0]):
        gen.at(step + j).standard_normal(out=z[j])
    return _wiener_increments(*_increments(z), dt)


def _wiener_increments(db: np.ndarray, dz, dt: float) -> tuple:
    """Turn normals z0 in ``db`` and z1 in ``dz`` (or None) in place into
    dB = sqrt(dt) z0 and dZ = (0.5 dt^1.5)(z0 + z1/sqrt(3)), bit for bit."""
    if dz is not None:
        np.divide(dz, math.sqrt(3.0), dz)
        np.add(dz, db, dz)
        np.multiply(dz, 0.5 * dt ** 1.5, dz)
    np.multiply(db, math.sqrt(dt), db)
    return db, dz


def _increments(z: np.ndarray) -> tuple:
    """The (dB, dZ) views of a :func:`step_noise` buffer."""
    return (z[:, 0], z[:, 1]) if z.ndim == 3 else (z, None)


_NO_ENTRIES = np.empty(0, dtype=np.int32)
_NO_ENTRIES.setflags(write=False)


def _mean_field_coupling(v: np.ndarray, J: float) -> np.ndarray:
    """J (vbar - v), the mean-field law, which the complete graph obeys."""
    return J * (v.mean() - v)


class NetworkDynamics:
    """Pairwise exchange on a fixed graph, as the builders of
    :mod:`bmnet.topology` return it.

    ``N`` agents; ``n_divisor`` is the n in J_ij = J/n, for the
    small-world graph its expected degree p_sw N, not a realized one.
    ``coupling(v, J)`` is the linear coupling operator that the graph's
    builder hands over, (J/n) (A - D) v for its adjacency A and degrees
    D; it is the drift, and the Jacobian product of the order-1.5
    scheme.  ``indptr``, ``indices`` and ``degrees`` are the CSR index
    arrays and realized degrees of a graph that stores its adjacency,
    and empty for the others.
    """

    kind = "network"

    def __init__(self, N: int, n_divisor: float, coupling,
                 indptr: np.ndarray = _NO_ENTRIES,
                 indices: np.ndarray = _NO_ENTRIES,
                 degrees: np.ndarray = _NO_ENTRIES):
        self.N, self.n_divisor, self._apply = N, n_divisor, coupling
        self.indptr, self.indices, self.degrees = indptr, indices, degrees

    def drift(self, w: np.ndarray, params: ModelParams) -> np.ndarray:
        return self._apply(w, params.J)

    def jacobian_apply(self, w, v, params: ModelParams, f) -> np.ndarray:
        """Jac(w) v, given the drift f at w; the drift is linear, so its
        Jacobian is the coupling operator itself."""
        return self._apply(v, params.J)

    def l0_drift(self, w, f, params: ModelParams) -> None:
        """sigma^2 w^2 f'', the Taylor step's curvature term, given the
        drift f at w; None when, as here, the drift is linear."""
        return None


class MeanFieldDynamics:
    """Fully-connected limit: every agent couples to the ensemble mean."""

    kind = "meanfield"

    def drift(self, w, params: ModelParams) -> np.ndarray:
        return _mean_field_coupling(w, params.J)

    def jacobian_apply(self, w, v, params: ModelParams, f) -> np.ndarray:
        return _mean_field_coupling(v, params.J)

    def l0_drift(self, w, f, params: ModelParams) -> None:
        return None  # a linear drift has no curvature term


class EFTDynamics:
    """Decoupled effective-field dynamics with exponent gamma_eft.

    theta is the unit-mean normalizer theta_of_gamma(J, sigma^2,
    gamma_eft) of the model parameters, computed on first use and cached
    per parameters.
    """

    kind = "eft"

    def __init__(self, gamma_eft: float):
        if not 0 < gamma_eft <= 1:
            raise ValueError(f"gamma_eft must lie in (0, 1], got {gamma_eft}")
        self.gamma_eft = gamma_eft
        self._theta_params = None

    def _theta(self, params: ModelParams) -> float:
        if self._theta_params is None or self._theta_params[0] != params:
            self._theta_params = (
                params, theta_of_gamma(params.J, params.sigma2, self.gamma_eft))
        return self._theta_params[1]

    def drift(self, w, params: ModelParams) -> np.ndarray:
        # w > 0 here: the loop checks positivity after every step
        th = self._theta(params)
        return params.J * (th * w ** (1.0 - self.gamma_eft) - w)

    def jacobian_apply(self, w, v, params: ModelParams, f) -> np.ndarray:
        """f' v with f' = J ((1 - g) theta w^(-g) - 1), given the drift f
        at w, which makes it (1 - g) (f + J w) / w - J: no power."""
        fp = (1.0 - self.gamma_eft) * (f + params.J * w) / w - params.J
        return fp * v

    def l0_drift(self, w, f, params: ModelParams) -> np.ndarray:
        """sigma^2 w^2 f'' = -sigma^2 g (1 - g) J theta w^(1-g), given the
        drift f at w, which makes J theta w^(1-g) = f + J w: no power."""
        g = self.gamma_eft
        return (-params.sigma2 * g * (1.0 - g)) * (f + params.J * w)


def _step_coefficients(scheme: str, params: ModelParams, dt: float,
                       dB: np.ndarray, dZ) -> tuple:
    """The noise-only factors of a step, elementwise over dB and dZ of any
    shape; the loop passes (K, N) blocks and hands row j to step j.

    Milstein: (m,) with m = (1 - s2 dt) + dB (c + s2 dB), c = sqrt(2)
    sigma and s2 = sigma^2.  As a quadratic in dB, m has discriminant
    s2 (4 s2 dt - 2), so m > 0 whenever s2 dt < 1/2: the noise alone
    never makes a state non-positive.  Taylor 1.5: (P, Q, dZ) with
    P = 1 - s2 dt + dB (c - c s2 dt + dB (s2 + dB c s2 / 3)) and
    Q = dt + c (dB dt - dZ), each computed in the order of format version
    5, so Taylor outputs keep their bits.  The arrays are new.
    """
    s2 = params.sigma2
    c = math.sqrt(2.0) * params.sigma
    if scheme == MILSTEIN:
        m = np.multiply(dB, s2)
        np.add(m, c, m)
        np.multiply(m, dB, m)
        np.add(m, 1.0 - s2 * dt, m)
        return (m,)
    P = np.multiply(dB, c * s2 / 3.0)
    np.add(P, s2, P)
    np.multiply(P, dB, P)
    np.add(P, c - c * s2 * dt, P)
    np.multiply(P, dB, P)
    np.add(P, 1.0 - s2 * dt, P)
    Q = np.multiply(dB, dt)
    np.subtract(Q, dZ, Q)
    np.multiply(Q, c, Q)
    np.add(Q, dt, Q)
    return P, Q, dZ


def milstein_step(w: np.ndarray, dynamics, params: ModelParams, dt: float,
                  m: np.ndarray) -> np.ndarray:
    """One Milstein step of size dt from w, given the step's noise factor
    m of :func:`_step_coefficients`: w m + dt f, which is Euler-Maruyama
    plus sigma^2 w (dB^2 - dt) with the noise terms factored by w.

    Three array passes; the ufuncs write only into arrays made here,
    never into w, m or f.  Nothing is checked: the config holds dt > 0,
    the noise source sizes m to the state, and the loop checks the
    result.
    """
    f = dynamics.drift(w, params)
    fdt = np.multiply(f, dt)
    w_new = np.multiply(w, m)
    np.add(w_new, fdt, w_new)
    return w_new


def taylor15_step(w: np.ndarray, dynamics, params: ModelParams, dt: float,
                  P: np.ndarray, Q: np.ndarray, dZ: np.ndarray) -> np.ndarray:
    """One step of size dt of the order-1.5 strong Taylor scheme for
    diagonal noise g_i = sqrt(2) sigma w_i, from w, given the step's noise
    factors P and Q of :func:`_step_coefficients` and the auxiliary dZ.

    With c = sqrt(2) sigma and s2 = sigma^2, c Jac(w dZ) + (dt^2/2) L0 f
    = Jac (c w dZ + (dt^2/2) f) + (dt^2/2) s2 w^2 f'', so the step is

        w P + f Q + Jac (c w dZ + (dt^2/2) f) + (dt^2/2) s2 w^2 f''

        P = 1 - s2 dt + dB (c - c s2 dt + dB (s2 + dB c s2 / 3))
        Q = dt + c (dB dt - dZ)

    with one Jacobian product; ``jacobian_apply`` and ``l0_drift`` take
    f, and ``l0_drift`` gives s2 w^2 f'', or None for a linear drift.
    The ufuncs write only into arrays made here.  As in
    :func:`milstein_step`, nothing is checked here.
    """
    c = math.sqrt(2.0) * params.sigma
    half_dt2 = 0.5 * dt * dt
    f = dynamics.drift(w, params)
    v = np.multiply(w, dZ)
    np.multiply(v, c, v)
    tmp = np.multiply(f, half_dt2)
    np.add(v, tmp, v)
    jac = dynamics.jacobian_apply(w, v, params, f)
    curv = dynamics.l0_drift(w, f, params)
    w_new = np.multiply(P, w)
    np.multiply(Q, f, tmp)
    np.add(w_new, tmp, w_new)
    np.add(w_new, jac, w_new)
    if curv is not None:
        np.multiply(curv, half_dt2, tmp)
        np.add(w_new, tmp, w_new)
    return w_new


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one ensemble run."""

    params: ModelParams
    dynamics: object  # NetworkDynamics | MeanFieldDynamics | EFTDynamics
    scheme: str
    N: int
    dt: float
    t_end: float
    snapshot_times: tuple
    init_sd: float | None = None  # of a Gaussian state; None: all ones
    seed: int = 0

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected {SCHEMES}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(
                f"t_end must be nonnegative and finite, got {self.t_end}")
        self._grid_step(self.t_end, f"t_end={self.t_end}")
        if self.init_sd is not None and not 0 < self.init_sd:
            raise ValueError(f"init_sd must be positive, got {self.init_sd}")
        for t in self.snapshot_times:
            if not 0 <= t <= self.t_end + 1e-9:
                raise ValueError(
                    f"snapshot time {t} outside [0, t_end={self.t_end}]")
        if isinstance(self.dynamics, NetworkDynamics):
            if self.dynamics.N != self.N:
                raise ValueError(f"topology N={self.dynamics.N} does not "
                                 f"match config N={self.N}")
            if not self.dynamics.n_divisor > 0:
                raise ValueError(
                    "topology n_divisor must be positive for network dynamics")
        self.snapshot_steps()  # grid alignment

    def snapshot_steps(self) -> list:
        """Map each snapshot time onto the dt grid; reject misaligned times."""
        return [self._grid_step(t, f"snapshot time {t}")
                for t in self.snapshot_times]

    def _grid_step(self, t: float, name: str) -> int:
        """The dt-grid step at time t; a ValueError if t is off the grid."""
        k = int(round(t / self.dt))
        if abs(k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"{name} is not a multiple of dt={self.dt}")
        return k

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def initial_state(config: SimConfig) -> np.ndarray:
    """Initial wealth vector: all ones, or a narrow Gaussian around one
    (resampled until positive), drawn from a dedicated Philox lane."""
    if config.init_sd is None:
        return np.ones(config.N)
    gen = NoiseGenerator(config.seed, lane=_INIT_LANE).at(0)
    w = 1.0 + config.init_sd * gen.standard_normal(config.N)
    while (bad := w <= 0).any():
        w[bad] = 1.0 + config.init_sd * gen.standard_normal(int(bad.sum()))
    return w


def _step_loop(w: np.ndarray, dynamics, params: ModelParams, scheme: str,
               dt: float, blocks, after_step=None) -> np.ndarray:
    """Advance w from t = 0 by steps of size dt; return the result.

    ``blocks`` yields the (dB, dZ) rows of the steps in order, in blocks
    whose length its source picks; each block becomes per-step
    coefficient rows in one pass, and the next is asked for only after
    the steps of the last.  After each step the loop adds dt to t and
    checks the state: a value that is not positive and finite raises
    :class:`PositivityError` with the first such agent, t and the index
    of the step.  ``after_step(k, w)`` sees the state after k steps.
    The step functions are module globals read at call time, so
    wrappers installed on this module see every step.
    """
    step = milstein_step if scheme == MILSTEIN else taylor15_step
    t, k = 0.0, 0
    for noise in blocks:
        for row in zip(*_step_coefficients(scheme, params, dt, *noise)):
            w = step(w, dynamics, params, dt, *row)
            t += dt
            # argmin and argmax point at a NaN if there is one, and +-inf
            # fails one comparison; this costs less than min and max
            if not (w[w.argmin()] > 0 and w[w.argmax()] < np.inf):
                agent = int(np.argmax(~np.isfinite(w) | (w <= 0)))
                raise PositivityError(agent, t, step=k,
                                      finite=np.isfinite(w[agent]))
            k += 1
            if after_step is not None:
                after_step(k, w)
    return w


def _block_steps(draws_per_step: int) -> int:
    """Steps K per noise block: as many as fit in _BLOCK_DRAWS, one at least."""
    return max(1, _BLOCK_DRAWS // draws_per_step)


@contextmanager
def _noise_blocks(config: SimConfig):
    """The :func:`step_noise` (dB, dZ) blocks of ``config``'s run, in order,
    for :func:`_step_loop`, of :func:`_block_steps` steps each.

    In process, one buffer is filled again for each block.  For a run of
    at least ``_fork._FORK_MIN_DRAWS`` draws on two CPUs or more, a forked
    producer draws the blocks, in order, into a ring of shared-memory
    slots while this process steps, so block i lives in slot i % n_slots.
    Each byte on the two pipes is a credit: one lets the producer fill
    its next slot, the other says that a block is ready.  A slot is
    credited back only when the next block is asked for, because the
    coefficients of a Taylor block hold views of its dZ rows.  The draws
    are the same bits either way.  If the producer ends early the parent
    raises RuntimeError; on every exit the producer has been reaped.
    """
    rows = (2, config.N) if config.scheme == TAYLOR15 else (config.N,)
    block = _block_steps(math.prod(rows))
    n_steps, dt = config.n_steps, config.dt
    starts = range(0, n_steps, block)
    gen = NoiseGenerator(config.seed)
    if _fork.processes(n_steps * math.prod(rows)) < 2:
        z = np.empty((block,) + rows)
        # a slice past the end stops there: the last block may be short
        yield (step_noise(gen, k, dt, z[:n_steps - k]) for k in starts)
        return
    import mmap  # only forked runs need it

    n_slots = min(_NOISE_SLOTS, len(starts))
    ring = mmap.mmap(-1, n_slots * 8 * block * math.prod(rows))
    slots = np.frombuffer(ring).reshape((n_slots, block) + rows)
    free_r, free_w = os.pipe()
    ready_r, ready_w = os.pipe()
    # the first credits go in before the fork, so a producer that has
    # finished and exited never leaves the parent a broken pipe
    os.write(free_w, bytes(n_slots))

    def produce():
        os.close(free_w)
        os.close(ready_r)
        for i, k in enumerate(starts):
            if not os.read(free_r, 1):
                return  # the parent has gone
            step_noise(gen, k, dt, slots[i % n_slots, :n_steps - k])
            os.write(ready_w, b"\0")

    try:
        pid = _fork.fork(produce)
    finally:
        os.close(free_r)
        os.close(ready_w)

    def read():
        nonlocal pid
        for i, k in enumerate(starts):
            try:
                # the producer draws block i + n_slots - 1 into the slot
                # that block i - 1 held, if there is such a block
                if 0 < i <= len(starts) - n_slots:
                    os.write(free_w, b"\0")
                ready = os.read(ready_r, 1)
            except BrokenPipeError:
                ready = b""
            if not ready:
                code, pid = _fork.reap(pid), None
                raise RuntimeError(f"noise producer exited with status "
                                   f"{code} before step {k}")
            yield _increments(slots[i % n_slots, :n_steps - k])

    failed = True
    try:
        yield read()
        failed = False
    finally:
        os.close(free_w)
        os.close(ready_r)
        if pid is not None:
            code = _fork.reap(pid, kill=failed)
            if code and not failed:
                raise RuntimeError(f"noise producer exited with status {code}")


def simulate(config: SimConfig) -> list:
    """Integrate the configured ensemble, returning snapshots at the
    requested times.  Deterministic in the config, including the seed.

    On a positivity violation the raised :class:`PositivityError` carries
    the snapshots emitted so far and the failing step index.  A forked
    noise producer, if any, is reaped before this returns or raises.
    """
    config.validate()
    wanted = {}
    for k, t in zip(config.snapshot_steps(), config.snapshot_times):
        wanted.setdefault(k, []).append(t)
    snapshots = []

    def record(k, w):
        for t in wanted.get(k, ()):
            snapshots.append(Snapshot(t=t, w=w.copy()))

    w = initial_state(config)
    record(0, w)
    with _noise_blocks(config) as blocks:
        try:
            _step_loop(w, config.dynamics, config.params, config.scheme,
                       config.dt, blocks, record)
        except PositivityError as err:
            err.snapshots = snapshots
            raise
    return snapshots


def strong_convergence_study(scheme: str, dts, n_paths: int,
                             seed: int) -> dict:
    """Strong-error slope of a scheme against the exact uncoupled solution.

    Paths run from w = 1 to t = 1 at sigma^2 = 0.05.  With J = 0 each
    path is a geometric Brownian motion with the exact solution
    w_t = w_0 exp(sqrt(2) sigma B_t - sigma^2 t).  All step
    sizes are driven by one shared Brownian path per sample, generated at
    the finest level and aggregated exactly (dZ of a coarse step is the
    sum of fine dZ plus the time integral of the accumulated fine dB).
    Returns the mean absolute endpoint errors and the fitted log-log slope.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    params, t_end = ModelParams(sigma2=0.05, J=0.0), 1.0
    dts = sorted(float(d) for d in dts)
    if not all(0 < d < math.inf for d in dts):
        raise ValueError("need positive finite step sizes")
    if len(set(dts)) < 2:
        raise ValueError("need two distinct step sizes or more to fit a slope")
    dt_fine = dts[0]
    m_fine = int(round(t_end / dt_fine))
    if abs(m_fine * dt_fine - t_end) > 1e-12:
        raise ValueError(f"t_end={t_end} is not a multiple of dt={dt_fine}")
    for d in dts:
        m = d / dt_fine
        if abs(m - round(m)) > 1e-9 or m_fine % int(round(m)):
            raise ValueError(
                f"dt={d} must evenly subdivide t_end and the finest dt")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    z = rng.standard_normal((2, m_fine, n_paths))
    db_fine, dz_fine = _wiener_increments(z[0], z[1], dt_fine)

    b_total = db_fine.sum(axis=0)
    w_exact = np.exp(math.sqrt(2.0) * params.sigma * b_total
                     - params.sigma2 * t_end)

    K = _block_steps(n_paths * (1 if scheme == MILSTEIN else 2))
    errors = []
    for d in dts:
        m = int(round(d / dt_fine))
        k_steps = m_fine // m
        db_blk = db_fine.reshape(k_steps, m, n_paths)
        dz_blk = dz_fine.reshape(k_steps, m, n_paths)
        db = db_blk.sum(axis=1)
        # integral of accumulated within-block dB over the block
        prefix = np.cumsum(db_blk, axis=1) - db_blk
        dz = dz_blk.sum(axis=1) + dt_fine * prefix.sum(axis=1)
        w = _step_loop(np.ones(n_paths), MeanFieldDynamics(), params, scheme,
                       d, ((db[k:k + K], dz[k:k + K])
                           for k in range(0, k_steps, K)))
        errors.append(float(np.mean(np.abs(w - w_exact))))

    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return {"scheme": scheme, "dts": list(dts), "strong_errors": errors,
            "fitted_slope": slope}
