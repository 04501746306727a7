"""Builders of the agent networks and the per-edge coupling convention.

Three undirected networks are supported: the complete graph, a regular
ring lattice, and a random small-world graph where every pair of agents
is linked independently with a fixed probability.  Each builder returns
the :class:`~bmnet.engine.NetworkDynamics` of its graph, with the
divisor ``n`` that defines the pairwise coupling J_ij = J / n and the
coupling operator v -> (J/n) (A - D) v that the engine applies, A the
adjacency and D the degrees.  The complete graph applies the mean-field
law and the ring lattice a circulant window sum, both in O(N) from
(N, n) and with no adjacency.

Only the small-world graph stores an adjacency: its graph Laplacian
L = A - D, once, in CSR form with scipy's index dtype, which its
operator applies as one sparse product scaled in place.  Each row holds
the agent's sorted neighbors and then the agent itself, whose slot holds
-degree, so the product sums the neighbors in order and then adds
-deg_i v_i.  No other module of the package knows this matrix.  A
realization replays from (N, p_sw, seed).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .engine import NetworkDynamics, _mean_field_coupling


def build_complete(N: int) -> NetworkDynamics:
    """Complete graph on N agents; coupling divisor N."""
    if N < 2:
        raise ValueError(f"complete network needs N >= 2, got {N}")
    return NetworkDynamics(int(N), float(N), _mean_field_coupling)


def build_regular_ring(N: int, n: int) -> NetworkDynamics:
    """Ring lattice where every agent has exactly n neighbors.

    Even n links agent i to i+-1 ... i+-n/2 (mod N).  Odd n links
    (n-1)/2 on each side plus the antipodal agent i + N/2, which
    requires N to be even so that the degree is exactly n everywhere.
    """
    if N < 3:
        raise ValueError(f"ring needs N >= 3, got {N}")
    if not 1 <= n <= N - 1:
        raise ValueError(f"ring degree must satisfy 1 <= n <= N-1, got n={n}")
    if n % 2 == 1 and N % 2 == 1:
        raise ValueError(f"odd ring degree n={n} requires even N, got N={N}")
    N, n = int(N), int(n)
    h, n_divisor = n // 2, float(n)

    def coupling(v: np.ndarray, J: float) -> np.ndarray:
        """(J/n) (neighbor sum - n v) on the ring lattice.

        Agent i's neighbors i-h ... i+h (h = n//2, i itself removed),
        plus the antipode i + N/2 for odd n, form a circulant window, so
        every window sum is a difference of two prefix sums of the
        periodically padded vector.  The vector is centred first: rows
        of the operator sum to zero, so this leaves the result
        unchanged, and it keeps the prefix sums small, which keeps the
        drift's ensemble sum within rounding of zero.
        """
        u = v - v.mean()
        c = np.empty(N + 2 * h + 1)
        c[0] = 0.0
        np.cumsum(np.concatenate((u[N - h:], u, u[:h])), out=c[1:])
        s = c[2 * h + 1:] - c[:N] - u
        if n % 2:
            s += np.roll(u, -(N // 2))
        return (J / n_divisor) * (s - n * u)

    return NetworkDynamics(N, n_divisor, coupling)


def build_random_smallworld(N: int, p_sw: float, seed: int) -> NetworkDynamics:
    """Random graph: each unordered pair linked independently with p_sw.

    A pure function of (N, p_sw, seed): identical inputs give identical
    edge sets.  The coupling divisor is the expected degree p_sw * N,
    regardless of realized degrees.  Isolated agents are permitted; they
    evolve under pure noise downstream; their rows hold only the
    degree slot.  A graph whose build would not fit in physical memory
    is refused with ValueError before anything is drawn.
    """
    import scipy.sparse as sp  # only this graph needs it

    if N < 2:
        raise ValueError(f"small-world network needs N >= 2, got {N}")
    if not 0.0 <= p_sw <= 1.0:
        raise ValueError(f"p_sw must lie in [0, 1], got {p_sw}")
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        memory = math.inf
    # the build's peak RSS exceeds its start by 48.5 bytes a pair with
    # int32 indices (in a fresh process at N = 3000 and 4000, p_sw = 0.5,
    # and at N = 1e4, p_sw = 0.1); 14 index words a pair are 56 bytes, 15%
    # to spare, and with int64 indices their doubling over-covers the
    # build, whose sort order is int64 at either width
    pairs = p_sw * N * (N - 1) / 2
    word = np.dtype(sp.get_index_dtype(maxval=int(2 * pairs + N))).itemsize
    need = pairs * 14 * word
    if need > memory:
        raise ValueError(f"small-world graph with N={N}, p_sw={p_sw} needs "
                         f"about {need / 2 ** 30:.3g} GiB to build, more "
                         f"than the {memory / 2 ** 30:.3g} GiB of memory")
    rng = np.random.default_rng(seed)
    # pairs i < j in row-major order: row i's upper neighbors, ascending
    upper = [np.flatnonzero(rng.random(N - 1 - i) < p_sw) + (i + 1)
             for i in range(N - 1)]
    n_upper = np.array([u.size for u in upper] + [0])
    dtype = sp.get_index_dtype(maxval=2 * int(n_upper.sum()) + N)
    dst = np.concatenate(upper, dtype=dtype)
    del upper  # its int64 rows would outlive the build otherwise
    agents = np.arange(N, dtype=dtype)
    src = np.repeat(agents, n_upper)
    degrees = np.bincount(dst, minlength=N) + n_upper
    indptr = np.zeros(N + 1, dtype=dtype)
    np.cumsum(degrees + 1, out=indptr[1:])
    # every pair is written once in the row of its larger end, once in
    # that of its smaller end, and then each row's degree slot; both
    # pair lists ascend within a row, so the stable sort by row lists
    # row i's lower neighbors, its upper ones and then i
    order = np.argsort(np.concatenate((dst, src, agents)), kind="stable")
    indices = np.concatenate((src, dst, agents))[order]
    del dst, src, order  # before the weights exist
    for a in (indptr, indices, degrees):
        a.setflags(write=False)
    data = np.ones(indices.size)
    data[indptr[1:] - 1] = -degrees
    # the index arrays have scipy's index dtype, so no copy is made
    laplacian = sp.csr_matrix((data, indices, indptr), shape=(N, N))
    n_divisor = float(p_sw * N)

    def coupling(v: np.ndarray, J: float) -> np.ndarray:
        """(J/n) L v: one sparse product, scaled in place."""
        out = laplacian @ v
        return np.multiply(out, J / n_divisor, out)

    return NetworkDynamics(int(N), n_divisor, coupling, laplacian.indptr,
                           laplacian.indices, degrees)
