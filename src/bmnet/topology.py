"""Agent network topologies and the per-edge coupling convention.

Three undirected topologies are supported: the complete graph, a regular
ring lattice, and a random small-world graph where every pair of agents
is linked independently with a fixed probability.  Each topology carries
the divisor ``n`` that defines the pairwise coupling J_ij = J / n.

A topology stores only what the coupling operator reads.  The complete
graph and the ring lattice follow from (N, n) alone, and the engine
applies them in closed form, so they store no adjacency.  The
small-world graph stores its adjacency once, in compressed (CSR) form
with scipy's index dtype, so the engine's sparse matrix shares these
arrays instead of copying them.  Each row holds the agent's sorted
neighbors and then one more entry, the agent itself: the engine keeps
-degree in that slot and applies the coupling as one sparse product.  A
realization replays from (N, p_sw, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

COMPLETE = "complete"
REGULAR_RING = "regular_ring"
RANDOM_SMALLWORLD = "random_smallworld"


def _no_entries() -> np.ndarray:
    return np.empty(0, dtype=np.int32)


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable undirected agent network.

    Attributes
    ----------
    N : number of agents.
    kind : one of ``complete``, ``regular_ring``, ``random_smallworld``.
    n_divisor : the n in J_ij = J/n.  For the small-world graph this is
        the *expected* degree p_sw * N, not any realized degree.
    indptr, indices : CSR rows of the small-world graph;
        ``indices[indptr[i]:indptr[i+1] - 1]`` is the sorted neighbor
        list of agent i, and ``indices[indptr[i+1] - 1]`` is i itself, the
        degree slot.  Empty for the complete graph and the ring lattice,
        which store no entries.
    """

    N: int
    kind: str
    n_divisor: float
    indptr: np.ndarray = field(default_factory=_no_entries, repr=False)
    indices: np.ndarray = field(default_factory=_no_entries, repr=False)

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        """Realized degree of each agent of the small-world graph."""
        return np.diff(self.indptr) - 1


def build_complete(N: int) -> NetworkTopology:
    """Complete graph on N agents; coupling divisor N."""
    if N < 2:
        raise ValueError(f"complete network needs N >= 2, got {N}")
    return NetworkTopology(N=int(N), kind=COMPLETE, n_divisor=float(N))


def build_regular_ring(N: int, n: int) -> NetworkTopology:
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
    return NetworkTopology(N=int(N), kind=REGULAR_RING, n_divisor=float(n))


def build_random_smallworld(N: int, p_sw: float, seed: int) -> NetworkTopology:
    """Random graph: each unordered pair linked independently with p_sw.

    A pure function of (N, p_sw, seed): identical inputs give identical
    edge sets.  The coupling divisor is the expected degree p_sw * N,
    regardless of realized degrees.  Isolated agents are permitted; they
    evolve under pure noise downstream; their rows hold only the
    degree slot.
    """
    if N < 2:
        raise ValueError(f"small-world network needs N >= 2, got {N}")
    if not 0.0 <= p_sw <= 1.0:
        raise ValueError(f"p_sw must lie in [0, 1], got {p_sw}")
    rng = np.random.default_rng(seed)
    # pairs i < j in row-major order: row i's upper neighbors, ascending
    upper = [np.flatnonzero(rng.random(N - 1 - i) < p_sw) + (i + 1)
             for i in range(N - 1)]
    n_upper = np.array([u.size for u in upper] + [0])
    n_pairs = int(n_upper.sum())
    dtype = sp.get_index_dtype(maxval=2 * n_pairs + N)
    dst = np.concatenate(upper, dtype=dtype)
    del upper  # its int64 rows would outlive the build otherwise
    agents = np.arange(N, dtype=dtype)
    src = np.repeat(agents, n_upper)
    n_lower = np.bincount(dst, minlength=N)
    indptr = np.zeros(N + 1, dtype=dtype)
    np.cumsum(n_lower + n_upper + 1, out=indptr[1:])
    # row i lists its lower neighbors, then its upper ones, then i.  Pair
    # k goes to row src[k] after all lower entries up to that row and the
    # src[k] earlier degree slots, and the stable sort by dst lists row
    # i's lower neighbors, ascending, after all upper entries and slots
    # before row i.
    k = np.arange(n_pairs, dtype=dtype)
    indices = np.empty(2 * n_pairs + N, dtype=dtype)
    pos = np.cumsum(n_lower, dtype=dtype)[src]
    pos += k
    pos += src
    indices[pos] = dst
    order = np.argsort(dst, kind="stable")
    lower_row = dst[order]
    pos = (np.cumsum(n_upper, dtype=dtype) - n_upper)[lower_row]
    pos += k
    pos += lower_row
    indices[pos] = src[order]
    indices[indptr[1:] - 1] = agents
    return NetworkTopology(N=int(N), kind=RANDOM_SMALLWORLD,
                           n_divisor=float(p_sw * N),
                           indptr=indptr, indices=indices)
