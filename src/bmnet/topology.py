"""Agent network topologies and the per-edge coupling convention.

Three undirected topologies are supported: the complete graph, a regular
ring lattice, and a random small-world graph where every pair of agents
is linked independently with a fixed probability.  Each topology carries
the divisor ``n`` that defines the pairwise coupling J_ij = J / n.

Adjacency is stored in compressed (CSR) form with sorted neighbor lists,
for edge-list output and graph queries.  The drift reads it only for the
small-world graph; the complete graph and the ring lattice have closed
forms that the engine applies without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COMPLETE = "complete"
REGULAR_RING = "regular_ring"
RANDOM_SMALLWORLD = "random_smallworld"


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable undirected agent network.

    Attributes
    ----------
    N : number of agents.
    kind : one of ``complete``, ``regular_ring``, ``random_smallworld``.
    n_divisor : the n in J_ij = J/n.  For the small-world graph this is
        the *expected* degree p_sw * N, not any realized degree.
    indptr, indices : CSR adjacency; ``indices[indptr[i]:indptr[i+1]]``
        is the sorted neighbor list of agent i.  For ``regular_ring`` the
        engine reads only N and n_divisor, so the arrays must be the
        lattice that :func:`build_regular_ring` gives.
    """

    N: int
    kind: str
    n_divisor: float
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of agent i."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def edges(self) -> np.ndarray:
        """All undirected edges as an (E, 2) array with i < j, sorted."""
        row = np.repeat(np.arange(self.N), self.degrees)
        col = self.indices
        keep = row < col
        return np.column_stack([row[keep], col[keep]])

    def is_connected(self) -> bool:
        """True when every agent is reachable from agent 0."""
        seen = np.zeros(self.N, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())


def _from_pairs(N, kind, n_divisor, src, dst) -> NetworkTopology:
    """Assemble CSR adjacency from undirected pairs (one entry per edge)."""
    row = np.concatenate([src, dst])
    col = np.concatenate([dst, src])
    order = np.lexsort((col, row))
    row, col = row[order], col[order]
    counts = np.bincount(row, minlength=N)
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return NetworkTopology(N=int(N), kind=kind, n_divisor=float(n_divisor),
                           indptr=indptr, indices=col.astype(np.int64))


def build_complete(N: int) -> NetworkTopology:
    """Complete graph on N agents; coupling divisor N.

    Adjacency is materialized (O(N^2) memory); for very large ensembles
    the mean-field dynamics is the cheap equivalent.
    """
    if N < 2:
        raise ValueError(f"complete network needs N >= 2, got {N}")
    i, j = np.triu_indices(N, k=1)
    return _from_pairs(N, COMPLETE, N, i, j)


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
    h = n // 2
    offsets = np.concatenate((np.arange(-h, 0), np.arange(1, h + 1)))
    if n % 2 == 1:
        offsets = np.append(offsets, N // 2)
    # 2h + 1 <= N, so the offsets are distinct mod N: no duplicate pairs
    nbrs = np.sort((np.arange(N)[:, None] + offsets) % N, axis=1)
    return NetworkTopology(N=int(N), kind=REGULAR_RING, n_divisor=float(n),
                           indptr=np.arange(N + 1, dtype=np.int64) * n,
                           indices=nbrs.ravel().astype(np.int64))


def build_random_smallworld(N: int, p_sw: float, seed: int) -> NetworkTopology:
    """Random graph: each unordered pair linked independently with p_sw.

    A pure function of (N, p_sw, seed): identical inputs give identical
    edge sets.  The coupling divisor is the expected degree p_sw * N,
    regardless of realized degrees.  Isolated agents are permitted; they
    evolve under pure noise downstream.
    """
    if N < 2:
        raise ValueError(f"small-world network needs N >= 2, got {N}")
    if not 0.0 <= p_sw <= 1.0:
        raise ValueError(f"p_sw must lie in [0, 1], got {p_sw}")
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(N - 1):
        hit = rng.random(N - 1 - i) < p_sw
        js = np.nonzero(hit)[0]
        if js.size:
            src.append(np.full(js.size, i))
            dst.append(js + i + 1)
    if src:
        src = np.concatenate(src)
        dst = np.concatenate(dst)
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    return _from_pairs(N, RANDOM_SMALLWORLD, p_sw * N, src, dst)


def save_edge_list(topology: NetworkTopology, path) -> None:
    """Write the topology as a text edge list (replayable realization)."""
    lines = [f"N {topology.N} kind {topology.kind} n_divisor "
             f"{topology.n_divisor!r}"]
    for i, j in topology.edges():
        lines.append(f"{i} {j}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path) -> NetworkTopology:
    """Read a topology written by :func:`save_edge_list`.

    Rejects out-of-range and repeated edges, and a ``regular_ring`` whose
    edges are not the ring lattice for its N and degree, since the
    engine applies the ring coupling from (N, n) alone.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "N" or header[2] != "kind" \
                or header[4] != "n_divisor":
            raise ValueError(f"{path}: malformed edge-list header")
        N = int(header[1])
        kind = header[3]
        n_divisor = float(header[5])
        src, dst = [], []
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            a, b = line.split()
            i, j = int(a), int(b)
            if not 0 <= i < j < N:
                raise ValueError(f"{path}:{lineno}: bad edge {i} {j}")
            if (i, j) in seen:
                raise ValueError(f"{path}:{lineno}: duplicate edge {i} {j}")
            seen.add((i, j))
            src.append(i)
            dst.append(j)
    top = _from_pairs(N, kind, n_divisor,
                      np.asarray(src, dtype=np.int64),
                      np.asarray(dst, dtype=np.int64))
    if kind == REGULAR_RING:
        ring = build_regular_ring(N, int(n_divisor))
        if n_divisor != ring.n_divisor or \
                not np.array_equal(top.indptr, ring.indptr) or \
                not np.array_equal(top.indices, ring.indices):
            raise ValueError(f"{path}: edges are not the ring lattice with "
                             f"N={N}, n={n_divisor:g}")
    return top
