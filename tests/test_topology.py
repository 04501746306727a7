"""Network construction invariants and the coupling-divisor convention.

The complete graph and the ring lattice store no adjacency, so their
graph is read back from the coupling operator that the engine applies.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from bmnet import topology
from bmnet.engine import ModelParams
from bmnet.topology import (build_complete, build_random_smallworld,
                            build_regular_ring)
from test_engine import held, naive_ring_neighbors

BASE_PARAMS = ModelParams(sigma2=0.05, J=0.1)


def applied_adjacency(top):
    """The 0/1 adjacency A that NetworkDynamics applies, as a dense array.

    With J = n the drift of the unit vector e_j is column j of A - D, D
    the diagonal of degrees; the columns are read one drift at a time
    and must lie within rounding of integers.
    """
    params = ModelParams(sigma2=1.0, J=top.n_divisor)
    coupling = np.column_stack([top.drift(e, params) for e in np.eye(top.N)])
    rounded = np.rint(coupling)
    assert np.abs(coupling - rounded).max() < 1e-9
    adj = rounded.astype(int)
    degrees = -np.diag(adj).copy()
    np.fill_diagonal(adj, 0)
    assert np.isin(adj, (0, 1)).all()
    assert np.array_equal(degrees, adj.sum(axis=1)), "diagonal is not -degree"
    return adj


def neighbors(top, i):
    return np.flatnonzero(applied_adjacency(top)[i])


def assert_valid_adjacency(top):
    """Symmetric coupling; a stored CSR is the applied graph, each row
    its sorted neighbor list, with no self-loop, and then the degree slot."""
    adj = applied_adjacency(top)
    assert np.array_equal(adj, adj.T), "asymmetric coupling"
    if top.indices.size:
        data = np.ones(top.indices.size)
        for i in range(top.N):
            row = top.indices[top.indptr[i]:top.indptr[i + 1]]
            assert row[-1] == i, f"no degree slot at {i}"
            assert i not in row[:-1], f"self-loop at {i}"
            assert np.all(np.diff(row[:-1]) > 0), "neighbor list not sorted"
            data[top.indptr[i + 1] - 1] = 0.0
        stored = sp.csr_matrix((data, top.indices, top.indptr),
                               shape=(top.N, top.N))
        assert np.array_equal(stored.toarray(), adj)


def coupling_bound(w):
    # the bound of criterion 11a
    return w.size * np.finfo(float).eps * np.abs(w).max()


class TestComplete:
    def test_three_agents(self):
        top = build_complete(3)
        assert applied_adjacency(top).tolist() == [[0, 1, 1], [1, 0, 1],
                                                   [1, 1, 0]]
        assert top.n_divisor == 3

    def test_smallest_case(self):
        top = build_complete(2)
        assert neighbors(top, 0).tolist() == [1]
        assert neighbors(top, 1).tolist() == [0]

    def test_degree_histogram_n1000(self):
        top = build_complete(1000)
        degrees = np.unique(applied_adjacency(top).sum(axis=1))
        assert degrees.tolist() == [999]
        assert top.n_divisor == 1000

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_complete(1)


class TestRegularRing:
    def test_nearest_neighbor_ring(self):
        top = build_regular_ring(5, 2)
        assert neighbors(top, 0).tolist() == [1, 4]
        assert top.n_divisor == 2

    def test_antipode_rule(self):
        top = build_regular_ring(6, 3)
        assert neighbors(top, 0).tolist() == [1, 3, 5]

    def test_z001_ring(self):
        # n = z*N with z = 0.01, N = 1000
        adj = applied_adjacency(build_regular_ring(1000, 10))
        assert np.all(adj.sum(axis=1) == 10)
        assert connected_components(adj, directed=False)[0] == 1

    def test_odd_degree_needs_even_n(self):
        with pytest.raises(ValueError):
            build_regular_ring(7, 3)

    def test_degree_must_be_below_n(self):
        with pytest.raises(ValueError):
            build_regular_ring(6, 6)

    @given(st.integers(min_value=3, max_value=60),
           st.integers(min_value=1, max_value=59),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None)
    def test_vertex_transitive(self, N, n, seed):
        # every agent couples to the naive ring neighbors, and the drift
        # equals the explicit sum over them
        n = min(n, N - 1)
        if n % 2 == 1 and N % 2 == 1:
            N += 1
        top = build_regular_ring(N, n)
        adj = applied_adjacency(top)
        for i in range(N):
            assert np.flatnonzero(adj[i]).tolist() == \
                naive_ring_neighbors(N, n, i).tolist()
        w = np.random.default_rng(seed).gamma(2.0, 1.0, N) + 1e-4
        explicit = np.array([
            (0.1 / n) * np.sum(w[naive_ring_neighbors(N, n, i)] - w[i])
            for i in range(N)])
        f = top.drift(w, BASE_PARAMS)
        assert np.abs(f - explicit).max() <= 1e-12 * np.abs(explicit).max()

    @pytest.mark.parametrize("N, n", [(3, 2), (4, 1), (4, 3), (5, 4),
                                      (9, 2), (10, 5), (11, 10), (12, 11),
                                      (100, 7), (101, 50), (400, 40)])
    def test_indices_match_naive_construction(self, N, n):
        # the neighbor indices the operator applies, at pinned corner cases
        adj = applied_adjacency(build_regular_ring(N, n))
        for i in range(N):
            assert np.flatnonzero(adj[i]).tolist() == \
                naive_ring_neighbors(N, n, i).tolist()

    @given(st.integers(min_value=2, max_value=12))
    def test_full_ring_equals_complete(self, half):
        # the same graph; the coupling divisors are N - 1 and N
        N = 2 * half
        w = np.random.default_rng(half).gamma(2.0, 1.0, N) + 1e-4
        ring = build_regular_ring(N, N - 1)
        complete = build_complete(N)
        diff = (ring.drift(w, BASE_PARAMS) * (N - 1) / N
                - complete.drift(w, BASE_PARAMS))
        assert np.abs(diff).max() <= coupling_bound(w)


class TestRandomSmallWorld:
    def test_zero_probability(self):
        top = build_random_smallworld(50, 0.0, seed=1)
        assert top.indices.tolist() == list(range(50))  # the degree slots
        assert np.all(top.degrees == 0)

    def test_certain_connection_equals_complete(self):
        top = build_random_smallworld(40, 1.0, seed=1)
        assert top.n_divisor == 40
        w = np.random.default_rng(40).gamma(2.0, 1.0, 40) + 1e-4
        diff = (top.drift(w, BASE_PARAMS)
                - build_complete(40).drift(w, BASE_PARAMS))
        assert np.abs(diff).max() <= coupling_bound(w)

    def test_expected_degree_divisor(self):
        top = build_random_smallworld(1000, 0.003, seed=9)
        assert top.n_divisor == pytest.approx(3.0)

    def test_edge_count_matches_binomial(self):
        # mean over seeds within 3 standard errors of the binomial mean
        N, p, n_seeds = 1000, 0.003, 40
        pairs = N * (N - 1) // 2
        counts = [build_random_smallworld(N, p, seed=s).degrees.sum() // 2
                  for s in range(n_seeds)]
        expected = pairs * p
        se = np.sqrt(pairs * p * (1 - p) / n_seeds)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            build_random_smallworld(10, 1.5, seed=0)
        with pytest.raises(ValueError):
            build_random_smallworld(10, -0.1, seed=0)

    @given(st.integers(min_value=2, max_value=80),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_pure_function_of_inputs(self, N, p, seed):
        a = build_random_smallworld(N, p, seed)
        b = build_random_smallworld(N, p, seed)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    @given(st.integers(min_value=2, max_value=80),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_csr_is_the_drawn_graph(self, N, p, seed):
        # pair (i, j > i) is linked by the (j - i - 1)-th of row i's draws;
        # each row ends with its degree slot, the agent itself
        rng = np.random.default_rng(seed)
        adj = np.zeros((N, N), dtype=bool)
        for i in range(N - 1):
            adj[i, i + 1:] = rng.random(N - 1 - i) < p
        adj |= adj.T
        top = build_random_smallworld(N, p, seed)
        assert top.indptr.tolist() == \
            [0] + np.cumsum(adj.sum(axis=1) + 1).tolist()
        assert top.indices.tolist() == [
            j for i in range(N) for j in [*np.flatnonzero(adj[i]), i]]

    def test_builds_where_physical_memory_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        a = build_random_smallworld(60, 0.1, seed=5)
        monkeypatch.undo()
        assert np.array_equal(a.indices,
                              build_random_smallworld(60, 0.1, seed=5).indices)

    def test_memory_check_covers_the_build(self, monkeypatch):
        # a machine with just the memory that the build was seen to take
        # must refuse it.  The child's peak is its VmHWM: ru_maxrss would
        # start from this process's peak, which it inherits
        src = os.path.dirname(os.path.dirname(topology.__file__))
        script = ("from bmnet.topology import build_random_smallworld\n"
                  "def kib(field):\n"
                  "    for line in open('/proc/self/status'):\n"
                  "        if line.startswith(field):\n"
                  "            return int(line.split()[1])\n"
                  "before = kib('VmRSS:')\n"
                  "build_random_smallworld(3000, 0.5, 1)\n"
                  "print(1024 * (kib('VmHWM:') - before))\n")
        out = subprocess.run([sys.executable, "-c", script],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        growth = int(out.stdout)
        assert growth > 0
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": growth,
                                            "SC_PAGE_SIZE": 1}.get)
        with pytest.raises(ValueError, match="GiB of memory"):
            build_random_smallworld(3000, 0.5, 1)

    def test_isolated_agents_kept(self):
        top = build_random_smallworld(200, 0.005, seed=3)
        assert top.N == 200  # ensemble size is N regardless of isolation
        assert np.any(top.degrees == 0)

    def test_only_this_graph_imports_scipy_sparse(self, tmp_path):
        # the other graphs store no adjacency, so their runs never load it
        ring, smallworld = tmp_path / "ring.ini", tmp_path / "sw.ini"
        model = "[model]\nsigma2 = 0.05\nJ = 0.1\n\n"
        run = ("\n[run]\nN = 100\ndt = 0.1\nt_end = 1\nsnapshot_times = 1\n"
               "seed = 0\n")
        ring.write_text(model + "[dynamics]\nkind = ring\nz = 0.04\n" + run)
        smallworld.write_text(
            model + "[dynamics]\nkind = smallworld\np_sw = 0.05\n" + run)
        script = ("import sys\n"
                  "import bmnet.cli\n"
                  "from bmnet.config import load_config\n"
                  "load_config(sys.argv[1])\n"
                  "print('scipy.sparse' in sys.modules)\n"
                  "load_config(sys.argv[2])\n"
                  "print('scipy.sparse' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(topology.__file__))
        out = subprocess.run([sys.executable, "-c", script, str(ring),
                              str(smallworld)],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("top", [
    build_complete(17),
    build_regular_ring(20, 4),
    build_regular_ring(20, 5),
    build_random_smallworld(60, 0.1, seed=5),
    build_random_smallworld(200, 0.02, seed=11),
])
def test_adjacency_invariants(top):
    assert_valid_adjacency(top)


@pytest.mark.parametrize("top", [build_complete(2000),
                                 build_regular_ring(2000, 40)],
                         ids=["complete", "ring"])
def test_closed_form_kinds_store_no_adjacency(top):
    # their operators apply these from (N, n) alone
    arrays = [v for v in held(top) if isinstance(v, np.ndarray)]
    assert arrays and all(a.size <= top.N + 1 for a in arrays)


def test_smallworld_operator_shares_index_arrays():
    # the graph is held once: the operator's matrix reads the dynamics'
    # own index arrays
    top = build_random_smallworld(1000, 0.01, seed=3)
    [adj] = [v for v in held(top) if sp.issparse(v)]
    assert np.shares_memory(adj.indices, top.indices)
    assert np.shares_memory(adj.indptr, top.indptr)
