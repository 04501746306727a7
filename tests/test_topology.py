"""Network construction invariants and the coupling-divisor convention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmnet.topology import (build_complete, build_random_smallworld,
                            build_regular_ring, load_edge_list, save_edge_list)


def assert_valid_adjacency(top):
    """Symmetry and no self-loops, checked exhaustively."""
    neighbor_sets = [set(top.neighbors(i).tolist()) for i in range(top.N)]
    for i in range(top.N):
        assert i not in neighbor_sets[i], f"self-loop at {i}"
        for j in neighbor_sets[i]:
            assert i in neighbor_sets[j], f"asymmetric edge ({i}, {j})"
        assert np.all(np.diff(top.neighbors(i)) > 0), "neighbor list not sorted"


def edge_set(top):
    return set(map(tuple, top.edges().tolist()))


class TestComplete:
    def test_three_agents(self):
        top = build_complete(3)
        assert {i: top.neighbors(i).tolist() for i in range(3)} == {
            0: [1, 2], 1: [0, 2], 2: [0, 1]}
        assert top.n_divisor == 3

    def test_smallest_case(self):
        top = build_complete(2)
        assert top.neighbors(0).tolist() == [1]
        assert top.neighbors(1).tolist() == [0]

    def test_degree_histogram_n1000(self):
        top = build_complete(1000)
        degrees = np.unique(top.degrees)
        assert degrees.tolist() == [999]
        assert top.n_divisor == 1000

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_complete(1)


class TestRegularRing:
    def test_nearest_neighbor_ring(self):
        top = build_regular_ring(5, 2)
        assert top.neighbors(0).tolist() == [1, 4]
        assert top.n_divisor == 2

    def test_antipode_rule(self):
        top = build_regular_ring(6, 3)
        assert top.neighbors(0).tolist() == [1, 3, 5]

    def test_z001_ring(self):
        # n = z*N with z = 0.01, N = 1000
        top = build_regular_ring(1000, 10)
        assert np.all(top.degrees == 10)
        assert top.is_connected()

    def test_odd_degree_needs_even_n(self):
        with pytest.raises(ValueError):
            build_regular_ring(7, 3)

    def test_degree_must_be_below_n(self):
        with pytest.raises(ValueError):
            build_regular_ring(6, 6)

    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=1, max_value=20))
    def test_vertex_transitive(self, N, n):
        if n >= N:
            n = N - 1
        if n % 2 == 1 and N % 2 == 1:
            N += 1
        top = build_regular_ring(N, n)
        assert np.all(top.degrees == n)
        assert_valid_adjacency(top)

    @pytest.mark.parametrize("N, n", [(3, 2), (4, 1), (4, 3), (5, 4),
                                      (9, 2), (10, 5), (11, 10), (12, 11),
                                      (100, 7), (101, 50), (400, 40)])
    def test_indices_match_naive_construction(self, N, n):
        # neighbor sets by ring distance: 1..n//2, plus N/2 for odd n
        expected = []
        for i in range(N):
            d = {j: min(abs(i - j), N - abs(i - j)) for j in range(N)}
            expected.extend(sorted(
                j for j in range(N)
                if 1 <= d[j] <= n // 2 or (n % 2 == 1 and d[j] == N // 2)))
        top = build_regular_ring(N, n)
        assert top.indices.tolist() == expected
        assert top.indptr.tolist() == list(range(0, N * n + 1, n))

    @given(st.integers(min_value=2, max_value=12))
    def test_full_ring_equals_complete(self, half):
        N = 2 * half
        assert edge_set(build_regular_ring(N, N - 1)) == edge_set(build_complete(N))


class TestRandomSmallWorld:
    def test_zero_probability(self):
        top = build_random_smallworld(50, 0.0, seed=1)
        assert top.edge_count == 0
        assert np.all(top.degrees == 0)

    def test_certain_connection_equals_complete(self):
        top = build_random_smallworld(40, 1.0, seed=1)
        assert edge_set(top) == edge_set(build_complete(40))

    def test_expected_degree_divisor(self):
        top = build_random_smallworld(1000, 0.003, seed=9)
        assert top.n_divisor == pytest.approx(3.0)

    def test_edge_count_matches_binomial(self):
        # mean over seeds within 3 standard errors of the binomial mean
        N, p, n_seeds = 1000, 0.003, 40
        pairs = N * (N - 1) // 2
        counts = [build_random_smallworld(N, p, seed=s).edge_count
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

    def test_isolated_agents_kept(self):
        top = build_random_smallworld(200, 0.005, seed=3)
        assert top.N == 200  # ensemble size is N regardless of isolation
        assert np.any(top.degrees == 0)


@pytest.mark.parametrize("top", [
    build_complete(17),
    build_regular_ring(20, 4),
    build_regular_ring(20, 5),
    build_random_smallworld(60, 0.1, seed=5),
    build_random_smallworld(200, 0.02, seed=11),
])
def test_adjacency_invariants(top):
    assert_valid_adjacency(top)


def test_edge_list_round_trip(tmp_path):
    top = build_random_smallworld(80, 0.05, seed=21)
    path = tmp_path / "edges.txt"
    save_edge_list(top, path)
    back = load_edge_list(path)
    assert back.N == top.N
    assert back.kind == top.kind
    assert back.n_divisor == top.n_divisor
    assert np.array_equal(back.indptr, top.indptr)
    assert np.array_equal(back.indices, top.indices)


def test_edge_list_ring_round_trip(tmp_path):
    top = build_regular_ring(20, 5)
    path = tmp_path / "ring.txt"
    save_edge_list(top, path)
    back = load_edge_list(path)
    assert back.kind == top.kind and back.n_divisor == top.n_divisor
    assert np.array_equal(back.indices, top.indices)


def test_edge_list_rejects_edited_ring(tmp_path):
    # the engine applies the ring coupling from (N, n), not from the edges
    path = tmp_path / "ring.txt"
    save_edge_list(build_regular_ring(20, 4), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="ring lattice"):
        load_edge_list(path)


def test_edge_list_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("N 5 kind random_smallworld n_divisor 1.0\n"
                    "0 1\n2 3\n0 1\n")
    with pytest.raises(ValueError, match=r"dup\.txt:4: duplicate edge 0 1"):
        load_edge_list(path)


def test_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense header\n")
    with pytest.raises(ValueError):
        load_edge_list(path)
