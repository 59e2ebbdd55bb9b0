"""Unit tests for input generators."""

import pytest

from repro.errors import ReproError
from repro.workloads import build_workload
from repro.workloads import data as gen
from repro.workloads.registry import SCALES


def csr_invariants(indptr, indices, data, rows, cols):
    assert len(indptr) == rows + 1
    assert indptr[0] == 0
    assert indptr[-1] == len(indices) == len(data)
    for i in range(rows):
        row = indices[indptr[i]:indptr[i + 1]]
        assert row == sorted(row)
        assert len(set(row)) == len(row)
        assert all(0 <= j < cols for j in row)


def test_dense_generators_deterministic():
    assert gen.dense_matrix(4, 4, seed=7) == gen.dense_matrix(4, 4, seed=7)
    assert gen.dense_vector(10, seed=3) == gen.dense_vector(10, seed=3)
    assert gen.dense_matrix(4, 4, seed=7) != gen.dense_matrix(4, 4, seed=8)


def test_random_csr_structure():
    indptr, indices, data = gen.random_csr(20, 30, 0.2, seed=1)
    csr_invariants(indptr, indices, data, 20, 30)
    nnz_per_row = [indptr[i + 1] - indptr[i] for i in range(20)]
    assert all(v == round(0.2 * 30) for v in nnz_per_row)


def test_banded_symmetric_csr_is_symmetric():
    indptr, indices, data = gen.banded_symmetric_csr(16, 4, seed=2)
    csr_invariants(indptr, indices, data, 16, 16)
    entries = {}
    for i in range(16):
        for p in range(indptr[i], indptr[i + 1]):
            entries[(i, indices[p])] = data[p]
            assert abs(i - indices[p]) <= 4  # banded
    for (i, j), val in entries.items():
        assert entries.get((j, i)) == val


def test_sparse_vector_sorted_unique():
    idx, vals = gen.sparse_vector(100, 12, seed=4)
    assert idx == sorted(idx)
    assert len(set(idx)) == 12 == len(vals)
    assert all(v > 0 for v in vals)


def test_sparse_vector_caps_nnz():
    idx, _ = gen.sparse_vector(5, 50, seed=1)
    assert len(idx) == 5


def test_small_world_graph_structure():
    indptr, indices = gen.small_world_graph(32, k=4, p=0.1, seed=3)
    assert len(indptr) == 33
    # Undirected: adjacency is symmetric.
    neigh = [set(indices[indptr[u]:indptr[u + 1]]) for u in range(32)]
    for u in range(32):
        row = indices[indptr[u]:indptr[u + 1]]
        assert row == sorted(row)
        for w in row:
            assert u in neigh[w]
    # Average degree close to k.
    assert 2 <= len(indices) / 32 <= 6


def networkx_csr(n, k, p, seed):
    """networkx's Watts-Strogatz graph as sorted CSR adjacency."""
    nx = pytest.importorskip("networkx")
    g = nx.watts_strogatz_graph(n, k, p, seed=seed)
    indptr, indices = [0], []
    for u in range(n):
        indices.extend(sorted(g.neighbors(u)))
        indptr.append(len(indices))
    return indptr, indices


@pytest.mark.parametrize("name,scale", [
    (name, scale) for name in ("tc", "bfs") for scale in SCALES[name]])
def test_small_world_graph_matches_networkx(name, scale, monkeypatch):
    # The workload's input graph, built with the arguments its builder
    # passes, is networkx's graph for those arguments.
    calls = []
    make = gen.small_world_graph

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return make(*args, **kwargs)

    monkeypatch.setattr(gen, "small_world_graph", recording)
    for seed in range(10):
        del calls[:]
        wl = build_workload(name, scale, seed=seed)
        [(args, kwargs)] = calls
        want = networkx_csr(*args, **kwargs)
        assert (wl.initial_memory["ptr"], wl.initial_memory["idx"]) == want


@pytest.mark.parametrize("p", [0, 0.1, 1])
def test_small_world_graph_matches_networkx_on_small_graphs(p):
    # Odd and even k up to n; p = 1 on a lattice of degree n - 1
    # reaches the bail-out that leaves an edge in place.
    for n in range(1, 17):
        for k in range(n + 1):
            for seed in range(3):
                got = gen.small_world_graph(n, k, p, seed)
                assert got == networkx_csr(n, k, p, seed), (n, k, seed)


def test_small_world_graph_k_equal_n_is_complete():
    indptr, indices = gen.small_world_graph(6, k=6, p=0.5, seed=1)
    assert indptr == [0, 5, 10, 15, 20, 25, 30]
    for u in range(6):
        assert indices[indptr[u]:indptr[u + 1]] == [
            w for w in range(6) if w != u]


def test_small_world_graph_rejects_k_above_n():
    with pytest.raises(ReproError, match="k <= n"):
        gen.small_world_graph(4, k=5)
