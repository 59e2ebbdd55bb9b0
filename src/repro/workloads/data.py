"""Input generators for the benchmark suite.

The paper evaluates on random dense inputs plus SuiteSparse matrices
(DNVS/trdheim, DIMACS10/M6) and a navigable small-world graph for tc.
Offline we synthesize structurally similar inputs:

* ``banded_symmetric_csr`` -- trdheim is a banded symmetric FEM
  stiffness matrix; we match the banded-symmetric structure.
* ``mesh_csr`` -- M6 is a planar triangular mesh; we use a 2-D grid
  with diagonal links (planar, bounded degree).
* ``small_world_graph`` -- Watts-Strogatz, as in the paper [83], with
  networkx's random draws.

All values are small integers so results are exact across machines.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from repro.errors import ReproError


def dense_matrix(rows: int, cols: int, seed: int = 0,
                 lo: int = 0, hi: int = 9) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(rows * cols)]


def dense_vector(n: int, seed: int = 0, lo: int = 0,
                 hi: int = 9) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n)]


CSR = Tuple[List[int], List[int], List[int]]  # (indptr, indices, data)


def random_csr(rows: int, cols: int, density: float,
               seed: int = 0) -> CSR:
    """Uniform random sparse matrix in CSR form."""
    rng = random.Random(seed)
    indptr = [0]
    indices: List[int] = []
    data: List[int] = []
    for _ in range(rows):
        row = sorted(rng.sample(range(cols),
                                max(0, round(density * cols))))
        indices.extend(row)
        data.extend(rng.randint(1, 9) for _ in row)
        indptr.append(len(indices))
    return indptr, indices, data


def banded_symmetric_csr(n: int, bandwidth: int, fill: float = 0.6,
                         seed: int = 0) -> CSR:
    """Banded symmetric matrix (DNVS/trdheim-like FEM structure)."""
    rng = random.Random(seed)
    upper: Dict[int, Dict[int, int]] = {i: {} for i in range(n)}
    for i in range(n):
        upper[i][i] = rng.randint(1, 9)
        for j in range(i + 1, min(n, i + bandwidth + 1)):
            if rng.random() < fill:
                upper[i][j] = rng.randint(1, 9)
    indptr = [0]
    indices: List[int] = []
    data: List[int] = []
    for i in range(n):
        row = dict(upper[i])
        for j in range(max(0, i - bandwidth), i):
            if i in upper[j]:
                row[j] = upper[j][i]
        for j in sorted(row):
            indices.append(j)
            data.append(row[j])
        indptr.append(len(indices))
    return indptr, indices, data


def mesh_csr(side: int, seed: int = 0) -> CSR:
    """Adjacency-like sparse matrix of a triangulated grid
    (DIMACS10/M6-like planar mesh)."""
    rng = random.Random(seed)
    n = side * side
    neighbors: Dict[int, set] = {i: set() for i in range(n)}

    def node(r, col):
        return r * side + col

    for r in range(side):
        for col in range(side):
            u = node(r, col)
            if col + 1 < side:
                neighbors[u].add(node(r, col + 1))
                neighbors[node(r, col + 1)].add(u)
            if r + 1 < side:
                neighbors[u].add(node(r + 1, col))
                neighbors[node(r + 1, col)].add(u)
            if col + 1 < side and r + 1 < side:
                neighbors[u].add(node(r + 1, col + 1))
                neighbors[node(r + 1, col + 1)].add(u)
    indptr = [0]
    indices: List[int] = []
    data: List[int] = []
    for u in range(n):
        for w in sorted(neighbors[u]):
            indices.append(w)
            data.append(rng.randint(1, 9))
        indptr.append(len(indices))
    return indptr, indices, data


def sparse_vector(n: int, nnz: int, seed: int = 0
                  ) -> Tuple[List[int], List[int]]:
    """A sparse vector as sorted (indices, values)."""
    rng = random.Random(seed)
    nnz = min(nnz, n)
    idx = sorted(rng.sample(range(n), nnz))
    vals = [rng.randint(1, 9) for _ in idx]
    return idx, vals


def small_world_graph(n: int, k: int = 8, p: float = 0.1,
                      seed: int = 0) -> Tuple[List[int], List[int]]:
    """Watts-Strogatz navigable small world as CSR adjacency
    (sorted neighbor lists), like the paper's tc input [83].

    Makes networkx's ``watts_strogatz_graph`` random draws in the same
    order, so a seed gives the graph networkx gives it: a ring lattice
    with ``k // 2`` neighbors per side, then one ``random()`` per
    lattice edge (distance by distance, node by node) and, for each
    edge rewired, ``choice`` draws until a non-neighbor turns up or the
    node has degree ``n - 1``. At ``k == n`` the lattice is already
    complete and every rewiring bails out, giving the complete graph
    networkx returns. ``test_small_world_graph_matches_networkx`` in
    ``tests/workloads/test_data.py`` pins the equality.
    """
    if k > n:
        raise ReproError(f"small world graph needs k <= n, got k={k}, "
                         f"n={n}")
    nodes = range(n)
    adj: List[Set[int]] = [set() for _ in nodes]
    for j in range(1, k // 2 + 1):
        for u in nodes:
            v = (u + j) % n
            adj[u].add(v)
            adj[v].add(u)
    rng = random.Random(seed)
    for j in range(1, k // 2 + 1):
        for u in nodes:
            if rng.random() < p:
                w = rng.choice(nodes)
                while w == u or w in adj[u]:
                    w = rng.choice(nodes)
                    if len(adj[u]) >= n - 1:
                        break  # no non-neighbor left: keep the edge
                else:
                    v = (u + j) % n
                    adj[u].remove(v)
                    adj[v].remove(u)
                    adj[u].add(w)
                    adj[w].add(u)
    indptr = [0]
    indices: List[int] = []
    for u in nodes:
        indices.extend(sorted(adj[u]))
        indptr.append(len(indices))
    return indptr, indices
