"""Oracles for every workload.

Every machine model's final memory and return values are compared
against these, for every benchmark run in the test suite. They are
plain integer loops, so the package needs no third-party library at
run time; ``tests/workloads/test_kernels.py`` checks the dense ones
against numpy.
"""

from __future__ import annotations

from typing import List, Sequence


def dmv_ref(A: Sequence[int], B: Sequence[int], n: int) -> List[int]:
    """Row-major n x n ``A`` times the length-n vector ``B``."""
    y = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc += A[i * n + j] * B[j]
        y.append(acc)
    return y


def dmm_ref(A: Sequence[int], B: Sequence[int], n: int) -> List[int]:
    """Row-major n x n ``A`` times ``B``, row-major output."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += A[i * n + k] * B[k * n + j]
            out.append(acc)
    return out


def dconv_ref(image: Sequence[int], filt: Sequence[int], h: int, w: int,
              kh: int, kw: int) -> List[int]:
    """Valid 2-D correlation of an h x w image with a kh x kw filter,
    row-major (h - kh + 1) x (w - kw + 1) output."""
    out = []
    for y in range(h - kh + 1):
        for x in range(w - kw + 1):
            acc = 0
            for dy in range(kh):
                for dx in range(kw):
                    acc += image[(y + dy) * w + x + dx] * filt[dy * kw + dx]
            out.append(acc)
    return out


def smv_ref(indptr: Sequence[int], indices: Sequence[int],
            data: Sequence[int], x: Sequence[int]) -> List[int]:
    n = len(indptr) - 1
    y = [0] * n
    for i in range(n):
        acc = 0
        for p in range(indptr[i], indptr[i + 1]):
            acc += data[p] * x[indices[p]]
        y[i] = acc
    return y


def spmspv_ref(indptr: Sequence[int], indices: Sequence[int],
               data: Sequence[int], vidx: Sequence[int],
               vval: Sequence[int], rows: int) -> List[int]:
    """CSC matrix times sparse vector, dense accumulator output."""
    y = [0] * rows
    for k, col in enumerate(vidx):
        xv = vval[k]
        for p in range(indptr[col], indptr[col + 1]):
            y[indices[p]] += data[p] * xv
    return y


def spmspm_ref(a_indptr: Sequence[int], a_indices: Sequence[int],
               a_data: Sequence[int], b_indptr: Sequence[int],
               b_indices: Sequence[int], b_data: Sequence[int],
               n: int) -> List[int]:
    """CSR x CSR with a dense accumulator output (row-major)."""
    out = [0] * (n * n)
    for i in range(n):
        for p in range(a_indptr[i], a_indptr[i + 1]):
            k = a_indices[p]
            av = a_data[p]
            for q in range(b_indptr[k], b_indptr[k + 1]):
                out[i * n + b_indices[q]] += av * b_data[q]
    return out


def tc_ref(indptr: Sequence[int], indices: Sequence[int]) -> int:
    """Triangle count over an undirected CSR adjacency (sorted)."""
    n = len(indptr) - 1
    neighbors = [set(indices[indptr[u]:indptr[u + 1]]) for u in range(n)]
    count = 0
    for u in range(n):
        for vtx in indices[indptr[u]:indptr[u + 1]]:
            if vtx <= u:
                continue
            for w in neighbors[u] & neighbors[vtx]:
                if w > vtx:
                    count += 1
    return count
