"""Reference facts computed without the program under test.

Everything here is written from the definitions (graph6, the Seidel
matrix, switching, odd pairs) and never calls into ``seidelab``, so the
correctness gate does not share code with the scan's batch path.  Seidel
energies come from singular values (LAPACK ``gesdd``), not from the
symmetric eigensolvers the program uses.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ENERGY_TOL = 1e-6  # absolute slack on E_S >= 2n - 2, as in the paper's checks


@lru_cache(maxsize=None)
def edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j), i < j, in graph6 (colexicographic) edge order."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return (np.array([p[0] for p in pairs], dtype=np.intp),
            np.array([p[1] for p in pairs], dtype=np.intp))


def encode_bits(n: int, bits: np.ndarray) -> list[str]:
    """graph6 lines for a (B, C(n,2)) array of 0/1 edge bits in colex order."""
    bits = np.asarray(bits, dtype=np.uint8)
    m = n * (n - 1) // 2
    padded = np.pad(bits, ((0, 0), (0, -m % 6)))
    groups = padded.reshape(bits.shape[0], (m + 5) // 6, 6)
    body = groups @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    head = np.full((bits.shape[0], 1), n + 63, dtype=np.uint8)
    raw = np.concatenate([head, body.astype(np.uint8)], axis=1)
    return [row.tobytes().decode("ascii") for row in raw]


def decode(line: str) -> np.ndarray:
    """Boolean adjacency matrix of one graph6 line (n <= 62)."""
    data = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8)
    n = int(data[0]) - 63
    m = n * (n - 1) // 2
    bits = np.unpackbits((data[1:] - 63)[:, None], axis=1)[:, 2:].ravel()
    if len(bits) < m or bits[m:].any():
        raise ValueError(f"bad graph6 body: {line!r}")
    i, j = edge_pairs(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = bits[:m].astype(bool)
    return adj | adj.T


def seidel(adj: np.ndarray) -> np.ndarray:
    s = 1.0 - 2.0 * adj
    np.fill_diagonal(s, 0.0)
    return s


def p_energies(adj: np.ndarray, ps) -> list[float]:
    """sum |lambda|^p of the Seidel matrix, via singular values."""
    sv = np.linalg.svd(seidel(adj), compute_uv=False)
    sv = np.where(sv < 1e-9, 0.0, sv)
    return [float(np.sum(sv**p)) for p in ps]


def odd_pairs(adj: np.ndarray) -> int:
    """Ordered pairs (X, Y) of disjoint 2-sets with an odd number of X-Y edges.

    For X = {x1, x2}, a pair Y = {y1, y2} is odd exactly when the rows of
    x1 and x2 differ at one of y1, y2 and agree at the other.
    """
    n = adj.shape[0]
    total = 0
    for x2 in range(n):
        for x1 in range(x2):
            diff = adj[x1] ^ adj[x2]
            diff[[x1, x2]] = False
            ones = int(diff.sum())
            total += ones * (n - 2 - ones)
    return total


def sc_class_of_complete(n: int) -> set[str]:
    """graph6 lines of every graph switching-equivalent to K_n or to its
    complement, built by switching on each vertex subset."""
    i, j = edge_pairs(n)
    subsets = np.arange(1 << n, dtype=np.int64)
    side_i = (subsets[:, None] >> i) & 1
    side_j = (subsets[:, None] >> j) & 1
    same = (side_i == side_j).astype(np.uint8)  # K_n switched on the subset
    return set(encode_bits(n, same)) | set(encode_bits(n, 1 - same))


def boundary_family_size(n: int) -> int:
    """Parameter count (a >= b, overlap c, apex edge e) of the clique-plus-
    two-apexes family on n vertices."""
    m = n - 2
    return sum(
        2 * (b - max(0, a + b - m) + 1) for a in range(m + 1) for b in range(a + 1)
    )
