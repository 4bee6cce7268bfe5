"""Seidel switching, SC-equivalence to the complete graph, and odd pairs.

Switching on a vertex subset W flips every edge with exactly one endpoint in
W; it conjugates the Seidel matrix by the diagonal +-1 matrix of W, so the
Seidel spectrum is invariant.  An odd pair is an ordered pair (X, Y) of
disjoint 2-subsets with an odd number of cross edges; their count is an
SC-invariant and is zero exactly on the switching class of the complete
graph.

Switching is computed only by the edge-bit stack kernel _switch, N_op
(from ||S^2||_F) and SC-equivalence to K_n (a sign test on S) only by the
stack kernels _odd_pairs and _sc_to_complete on Seidel matrices S; scans
run them on whole chunks and the per-graph functions on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb

import numpy as np

from .graphs import Graph, _edge_bits, _endpoints, _graph6_lines, _graph_of_bits, _relabel, _seidel

SWITCHING_KEY_MAX_N = 8
_BLOCK_ENTRIES = 1 << 15  # float32 entries of S^2 per block in _odd_pairs


@dataclass(frozen=True)
class SCWitness:
    """How a graph was normalized: the switching set applied (as a bitmask)
    and whether complementation was needed to reach the complete graph."""

    switching_mask: int
    complemented: bool


def switch(g: Graph, subset) -> Graph:
    """Seidel switching on a vertex subset (iterable of vertices or bitmask):
    _switch on a stack of one.  A vertex that is not an integer in range(n),
    or a mask bit past n-1, raises ValueError."""
    n = g.n
    if isinstance(subset, (int, np.integer)):
        if not 0 <= subset < 1 << n:
            raise ValueError(f"switching mask {subset} is not a subset of range({n})")
        subset = [v for v in range(n) if subset >> v & 1]
    w = np.zeros((1, n), dtype=np.uint8)
    for v in subset:
        if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
            raise ValueError(f"switching vertex {v!r} is not in range({n})")
        w[0, int(v)] = 1
    return _graph_of_bits(n, _switch(n, _edge_bits(g), w))


def _switch(n: int, bits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Seidel switching of a stack of edge bits, row b on the vertex set
    w[b] of a (B, n) 0/1 array: edge (i, j) flips iff exactly one of i, j
    is in w[b].  A stack of one broadcasts."""
    i, j = _endpoints(n)
    return bits ^ w[:, i] ^ w[:, j]


def is_sc_equivalent_to_complete(g: Graph) -> tuple[bool, SCWitness | None]:
    """Decide SC-equivalence to K_n, with the normalizing switch as witness:
    _sc_to_complete on a stack of one.

    Switching on mask = the complement of N[v0] makes vertex 0 universal;
    the graph is SC-equivalent to K_n iff the remaining vertices then induce
    a complete graph (no complement needed) or an empty one (complement
    needed, read from the switched pair (1, 2)).  The witness satisfies
    switch(g, mask) = K_n when complemented is false, and
    complement(switch(g, mask)) = K_n when it is true.
    """
    s = _seidel(g.n, _edge_bits(g))
    if not _sc_to_complete(s)[0]:
        return False, None
    mask = sum(1 << v for v in np.flatnonzero(s[0, 0] > 0).tolist())  # S = +1 off N[v0]
    if g.n >= 3 and s[0, 1, 2] * s[0, 0, 1] * s[0, 0, 2] > 0:
        # one further switch on {v0} empties the graph; its complement is K_n
        return True, SCWitness(mask ^ 1, complemented=True)
    return True, SCWitness(mask, complemented=False)


def count_odd_pairs(g: Graph) -> int:
    """Number of ordered pairs (X, Y) of disjoint 2-subsets with an odd
    number of cross edges: _odd_pairs on a stack of one.  Always even; zero
    for n < 4."""
    return int(_odd_pairs(_seidel(g.n, _edge_bits(g)))[0])


def _odd_pairs(s: np.ndarray) -> np.ndarray:
    """N_op of a stack of Seidel matrices S, from S^2.  For a pair X = {u, v}
    the n-2 products S_uw S_vw sum to d = (S^2)_uv, and Y = {y, z} has an odd
    number of cross edges iff its two products differ, so X has
    ((n-2)^2 - d^2)/4 odd partners; the sum over X needs only ||S^2||_F:

        N_op = [C(n,2)(n-2)^2 - (||S^2||_F^2 - n(n-1)^2)/2] / 4.

    S^2 comes from float32 BLAS products, about 2^15 / n^2 matrices at a
    time; they are exact, since every partial sum is an integer of magnitude
    at most n - 1 <= 61."""
    bsz, n, _ = s.shape
    frobenius = np.empty(bsz, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // (n * n))
    for lo in range(0, bsz, step):
        block = s[lo : lo + step].astype(np.float32)
        a2 = np.matmul(block, block)
        frobenius[lo : lo + step] = np.einsum("bij,bij->b", a2, a2, dtype=np.float64)
    off_diagonal = (frobenius - n * (n - 1) ** 2) // 2
    return (comb(n, 2) * (n - 2) ** 2 - off_diagonal) // 4


def _sc_to_complete(s: np.ndarray) -> np.ndarray:
    """SC-equivalence to K_n of a stack of Seidel matrices: switching vertex
    0 to universal turns S(i,j) into S(i,j) S(0,i) S(0,j), whose signs must
    all agree over pairs 1 <= i < j."""
    n, first = s.shape[-1], s[:, 0, 1:]
    x = s[:, 1:, 1:] * first[:, :, None] * first[:, None, :]  # zero diagonal
    return np.abs(x.sum(axis=(1, 2), dtype=np.int64)) == (n - 1) * (n - 2)


def switching_class_key(g: Graph) -> bytes:
    """Canonical key equal for two graphs iff their SC-classes coincide
    up to relabeling.

    Minimizes the graph6 encoding of the vertex-0-isolated switching-class
    representative over all vertex permutations of g and of its complement,
    encoded as one stack.  Factorial cost; refused above n = 8.
    """
    if g.n > SWITCHING_KEY_MAX_N:
        raise ValueError(
            f"switching_class_key is exact-canonical only for n <= {SWITCHING_KEY_MAX_N}"
        )
    perms = np.array(list(permutations(range(g.n))), dtype=np.intp)
    bits = _relabel(g.n, _edge_bits(g), perms)
    i = _endpoints(g.n)[0]
    isolated = _switch(g.n, bits, np.pad(bits[:, i == 0], ((0, 0), (1, 0))))  # on N(0)
    # the complement's representative is this one's complement off vertex 0
    stack = np.concatenate([isolated, isolated ^ (i != 0)])
    return min(_graph6_lines(g.n, stack).tolist()).encode("ascii")
