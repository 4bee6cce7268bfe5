"""Simple graphs on labeled vertices, the graph6 codec, and Seidel matrices.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one machine
word per vertex (n is capped at 64), which makes complements, switching and
parity counts elsewhere in the package cheap bit operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

MAX_VERTICES = 64
GRAPH6_MAX_N = 62  # single-byte header only
ASCII_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "  # what str.strip() drops of ASCII


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset when known."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus one adjacency bitmask per vertex.

    Bit j of rows[i] is set iff {i, j} is an edge.  Instances are immutable
    and hashable, so they are safe to share across scan workers.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("rows length does not match vertex count")
        full = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError(f"row {i} has bits beyond vertex range")
            if r >> i & 1:
                raise ValueError(f"vertex {i} has a loop")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError("loops not allowed")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return Graph(n, tuple(rows))

    @staticmethod
    def from_edge_mask(n: int, mask: int) -> "Graph":
        """Graph from an integer whose bit e is edge number e in graph6 order.

        Edge e runs over pairs (i, j), i < j, ordered colexicographically:
        (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...
        """
        rows = [0] * n
        e = 0
        for j in range(1, n):
            for i in range(j):
                if mask >> e & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                e += 1
        return Graph(n, tuple(rows))

    def edge_mask(self) -> int:
        mask = 0
        e = 0
        for j in range(1, self.n):
            for i in range(j):
                if self.rows[i] >> j & 1:
                    mask |= 1 << e
                e += 1
        return mask

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return bin(self.rows[i]).count("1")

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in combinations(range(self.n), 2) if self.has_edge(i, j)]

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def neighborhood(self, v: int) -> int:
        """Open neighborhood of v as a bitmask."""
        return self.rows[v]

    def closed_neighborhood(self, v: int) -> int:
        return self.rows[v] | (1 << v)

    def permute(self, perm) -> "Graph":
        """Relabel: vertex i of the result is vertex perm[i] of self."""
        rows = [0] * self.n
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        for i in range(self.n):
            r = self.rows[perm[i]]
            for j in range(self.n):
                if r >> perm[j] & 1:
                    rows[i] |= 1 << j
        return Graph(self.n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Flip every off-diagonal pair; an involution."""
    full = (1 << g.n) - 1
    rows = tuple((full & ~r & ~(1 << i)) for i, r in enumerate(g.rows))
    return Graph(g.n, rows)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (single-byte header, n <= 62)."""
    s = text.strip(ASCII_WHITESPACE)
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) for c in s]  # a non-ASCII character is out of range below
    for off, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} out of range [63,126] at offset {off}")
    n = data[0] - 63
    if n == 63:
        raise Graph6Error("multi-byte graph6 header (n > 62) not supported")
    if n < 1:
        raise Graph6Error("graph6 order must be at least 1")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise Graph6Error(
            f"expected {nbytes} edge bytes for n={n}, got {len(data) - 1}"
        )
    rows = [0] * n
    bit = 0
    for off, b in enumerate(data[1:], start=1):
        v = b - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if v >> k & 1:
                    raise Graph6Error(f"nonzero padding bit at offset {off}")
                continue
            if v >> k & 1:
                i, j = _edge_from_index(bit)
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph(n, tuple(rows))


def _edge_from_index(e: int) -> tuple[int, int]:
    # colex order: edges with larger endpoint j occupy indices j(j-1)/2 .. j(j+1)/2 - 1
    j = 1
    while j * (j + 1) // 2 <= e:
        j += 1
    i = e - j * (j - 1) // 2
    return i, j


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 line for a graph with n <= 62."""
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"n={g.n} exceeds single-byte graph6 range (<= {GRAPH6_MAX_N})")
    out = [g.n + 63]
    nbits = g.n * (g.n - 1) // 2
    mask = g.edge_mask()
    acc = 0
    filled = 0
    for e in range(nbits):
        acc = (acc << 1) | (mask >> e & 1)
        filled += 1
        if filled == 6:
            out.append(acc + 63)
            acc = 0
            filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def seidel_matrix(g: Graph) -> np.ndarray:
    """Seidel matrix: zero diagonal, -1 on edges, +1 on non-edges (int64)."""
    n = g.n
    s = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(s, 0)
    for i in range(n):
        r = g.rows[i]
        for j in range(n):
            if r >> j & 1:
                s[i, j] = -1
    return s


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)
