"""Simple graphs on labeled vertices, the graph6 codec, and Seidel matrices.

Vertices are the dense integers 0..n-1, and a graph is its edge mask: bit e
is edge number e in graph6 order.  n is capped at 62, the largest order a
single-byte graph6 header names, so every graph has a graph6 line.

The edge-bit stack kernels at the end of the module build Seidel matrices S
(the one matrix kernel; the adjacency is S < 0), relabel (_relabel), encode
graph6 lines and decode them, the decoder being the one graph6 validator;
a complement is bits ^ 1.  Each is the only implementation of what it
computes: scans run it on whole chunks, per-graph functions on a stack of
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

MAX_VERTICES = 62  # graph6's single-byte header
ASCII_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "  # what str.strip() drops of ASCII


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset when known."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count n and edge mask, whose bit e is
    edge number e in graph6 order.

    Edge e runs over pairs (i, j), i < j, ordered colexicographically:
    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ..., so (i, j) is edge
    C(j,2) + i.  n is an integer in 1..MAX_VERTICES and mask a Python or
    numpy integer in 0..2^C(n,2) - 1, stored as an int; anything else
    raises ValueError.  Instances are immutable and hashable, so they are
    safe to share across scan workers.
    """

    n: int
    mask: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and 1 <= self.n <= MAX_VERTICES):
            raise ValueError(f"vertex count {self.n!r} outside 1..{MAX_VERTICES}")
        if not isinstance(self.mask, (int, np.integer)):
            raise ValueError(f"edge mask {self.mask!r} is not an integer")
        n, mask = int(self.n), int(self.mask)
        if not 0 <= mask < 1 << comb(n, 2):
            raise ValueError(f"edge mask {mask} outside 0..2^{comb(n, 2)} - 1 for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Graph on n vertices with the given (i, j) edges; an endpoint that is
        not an integer in range(n), or a loop, raises ValueError."""
        mask = 0
        for i, j in edges:
            e = _edge_number(n, i, j)
            if i == j:
                raise ValueError("loops not allowed")
            mask |= 1 << e
        return Graph(n, mask)

    @staticmethod
    def from_edge_mask(n: int, mask) -> "Graph":
        """Graph from a Python or numpy integer whose bit e is edge number e
        in graph6 order (see Graph).  Bits past the last edge are ignored; a
        negative mask, or one that is not an integer, raises ValueError."""
        if not isinstance(mask, (int, np.integer)):
            raise ValueError(f"edge mask {mask!r} is not an integer")
        if mask < 0:
            raise ValueError(f"edge mask {mask} is negative")
        Graph(n, 0)  # checks the order before 2^C(n,2) is built
        return Graph(n, int(mask) & ((1 << comb(n, 2)) - 1))

    def edge_mask(self) -> int:
        return self.mask

    def has_edge(self, i: int, j: int) -> bool:
        """Whether {i, j} is an edge; a vertex that is not an integer in
        range(n) raises ValueError."""
        e = _edge_number(self.n, i, j)
        return i != j and bool(self.mask >> e & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in combinations(range(self.n), 2) if self.has_edge(i, j)]

    def edge_count(self) -> int:
        return self.mask.bit_count()

    def permute(self, perm) -> "Graph":
        """Relabel: vertex i of the result is vertex perm[i] of self
        (_relabel on a stack of one).  perm must be a permutation of
        range(n); anything else raises ValueError."""
        p = np.asarray(perm)
        if (
            p.shape != (self.n,)
            or p.dtype.kind not in "iu"
            or not np.array_equal(np.sort(p), np.arange(self.n))
        ):
            raise ValueError(f"perm must be a permutation of range({self.n}), got {perm!r}")
        return _graph_of_bits(self.n, _relabel(self.n, _edge_bits(self), p[None]))


def complement(g: Graph) -> Graph:
    """Flip every off-diagonal pair, every bit of the mask; an involution."""
    return Graph(g.n, g.mask ^ ((1 << comb(g.n, 2)) - 1))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (single-byte header, n <= 62), stripped of ASCII
    whitespace, as a stack of one through _decode_graph6, raising its message."""
    s = text.strip(ASCII_WHITESPACE)
    if not s:
        raise Graph6Error("empty graph6 string")
    codes = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)  # every code point
    decoded, rejected = _decode_graph6(codes, np.zeros(1, dtype=np.intp), np.array([len(s)]))
    if rejected:
        raise Graph6Error(rejected[0][1])
    n, _, bits = decoded[0]
    return _graph_of_bits(n, bits)


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 line of g."""
    return str(_graph6_lines(g.n, _edge_bits(g))[0])


def seidel_matrix(g: Graph) -> np.ndarray:
    """Seidel matrix: zero diagonal, -1 on edges, +1 on non-edges (int64)."""
    return _seidel(g.n, _edge_bits(g))[0].astype(np.int64)


# ---------------------------------------------------------------------------
# edge-bit stacks: B graphs on n vertices as a (B, C(n,2)) uint8 array whose
# column e is edge e in graph6 order, as in Graph


@lru_cache(maxsize=None)
def _endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only arrays i, j of the endpoints i < j of the C(n,2) edges."""
    j, i = np.tril_indices(n, -1)  # colex: (0,1), (0,2), (1,2), (0,3), ...
    i.flags.writeable = j.flags.writeable = False
    return i, j


@lru_cache(maxsize=None)
def _edge_numbers(n: int) -> np.ndarray:
    """Read-only (n, n) table of the number of edge (i, j), i != j."""
    i, j = _endpoints(n)
    table = np.zeros((n, n), dtype=np.intp)
    table[i, j] = table[j, i] = np.arange(len(i))
    table.flags.writeable = False
    return table


def _relabel(n: int, bits: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Relabel a stack of edge bits by the rows of a (B, n) array perms:
    vertex u of result row b is vertex perms[b, u] of row b (a stack of one
    broadcasts against the perms)."""
    i, j = _endpoints(n)
    return np.take_along_axis(bits, _edge_numbers(n)[perms[:, i], perms[:, j]], axis=1)


def _edge_number(n: int, i, j) -> int:
    """The number of edge (i, j), i != j, in graph6 order; an endpoint that
    is not an integer in range(n) raises ValueError."""
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in (i, j)):
        raise ValueError(f"edge {(i, j)!r} has an endpoint outside range({n})")
    i, j = sorted((int(i), int(j)))
    return j * (j - 1) // 2 + i


def _edge_bits(g: Graph) -> np.ndarray:
    """g as a stack of one: its mask unpacked, bit e in column e."""
    m = comb(g.n, 2)
    raw = np.frombuffer(g.mask.to_bytes(m // 8 + 1, "little"), np.uint8)
    return np.unpackbits(raw, count=m, bitorder="little")[None]


def _graph_of_bits(n: int, bits: np.ndarray) -> Graph:
    """The graph of a stack of one, its mask packed from the edge bits."""
    return Graph(n, int.from_bytes(np.packbits(bits[0], bitorder="little").tobytes(), "little"))


def _seidel(n: int, bits: np.ndarray) -> np.ndarray:
    """Seidel matrices of a stack of edge bits, (B, n, n) int8: 1 - 2 bits off the diagonal."""
    i, j = _endpoints(n)
    s = np.ones((bits.shape[0], n, n), dtype=np.int8)
    s[:, i, j] = s[:, j, i] = 1 - 2 * bits.astype(np.int8)
    s[:, np.arange(n), np.arange(n)] = 0
    return s


def _graph6_lines(n: int, bits: np.ndarray) -> np.ndarray:
    """graph6 lines of a stack of edge bits, as a str array (the inverse of
    _unpack_graph6)."""
    nbytes = (bits.shape[1] + 5) // 6
    six = np.zeros((bits.shape[0], nbytes * 6), dtype=np.uint8)
    six[:, : bits.shape[1]] = bits
    out = np.empty((bits.shape[0], nbytes + 1), dtype=np.uint8)
    out[:, 0] = n + 63
    packed = np.packbits(six.reshape(bits.shape[0], nbytes, 6), axis=-1)[..., 0]
    out[:, 1:] = (packed >> 2) + 63  # six bits, high first, as the top of a byte
    return out.view(f"S{nbytes + 1}").ravel().astype(f"U{nbytes + 1}")


def _unpack_graph6(n: int, body: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge bits of a stack of graph6 lines on n vertices, from the (B, nbytes)
    uint8 bytes after the header, each in 63..126, and whether each line
    sets a padding bit past the C(n,2) edge bits."""
    nbits = n * (n - 1) // 2
    six = np.unpackbits(body[..., None] - 63, axis=-1)[..., 2:]
    bits = six.reshape(body.shape[0], 6 * body.shape[1])
    return bits[:, :nbits], bits[:, nbits:].any(axis=1)


def _decode_graph6(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The one graph6 validator, for nonempty lines codes[starts[k] : starts[k] +
    lengths[k]] of any integer dtype: (n, line indices, edge bits) per order,
    decoded in one pass per length, and (line index, message) per rejected line."""
    decoded, rejected = [], []
    for length in sorted(set(lengths.tolist())):
        idx = (lengths == length).nonzero()[0]
        rows = codes[starts[idx, None] + np.arange(length)]
        bad = (rows < 63) | (rows > 126)
        ok = ~bad.any(axis=1)
        for r in (~ok).nonzero()[0].tolist():
            off = int(bad[r].argmax())
            message = f"byte {rows[r, off]} out of range [63,126] at offset {off}"
            rejected.append((int(idx[r]), message))
        for header in sorted(set(rows[ok, 0].tolist())):
            n, sel = header - 63, (ok & (rows[:, 0] == header)).nonzero()[0]
            message = _order_error(n, length)
            if message is None:
                bits, padded = _unpack_graph6(n, rows[sel, 1:].astype(np.uint8))
                if not padded.all():
                    decoded.append((n, idx[sel[~padded]], bits[~padded]))
                # padding only ever fills part of the last byte
                sel, message = sel[padded], f"nonzero padding bit at offset {length - 1}"
            rejected += [(k, message) for k in idx[sel].tolist()]
    return decoded, sorted(rejected)


def _order_error(n: int, length: int) -> str | None:
    """Why a graph6 line of this length cannot have order n, if it cannot."""
    if n == 63:
        return "multi-byte graph6 header (n > 62) not supported"
    if n < 1:
        return "graph6 order must be at least 1"
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if length - 1 != nbytes:
        return f"expected {nbytes} edge bytes for n={n}, got {length - 1}"
    return None


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return complement(empty_graph(n))


def empty_graph(n: int) -> Graph:
    return Graph(n, 0)
