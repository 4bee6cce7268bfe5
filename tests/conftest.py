from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from seidelab import search
from seidelab.graphs import (
    ASCII_WHITESPACE,
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    complement,
    complete_graph,
)
from seidelab.seidel import SCWitness, switch

# wall-time deadlines turn first-call numpy warmup into flaky failures
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


def graph_strategy(min_n=1, max_n=8):
    """Random labeled graph: order plus an edge-bit mask."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
            lambda mask: Graph.from_edge_mask(n, mask)
        )
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def set_chunk_size(monkeypatch):
    """A setter of search.CHUNK_SIZE, the scan's chunk size, for one test."""
    return lambda size: monkeypatch.setattr(search, "CHUNK_SIZE", size)


def random_graph(rng, n=None, max_n=10):
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    m = n * (n - 1) // 2
    mask = int(rng.integers(0, 1 << min(m, 63)))
    shift = 63
    while shift < m:  # the rest in pieces int64 can draw
        width = min(m - shift, 62)
        mask |= int(rng.integers(0, 1 << width)) << shift
        shift += width
    return Graph.from_edge_mask(n, mask)


def sc_members(rng, n):
    """Random members of K_n's switching class, with and without complement,
    and a graph one edge away from it."""
    w = int(rng.integers(0, 1 << min(n, 62)))
    k = switch(complete_graph(n), w)
    out = [k, complement(k)]
    if n >= 2:
        out.append(Graph.from_edge_mask(n, k.edge_mask() ^ 1))
    return out


# ---------------------------------------------------------------------------
# reference implementations
#
# Per-graph loops over the adjacency bitmasks, written independently of the
# edge-bit stack kernels that compute these quantities in the package, so
# the kernels and the per-graph functions built on them can be tested
# against them.


def reference_edge_bits(g: Graph) -> np.ndarray:
    """Edge bits of g in graph6 order: (0,1), (0,2), (1,2), (0,3), ..."""
    bits = [g.rows[i] >> j & 1 for j in range(1, g.n) for i in range(j)]
    return np.array(bits, dtype=np.uint8)


def reference_rows(n: int, bits) -> tuple[int, ...]:
    """Adjacency rows of the graph whose edge e in graph6 order is bits[e]."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]  # colex
    rows = [0] * n
    for (i, j), bit in zip(pairs, bits):
        if bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def reference_seidel_matrix(g: Graph) -> np.ndarray:
    n = g.n
    s = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(s, 0)
    for i in range(n):
        r = g.rows[i]
        for j in range(n):
            if r >> j & 1:
                s[i, j] = -1
    return s


def reference_count_odd_pairs(g: Graph) -> int:
    n = g.n
    if n < 4:
        return 0
    count = 0
    for x1, x2 in combinations(range(n), 2):
        # (X, {y1, y2}) is odd iff bits y1, y2 of rows[x1] ^ rows[x2] differ,
        # so the odd second elements for this X number ones * zeros
        rx = (g.rows[x1] ^ g.rows[x2]) & ~(1 << x1) & ~(1 << x2)
        ones = bin(rx).count("1")
        count += ones * (n - 2 - ones)
    return count


def reference_is_sc_equivalent_to_complete(g: Graph):
    """Switch on the complement of N[v0], then test the induced graph on the
    other vertices for complete (no complement needed) or empty."""
    full = (1 << g.n) - 1
    mask = full & ~g.closed_neighborhood(0)
    h = switch(g, mask)
    if all((h.rows[i] | 1 | (1 << i)) == full for i in range(1, g.n)):
        return True, SCWitness(mask, complemented=False)
    if all(h.rows[i] == 1 for i in range(1, g.n)):
        return True, SCWitness(mask ^ 1, complemented=True)
    return False, None


def reference_encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"n={g.n} exceeds single-byte graph6 range (<= {GRAPH6_MAX_N})")
    bits = "".join(map(str, reference_edge_bits(g).tolist()))
    bits = bits.ljust(-(-len(bits) // 6) * 6, "0")
    groups = (bits[i : i + 6] for i in range(0, len(bits), 6))
    return chr(g.n + 63) + "".join(chr(int(b, 2) + 63) for b in groups)


def reference_parse_graph6(text: str) -> Graph:
    """Bit by bit, raising what the package's parse_graph6 raises."""
    s = text.strip(ASCII_WHITESPACE)
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) for c in s]
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
        raise Graph6Error(f"expected {nbytes} edge bytes for n={n}, got {len(data) - 1}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]  # colex
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
                i, j = pairs[bit]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph(n, tuple(rows))
