"""Graph sources and the scan driver.

Sources: every labeled graph for n <= 8, the two-apex-over-a-clique
boundary family for 11 <= n <= 22, and graph6 line streams for externally
generated corpora.  The scan driver fans fixed-size chunks out to a worker
pool, where verify.evaluate checks its stacks, and re-runs run_checks on
anything the batch path flags, so failure reports carry exact integers.
Chunks are drawn from the source only as the pool has room, at most two
per worker in flight, so a graph6 stream is read line by line, one chunk
at a time, while its first chunks are evaluated.

A source speaks one protocol, and the driver knows nothing else of it:
chunk_specs gives chunks (source, *part), a range of representative
numbers for an orbit source, line numbers and raw lines for a graph6
stream; a worker's source.stacks(*part) turns one into stacks (see
_Stack), and source.csv_rows gives the scan's CSV rows.  Everything
checked derives from the kernels that also serve the per-graph functions:
Seidel matrices S and graph6 lines from graphs, LAPACK spectra (for the
boundary family of a 6x6 quotient, see below), exact S_k(S^2) from
multi-modular characteristic polynomials (spectral), and N_op and
SC-equivalence to K_n, off those polynomials where a stack has them and
otherwise off S (seidel).  This module keeps only the sources, the driver
and CSV rendering.  Graph objects appear only for the flagged graphs
run_checks re-verifies.

The exhaustive and boundary sources are scanned one orbit at a time.
Every checked quantity (|spectrum|, S_k(A^2), N_op, SC-equivalence to K_n)
is invariant under Seidel switching, relabeling and complementation
(A -> -A).  The exhaustive source evaluates each switching-plus-complement
orbit once, on the representative with vertex 0 isolated and the last edge
(n-2, n-1) absent, and counts it with the orbit's size: 2^n labeled graphs
for n >= 3, 2^(n-1) below.  The boundary family evaluates each orbit of
switching on its apexes once, on the orbit's first member (see
_boundary_table), and counts its members; isomorphic members outside that
group are still evaluated apart.  Within a chunk, the representatives are
grouped by their exact Seidel characteristic polynomial, of which every
checked quantity is a function (see _by_charpoly): spectra, S_k,
N_op, the SC flag and the checks run once per distinct polynomial, on the
first row that has it, and are scattered back to every row (n = 7 has 53
distinct polynomials for its 16,384 representatives).  An exhaustive
row factors as a parent P, S without one vertex w, and a border
v = S[w, != w] (see _bordered), and its polynomial is
x p_P(x) - v^T adj(xI - P) v, its quadratic forms exact because their
partial sums stay below 2^53 as the kernel's own products do.  So the exact
kernel runs once per parent: 1,024 of them for the 16,384 rows at n = 7
and per 2^15-row chunk from n = 8.  A boundary member has an equitable
partition, the clique split into four cells by the apexes, so its
polynomial is (x - 1)^(n-6) times that of a 6x6 integer quotient (see
_boundary_polys), and its spectrum is that of the quotient's symmetrized
form joined with n - 6 ones (see _boundary_quotients).  So a boundary
scan runs no exact kernel, eigvalsh on 6x6 matrices only, and builds no S:
N_op and the SC flag are read off the polynomials.  A stream chunk is
grouped the same way when its checks read S_k, and otherwise evaluates
every row.  Only what a report names (equality graphs, failures, the
minimum-energy witness) is expanded back to the orbit's members and
named, in one pass per stack, keyed by its position in the source's
enumeration order (the labeled edge mask for the exhaustive source, the
parameter index for the boundary family, the line number for a stream)
and merged in that order.

CSV rows, when collected, come from every chunk in source order, so the
scan only joins them.  A row's cells but graph6 are functions of its char
poly, so a worker renders that tail of the line once per distinct poly
(see _render_tails).  A stream chunk returns its lines as text, graph6 put
in front of each tail; an orbit chunk returns its representatives' tails,
and write_csv puts each graph's graph6 in front of its representative's
tail as the line is written, formatting no number.  Chunk boundaries do
not depend on the worker count, so aggregate reports and CSV output are
reproducible byte for byte.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .graphs import (
    ASCII_WHITESPACE,
    Graph,
    Graph6Error,
    _decode_graph6,
    _edge_numbers,
    _endpoints,
    _graph6_lines,
    _graph_of_bits,
    _seidel,
    parse_graph6,
)
# unused here; kept importable as seidelab.search.<name> for bench/tracing.py
from .graphs import encode_graph6  # noqa: F401
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete  # noqa: F401
from .seidel import _odd_pairs, _odd_pairs_of_charpoly, _sc_of_charpoly, _sc_to_complete, _switch
from .spectral import charpoly_batch_i64, p_energy, sk_from_charpoly
from .verify import evaluate, near_equality, reads, run_checks, validate

ENUM_MAX_N = 8
BOUNDARY_MIN_N = 11
BOUNDARY_MAX_N = 22
CHUNK_SIZE = 1 << 15  # fixed so aggregates are worker-count independent
FAILURE_CAP = 1000  # failure reports a ScanReport keeps; total_failures counts all
_ROW_BLOCK = 1 << 12  # exhaustive CSV lines rendered per step
_EOL = "\r\n"  # csv.writer's line terminator


class Graph6StreamError(ValueError):
    """Malformed graph6 line in strict mode; names the line number."""


# ---------------------------------------------------------------------------
# sources


class _OrbitSource:
    """A source scanned one orbit at a time (see the module docstring), with
    _orbit_count() representatives; its CSV rows are an _OrbitRows."""

    def chunk_specs(self):
        """Chunks of representative numbers, CHUNK_SIZE representatives each."""
        total = self._orbit_count()
        return [(self, lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]

    def csv_rows(self, tails: list) -> _OrbitRows:
        """The scan's CSV lines from its chunks' representative tails."""
        return _OrbitRows(self, np.concatenate(tails))


@dataclass(frozen=True)
class AllGraphs(_OrbitSource):
    """Every labeled graph on n vertices, in edge-mask order.

    Its chunks hold switching-plus-complement orbit representatives (see the
    module docstring); a scan counts and reports labeled graphs all the same.
    """

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and 1 <= self.n <= ENUM_MAX_N):
            raise ValueError(
                f"exhaustive enumeration supports integers n in 1..{ENUM_MAX_N}, not {self.n!r}; "
                "use a graph6 stream for larger orders"
            )

    @property
    def descriptor(self) -> str:
        return f"all(n={self.n})"

    def __len__(self) -> int:
        return 1 << (self.n * (self.n - 1) // 2)

    def __iter__(self):
        for mask in range(len(self)):
            yield Graph(self.n, mask)

    def _orbit_count(self) -> int:
        return 1 << len(_free_edges(self.n))

    def member_block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Edge bits and representative numbers of edge masks start..stop-1."""
        bits = _mask_bits(self.n, np.arange(start, stop, dtype=np.uint64))
        return bits, _representatives(self.n, bits)

    def stacks(self, start: int, stop: int) -> tuple[int, list[_Stack]]:
        """The labeled graphs representatives start..stop-1 stand for, and their stack."""
        n = self.n
        masks = _class_masks(n, start, stop)
        bits = _mask_bits(n, masks)
        offsets = _orbit_offsets(n)

        def members(rows):
            return np.repeat(rows, len(offsets)), (masks[rows, None] ^ offsets).ravel()

        def name(rows, positions):
            return _graph6_lines(n, _mask_bits(n, positions))

        def quantities(need):
            parents, borders, rows = _bordered(n, np.arange(start, stop, dtype=np.int64), bits)
            coeffs = charpoly_batch_i64(parents, borders)[rows]
            return _by_charpoly(n, coeffs, lambda r: np.linalg.eigvalsh(_seidel(n, bits[r])), need)

        return (stop - start) * len(offsets), [_Stack(n, members, name, None, quantities)]


@dataclass(frozen=True)
class BoundaryFamily(_OrbitSource):
    """Graphs that are a clique on n-2 vertices plus two apex vertices.

    Parameterized by (a, b, c, e): the apex clique-neighborhood sizes a >= b,
    their overlap c, and the apex-apex edge flag, with the shared block laid
    out first.  Its chunks hold switching orbit representatives (see
    _boundary_table); a scan counts and reports every member all the same.
    Members related by switching are evaluated once, isomorphic members
    outside that group are not merged.
    """

    n: int

    def __post_init__(self):
        lo, hi = BOUNDARY_MIN_N, BOUNDARY_MAX_N
        if not (isinstance(self.n, (int, np.integer)) and lo <= self.n <= hi):
            raise ValueError(f"boundary family covers integers n in {lo}..{hi}, not {self.n!r}")

    @property
    def descriptor(self) -> str:
        return f"boundary-family(n={self.n})"

    def params(self) -> list[tuple[int, int, int, int]]:
        return list(map(tuple, _boundary_table(self.n).params.tolist()))

    def edge_bits(self, params) -> np.ndarray:
        """Edge bits, graph6 order, of the members with the given (a, b, c, e)
        rows: apex v1 = n-2 sees [0, a), apex v2 = n-1 sees [0, c) and
        [a, a+b-c), and e joins the apexes."""
        m = self.n - 2
        i, j = _endpoints(self.n)
        a, b, c, e = np.asarray(params, dtype=np.int64).reshape(-1, 4).T[:, :, None]
        to_v2 = (i < c) | ((i >= a) & (i < a + b - c))
        v2_column = np.where(i < m, to_v2, e == 1)  # j = n-1; i = n-2 is the apex edge
        bits = np.where(j < m, True, np.where(j == m, i < a, v2_column))
        return bits.astype(np.uint8)

    def graph_for(self, a: int, b: int, c: int, e: int) -> Graph:
        integers = all(isinstance(v, (int, np.integer)) for v in (a, b, c, e))
        if not (integers and 0 <= c <= b <= a and a + b - c <= self.n - 2 and e in (0, 1)):
            raise ValueError(
                f"(a, b, c, e) = {(a, b, c, e)} is not a member: need integers with "
                f"0 <= c <= b <= a, a + b - c <= {self.n - 2} and e in {{0, 1}}"
            )
        return _graph_of_bits(self.n, self.edge_bits([(a, b, c, e)]))

    def __len__(self) -> int:
        return len(_boundary_table(self.n).params)

    def __iter__(self):
        for a, b, c, e in self.params():
            yield self.graph_for(a, b, c, e)

    def _orbit_count(self) -> int:
        return len(_boundary_table(self.n).reps)

    def member_block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Edge bits and representative numbers of members start..stop-1."""
        table = _boundary_table(self.n)
        return self.edge_bits(table.params[start:stop]), table.rep[start:stop]

    def stacks(self, start: int, stop: int) -> tuple[int, list[_Stack]]:
        """The members representatives start..stop-1 stand for, and their stack."""
        n, table = self.n, _boundary_table(self.n)

        def members(rows):
            lo = table.bounds[rows + start]
            sizes = table.bounds[rows + start + 1] - lo
            runs = np.repeat(lo - (sizes.cumsum() - sizes), sizes) + np.arange(sizes.sum())
            return np.repeat(rows, sizes), table.members[runs]

        def name(rows, positions):
            return _graph6_lines(n, self.edge_bits(table.params[positions]))

        def quantities(need):
            sizes, apexes = _cell_sizes(n, table.params[table.reps[start:stop]])

            def spectra(rows):  # S's spectrum is the quotient's joined with n - 6 ones
                vals = np.linalg.eigvalsh(_boundary_quotients(sizes[rows], apexes[rows]))
                return np.sort(np.concatenate([vals, np.ones((len(vals), n - 6))], axis=1), axis=1)

            return _by_charpoly(n, _boundary_polys(n, sizes, apexes), spectra, need)

        count = int(table.bounds[stop] - table.bounds[start])
        return count, [_Stack(n, members, name, None, quantities)]


class _BoundaryTable(NamedTuple):
    params: np.ndarray  # (a, b, c, e) of every member, in source order
    rep: np.ndarray  # each member's representative number
    reps: np.ndarray  # parameter index of each representative, ascending
    members: np.ndarray  # rep's inverse: member indices by representative, then ascending
    bounds: np.ndarray  # representative k's members are members[bounds[k]:bounds[k+1]]


@lru_cache(maxsize=None)
def _boundary_table(n: int) -> _BoundaryTable:
    """The boundary family's members and their switching orbits.

    Switching on apex v1 maps (a, b, c, e) to (m-a, b, b-c, 1-e), on apex v2
    to (a, m-b, a-c, 1-e), and on both to (m-a, m-b, m-a-b+c, e), m = n-2;
    swapping the apexes then restores a >= b.  Each image is a member up to
    a relabeling of the clique, and the four images of a member are its
    whole orbit.  An orbit's representative is its least parameter index, so
    it is the orbit's first member in source order; representatives are
    numbered in that order.
    """
    m = n - 2
    grid = np.indices((m + 1, m + 1, m + 1, 2)).reshape(4, -1)
    a, b, c, e = grid
    params = grid[:, (b <= a) & (c <= b) & (a + b - c <= m)].T
    index = np.full((m + 1, m + 1, m + 1, 2), -1, dtype=np.int64)
    index[tuple(params.T)] = np.arange(len(params))
    a, b, c, e = params.T
    images = np.array(
        [
            (a, b, c, e),
            (m - a, b, b - c, 1 - e),
            (a, m - b, a - c, 1 - e),
            (m - a, m - b, m - a - b + c, e),
        ]
    )  # (image, field, member)
    high, low = images[:, :2].max(axis=1), images[:, :2].min(axis=1)  # a >= b
    first = index[high, low, images[:, 2], images[:, 3]].min(axis=0)
    reps, rep = np.unique(first, return_inverse=True)
    bounds = np.concatenate([[0], np.bincount(rep).cumsum()])
    return _BoundaryTable(params, rep, reps, np.argsort(rep, kind="stable"), bounds)


# Seidel signs between the boundary quotient's parts: the clique's cells
# "both apexes", "v1 only", "v2 only" and "neither", then the apexes v1
# and v2; the v1-v2 sign is each member's own, 1 - 2e
_QUOTIENT_SIGNS = np.array(
    [
        [-1, -1, -1, -1, -1, -1],
        [-1, -1, -1, -1, -1, 1],
        [-1, -1, -1, -1, 1, -1],
        [-1, -1, -1, -1, 1, 1],
        [-1, -1, 1, 1, 0, 0],
        [-1, 1, -1, 1, 0, 0],
    ],
    dtype=np.float64,
)
_CELL_DIAGONAL = np.diag([1.0, 1, 1, 1, 0, 0])


def _cell_sizes(n: int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sizes (B, 6) of the boundary quotient's parts, the four cells
    (c, a-c, b-c, m-a-b+c), m = n-2, then 1 and 1 for the apexes, and the
    v1-v2 Seidel sign 1 - 2e, of the members with the given (a, b, c, e),
    as float64 integers."""
    a, b, c, e = np.asarray(params, dtype=np.float64).reshape(-1, 4).T
    one = np.ones_like(a)
    return np.stack([c, a - c, b - c, n - 2 - a - b + c, one, one], axis=1), 1 - 2 * e


def _boundary_polys(n: int, sizes: np.ndarray, apexes: np.ndarray) -> np.ndarray:
    """Exact det(xI - S), (B, n+1) int64 ascending, of the order-n boundary
    members with the cells of _cell_sizes, from their equitable partition.

    The apexes split the clique into four cells of sizes s (see
    _cell_sizes), and every vertex outside a cell sees the whole cell
    alike, so e_u - e_v for u, v in one cell is an eigenvector of S with
    eigenvalue 1.  Hence det(xI - S) = (x - 1)^(n-6) det(xI - Q), where Q
    is the 6x6 quotient over the cells and the two apexes: Q_ij = sigma_ij
    s_j off the diagonal, 1 - s_i on a cell's diagonal and 0 on an apex's.
    An empty cell's column is e_i and gives its factor x - 1 back, so the
    identity holds for every member.  Faddeev-LeVerrier on Q and the
    product by (x - 1)^(n-6) run in float64, through BLAS, and are exact:
    every operand is an integer, and for every member at n <= 22 the
    partial sums stay below 10^5 in Faddeev-LeVerrier and 2e8 in the
    product, far under 2^53.  det(xI - Q)'s coefficients stay below 7,600
    and det(xI - S)'s below 1.6e8."""
    q = _QUOTIENT_SIGNS * sizes[:, None, :] + _CELL_DIAGONAL
    q[:, 4, 5] = q[:, 5, 4] = apexes
    # Faddeev-LeVerrier: M_k = Q M_(k-1) + c_(7-k) I, c_(6-k) = -tr(Q M_k) / k,
    # qm holding Q M_k; tr(Q M_k) is a multiple of k, so the division is exact
    pq = np.zeros((len(q), 7))
    pq[:, 6] = 1
    qm, diagonal = np.zeros_like(q), np.arange(6)
    for k in range(1, 7):
        qm[:, diagonal, diagonal] += pq[:, 7 - k, None]  # qm is now M_k
        qm = q @ qm
        pq[:, 6 - k] = -np.einsum("bii->b", qm) / k
    d = n - 6
    shifts = np.zeros((7, n + 1))  # row k: x^k (x - 1)^(n-6)
    for k in range(7):
        shifts[k, k : k + d + 1] = [comb(d, i) * (-1) ** (d - i) for i in range(d + 1)]
    return (pq @ shifts).astype(np.int64)


def _boundary_quotients(sizes: np.ndarray, apexes: np.ndarray) -> np.ndarray:
    """The symmetrized quotients, (B, 6, 6) float64, of the boundary members
    with the given cells (see _cell_sizes): sigma_ij sqrt(s_i s_j) off the
    diagonal and, as in Q (see _boundary_polys), 1 - s_i on a cell's
    diagonal and 0 on an apex's.  With no cell empty this is D^(1/2) Q
    D^(-1/2), D = diag(s), so it has Q's eigenvalues; an empty cell gives
    a zero row and column with 1 on the diagonal, the eigenvalue 1 of its
    factor x - 1.  So for every member S's spectrum is this matrix's joined
    with n - 6 ones.  The root is taken of the product s_i s_j, so the
    diagonal is exact."""
    q = _QUOTIENT_SIGNS * np.sqrt(sizes[:, :, None] * sizes[:, None, :]) + _CELL_DIAGONAL
    q[:, 4, 5] = q[:, 5, 4] = apexes
    return q


@dataclass(frozen=True)
class Graph6Stream:
    """Newline-separated graph6 file; strict mode aborts on malformed lines
    (a non-ASCII byte makes a line malformed), lenient mode skips them."""

    path: str
    strict: bool = True

    @property
    def descriptor(self) -> str:
        return f"graph6-stream({self.path})"

    def _lines(self):
        """The file's nonblank lines, stripped, with their line numbers.  Lines
        end at \\n, \\r\\n or a lone \\r, as in text mode; bytes pass through as
        latin-1, so a non-ASCII byte reaches the graph6 checks, not a decoder."""
        with open(self.path, "r", encoding="latin-1", newline=None) as fh:
            for lineno, line in enumerate(fh, start=1):
                if line := line.strip(ASCII_WHITESPACE):
                    yield lineno, line

    def __iter__(self):
        for lineno, line in self._lines():
            try:
                yield parse_graph6(line)
            except Graph6Error as exc:
                if self.strict:
                    raise Graph6StreamError(f"line {lineno}: {exc}") from exc

    def chunk_specs(self):
        """Chunks of CHUNK_SIZE nonblank lines, read from the file only as
        the scan takes each chunk: their line numbers and their stripped
        text, each line ended by a newline, as latin-1 bytes.  Workers
        decode and validate."""
        numbered = self._lines()
        while True:
            linenos, lines = [], []  # flat lists: a list of pairs doubles the peak memory
            for lineno, line in islice(numbered, CHUNK_SIZE):
                linenos.append(lineno)
                lines.append(line)
            if not lines:
                return
            text = "\n".join(lines) + "\n"
            yield (self, np.array(linenos, dtype=np.int64), text.encode("latin-1"))

    def stacks(self, linenos: np.ndarray, text: bytes) -> tuple[int, list[_Stack]]:
        """The graphs of a chunk's lines, and a stack per order; strict mode raises."""
        codes = np.frombuffer(text, dtype=np.uint8)
        ends = np.flatnonzero(codes == ord("\n"))
        starts = np.concatenate(([0], ends[:-1] + 1))
        decoded, rejected = _decode_graph6(codes, starts, ends - starts)
        if self.strict and rejected:  # lenient mode skips rejected lines
            raise Graph6StreamError(f"line {linenos[rejected[0][0]]}: {rejected[0][1]}")
        stacks = []
        for n, index, bits in decoded:
            # a decoded line is its graph's graph6 (the decoder rejects any line
            # that does not re-encode to itself), and n fixes its length
            width = int(ends[index[0]] - starts[index[0]])

            def name(rows, positions, index=index, width=width):
                lines = codes[starts[index[rows], None] + np.arange(width)]
                return lines.view(f"S{width}").ravel().astype(str)

            def quantities(need, n=n, bits=bits):
                s = _seidel(n, bits)  # one order's S at a time
                if "sk" in need:  # grouped, as an orbit stack is
                    coeffs = charpoly_batch_i64(s)
                    return _by_charpoly(n, coeffs, lambda r: np.linalg.eigvalsh(s[r]), need)
                nop = _odd_pairs(s) if "nop" in need else None
                sc = _sc_to_complete(s) if "sc" in need else None
                return slice(None), np.linalg.eigvalsh(s), None, nop, sc

            def members(rows, index=index):
                return rows, linenos[index[rows]]

            stacks.append(_Stack(n, members, name, index, quantities))
        return sum(len(index) for _, index, _ in decoded), stacks

    def csv_rows(self, lines: list) -> list:
        """The scan's CSV lines: its chunks' text, as the workers wrote it."""
        return lines


# ---------------------------------------------------------------------------
# chunks as stacks
#
# A source's stacks(*part) turns its chunk into, per order n, a stack of
# rows with three functions: members(rows) gives the graphs each row
# stands for as (row, position) arrays, name(rows, positions) their graph6
# as an array of str, and quantities(need) the checked quantities, of one
# row per distinct char poly where the polynomials are known (see
# _by_charpoly).  An orbit stack's rows stand for many graphs and have
# exact char polys: an exhaustive stack's from parent times border (see
# _bordered), a boundary stack's from the family's equitable quotient (see
# _boundary_polys).  A stream stack's rows are its graphs, named by their
# own lines, and its slots are their line indices within the chunk.


class _Bordered(NamedTuple):
    parents: np.ndarray  # (Bp, n-1, n-1) int8 Seidel matrices without vertex w
    borders: np.ndarray  # (C, n-1) int8 rows S[w, != w]
    rows: tuple[np.ndarray, np.ndarray]  # each row's parent and border number


class _Stack(NamedTuple):
    n: int
    members: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: Callable[[np.ndarray, np.ndarray], np.ndarray]
    slots: np.ndarray | None  # a stream stack's line indices within its chunk
    quantities: Callable[[set], tuple]  # need -> (inverse, vals, sk, nop, sc)


def _free_edges(n: int) -> list[int]:
    """Edge numbers a representative may set: not at vertex 0, and not the
    last edge (n-2, n-1), which complementation normalizes to absent."""
    return np.flatnonzero(_endpoints(n)[0])[:-1].tolist()


def _class_masks(n: int, start: int, stop: int) -> np.ndarray:
    """Edge masks of the representatives numbered start..stop-1, ascending:
    bit b of the number becomes free edge b."""
    index = np.arange(start, stop, dtype=np.uint64)
    masks = np.zeros_like(index)
    for b, e in enumerate(_free_edges(n)):
        masks |= ((index >> np.uint64(b)) & np.uint64(1)) << np.uint64(e)
    return masks


def _orbit_offsets(n: int) -> np.ndarray:
    """XOR masks taking a representative to each labeled member of its orbit:
    switching on every subset of vertices 1..n-1, with and without the
    complement for n >= 3 (for n <= 2 the complement is itself a switch)."""
    w = np.arange(0, 1 << n, 2)[:, None] >> np.arange(n) & 1  # subsets leaving vertex 0 alone
    cuts = _switch(n, np.zeros((1, n * (n - 1) // 2), dtype=np.uint64), w.astype(np.uint64))
    if n >= 3:
        cuts = np.concatenate([cuts, cuts ^ np.uint64(1)])
    return (cuts << np.arange(cuts.shape[1], dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def _representatives(n: int, bits: np.ndarray) -> np.ndarray:
    """The representative number of each labeled graph of a stack, the
    inverse of _class_masks and _orbit_offsets: switching on vertex 0's
    neighbourhood isolates vertex 0, complementing the edges among 1..n-1
    clears the last edge if it is then present, and the free edges' bits
    spell the number."""
    i = _endpoints(n)[0]
    rep = _switch(n, bits, np.pad(bits[:, i == 0], ((0, 0), (1, 0))))  # on N(0)
    rep ^= rep[:, -1:] & (i > 0)
    free = _free_edges(n)
    return (rep[:, free].astype(np.int64) << np.arange(len(free))).sum(axis=1)


def _bordered(n: int, index: np.ndarray, bits: np.ndarray) -> _Bordered:
    """The representatives numbered index, with edge bits bits, as parent
    times border at the vertex w = min(n-1, 6): the parent is S without w,
    the border v = S[w, != w], and S is [[parent, v], [v^T, 0]] up to moving
    w last.  A free edge at w is a border bit of the number, any other a
    parent bit.  w = n-1 gives 2^C(n-2,2) parents times 2^(n-3) borders at
    4 <= n <= 7 (1,024 times 16 at n = 7); from n = 8 the low 15 bits of a number
    are the edges among vertices 1..6, so a 2^15-aligned chunk is 1,024
    parents times 32 borders."""
    w = min(n - 1, 6)
    i, j = _endpoints(n)
    at_w = (i == w) | (j == w)
    border_mask = sum(1 << b for b, e in enumerate(_free_edges(n)) if at_w[e])
    _, pfirst, pidx = np.unique(index & ~border_mask, return_index=True, return_inverse=True)
    _, bfirst, bidx = np.unique(index & border_mask, return_index=True, return_inverse=True)
    border_edges = _edge_numbers(n)[w, np.arange(n) != w]
    parents = _seidel(n - 1, bits[pfirst][:, ~at_w])  # relabeling keeps colex order
    borders = 1 - 2 * bits[bfirst][:, border_edges].astype(np.int8)
    return _Bordered(parents, borders, (pidx, bidx))


def _mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """Edge bits of uint64 edge masks: column e is bit e."""
    shifts = np.arange(n * (n - 1) // 2, dtype=np.uint64)
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


@dataclass
class _ChunkResult:
    # items are (position, value) pairs; the position is the graph's place in
    # the source's enumeration order, so the scan merges chunks by sorting
    count: int  # labeled graphs the chunk stands for
    min_energy: float
    min_position: int | None  # first graph attaining min_energy
    min_energy_graph6: str | None
    failure_reports: list  # report dicts
    equality_graph6: list  # graphs with |E_S - (2n-2)| <= tolerance
    # with collect_rows: a stream chunk's CSV lines in source order, or for an
    # orbit chunk its representatives' tails (see _render_tails, _OrbitRows)
    rows: str | np.ndarray | None


def _render_tails(n: int, columns: dict, checks) -> np.ndarray:
    """csv.writer's line of each row of one order but its graph6 cell, as a
    str object array: ",n,E_S,N_op", one min-margin cell per check and the
    line end, floats by repr.  columns maps "E_S", "N_op" and each check
    with a margin at order n to one value per row; a check without one gets
    a blank cell."""
    line = ",{}" * (3 + len(checks)) + _EOL
    cells = [repeat(n)]
    cells += [columns[k].tolist() if k in columns else repeat("") for k in ("E_S", "N_op", *checks)]
    return np.array(list(map(line.format, *cells)), dtype=object)


def _distinct_rows(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of a (B, K) array, and each
    row's number among them: coeffs[first][inverse] equals coeffs.  Exact
    for int64 and object rows alike: lexsort orders the rows by every
    column and neighbours are compared whole, so no hash is trusted; it is
    stable, so a group's first sorted row is its smallest index."""
    order = np.lexsort(coeffs.T)
    ranked = coeffs[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _by_charpoly(n: int, coeffs: np.ndarray, spectra: Callable, need: set):
    """(inverse, vals, sk, nop, sc) of a stack with exact Seidel char polys
    p(x) = det(xI - S) coeffs: spectra(rows) and whatever else need names of
    "sk", "nop" and "sc" (see evaluate) for the first row with each distinct
    p, and the index taking each row of the stack to its distinct row.

    Every checked quantity is a function of p: the spectrum is its roots,
    S_k(S^2) comes from its coefficients, N_op from ||S^2||_F^2, the sum of
    the fourth powers of the roots, and S is SC-equivalent to K_n iff p is
    (x + n - 1)(x - 1)^(n-1) or (x - n + 1)(x + 1)^(n-1).  So the first row
    with each polynomial stands for the others, and N_op and the SC flag
    are read off p, not off S."""
    # c_n = 1, c_(n-1) = 0 and c_(n-2) = -C(n,2) on every Seidel row
    first, inverse = _distinct_rows(coeffs[:, : max(1, n - 2)])
    coeffs = coeffs[first]
    sk = sk_from_charpoly(coeffs) if "sk" in need else None
    nop = _odd_pairs_of_charpoly(coeffs) if "nop" in need else None
    sc = _sc_of_charpoly(coeffs) if "sc" in need else None
    return inverse, spectra(first), sk, nop, sc


def _eval_chunk(spec, checks, p_grid, collect_rows=False) -> _ChunkResult:
    source, *part = spec
    count, stacks = source.stacks(*part)
    min_e, min_pos, min_g6 = np.inf, None, None
    failures: list[tuple[int, dict]] = []
    equality: list[tuple[int, str]] = []
    rows = "" if collect_rows else None  # a stream chunk's, if no line decodes
    streamed = []  # a stream's (slots, lines) per order
    for n, members, name, slots, quantities in stacks:
        # scan throughput path: batched LAPACK spectra, once per distinct
        # char poly and scattered back to every row; flagged graphs are
        # re-verified one by one through run_checks
        need = reads(n, checks) | ({"nop"} if collect_rows else set())
        inverse, vals, sk, nop, sc = quantities(need)
        fail = np.zeros(len(vals), dtype=bool)
        margins: dict[str, np.ndarray] = {}
        energy = None  # E_S, theorem2's lhs when theorem2 applies
        for check, (lhs, rhs, margin, passed) in evaluate(n, checks, p_grid, vals, sk, nop, sc):
            # a row holds one value per k or p: reduce over the few columns,
            # not along each short row
            fail |= ~reduce(np.logical_and, passed.T)
            margins[check] = reduce(np.minimum, margin.T).astype(float)
            if check == "theorem2":
                energy = lhs[:, 0]
            del lhs, rhs, margin, passed  # before the next check's arrays are built
        if energy is None:
            energy = p_energy(vals, 1.0)
        if collect_rows:  # one tail per distinct char poly, scattered to its rows
            tails = _render_tails(n, {"E_S": energy, "N_op": nop, **margins}, checks)[inverse]
            if slots is None:  # orbit representatives: see _OrbitRows
                rows = tails
            else:
                streamed.append((slots, name(*members(np.arange(len(slots)))) + tails))
        fail, energy = fail[inverse], energy[inverse]
        # the graphs a report names, expanded and named once: the minimum-energy
        # record (the first attaining graph by position), equality and failures
        e = float(energy.min())
        least, equal = energy == e, near_equality(n, energy)
        row, pos = members(np.flatnonzero(least | equal | fail))
        g6 = name(row, pos)
        k = np.flatnonzero(least[row])[np.argmin(pos[least[row]])]
        if (e, int(pos[k])) < (min_e, min_pos):
            min_e, min_pos, min_g6 = e, int(pos[k]), str(g6[k])
        equality.extend(zip(pos[equal[row]].tolist(), g6[equal[row]].tolist()))
        for position, text in zip(pos[fail[row]].tolist(), g6[fail[row]].tolist()):
            for rep in run_checks(parse_graph6(text), checks, p_grid):
                if not rep.passed:
                    failures.append((position, rep.as_dict()))
    if streamed:  # orders interleave: put the lines back in input order
        slots, lines = map(np.concatenate, zip(*streamed))
        rows = "".join(lines[np.argsort(slots)].tolist())
    return _ChunkResult(count, min_e, min_pos, min_g6, failures, equality, rows)


# ---------------------------------------------------------------------------
# scan driver


@dataclass
class ScanReport:
    """A scan's aggregate.  With collect_rows, csv_rows yields one CSV line
    per graph in source order, a block of lines at a time: graph6, n, E_S,
    N_op and one min-margin cell per check of checks, blank where the
    graph's order has no such margin.  A stream scan keeps each chunk's
    lines as its worker rendered them; an exhaustive or boundary scan keeps
    its representatives' lines without graph6 and puts each graph's graph6
    in front as they are written (see _OrbitRows).  A row's float cells
    (E_S and the energy margins) come from the first row in its chunk with
    the same Seidel characteristic polynomial, for an orbit source the
    first such orbit representative: equal to the graph's own in exact
    arithmetic, they may differ in the last digits (by at most 1.6e-14 over
    every graph at n <= 7, and 5.0e-14 over the boundary family, whose
    spectra come from its 6x6 quotients), which no verdict depends on.
    N_op and the exact margins are the graph's own."""

    source: str
    checks: tuple
    p_grid: tuple
    graphs_scanned: int
    total_failures: int
    failures: list
    min_energy_graph6: str | None
    min_energy: float
    equality_graph6: list
    wall_time: float | None = None
    csv_rows: Iterable[str] | None = field(default=None, repr=False)

    def as_dict(self, include_timing: bool = True) -> dict:
        d = {
            "source": self.source,
            "checks": list(self.checks),
            "p_grid": list(self.p_grid),
            "counts": {
                "graphs_scanned": self.graphs_scanned,
                "total_failures": self.total_failures,
                "equality_cases": len(self.equality_graph6),
            },
            "min_energy": {
                "graph6": self.min_energy_graph6,
                # no graph, no minimum: null, as JSON has no Infinity
                "value": self.min_energy if self.graphs_scanned else None,
            },
            "equality_graph6": self.equality_graph6,
            "failures": self.failures,
        }
        if include_timing:
            d["timing"] = {"wall_time_s": self.wall_time}
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.as_dict(include_timing), indent=2, sort_keys=True)

    def write_csv(self, fh, *more: ScanReport) -> None:
        """One row per graph, of this report and then of each of more, under
        one header: graph6, n, E_S, N_op and a margin column per check.  The
        reports must have collected rows and have the same checks."""
        reports = (self, *more)
        if any(r.csv_rows is None for r in reports):
            raise ValueError("scan was run without per-graph row collection")
        if any(r.checks != self.checks for r in more):
            raise ValueError("reports written under one CSV header must have the same checks")
        names = ["graph6", "n", "E_S", "N_op"] + [f"{c}_min_margin" for c in self.checks]
        fh.write(",".join(names) + _EOL)
        for r in reports:
            fh.writelines(r.csv_rows)


@dataclass(frozen=True, eq=False)
class _OrbitRows:
    """An orbit source's CSV lines, joined as they are iterated, _ROW_BLOCK
    graphs at a time in source order: each graph's graph6 in front of its
    orbit representative's tail, the rest of its line as the worker rendered
    it once per distinct characteristic polynomial (see _render_tails).  The
    source's member_block gives a block's edge bits and representative
    numbers."""

    source: _OrbitSource
    tails: np.ndarray  # str objects, indexed by representative number

    def __iter__(self):
        n, total = self.source.n, len(self.source)
        for lo in range(0, total, _ROW_BLOCK):
            bits, rep = self.source.member_block(lo, min(lo + _ROW_BLOCK, total))
            yield "".join((_graph6_lines(n, bits) + self.tails[rep]).tolist())


def _eval_chunk_star(args):
    return _eval_chunk(*args)


def _pooled(pool, args, in_flight: int):
    """Results of _eval_chunk_star over args, in order, from a pool that
    holds at most in_flight chunks: the next chunk is drawn from args only
    once a slot frees, so a stream is read as its chunks are evaluated."""
    pending = deque()
    try:
        for a in args:
            if len(pending) == in_flight:
                yield pending.popleft().result()
            pending.append(pool.submit(_eval_chunk_star, a))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def scan(
    source,
    checks=("theorem2",),
    p_grid=(1.0,),
    workers: int = 1,
    collect_rows: bool = False,
) -> ScanReport:
    """Run the selected checkers over every graph of the source.

    The pool has min(workers, CPU count) processes, and chunks are drawn
    from the source as it has room for them, at most twice that many at a
    time.  The aggregate (counts, failures, minimum-energy record, CSV rows)
    is identical for any worker count; wall time is the only field that
    varies.
    """
    checks, p_grid = tuple(checks), tuple(p_grid)
    validate(checks, p_grid)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    processes = min(workers, os.cpu_count() or 1)  # more than the CPUs only add forks
    t0 = time.monotonic()
    args = ((spec, checks, p_grid, collect_rows) for spec in source.chunk_specs())
    head = list(islice(args, 2))  # one chunk runs without a pool
    if processes == 1 or len(head) <= 1:
        results = [_eval_chunk_star(a) for a in chain(head, args)]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(_pooled(pool, chain(head, args), 2 * processes))
    count = sum(r.count for r in results)
    by_position = itemgetter(0)  # stable: one graph's reports keep their order
    failures = sorted((f for r in results for f in r.failure_reports), key=by_position)
    equality = sorted((g for r in results for g in r.equality_graph6), key=by_position)
    min_e, _, min_g6 = min(
        (
            (r.min_energy, r.min_position, r.min_energy_graph6)
            for r in results
            if r.min_position is not None  # a lenient stream chunk may decode nothing
        ),
        default=(np.inf, None, None),
        key=lambda t: t[:2],
    )
    csv_rows = source.csv_rows([r.rows for r in results]) if collect_rows else None
    return ScanReport(
        source=source.descriptor,
        checks=checks,
        p_grid=p_grid,
        graphs_scanned=count,
        total_failures=len(failures),
        failures=[f for _, f in failures[:FAILURE_CAP]],
        min_energy_graph6=min_g6,
        min_energy=float(min_e),
        equality_graph6=[g6 for _, g6 in equality],
        wall_time=time.monotonic() - t0,
        csv_rows=csv_rows,
    )
