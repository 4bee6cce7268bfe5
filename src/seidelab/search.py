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
chunk_specs gives chunks (source, *part): a range of orbit
representative numbers for the exhaustive source, of member indices for
the boundary family, line numbers and raw lines for a graph6 stream; a
worker's source.stacks(*part) turns one into stacks, each of which
expands rows to the graphs they stand for, with their positions and
graph6, and gives its checked quantities (see _Stack); and
source.csv_rows gives the scan's CSV rows.  Everything
checked derives from the kernels that also serve the per-graph functions:
Seidel matrices S, graph6 lines and edge bits from graphs, LAPACK
spectra, exact S_k(S^2) from exact characteristic polynomials
(spectral), and N_op and SC-equivalence to K_n, off those S_k where a
stack has them and otherwise off S (seidel).  This module keeps
only the sources, the driver and CSV rendering.  Graph objects appear
only for the flagged graphs run_checks re-verifies.

Every checked quantity (|spectrum|, S_k(A^2), N_op, SC-equivalence to K_n)
is invariant under Seidel switching, relabeling and complementation
(A -> -A).  The exhaustive source is scanned one orbit at a time: it
evaluates each switching-plus-complement orbit once, on the
representative with vertex 0 isolated and the last edge (n-2, n-1)
absent, and counts it with the orbit's size: 2^n labeled graphs for
n >= 3, 2^(n-1) below.  The boundary family's rows are its members, and
each reaches its polynomial through its orbit's representative under
switching on the apexes, the orbit's least member (see _boundary_table),
so only the quotients of the representatives a chunk meets are expanded.
Within a chunk, the rows are grouped by their exact Seidel characteristic
polynomial, of which every checked quantity is a function (see
_by_charpoly): spectra, S_k, N_op, the SC flag and the checks run once
per distinct polynomial, on the first row that has it, and are scattered
back to every row (n = 7 has 53 distinct polynomials for its 16,384
representatives).  An exhaustive
row factors as a parent P, S without one vertex w, and a border
v = S[w, != w], both read off bit fields of its representative number
with no sort over rows (see _bordered).  Its polynomial is
x p_P(x) - v^T adj(xI - P) v, exact as the kernel's own products are.
Relabeling P and v together keeps the polynomial, so the exact kernel
runs once per parent class up to relabeling, times each relabeled border:
90 classes of the 1,024 parents for the 16,384 rows at n = 7, 34 to 148
per 2^15-row chunk at n = 8.  Those candidate polynomials, not the rows,
are grouped, and each row reaches its group through its (class, border)
number.  A stream chunk is grouped so only when its checks read S_k.

The boundary family is one 6-cell signed type (see _boundary_type), its
edge bits, quotient Q and symmetrized Q built by shared kernels
(graphs._blow_up_bits, spectral._quotients).  det(xI - S) = (x - 1)^(n-6)
det(xI - Q) stays factored: a stack is grouped by det(xI - Q), taken once
per representative and reached by each member through its representative
as an exhaustive row reaches its (class, border) candidate; S_k is read
off it and the n - 6 ones, N_op and the SC flag off S_k, and the spectrum
is the symmetrized Q's and those ones.  So no exact kernel runs, eigvalsh
sees 6x6 matrices only, and no S is built.

Only what a report names (equality graphs, failures, the minimum-energy
witness) is named, an exhaustive row expanded back to its orbit's
members, in one members call per stack, keyed by its position in the
source's enumeration order (the labeled edge mask for the exhaustive
source, the parameter index for the boundary family, the line number for
a stream) and merged in that order; each stack's least-energy graph is
merged by the scan alone.

CSV rows, when collected, come from every chunk in source order, so the
scan only joins them.  A row's cells but graph6 are functions of its char
poly, so a worker renders that tail of the line once per distinct poly
(see _render_tails).  A stream or boundary chunk, whose rows are its
graphs, returns its lines as text, graph6 put in front of each tail; an
exhaustive chunk returns its representatives' tails, and write_csv puts
each labeled graph's graph6 in front of its representative's tail as the
line is written, formatting no number.  Chunk boundaries do
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
from itertools import chain, islice, permutations, repeat
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .graphs import (
    ASCII_WHITESPACE,
    Graph,
    Graph6Error,
    _blow_up_bits,
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
from .seidel import _odd_pairs, _odd_pairs_of_sk, _sc_of_sk, _sc_to_complete, _switch
from .spectral import _charpoly_f64, _quotients, charpoly_batch_i64, p_energy, sk_from_charpoly
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


def _range_chunks(source, total: int) -> list:
    """Chunks (source, lo, hi) of the numbers 0..total-1, CHUNK_SIZE each."""
    return [(source, lo, min(lo + CHUNK_SIZE, total)) for lo in range(0, total, CHUNK_SIZE)]


@dataclass(frozen=True)
class AllGraphs:
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

    def chunk_specs(self):
        """Chunks of representative numbers, CHUNK_SIZE representatives each."""
        return _range_chunks(self, 1 << len(_free_edges(self.n)))

    def csv_rows(self, tails: list) -> _OrbitRows:
        """The scan's CSV lines from its chunks' representative tails."""
        return _OrbitRows(self, np.concatenate(tails))

    def stacks(self, start: int, stop: int) -> tuple[int, list[_Stack]]:
        """The labeled graphs representatives start..stop-1 stand for, and their stack."""
        n, offsets = self.n, _orbit_offsets(self.n)

        def members(rows):  # positions are edge masks
            masks = (_class_masks(n, rows + start)[:, None] ^ offsets).ravel()
            return np.repeat(rows, len(offsets)), masks, _graph6_lines(n, _mask_bits(n, masks))

        def quantities(need):
            parents, borders, candidate = _bordered(n, start, stop)
            coeffs = charpoly_batch_i64(parents, borders).reshape(-1, n + 1)

            def spectra(rows):
                return np.linalg.eigvalsh(_seidel(n, _mask_bits(n, _class_masks(n, rows + start))))

            return _by_charpoly(coeffs, candidate, 0, spectra, need)

        return (stop - start) * len(offsets), [_Stack(n, members, None, quantities)]


@dataclass(frozen=True)
class BoundaryFamily:
    """Graphs that are a clique on n-2 vertices plus two apex vertices.

    Parameterized by (a, b, c, e): the apex clique-neighborhood sizes a >= b,
    their overlap c, and the apex-apex edge flag: one 6-cell signed type,
    the clique's cells laid out first (see _boundary_type).  Its chunks are
    ranges of members in parameter order.  A member's polynomial is that of
    its orbit's representative under switching on the apexes (see
    _boundary_table), so a chunk expands only its representatives'
    quotients, and members sharing a polynomial are evaluated once.
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
        rows: apex v1 = n-2 sees [0, a), v2 = n-1 sees [0, c) and [a, a+b-c)."""
        return _blow_up_bits(self.n, *_boundary_type(self.n, params))

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

    def chunk_specs(self):
        """Chunks of parameter indices, CHUNK_SIZE members each."""
        return _range_chunks(self, len(self))

    def stacks(self, start: int, stop: int) -> tuple[int, list[_Stack]]:
        """Members start..stop-1 and their stack."""
        n, table = self.n, _boundary_table(self.n)
        params = table.params[start:stop]

        def members(rows):  # positions are parameter indices
            return rows, start + rows, _graph6_lines(n, self.edge_bits(params[rows]))

        def quantities(need):
            # each member reaches its polynomial through its representative
            reps, candidate = np.unique(table.rep[start:stop], return_inverse=True)
            signs, sizes = _boundary_type(n, table.params[reps])

            def spectra(rows):  # S's spectrum is its representative quotient's and n - 6 ones
                q = _quotients(signs[candidate[rows]], sizes[candidate[rows]], symmetrized=True)
                vals = np.linalg.eigvalsh(q)
                return np.sort(np.concatenate([vals, np.ones((len(vals), n - 6))], axis=1), axis=1)

            # q, det(xI - S) = (x - 1)^(n-6) q
            polys = _charpoly_f64(_quotients(signs, sizes))
            return _by_charpoly(polys, candidate, n - 6, spectra, need)

        return stop - start, [_Stack(n, members, np.arange(stop - start), quantities)]

    def csv_rows(self, lines: list) -> list:
        """The scan's CSV lines: its chunks' text, as the workers wrote it."""
        return lines


class _BoundaryTable(NamedTuple):
    params: np.ndarray  # (a, b, c, e) of every member, in source order
    rep: np.ndarray  # each member's representative, its orbit's least parameter index


@lru_cache(maxsize=None)
def _boundary_table(n: int) -> _BoundaryTable:
    """The boundary family's members and their switching orbits.

    Switching on apex v1 maps (a, b, c, e) to (m-a, b, b-c, 1-e), on apex v2
    to (a, m-b, a-c, 1-e), and on both to (m-a, m-b, m-a-b+c, e), m = n-2;
    swapping the apexes then restores a >= b.  Each image is a member up to
    a relabeling of the clique, and the four images of a member are its
    whole orbit.  An orbit's representative is its least parameter index, so
    it is the orbit's first member in source order.
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
    return _BoundaryTable(params, index[high, low, images[:, 2], images[:, 3]].min(axis=0))


# Seidel signs between the boundary type's cells, one 6x6 table per e: the
# clique's cells seen by both apexes, by v1 = n-2 only, by v2 = n-1 only and
# by neither, then v1 and v2.  Every cell is a clique and every pair joined,
# sigma = -1, but a clique cell and an apex that misses it, and the apexes
# when e = 0: sigma_45 = 1 - 2e
_BOUNDARY_SIGNS = np.full((2, 6, 6), -1.0)
# (cell, apex) = (1, 5), (2, 4), (3, 4) and (3, 5), and their transposes
_BOUNDARY_SIGNS[:, [1, 2, 3, 3, 5, 4, 4, 5], [5, 4, 4, 5, 1, 2, 3, 3]] = 1
_BOUNDARY_SIGNS[0, [4, 5], [5, 4]] = 1


# the cells' sizes (c, a-c, b-c, m-a-b+c, 1, 1), m = n-2, are (a, b, c, e)
# times this plus (0, 0, 0, m, 1, 1)
_BOUNDARY_SIZES = np.array([[0, 1, 0, -1, 0, 0], [0, 0, 1, -1, 0, 0], [1, -1, -1, 1, 0, 0], [0] * 6])


def _boundary_type(n: int, params) -> tuple[np.ndarray, np.ndarray]:
    """The signed cell type, (B, 6, 6) signs and (B, 6) sizes, of the members
    with the given (a, b, c, e) rows: the clique's four cells, then one cell
    per apex, with the signs _BOUNDARY_SIGNS[e]."""
    params = np.asarray(params, dtype=np.int64).reshape(-1, 4)
    return _BOUNDARY_SIGNS[params[:, 3]], params @ _BOUNDARY_SIZES + (0, 0, 0, n - 2, 1, 1)


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

            def members(rows, index=index, width=width):  # positions are line numbers
                lines = codes[starts[index[rows], None] + np.arange(width)]
                return rows, linenos[index[rows]], lines.view(f"S{width}").ravel().astype(str)

            def quantities(need, n=n, bits=bits):
                s = _seidel(n, bits)  # one order's S at a time
                if "sk" in need:  # grouped, as an orbit stack is
                    coeffs = charpoly_batch_i64(s)
                    rows = np.arange(len(s))
                    return _by_charpoly(coeffs, rows, 0, lambda r: np.linalg.eigvalsh(s[r]), need)
                nop = _odd_pairs(s) if "nop" in need else None
                sc = _sc_to_complete(s) if "sc" in need else None
                return slice(None), np.linalg.eigvalsh(s), None, nop, sc

            stacks.append(_Stack(n, members, index, quantities))
        return sum(len(index) for _, index, _ in decoded), stacks

    def csv_rows(self, lines: list) -> list:
        """The scan's CSV lines: its chunks' text, as the workers wrote it."""
        return lines


# ---------------------------------------------------------------------------
# chunks as stacks
#
# A source's stacks(*part) turns its chunk into, per order n, a stack of
# rows with two functions: members(rows) gives the graphs the given rows
# stand for as (row, position, graph6) arrays, graph6 as str, and
# quantities(need) the checked quantities, of one row per distinct char
# poly where the polynomials are known (see _by_charpoly).  An exhaustive
# stack's rows are orbit representatives, each standing for many graphs,
# with exact char polys from parent times border (see _bordered).  A
# boundary stack's rows are its members, with exact char polys from the
# equitable quotients of their orbits' representatives, kept as the
# quotient's polynomial and n - 6 ones (see _boundary_type).  A stream
# stack's rows are its graphs, named by their own lines.  A boundary or
# stream stack's slots are its rows' places in the chunk's CSV text.


class _Bordered(NamedTuple):
    parents: np.ndarray  # (K, n-1, n-1) int8 canonical Seidel matrices without vertex w
    borders: np.ndarray  # (C, n-1) int8 relabeled rows S[w, != w]
    rows: np.ndarray  # each row's (class, border) number, class * C + border


class _Stack(NamedTuple):
    n: int
    members: Callable[[np.ndarray], tuple]  # rows -> (row, position, graph6)
    slots: np.ndarray | None  # rows' line indices in the chunk; None: exhaustive
    quantities: Callable[[set], tuple]  # need -> (inverse, vals, sk, nop, sc)


@lru_cache(maxsize=None)
def _free_edges(n: int) -> tuple[int, ...]:
    """Edge numbers a representative may set: not at vertex 0, and not the
    last edge (n-2, n-1), which complementation normalizes to absent."""
    return tuple(np.flatnonzero(_endpoints(n)[0])[:-1].tolist())


def _class_masks(n: int, numbers: np.ndarray) -> np.ndarray:
    """Edge masks of the representatives with the given numbers: bit b of
    the number becomes free edge b."""
    free = np.array(_free_edges(n), dtype=np.uint64)
    bits = np.asarray(numbers, dtype=np.uint64)[:, None] >> np.arange(len(free), dtype=np.uint64)
    return ((bits & np.uint64(1)) << free).sum(axis=1, dtype=np.uint64)


@lru_cache(maxsize=None)
def _orbit_offsets(n: int) -> np.ndarray:
    """Read-only XOR masks taking a representative to each member of its
    orbit: switching on every subset of vertices 1..n-1, with and without the
    complement for n >= 3 (for n <= 2 the complement is itself a switch)."""
    w = np.arange(0, 1 << n, 2)[:, None] >> np.arange(n) & 1  # subsets leaving vertex 0 alone
    cuts = _switch(n, np.zeros((1, n * (n - 1) // 2), dtype=np.uint64), w.astype(np.uint64))
    if n >= 3:
        cuts = np.concatenate([cuts, cuts ^ np.uint64(1)])
    offsets = (cuts << np.arange(cuts.shape[1], dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    offsets.flags.writeable = False
    return offsets


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


@lru_cache(maxsize=None)
def _parent_relabelings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group G under which _bordered merges the parents at order n:
    every permutation of the parent's vertices 1..k, k = min(n-3, 5), the
    vertices below w whose edge to w is free (vertices keep their numbers
    below w), fixing the others.  Returns G as a read-only (|G|, n-1) array
    perms, vertex u of a relabeled parent being vertex perms[g, u] as in
    graphs._relabel, and the read-only (C(n-1,2), |G|) float64 table of
    2^e' at row e, column g, where relabeling by perms[g] moves edge e to
    edge e'; so a stack of parent edge bits times the table gives the edge
    mask of every relabeling, exactly, as C(n-1,2) <= 28 < 53.  Last, the
    read-only (|G|, 2^k) table of each border number (bit u-1 is vertex u;
    see _bordered) relabeled by perms[g]."""
    m, k = n - 1, max(0, min(n - 3, 5))
    perms = np.tile(np.arange(m), (factorial(k), 1))
    perms[:, 1 : k + 1] = list(permutations(range(1, k + 1)))
    i, j = _endpoints(m)
    moved = _edge_numbers(m)[perms[:, i], perms[:, j]]  # [g, e']: the edge e moved to e'
    table = np.zeros((len(i), len(perms)))
    table[moved, np.arange(len(perms))[:, None]] = 2.0 ** np.arange(len(i))
    bits = np.arange(1 << k)[None, :, None] >> perms[:, None, 1 : k + 1] - 1 & 1
    borders = (bits << np.arange(k)).sum(axis=2)
    perms.flags.writeable = table.flags.writeable = borders.flags.writeable = False
    return perms, table, borders


def _canonical_parents(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each parent's canonical key, the least edge mask over its relabelings
    by G (see _parent_relabelings), as int64, and the number in G of the
    first relabeling attaining it, for a stack of parent edge bits."""
    table = _parent_relabelings(n)[1]
    masks = bits @ table
    g = masks.argmin(axis=1)
    return masks[np.arange(len(g)), g].astype(np.int64), g


def _bordered(n: int, start: int, stop: int) -> _Bordered:
    """The representatives numbered start..stop-1 as parent times border at
    the vertex w = min(n-1, 6), merged up to relabeling: the parent is S
    without w, the border v = S[w, != w], and S is [[parent, v], [v^T, 0]]
    up to moving w last.

    Both are bit fields of the representative number, so no sort runs over
    the rows: its free edges (u, w), u = 1..k, k = min(n-3, 5), are bits
    low..low+k-1, the border number, and the rest, moved down to close the
    gap, is the parent number.  Relabeling P and v by one permutation gives
    a matrix similar to [[P, v], [v^T, 0]], so each parent of the dense
    range of parent numbers the rows span is taken to its class's canonical
    form under G (see _parent_relabelings), and each row reads its number
    off a (parent, border) table, its border relabeled by its parent's
    permutation.  The parents returned are the canonical forms (a class no
    row reaches is dropped by _by_charpoly), the borders the 2^k border
    numbers times each value, up to the largest, of the edges (w, v), v > w,
    that G fixes and the parent number keeps (none below n = 9), and a
    row's number is class * len(borders) + border, a position in the
    kernel's (class, border) grid: 90 classes of 1,024 parents times 16
    borders for a whole order at n = 7, and 34 to 148 classes times 32
    borders for a 2^15-aligned chunk at n = 8."""
    w, k = min(n - 1, 6), max(0, min(n - 3, 5))
    low, relabeled = (w - 1) * (w - 2) // 2, _parent_relabelings(n)[2]  # C(w-1, 2) in 1..w-1
    number = np.arange(start, stop)
    # parent number << k | border number, then the parent numbers spanned
    index = (number >> low + k << low | number & (1 << low) - 1) << k | number >> low & (1 << k) - 1
    spanned = np.arange(index.min() >> k, (index.max() >> k) + 1)
    index -= spanned[0] << k  # each row's place in the (parent, border) table
    # the parents spanned, as the representatives with border number 0
    bits = _mask_bits(n, _class_masks(n, spanned >> low << low + k | spanned & (1 << low) - 1))
    at_w = _edge_numbers(n)[w, np.arange(n) != w]  # edges (w, u) in the order of u
    keys, g = _canonical_parents(n, np.delete(bits, at_w, axis=1))  # colex order kept
    keys, cls = np.unique(keys, return_inverse=True)
    extra = bits[:, at_w[w:]] @ (1 << np.arange(n - 1 - w))  # edges (w, v), v > w: none below n = 9
    grid = (cls * (extra.max() + 1) + extra)[:, None] << k | relabeled[g]  # [parent, border]
    codes = (np.arange(extra.max() + 1)[:, None] << w | np.arange(1 << k) << 1).ravel()
    parent_bits = keys[:, None] >> np.arange((n - 1) * (n - 2) // 2) & 1
    border_signs = 1 - 2 * (codes[:, None] >> np.arange(n - 1) & 1)
    return _Bordered(_seidel(n - 1, parent_bits), border_signs.astype(np.int8), grid.ravel()[index])


def _mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """Edge bits of uint64 edge masks: column e is bit e."""
    shifts = np.arange(n * (n - 1) // 2, dtype=np.uint64)
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


@dataclass
class _ChunkResult:
    # items are (position, value) pairs, and minima (E_S, position, graph6)
    # triples; the position is the graph's place in the source's enumeration
    # order, so the scan merges chunks by sorting, and takes the least minimum
    count: int  # labeled graphs the chunk stands for
    minima: list  # per stack, its least E_S at the first graph attaining it
    failure_reports: list  # report dicts
    equality_graph6: list  # graphs with |E_S - (2n-2)| <= tolerance
    # with collect_rows: a stream or boundary chunk's CSV lines in source
    # order, or for an exhaustive chunk its representatives' tails (see
    # _render_tails, _OrbitRows)
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


def _by_charpoly(coeffs: np.ndarray, rows: np.ndarray, ones: int, spectra: Callable, need: set):
    """(inverse, vals, sk, nop, sc) of a stack with exact Seidel char polys
    p(x) = det(xI - S) = (x - 1)^ones q(x): q is given by the coefficients
    of candidate polynomials coeffs and, for each row of the stack, the
    index rows of its candidate (the identity where each row has its own).
    Returns spectra(first rows), and S_k, N_op and the SC flag when need
    names any of "sk", "nop" and "sc" (see evaluate), for the first row
    with each distinct p, and the index taking each row of the stack to its
    distinct p.

    Every checked quantity is a function of p: the spectrum is its roots,
    and S_k(S^2) comes from its coefficients, which give N_op through
    ||S^2||_F^2 = S_1^2 - 2 S_2 and the SC flag as the S_k of the squared
    spectrum (n-1)^2, 1, ..., 1.  So the first row with each polynomial
    stands for the others, and whenever the stack needs S_k, N_op or the SC
    flag, sk_from_charpoly runs once and the other two are read off its S_k,
    not off S.  With ones fixed over the stack q determines p, so the
    candidates, not the rows, are grouped by q, and only sk_from_charpoly
    takes ones: p is never multiplied out.  A polynomial no row reaches is
    dropped."""
    # p's c_n = 1, c_(n-1) = 0 and c_(n-2) = -C(n,2) fix q's top three
    first, group = _distinct_rows(coeffs[:, : max(1, coeffs.shape[1] - 3)])
    group = group[rows]
    lead = np.full(len(first), len(rows))  # each group's first row
    np.minimum.at(lead, group, np.arange(len(rows)))
    reached = lead < len(rows)
    sk = nop = sc = None
    if need & {"sk", "nop", "sc"}:
        sk = sk_from_charpoly(coeffs[first[reached]], ones)
        nop, sc = _odd_pairs_of_sk(sk), _sc_of_sk(sk)
    return (np.cumsum(reached) - 1)[group], spectra(lead[reached]), sk, nop, sc


def _eval_chunk(spec, checks, p_grid, collect_rows=False) -> _ChunkResult:
    source, *part = spec
    count, stacks = source.stacks(*part)
    minima: list[tuple[float, int, str]] = []
    failures: list[tuple[int, dict]] = []
    equality: list[tuple[int, str]] = []
    rows = "" if collect_rows else None  # a stream chunk's, if no line decodes
    streamed = []  # a stream's (slots, lines) per order
    for n, members, slots, quantities in stacks:
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
            if slots is None:  # exhaustive representatives: see _OrbitRows
                rows = tails
            else:
                streamed.append((slots, members(np.arange(len(slots)))[2] + tails))
        fail, energy = fail[inverse], energy[inverse]
        # the graphs a report names, expanded and named once: the minimum-energy
        # record (the first attaining graph by position), equality and failures
        e = float(energy.min())
        least, equal = energy == e, near_equality(n, energy)
        row, pos, g6 = members(np.flatnonzero(least | equal | fail))
        k = np.flatnonzero(least[row])[np.argmin(pos[least[row]])]
        minima.append((e, int(pos[k]), str(g6[k])))
        equality.extend(zip(pos[equal[row]].tolist(), g6[equal[row]].tolist()))
        for position, text in zip(pos[fail[row]].tolist(), g6[fail[row]].tolist()):
            for rep in run_checks(parse_graph6(text), checks, p_grid):
                if not rep.passed:
                    failures.append((position, rep.as_dict()))
    if streamed:  # orders interleave: put the lines back in input order
        slots, lines = map(np.concatenate, zip(*streamed))
        rows = "".join(lines[np.argsort(slots)].tolist())
    return _ChunkResult(count, minima, failures, equality, rows)


# ---------------------------------------------------------------------------
# scan driver


@dataclass
class ScanReport:
    """A scan's aggregate.  With collect_rows, csv_rows yields one CSV line
    per graph in source order, a block of lines at a time: graph6, n, E_S,
    N_op and one min-margin cell per check of checks, blank where the
    graph's order has no such margin.  A stream or boundary scan keeps each
    chunk's lines as its worker rendered them; an exhaustive scan keeps its
    representatives' lines without graph6 and puts each graph's graph6 in
    front as they are written (see _OrbitRows).  A row's float cells (E_S
    and the energy margins) come from the first row in its chunk with the
    same Seidel characteristic polynomial, for the exhaustive source the
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
    """An exhaustive scan's CSV lines, joined as they are iterated,
    _ROW_BLOCK labeled graphs at a time in edge-mask order: each graph's
    graph6 in front of its orbit representative's tail, the rest of its line
    as the worker rendered it once per distinct characteristic polynomial
    (see _render_tails)."""

    source: AllGraphs
    tails: np.ndarray  # str objects, indexed by representative number

    def __iter__(self):
        n, total = self.source.n, len(self.source)
        for lo in range(0, total, _ROW_BLOCK):
            bits = _mask_bits(n, np.arange(lo, min(lo + _ROW_BLOCK, total), dtype=np.uint64))
            yield "".join((_graph6_lines(n, bits) + self.tails[_representatives(n, bits)]).tolist())


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
    checks, p_grid = validate(checks, p_grid)
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be at least 1, as an integer, not {workers!r}")
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
    # positions are distinct, so the least (E_S, position) decides
    min_e, _, min_g6 = min((m for r in results for m in r.minima), default=(np.inf, None, None))
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
