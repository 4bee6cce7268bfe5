"""Graph sources and the scan driver.

Sources: every labeled graph for n <= 8, the two-apex-over-a-clique
boundary family for 11 <= n <= 22, and graph6 line streams for externally
generated corpora.  The scan driver fans fixed-size chunks out to a worker
pool, where verify.evaluate checks its stacks, and re-runs run_checks on
anything the batch path flags, so failure reports carry exact integers.
Chunks are drawn from the source only as the pool has room, at most two
per worker in flight, so a graph6 stream is read line by line, one chunk
at a time, while its first chunks are evaluated.

Every chunk has one format: per order n, a stack of edge bits in graph6
order, which a worker builds itself (the exhaustive and boundary sources
ship index ranges, a graph6 stream ships its raw lines, which the graph6
decoder of graphs validates and decodes).  Everything checked derives
from the stack, through the kernels that also serve the per-graph functions:
Seidel matrices S and graph6 lines from graphs, LAPACK spectra, exact
S_k(S^2) from the multi-modular characteristic polynomials of S itself
(spectral), and the odd-pair count N_op from ||S^2||_F and SC-equivalence
to K_n from a sign test on S (seidel).  S is the one matrix stack.
This module keeps only the sources, the driver and CSV rendering.  Graph
objects appear only for the flagged graphs run_checks re-verifies.

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
checked quantity is a function (see _stack_quantities): spectra, S_k,
N_op, the SC flag and the checks run once per distinct polynomial, on the
first row that has it, and are scattered back to every row (n = 7 has 53
distinct polynomials for its 16,384 representatives).  A stream chunk is
grouped the same way when its checks read S_k, and otherwise evaluates
every row.  Only what a report names (equality graphs, failures, the
minimum-energy witness) is expanded back to the orbit's members, keyed by
its position in the source's enumeration order (the labeled edge mask for
the exhaustive source, the parameter index for the boundary family, the
line number for a stream) and merged in that order.

CSV rows, when collected, come from every chunk in source order, so the
scan only joins them: a stream chunk returns its lines as text rendered in
the worker, and an orbit chunk its representatives' columns, from which
write_csv renders each graph's line as it is written, mapping the graph to
its representative.  Chunk boundaries do not depend on the worker count,
so aggregate reports and CSV output are reproducible byte for byte.
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
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .graphs import (
    ASCII_WHITESPACE,
    Graph,
    Graph6Error,
    _decode_graph6,
    _endpoints,
    _graph6_lines,
    _graph_of_bits,
    _seidel,
    parse_graph6,
)
# unused here; kept importable as seidelab.search.<name> for bench/tracing.py
from .graphs import encode_graph6  # noqa: F401
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete  # noqa: F401
from .seidel import _odd_pairs, _sc_to_complete
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


@dataclass(frozen=True)
class AllGraphs:
    """Every labeled graph on n vertices, in edge-mask order.

    Its chunks hold switching-plus-complement orbit representatives (see the
    module docstring); a scan counts and reports labeled graphs all the same.
    """

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= ENUM_MAX_N:
            raise ValueError(
                f"exhaustive enumeration supports n <= {ENUM_MAX_N}; "
                "use a graph6 stream for larger orders"
            )

    @property
    def descriptor(self) -> str:
        return f"all(n={self.n})"

    def __len__(self) -> int:
        return 1 << (self.n * (self.n - 1) // 2)

    def __iter__(self):
        for mask in range(len(self)):
            yield Graph.from_edge_mask(self.n, mask)

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        """Chunks of representative indices, chunk_size representatives each."""
        total = 1 << len(_free_edges(self.n))
        return [
            ("classes", self.n, start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        ]

    def member_block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Edge bits and representative numbers of edge masks start..stop-1."""
        bits = _mask_bits(self.n, np.arange(start, stop, dtype=np.uint64))
        return bits, _representatives(self.n, bits)


@dataclass(frozen=True)
class BoundaryFamily:
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
        if not BOUNDARY_MIN_N <= self.n <= BOUNDARY_MAX_N:
            raise ValueError(
                f"boundary family covers n in {BOUNDARY_MIN_N}..{BOUNDARY_MAX_N}"
            )

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
        return _graph_of_bits(self.n, self.edge_bits([(a, b, c, e)]))

    def __len__(self) -> int:
        return len(_boundary_table(self.n).params)

    def __iter__(self):
        for a, b, c, e in self.params():
            yield self.graph_for(a, b, c, e)

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        """Chunks of representative numbers, chunk_size representatives each."""
        total = len(_boundary_table(self.n).reps)
        return [
            ("boundary", self.n, start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        ]

    def member_block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Edge bits and representative numbers of members start..stop-1."""
        table = _boundary_table(self.n)
        return self.edge_bits(table.params[start:stop]), table.rep[start:stop]


class _BoundaryTable(NamedTuple):
    params: np.ndarray  # (a, b, c, e) of every member, in source order
    rep: np.ndarray  # each member's representative number
    reps: np.ndarray  # parameter index of each representative, ascending


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
    return _BoundaryTable(params, rep, reps)


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

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        """Chunks of chunk_size nonblank lines, read from the file only as
        the scan takes each chunk: their line numbers and their stripped
        text, each line ended by a newline, as latin-1 bytes.  Workers
        decode and validate."""
        numbered = self._lines()
        while True:
            linenos, lines = [], []  # flat lists: a list of pairs doubles the peak memory
            for lineno, line in islice(numbered, chunk_size):
                linenos.append(lineno)
                lines.append(line)
            if not lines:
                return
            text = "\n".join(lines) + "\n"
            yield ("graph6", np.array(linenos, dtype=np.int64), text.encode("latin-1"), self.strict)


# ---------------------------------------------------------------------------
# chunks as edge-bit stacks
#
# Every chunk becomes, per order n, a (B, C(n,2)) uint8 stack of edge bits
# in graph6 order plus two functions naming its rows: members(rows) gives
# the graphs each row stands for as (row, position) arrays, and
# name(rows, positions) their graph6 as a str array.  A stream stack also
# gives its rows' slots, their line indices within the chunk; an orbit
# stack has none, its rows standing for many graphs.


class _Stack(NamedTuple):
    n: int
    bits: np.ndarray
    members: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: Callable[[np.ndarray, np.ndarray], np.ndarray]
    slots: np.ndarray | None


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
    w = np.arange(0, 1 << n, 2, dtype=np.uint64)[:, None]  # subsets leaving vertex 0 alone
    i, j = (v.astype(np.uint64) for v in _endpoints(n))
    cut = (w >> i ^ w >> j) & np.uint64(1)  # edge e is cut iff one endpoint is in w
    cuts = (cut << np.arange(len(i), dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    if n >= 3:
        cuts = np.concatenate([cuts, cuts ^ np.uint64((1 << len(i)) - 1)])
    return cuts


def _representatives(n: int, bits: np.ndarray) -> np.ndarray:
    """The representative number of each labeled graph of a stack, the
    inverse of _class_masks and _orbit_offsets: switching on vertex 0's
    neighbourhood isolates vertex 0, complementing the edges among 1..n-1
    clears the last edge if it is then present, and the free edges' bits
    spell the number."""
    i, j = _endpoints(n)
    w = np.zeros((len(bits), n), dtype=np.uint8)  # the switched vertices
    w[:, j[i == 0]] = bits[:, i == 0]
    rep = bits ^ w[:, i] ^ w[:, j]
    rep ^= rep[:, -1:] & (i > 0)
    free = _free_edges(n)
    return (rep[:, free].astype(np.int64) << np.arange(len(free))).sum(axis=1)


def _mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """Edge bits of uint64 edge masks: column e is bit e."""
    shifts = np.arange(n * (n - 1) // 2, dtype=np.uint64)
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _stacks(spec) -> tuple[int, list[_Stack]]:
    """The labeled graphs a chunk stands for, and its stacks."""
    if spec[0] == "classes":
        _, n, start, stop = spec
        masks = _class_masks(n, start, stop)
        offsets = _orbit_offsets(n)

        def members(rows):
            return np.repeat(rows, len(offsets)), (masks[rows, None] ^ offsets).ravel()

        def name(rows, positions):
            return _graph6_lines(n, _mask_bits(n, positions))

        count = (stop - start) * len(offsets)
        return count, [_Stack(n, _mask_bits(n, masks), members, name, None)]
    if spec[0] == "boundary":
        _, n, start, stop = spec
        family = BoundaryFamily(n)
        table = _boundary_table(n)

        def members(rows):
            positions = np.flatnonzero(np.isin(table.rep, rows + start))
            return table.rep[positions] - start, positions

        def name(rows, positions):
            return _graph6_lines(n, family.edge_bits(table.params[positions]))

        count = int(np.count_nonzero((table.rep >= start) & (table.rep < stop)))
        bits = family.edge_bits(table.params[table.reps[start:stop]])
        return count, [_Stack(n, bits, members, name, None)]
    _, linenos, text, strict = spec
    codes = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    decoded, rejected = _decode_graph6(codes, starts, ends - starts)
    if strict and rejected:  # lenient mode skips rejected lines
        raise Graph6StreamError(f"line {linenos[rejected[0][0]]}: {rejected[0][1]}")
    stacks = []
    for n, index, bits in decoded:
        # a decoded line re-encodes to itself: the decoder rejects any other
        stacks.append(
            _Stack(
                n,
                bits,
                lambda rows, index=index: (rows, linenos[index[rows]]),
                lambda rows, positions, n=n, bits=bits: _graph6_lines(n, bits[rows]),
                index,
            )
        )
    return sum(len(st.bits) for st in stacks), stacks


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
    # orbit chunk its representatives' columns (see _render_rows and _OrbitRows)
    rows: str | dict | None


def _render_rows(n: int, graph6: np.ndarray, columns: dict, checks):
    """csv.writer's line for each graph of one order, lazily: graph6, n,
    E_S, N_op and one min-margin cell per check, floats by repr.  columns
    maps "E_S", "N_op" and each check with a margin at order n to one value
    per graph; a check without one gets a blank cell."""
    line = ",".join(["{}"] * (4 + len(checks))) + _EOL
    cells = [graph6.tolist(), repeat(n)]
    cells += [columns[k].tolist() if k in columns else repeat("") for k in ("E_S", "N_op", *checks)]
    return map(line.format, *cells)


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


def _stack_quantities(n: int, bits: np.ndarray, need: set, orbit: bool):
    """(inverse, vals, sk, nop, sc): the spectra and whatever else need
    names of "sk", "nop" and "sc" (see evaluate), for one row per distinct
    Seidel characteristic polynomial p(x) = det(xI - S), and the index
    taking each row of the stack to its distinct row.

    Every checked quantity is a function of p: the spectrum is its roots,
    S_k(S^2) comes from its coefficients, N_op from ||S^2||_F^2, the sum of
    the fourth powers of the roots, and S is SC-equivalent to K_n iff p is
    (x + n - 1)(x - 1)^(n-1) or (x - n + 1)(x + 1)^(n-1).  So the first row
    with each polynomial stands for the others.  Orbit stacks, whose rows
    repeat few polynomials, and stacks whose checks read S_k compute the
    polynomials and group by them; any other stack has one group per row,
    and inverse is then a slice, which scatters at no cost."""
    s = _seidel(n, bits)
    coeffs = charpoly_batch_i64(s) if orbit or "sk" in need else None
    if coeffs is None:
        inverse = slice(None)
    else:
        first, inverse = _distinct_rows(coeffs)
        s, coeffs = s[first], coeffs[first]
    vals = np.linalg.eigvalsh(s)
    sk = sk_from_charpoly(coeffs) if "sk" in need else None
    nop = _odd_pairs(s) if "nop" in need else None
    sc = _sc_to_complete(s) if "sc" in need else None
    return inverse, vals, sk, nop, sc


def _eval_chunk(spec, checks, p_grid, collect_rows=False) -> _ChunkResult:
    count, stacks = _stacks(spec)
    min_e = np.inf
    min_pos = None
    min_g6 = None
    failures: list[tuple[int, dict]] = []
    equality: list[tuple[int, str]] = []
    rows = None
    lines = [""] * len(spec[1]) if collect_rows and spec[0] == "graph6" else None
    for n, bits, members, name, slots in stacks:
        # scan throughput path: batched LAPACK spectra, once per distinct
        # char poly and scattered back to every row; flagged graphs are
        # re-verified one by one through run_checks
        need = reads(n, checks) | ({"nop"} if collect_rows else set())
        inverse, vals, sk, nop, sc = _stack_quantities(n, bits, need, slots is None)
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
        if collect_rows:
            columns = {k: v[inverse] for k, v in {"E_S": energy, "N_op": nop, **margins}.items()}
        fail, energy = fail[inverse], energy[inverse]
        # minimum-energy record: the first attaining graph by position
        e = float(energy.min())
        row, pos = members(np.flatnonzero(energy == e))
        k = int(np.argmin(pos))
        if (e, int(pos[k])) < (min_e, min_pos):
            min_e, min_pos = e, int(pos[k])
            min_g6 = str(name(row[k : k + 1], pos[k : k + 1])[0])
        row, pos = members(np.flatnonzero(near_equality(n, energy)))
        equality.extend(zip(pos.tolist(), name(row, pos).tolist()))
        row, pos = members(np.flatnonzero(fail))
        for position, g6 in zip(pos.tolist(), name(row, pos).tolist()):
            for rep in run_checks(parse_graph6(g6), checks, p_grid):
                if not rep.passed:
                    failures.append((position, rep.as_dict()))
        if collect_rows:
            if slots is None:  # orbit representatives: write_csv renders their graphs
                rows = columns
            else:  # a stream chunk's orders interleave: each line goes to its
                # slot, and a line lenient mode skipped stays "" in the join
                graph6 = _graph6_lines(n, bits)
                for k, line in zip(slots.tolist(), _render_rows(n, graph6, columns, checks)):
                    lines[k] = line
    if lines is not None:
        rows = "".join(lines)
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
    its representatives' columns and renders its graphs' lines from them as
    they are written (see _OrbitRows).  A row's float cells (E_S and the
    energy margins) come from the first row in its chunk with the same
    Seidel characteristic polynomial, for an orbit source the first such
    orbit representative: equal to the graph's own in exact arithmetic,
    they may differ in the last digits (by at most 1.6e-14 over every graph
    at n <= 7), which no verdict depends on.  N_op and the exact margins are
    the graph's own."""

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
    """An orbit source's CSV lines, rendered as they are iterated, _ROW_BLOCK
    graphs at a time in source order: each graph's cells but graph6 come from
    its orbit representative's columns, whose floats are those of the first
    representative in its chunk with the same characteristic polynomial.
    The source's member_block gives a block's edge bits and representative
    numbers."""

    source: AllGraphs | BoundaryFamily
    checks: tuple
    columns: dict  # "E_S", "N_op" and margins, indexed by representative number

    def __iter__(self):
        n, total = self.source.n, len(self.source)
        for lo in range(0, total, _ROW_BLOCK):
            bits, rep = self.source.member_block(lo, min(lo + _ROW_BLOCK, total))
            columns = {k: v[rep] for k, v in self.columns.items()}
            yield "".join(_render_rows(n, _graph6_lines(n, bits), columns, self.checks))


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
    chunk_size: int = CHUNK_SIZE,
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
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    processes = min(workers, os.cpu_count() or 1)  # more than the CPUs only add forks
    t0 = time.monotonic()
    args = ((spec, checks, p_grid, collect_rows) for spec in source.chunk_specs(chunk_size))
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
    csv_rows = [r.rows for r in results] if collect_rows else None
    if collect_rows and hasattr(source, "member_block"):  # an orbit source
        columns = {k: np.concatenate([t[k] for t in csv_rows]) for k in csv_rows[0]}
        csv_rows = _OrbitRows(source, checks, columns)
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
