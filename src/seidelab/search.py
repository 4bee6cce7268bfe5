"""Graph sources and the scan driver.

Sources: every labeled graph for n <= 8, the two-apex-over-a-clique
boundary family for 11 <= n <= 22, and graph6 line streams for externally
generated corpora.  The scan driver fans fixed-size chunks out to a worker
pool, where verify.evaluate checks its stacks, and re-runs run_checks on
anything the batch path flags, so failure reports carry exact integers.
Chunks are drawn from the source only as the pool has room, at most two
per worker in flight, so a graph6 stream is read in blocks while its
first chunks are evaluated.

Every chunk has one format: per order n, a stack of edge bits in graph6
order, which a worker builds itself (the exhaustive and boundary sources
ship index ranges, a graph6 stream ships its raw lines, decoded and
validated in one vectorized pass).  Everything checked derives from the
stack: LAPACK spectra of the Seidel matrices S, exact S_k(S^2) from the
multi-modular characteristic polynomials of S itself, the odd-pair count
N_op from S^2 (float32 BLAS products, exact at these sizes) through

    N_op = [C(n,2)(n-2)^2 - (||S^2||_F^2 - n(n-1)^2)/2] / 4,

and SC-equivalence to K_n from an xor test on the adjacency bits.  Graph
objects appear only for the flagged graphs run_checks re-verifies.
CSV rows, when collected, are rendered by the workers as final CSV lines,
one text per chunk, and only merged and written by the parent.

The exhaustive source is scanned one orbit at a time.  Every checked
quantity (|spectrum|, S_k(A^2), N_op, SC-equivalence to K_n) is invariant
under Seidel switching and under complementation (A -> -A), so each orbit
of that group is evaluated once, on the representative with vertex 0
isolated and the last edge (n-2, n-1) absent, and counted with the orbit's
size: 2^n labeled graphs for n >= 3, 2^(n-1) below.  Only what a report
names (equality graphs, failures, the minimum-energy witness, CSV rows) is
expanded back to the orbit's labeled members.  Every reported item is keyed
by its position in the source's enumeration order (the labeled edge mask
for the exhaustive source, the parameter index for the boundary family,
the line number for a stream) and merged in that order.  Chunk boundaries
do not depend on the worker count, so aggregate reports and CSV output are
reproducible byte for byte.
"""

from __future__ import annotations

import json
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .graphs import ASCII_WHITESPACE, Graph, Graph6Error, parse_graph6
# unused here; kept importable as seidelab.search.<name> for bench/tracing.py
from .graphs import encode_graph6  # noqa: F401
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete  # noqa: F401
from .spectral import binomial, charpoly_batch_i64, p_energy, sk_from_charpoly
from .verify import evaluate, near_equality, reads, run_checks, validate

ENUM_MAX_N = 8
BOUNDARY_MIN_N = 11
BOUNDARY_MAX_N = 22
CHUNK_SIZE = 1 << 15  # fixed so aggregates are worker-count independent
_BLOCK_ENTRIES = 1 << 15  # float32 entries of S^2 per block in _odd_pairs
_ROW_BLOCK = 1 << 12  # CSV lines rendered per step
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


@dataclass(frozen=True)
class BoundaryFamily:
    """Graphs that are a clique on n-2 vertices plus two apex vertices.

    Parameterized by (a, b, c, e): the apex clique-neighborhood sizes a >= b,
    their overlap c, and the apex-apex edge flag, with the shared block laid
    out first.  May emit isomorphic duplicates; sound for universally
    quantified checks.
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

    def params(self):
        m = self.n - 2
        out = []
        for a in range(m + 1):
            for b in range(a + 1):
                for c in range(max(0, a + b - m), b + 1):
                    for e in (0, 1):
                        out.append((a, b, c, e))
        return out

    def edge_bits(self, params) -> np.ndarray:
        """Edge bits, graph6 order, of the members with the given (a, b, c, e)
        rows: apex v1 = n-2 sees [0, a), apex v2 = n-1 sees [0, c) and
        [a, a+b-c), and e joins the apexes."""
        m = self.n - 2
        j, i = np.tril_indices(self.n, -1)
        a, b, c, e = np.asarray(params, dtype=np.int64).reshape(-1, 4).T[:, :, None]
        to_v2 = (i < c) | ((i >= a) & (i < a + b - c))
        v2_column = np.where(i < m, to_v2, e == 1)  # j = n-1; i = n-2 is the apex edge
        bits = np.where(j < m, True, np.where(j == m, i < a, v2_column))
        return bits.astype(np.uint8)

    def graph_for(self, a: int, b: int, c: int, e: int) -> Graph:
        bits = self.edge_bits([(a, b, c, e)])[0]
        return Graph.from_edge_mask(self.n, _mask_of_bits(bits))

    def __len__(self) -> int:
        return len(self.params())

    def __iter__(self):
        for a, b, c, e in self.params():
            yield self.graph_for(a, b, c, e)

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        """Chunks of parameter ranges, chunk_size members each."""
        total = len(self)
        return [
            ("boundary", self.n, start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        ]


@dataclass(frozen=True)
class Graph6Stream:
    """Newline-separated graph6 file; strict mode aborts on malformed lines
    (a non-ASCII byte makes a line malformed), lenient mode skips them."""

    path: str
    strict: bool = True

    @property
    def descriptor(self) -> str:
        return f"graph6-stream({self.path})"

    def _blocks(self):
        """The file's nonblank lines, one read block at a time: their line
        numbers and their bytes, stripped, each ended by a newline.  Lines end
        at \\n, \\r\\n or a lone \\r, as in text mode; bytes pass through as
        latin-1, so a non-ASCII byte reaches the graph6 checks, not a decoder."""
        lineno = 1
        pending = []  # the start of a line that spans read blocks
        with open(self.path, "r", encoding="latin-1", newline=None) as fh:
            while text := fh.read(_READ_BLOCK):
                data = text.encode("latin-1")
                cut = data.rfind(b"\n") + 1
                if not cut:
                    pending.append(data)
                    continue
                linenos, lines = _strip_lines(b"".join(pending) + data[:cut], lineno)
                pending = [data[cut:]]
                lineno += data.count(b"\n", 0, cut)
                yield linenos, lines
        if any(pending):
            yield _strip_lines(b"".join(pending) + b"\n", lineno)

    def __iter__(self):
        for linenos, lines in self._blocks():
            for lineno, line in zip(linenos.tolist(), lines.decode("latin-1").split("\n")):
                try:
                    yield parse_graph6(line)
                except Graph6Error as exc:
                    if self.strict:
                        raise Graph6StreamError(f"line {lineno}: {exc}") from exc

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        """Chunks of chunk_size nonblank lines, undecoded and yielded as the
        file is read: their line numbers and their newline-ended bytes.
        Workers decode and validate."""
        linenos, texts, have = [], [], 0
        for numbers, lines in self._blocks():
            newlines = np.flatnonzero(np.frombuffer(lines, dtype=np.uint8) == ord("\n"))
            bounds = np.concatenate(([0], newlines + 1))  # line k is bounds[k]:bounds[k+1]
            at = 0
            while at < len(numbers):
                take = min(chunk_size - have, len(numbers) - at)
                linenos.append(numbers[at : at + take])
                texts.append(lines[bounds[at] : bounds[at + take]])
                have += take
                at += take
                if have == chunk_size:
                    yield ("graph6", np.concatenate(linenos), b"".join(texts), self.strict)
                    linenos, texts, have = [], [], 0
        if have:
            yield ("graph6", np.concatenate(linenos), b"".join(texts), self.strict)


_READ_BLOCK = 1 << 18  # characters per read of a graph6 stream
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[ord(c) for c in ASCII_WHITESPACE]] = True


def _strip_lines(data: bytes, first_lineno: int) -> tuple[np.ndarray, bytes]:
    """The nonblank lines of newline-ended bytes, stripped of ASCII whitespace
    and ended by a newline, and their line numbers, counted from first_lineno."""
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    solid = np.flatnonzero(~_SPACE[buf])
    head = np.searchsorted(solid, starts)  # first solid byte at or after the start
    tail = np.searchsorted(solid, ends) - 1  # last solid byte before the end
    nonblank = head <= tail
    edges = np.zeros(len(buf) + 1, dtype=np.int8)
    edges[solid[head[nonblank]]] = 1
    edges[solid[tail[nonblank]] + 1] = -1
    keep = np.cumsum(edges[:-1], dtype=np.int8).astype(bool)
    keep[ends[nonblank]] = True
    return first_lineno + np.flatnonzero(nonblank), buf[keep].tobytes()


# ---------------------------------------------------------------------------
# chunks as edge-bit stacks
#
# Every chunk becomes, per order n, a (B, C(n,2)) uint8 stack of edge bits
# in graph6 order plus two functions naming its rows: members(rows) gives
# the labeled graphs each row stands for as (row, position) arrays, members
# of a row ascending by position, and name(rows, positions) their graph6 as
# a str array.


class _Stack(NamedTuple):
    n: int
    bits: np.ndarray
    members: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _edge_pairs(n: int):
    return [(i, j) for j in range(1, n) for i in range(j)]


def _free_edges(n: int) -> list[int]:
    """Edge numbers a representative may set: not at vertex 0, and not the
    last edge (n-2, n-1), which complementation normalizes to absent."""
    return [e for e, (i, _) in enumerate(_edge_pairs(n)) if i != 0][:-1]


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
    pairs = _edge_pairs(n)
    cuts = []
    for w in range(0, 1 << n, 2):  # vertex subsets that leave vertex 0 alone
        cut = 0
        for e, (i, j) in enumerate(pairs):
            if (w >> i ^ w >> j) & 1:
                cut |= 1 << e
        cuts.append(cut)
    if n >= 3:
        full = (1 << len(pairs)) - 1
        cuts += [c ^ full for c in cuts]
    return np.array(cuts, dtype=np.uint64)


def _mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """Edge bits of uint64 edge masks: column e is bit e."""
    shifts = np.arange(n * (n - 1) // 2, dtype=np.uint64)
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _mask_of_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _adjacency(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, n, n) uint8 adjacency matrices of a stack of edge bits."""
    j, i = np.tril_indices(n, -1)  # colex: (0,1), (0,2), (1,2), (0,3), ...
    adj = np.zeros((bits.shape[0], n, n), dtype=np.uint8)
    adj[:, i, j] = bits
    adj[:, j, i] = bits
    return adj


def _seidel(adj: np.ndarray) -> np.ndarray:
    """Seidel matrices, int8: zero diagonal, -1 on edges, +1 elsewhere."""
    s = np.where(adj, np.int8(-1), np.int8(1))
    d = np.arange(adj.shape[-1])
    s[:, d, d] = 0
    return s


def _graph6_lines(n: int, bits: np.ndarray) -> np.ndarray:
    """graph6 lines of a stack of edge bits, as a str array (the inverse of
    _decode_graph6)."""
    nbytes = (bits.shape[1] + 5) // 6
    six = np.zeros((bits.shape[0], nbytes * 6), dtype=np.uint8)
    six[:, : bits.shape[1]] = bits
    out = np.empty((bits.shape[0], nbytes + 1), dtype=np.uint8)
    out[:, 0] = n + 63
    packed = np.packbits(six.reshape(bits.shape[0], nbytes, 6), axis=-1)[..., 0]
    out[:, 1:] = (packed >> 2) + 63  # six bits, high first, as the top of a byte
    return out.view(f"S{nbytes + 1}").ravel().astype(f"U{nbytes + 1}")


def _decode_graph6(linenos: np.ndarray, text: bytes, strict: bool):
    """Decode newline-ended graph6 lines in one pass per line length.

    Applies every check parse_graph6 makes; a rejected line is handed to
    parse_graph6 for its error, which strict mode raises for the first such
    line and lenient mode skips.  Returns (n, line indices, edge bits) per
    order.
    """
    buf = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))[: len(ends)]
    lengths = ends - starts
    decoded = []
    rejected = []
    for length in np.unique(lengths).tolist():
        idx = np.flatnonzero(lengths == length)
        rows = buf[starts[idx, None] + np.arange(length)]
        n = rows[:, 0].astype(np.int64) - 63
        ok = ((rows >= 63) & (rows <= 126)).all(axis=1) & (n >= 1) & (n != 63)
        ok &= (n * (n - 1) // 2 + 5) // 6 == length - 1
        for order in np.unique(n[ok]).tolist():
            sel = np.flatnonzero(ok & (n == order))
            six = np.unpackbits(rows[sel, 1:, None] - 63, axis=-1)[..., 2:]
            bits = six.reshape(len(sel), 6 * (length - 1))
            nbits = order * (order - 1) // 2
            padded = bits[:, nbits:].any(axis=1)
            ok[sel[padded]] = False
            if not padded.all():
                decoded.append((order, idx[sel[~padded]], bits[~padded, :nbits]))
        rejected.extend(idx[~ok].tolist())
    if rejected:
        lines = text.split(b"\n")
        for k in sorted(rejected):
            try:
                parse_graph6(lines[k].decode("latin-1"))
            except Graph6Error as exc:
                if strict:
                    raise Graph6StreamError(f"line {linenos[k]}: {exc}") from exc
            else:
                raise RuntimeError(f"line {linenos[k]}: decoder rejected a valid line")
    return decoded


def _stacks(spec) -> tuple[int, list[_Stack]]:
    """The labeled graphs a chunk stands for, and its stacks."""
    if spec[0] == "classes":
        _, n, start, stop = spec
        masks = _class_masks(n, start, stop)
        offsets = _orbit_offsets(n)

        def members(rows):
            labeled = np.sort(masks[rows, None] ^ offsets, axis=1)
            return np.repeat(rows, len(offsets)), labeled.ravel()

        def name(rows, positions):
            return _graph6_lines(n, _mask_bits(n, positions))

        count = (stop - start) * len(offsets)
        return count, [_Stack(n, _mask_bits(n, masks), members, name)]
    if spec[0] == "boundary":
        _, n, start, stop = spec
        family = BoundaryFamily(n)
        bits = family.edge_bits(family.params()[start:stop])
        return stop - start, [
            _Stack(
                n,
                bits,
                lambda rows: (rows, rows + start),
                lambda rows, positions: _graph6_lines(n, bits[rows]),
            )
        ]
    _, linenos, text, strict = spec
    stacks = []
    for n, index, bits in _decode_graph6(linenos, text, strict):
        # a decoded line re-encodes to itself: the decoder rejects any other
        stacks.append(
            _Stack(
                n,
                bits,
                lambda rows, index=index: (rows, linenos[index[rows]]),
                lambda rows, positions, n=n, bits=bits: _graph6_lines(n, bits[rows]),
            )
        )
    return sum(len(st.bits) for st in stacks), stacks


def _odd_pairs(s: np.ndarray) -> np.ndarray:
    """N_op of a stack of Seidel matrices S, from S^2.  For a pair X = {u, v}
    the n-2 products S_uw S_vw sum to d = (S^2)_uv, and Y = {y, z} has an odd
    number of cross edges iff its two products differ, so X has
    ((n-2)^2 - d^2)/4 odd partners; the sum over X needs only ||S^2||_F.
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
    return (binomial(n, 2) * (n - 2) ** 2 - off_diagonal) // 4


def _sc_to_complete(adj: np.ndarray) -> np.ndarray:
    """SC-equivalence to K_n: after normalizing vertex 0 to universal, the
    bits adj(i,j) ^ adj(0,i) ^ adj(0,j) must be constant over pairs i<j."""
    n = adj.shape[-1]
    first = adj[:, 0, 1:]
    x = adj[:, 1:, 1:] ^ first[:, :, None] ^ first[:, None, :]  # zero diagonal
    total = x.sum(axis=(1, 2), dtype=np.int64)
    return (total == 0) | (total == (n - 1) * (n - 2))


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
    row_text: str | None  # CSV lines (see _render_rows), ascending by position
    row_positions: np.ndarray | None  # their positions, int64
    row_margins: frozenset  # checks whose margin cell some row fills


class _RowPart(NamedTuple):
    """One stack's CSV rows: the stack row and position of each labeled
    graph, the stack's name function, and its per-row columns."""

    n: int
    rows: np.ndarray
    positions: np.ndarray
    name: Callable[[np.ndarray, np.ndarray], np.ndarray]
    energy: np.ndarray
    nop: np.ndarray
    margins: dict  # check -> float margins of the stack rows


def _render_rows(parts: list[_RowPart], checks) -> tuple[str, np.ndarray]:
    """The CSV lines of a chunk's rows, ascending by position, and their
    positions.  A line is what csv.writer writes for graph6, n, E_S, N_op and
    one min-margin cell per check (floats by repr, blank where the graph's
    order has no such margin).  Lines are rendered _ROW_BLOCK at a time, so
    no per-cell object outlives its block."""
    if not parts:  # a lenient stream chunk may decode nothing
        return "", np.empty(0, dtype=np.int64)
    which = np.repeat(np.arange(len(parts)), [len(p.rows) for p in parts])
    rows = np.concatenate([p.rows for p in parts])
    positions = np.concatenate([p.positions for p in parts])
    order = np.argsort(positions, kind="stable")
    line = ",".join(["{}"] * (4 + len(checks))) + _EOL
    blocks = []
    for lo in range(0, len(order), _ROW_BLOCK):
        sel = order[lo : lo + _ROW_BLOCK]
        cells = [np.empty(len(sel), dtype=object) for _ in range(4 + len(checks))]
        for k, part in enumerate(parts):
            mine = which[sel] == k
            if not mine.any():
                continue
            r = rows[sel[mine]]
            values = [part.name(r, positions[sel[mine]]), part.n, part.energy[r], part.nop[r]]
            values += [part.margins[c][r] if c in part.margins else "" for c in checks]
            for column, value in zip(cells, values):
                column[mine] = value
        blocks.append("".join(map(line.format, *cells)))
    return "".join(blocks), positions[order]


def _eval_chunk(spec, checks, p_grid, collect_rows=False) -> _ChunkResult:
    count, stacks = _stacks(spec)
    min_e = np.inf
    min_pos = None
    min_g6 = None
    failures: list[tuple[int, dict]] = []
    equality: list[tuple[int, str]] = []
    parts: list[_RowPart] = []
    for n, bits, members, name in stacks:
        bsz = bits.shape[0]
        adj = _adjacency(n, bits)
        s = _seidel(adj)
        # scan throughput path: batched LAPACK spectra; flagged graphs are
        # re-verified one by one through run_checks
        need = reads(n, checks)
        vals = np.linalg.eigvalsh(s)
        sk = sk_from_charpoly(charpoly_batch_i64(s)) if "sk" in need else None
        nop = _odd_pairs(s) if "nop" in need or collect_rows else None
        del s
        sc = _sc_to_complete(adj) if "sc" in need else None
        fail = np.zeros(bsz, dtype=bool)
        margins: dict[str, np.ndarray] = {}
        energy = None  # E_S, theorem2's lhs when theorem2 applies
        for check, (lhs, rhs, margin, passed) in evaluate(n, checks, p_grid, vals, sk, nop, sc):
            fail |= ~passed.all(axis=1)
            margins[check] = margin.min(axis=1).astype(float)
            if check == "theorem2":
                energy = lhs[:, 0]
            del lhs, rhs, margin, passed  # before the next check's arrays are built
        if energy is None:
            energy = p_energy(vals, 1.0)
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
            row, pos = members(np.arange(bsz))
            parts.append(_RowPart(n, row, pos, name, energy, nop, margins))
    text = positions = None
    if collect_rows:
        text, positions = _render_rows(parts, checks)
    filled = frozenset(c for part in parts for c in part.margins)
    return _ChunkResult(
        count, min_e, min_pos, min_g6, failures, equality, text, positions, filled
    )


# ---------------------------------------------------------------------------
# scan driver


@dataclass
class ScanReport:
    """A scan's aggregate.  With collect_rows, row_text holds one CSV line
    per graph in source order, rendered by the workers: graph6, n, E_S, N_op
    and one min-margin cell per check of checks, blank where the graph's
    order has no such margin; row_margins names the checks whose cell some
    line fills.  write_csv writes them, and rows parses them back.  Rows of
    an exhaustive source carry their orbit representative's floats: equal to
    the graph's own in exact arithmetic, they may differ in the last digits,
    which no verdict depends on."""

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
    row_text: str | None = field(default=None, repr=False)
    row_margins: tuple = ()

    @property
    def rows(self) -> list[dict] | None:
        """One dict per graph (graph6, n, E_S, N_op, then each filled margin
        as <check>_min_margin), parsed back from row_text without loss:
        floats are written by repr."""
        if self.row_text is None:
            return None
        margins = [f"{c}_min_margin" for c in self.checks]
        rows = []
        for line in self.row_text.splitlines():
            g6, n, energy, nop, *cells = line.split(",")
            row = {"graph6": g6, "n": int(n), "E_S": float(energy), "N_op": int(nop)}
            row.update((k, float(v)) for k, v in zip(margins, cells) if v)
            rows.append(row)
        return rows

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
                "value": self.min_energy,
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
        one header: a margin column for each check, in first-seen order, that
        some row of some report fills.  Requires the scans to have collected
        rows.  A report whose lines carry other margin cells than the header
        is re-laid out line by line."""
        reports = (self, *more)
        if any(r.row_text is None for r in reports):
            raise ValueError("scan was run without per-graph row collection")
        filled = {c for r in reports for c in r.row_margins}
        columns = [c for c in dict.fromkeys(c for r in reports for c in r.checks) if c in filled]
        names = ["graph6", "n", "E_S", "N_op"] + [f"{c}_min_margin" for c in columns]
        fh.write(",".join(names) + _EOL)
        for r in reports:
            if list(r.checks) == columns:
                fh.write(r.row_text)
            else:
                fh.writelines(_relayout(r.row_text, r.checks, columns))


def _relayout(text: str, checks, columns):
    """Lines rendered with one margin cell per check of checks, re-cut to
    the margin columns named: a named check they lack gets a blank cell, and
    a check not named is dropped, being blank in every line."""
    pick = [4 + checks.index(c) if c in checks else None for c in columns]
    for line in text.splitlines():
        cells = line.split(",")
        yield ",".join(cells[:4] + [cells[k] if k is not None else "" for k in pick]) + _EOL


def _merge_rows(results: list[_ChunkResult]) -> str:
    """The chunks' CSV lines in source order: a stable sort by position.
    Chunks of a stream already come in order; orbit members of the
    exhaustive source interleave across chunks."""
    positions = np.concatenate([np.empty(0, dtype=np.int64)] + [r.row_positions for r in results])
    order = np.argsort(positions, kind="stable")
    if np.array_equal(order, np.arange(len(order))):
        return "".join(r.row_text for r in results)
    lines = "".join(r.row_text for r in results).splitlines(keepends=True)
    return "".join([lines[k] for k in order.tolist()])


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
    failure_cap: int = 1000,
    collect_rows: bool = False,
    chunk_size: int = CHUNK_SIZE,
) -> ScanReport:
    """Run the selected checkers over every graph of the source.

    Chunks are drawn from the source as the pool has room for them, at most
    2 * workers at a time.  The aggregate (counts, failures, minimum-energy
    record, CSV rows) is identical for any worker count; wall time is the
    only field that varies.
    """
    checks, p_grid = tuple(checks), tuple(p_grid)
    validate(checks, p_grid)
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    t0 = time.monotonic()
    args = ((spec, checks, p_grid, collect_rows) for spec in source.chunk_specs(chunk_size))
    head = list(islice(args, 2))  # one chunk runs without a pool
    if workers <= 1 or len(head) <= 1:
        results = [_eval_chunk_star(a) for a in chain(head, args)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(_pooled(pool, chain(head, args), 2 * workers))
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
    row_text, row_margins = None, ()
    if collect_rows:
        row_text = _merge_rows(results)
        row_margins = tuple(c for c in checks if any(c in r.row_margins for r in results))
    return ScanReport(
        source=source.descriptor,
        checks=checks,
        p_grid=p_grid,
        graphs_scanned=count,
        total_failures=len(failures),
        failures=[f for _, f in failures[:failure_cap]],
        min_energy_graph6=min_g6,
        min_energy=float(min_e),
        equality_graph6=[g6 for _, g6 in equality],
        wall_time=time.monotonic() - t0,
        row_text=row_text,
        row_margins=row_margins,
    )
