"""Graph sources and the scan driver.

Sources: every labeled graph for n <= 8, the two-apex-over-a-clique
boundary family for 11 <= n <= 22, and graph6 line streams for externally
generated corpora.  The scan driver fans fixed-size chunks out to a worker
pool and re-runs the exact per-graph checkers on anything the batch path
flags, so failure reports carry exact integers.

Every chunk has one format: per order n, a stack of edge bits in graph6
order, which a worker builds itself (the exhaustive and boundary sources
ship index ranges, a graph6 stream ships its raw lines, decoded and
validated in one vectorized pass).  Everything checked derives from the
stack: LAPACK spectra of the Seidel matrices S, exact S_k from multi-modular
int64 characteristic polynomials of S^2, the odd-pair count N_op from the
same S^2 through

    N_op = [C(n,2)(n-2)^2 - (||S^2||_F^2 - n(n-1)^2)/2] / 4,

and SC-equivalence to K_n from an xor test on the adjacency bits.  Graph
objects appear only for the flagged graphs the per-graph checkers re-verify.

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
do not depend on the worker count, so aggregate reports are reproducible
field-for-field.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .graphs import Graph, Graph6Error, parse_graph6
# unused here; kept importable as seidelab.search.<name> for bench/tracing.py
from .graphs import encode_graph6  # noqa: F401
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete  # noqa: F401
from .spectral import binomial, charpoly_batch_i64
from .verify import CHECK_NAMES, STRICT_MARGIN, run_checks

ENUM_MAX_N = 8
BOUNDARY_MIN_N = 11
BOUNDARY_MAX_N = 22
CHUNK_SIZE = 1 << 15  # fixed so aggregates are worker-count independent


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
    """Newline-separated graph6 file; strict mode aborts on malformed lines."""

    path: str
    strict: bool = True

    @property
    def descriptor(self) -> str:
        return f"graph6-stream({self.path})"

    def _lines(self):
        with open(self.path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line.strip()

    def __iter__(self):
        for lineno, line in self._lines():
            try:
                yield parse_graph6(line)
            except Graph6Error as exc:
                if self.strict:
                    raise Graph6StreamError(f"line {lineno}: {exc}") from exc

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        """Chunks of chunk_size nonblank lines, undecoded: their line numbers
        and their text joined by newlines.  Workers decode and validate."""
        specs = []
        lines = self._lines()
        while block := list(islice(lines, chunk_size)):
            linenos, texts = zip(*block)
            linenos = np.array(linenos, dtype=np.int64)
            specs.append(("graph6", linenos, "\n".join(texts), self.strict))
        return specs


# ---------------------------------------------------------------------------
# chunks as edge-bit stacks
#
# Every chunk becomes, per order n, a (B, C(n,2)) uint8 stack of edge bits
# in graph6 order plus two functions naming its rows: members(rows) gives
# the labeled graphs each row stands for as (row, position) arrays, members
# of a row ascending by position, and name(rows, positions) their graph6.


class _Stack(NamedTuple):
    n: int
    bits: np.ndarray
    members: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: Callable[[np.ndarray, np.ndarray], list[str]]


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
    """Seidel matrices, int8: zero diagonal, -1 on edges, +1 elsewhere.
    Their products stay exact in int8: every partial sum of a row-by-column
    product is at most n - 1 <= 61 in magnitude."""
    s = np.where(adj, np.int8(-1), np.int8(1))
    d = np.arange(adj.shape[-1])
    s[:, d, d] = 0
    return s


def _graph6_lines(n: int, bits: np.ndarray) -> list[str]:
    """graph6 lines of a stack of edge bits (the inverse of _decode_graph6)."""
    nbytes = (bits.shape[1] + 5) // 6
    six = np.zeros((bits.shape[0], nbytes * 6), dtype=np.uint8)
    six[:, : bits.shape[1]] = bits
    out = np.empty((bits.shape[0], nbytes + 1), dtype=np.uint8)
    out[:, 0] = n + 63
    packed = np.packbits(six.reshape(bits.shape[0], nbytes, 6), axis=-1)[..., 0]
    out[:, 1:] = (packed >> 2) + 63  # six bits, high first, as the top of a byte
    text = out.tobytes().decode("ascii")
    return [text[k : k + nbytes + 1] for k in range(0, len(text), nbytes + 1)]


def _decode_graph6(linenos: np.ndarray, text: str, strict: bool):
    """Decode newline-joined graph6 lines in one pass per line length.

    Applies every check parse_graph6 makes; a rejected line is handed to
    parse_graph6 for its error, which strict mode raises for the first such
    line and lenient mode skips.  Returns (n, line indices, edge bits) per
    order.
    """
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), len(buf))
    starts = np.concatenate(([0], ends[:-1] + 1))
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
        lines = text.split("\n")
        for k in sorted(rejected):
            try:
                parse_graph6(lines[k])
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
    lines = text.split("\n")
    stacks = []
    for n, index, bits in _decode_graph6(linenos, text, strict):
        stacks.append(
            _Stack(
                n,
                bits,
                lambda rows, index=index: (rows, linenos[index[rows]]),
                lambda rows, positions, index=index: [lines[k] for k in index[rows]],
            )
        )
    return sum(len(st.bits) for st in stacks), stacks


def _sk_batch(a2: np.ndarray) -> np.ndarray:
    """Exact S_0..S_n of A^2 for a stack A^2 of squared Seidel matrices,
    ascending k: int64 up to n = 8, Python ints above."""
    n = a2.shape[-1]
    coeffs = charpoly_batch_i64(a2)
    signs = np.array([(-1) ** k for k in range(n + 1)])
    return coeffs[:, ::-1] * signs  # S_k = (-1)^k c_{n-k}


def _odd_pairs(a2: np.ndarray) -> np.ndarray:
    """N_op from the squared Seidel matrices S^2.  For a pair X = {u, v} the
    n-2 products S_uw S_vw sum to d = (S^2)_uv, and Y = {y, z} has an odd
    number of cross edges iff its two products differ, so X has
    ((n-2)^2 - d^2)/4 odd partners; the sum over X needs only ||S^2||_F."""
    n = a2.shape[-1]
    off_diagonal = (np.einsum("bij,bij->b", a2, a2) - n * (n - 1) ** 2) // 2
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
    rows: list | None


def _eval_chunk(spec, checks, p_grid, collect_rows=False) -> _ChunkResult:
    count, stacks = _stacks(spec)
    min_e = np.inf
    min_pos = None
    min_g6 = None
    failures: list[tuple[int, dict]] = []
    equality: list[tuple[int, str]] = []
    rows = [] if collect_rows else None
    for n, bits, members, name in stacks:
        bsz = bits.shape[0]
        adj = _adjacency(n, bits)
        s = _seidel(adj)
        # scan throughput path: batched LAPACK spectra; flagged graphs are
        # re-verified one by one through the certified per-graph checkers
        vals = np.linalg.eigvalsh(s)
        energy = np.sum(np.abs(vals), axis=1)
        need_sk = bool({"sk-basic", "sk-oddpairs"} & set(checks)) and n >= 2
        need_nop = bool({"sk-oddpairs", "oddpair-lower"} & set(checks)) or collect_rows
        sk = nop = None
        if need_sk or need_nop:
            a2 = np.matmul(s, s).astype(np.int64)
            sk = _sk_batch(a2) if need_sk else None
            nop = _odd_pairs(a2) if need_nop else None
            del a2
        del s
        sc = _sc_to_complete(adj)

        fail = np.zeros(bsz, dtype=bool)
        margins: dict[str, np.ndarray] = {}
        if "sk-basic" in checks and n >= 2:
            bounds = np.array(
                [n * (n - 1) * binomial(n - 2, k - 1) for k in range(1, n + 1)]
            )
            marg = (sk[:, 1:] - bounds).min(axis=1)
            margins["sk-basic"] = marg
            fail |= marg < 0
        if "sk-oddpairs" in checks and n >= 4:
            base = np.array(
                [n * (n - 1) * binomial(n - 2, k - 1) for k in range(1, n + 1)]
            )
            extra = np.array([4 * binomial(n - 4, k - 2) for k in range(1, n + 1)])
            marg = (sk[:, 1:] - base - nop[:, None] * extra).min(axis=1)
            margins["sk-oddpairs"] = marg
            fail |= marg < 0
        if "oddpair-lower" in checks and n >= 4:
            bound = 2 * (n - 3) ** 2
            bad = np.where(sc, nop != 0, nop < bound)
            margins["oddpair-lower"] = np.where(sc, -nop, nop - bound).astype(float)
            fail |= bad
        if "theorem1" in checks and n >= 2:
            t1 = np.full(bsz, np.inf)
            for p in p_grid:
                marg = np.sum(np.abs(vals) ** p, axis=1) - ((n - 1) ** p + (n - 2))
                t1 = np.minimum(t1, marg)
                fail |= marg <= STRICT_MARGIN
            margins["theorem1"] = t1
        if "theorem2" in checks:
            marg = energy - (2 * n - 2)
            margins["theorem2"] = marg
            fail |= np.where(sc, marg < -STRICT_MARGIN, marg <= STRICT_MARGIN)
        # minimum-energy record: the first attaining graph by position
        e = float(energy.min())
        row, pos = members(np.flatnonzero(energy == e))
        k = int(np.argmin(pos))
        if (e, int(pos[k])) < (min_e, min_pos):
            min_e, min_pos = e, int(pos[k])
            min_g6 = name(row[k : k + 1], pos[k : k + 1])[0]
        near = np.abs(energy - (2 * n - 2)) <= STRICT_MARGIN
        row, pos = members(np.flatnonzero(near))
        equality.extend(zip(pos.tolist(), name(row, pos)))
        row, pos = members(np.flatnonzero(fail))
        for position, g6 in zip(pos.tolist(), name(row, pos)):
            for rep in run_checks(parse_graph6(g6), checks, p_grid):
                if not rep.passed:
                    failures.append((position, rep.as_dict()))
        if collect_rows:
            columns = {"E_S": energy.tolist(), "N_op": nop.tolist()}
            for check in checks:
                if check in margins:
                    margin = margins[check].astype(float)
                    columns[f"{check}_min_margin"] = margin.tolist()
            values = [
                {"n": n, **dict(zip(columns, v))} for v in zip(*columns.values())
            ]
            row, pos = members(np.arange(bsz))
            for r, p, g6 in zip(row.tolist(), pos.tolist(), name(row, pos)):
                rows.append((p, {"graph6": g6, **values[r]}))
    return _ChunkResult(count, min_e, min_pos, min_g6, failures, equality, rows)


# ---------------------------------------------------------------------------
# scan driver


@dataclass
class ScanReport:
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
    rows: list | None = field(default=None, repr=False)

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

    def write_csv(self, fh) -> None:
        """One row per graph; requires the scan to have collected rows."""
        if self.rows is None:
            raise ValueError("scan was run without per-graph row collection")
        present = set().union(*self.rows)  # orders below 4 lack some margins
        names = ["graph6", "n", "E_S", "N_op"] + [
            k for k in (f"{c}_min_margin" for c in self.checks) if k in present
        ]
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([row.get(k, "") for k in names] for row in self.rows)


def _eval_chunk_star(args):
    return _eval_chunk(*args)


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

    The aggregate (counts, failures, minimum-energy record) is identical for
    any worker count; wall time is the only field that varies.
    """
    checks = tuple(checks)
    unknown = set(checks) - set(CHECK_NAMES)
    if not checks or unknown:
        raise ValueError(f"checks must be a nonempty subset of {CHECK_NAMES}")
    t0 = time.monotonic()
    specs = source.chunk_specs(chunk_size)
    args = [(spec, checks, tuple(p_grid), collect_rows) for spec in specs]
    if workers <= 1 or len(specs) <= 1:
        results = [_eval_chunk_star(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_chunk_star, args, chunksize=1))
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
    rows = None
    if collect_rows:
        keyed = sorted((x for r in results for x in r.rows), key=by_position)
        rows = [row for _, row in keyed]
    return ScanReport(
        source=source.descriptor,
        checks=checks,
        p_grid=tuple(p_grid),
        graphs_scanned=count,
        total_failures=len(failures),
        failures=[f for _, f in failures[:failure_cap]],
        min_energy_graph6=min_g6,
        min_energy=float(min_e),
        equality_graph6=[g6 for _, g6 in equality],
        wall_time=time.monotonic() - t0,
        rows=rows,
    )
