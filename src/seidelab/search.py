"""Graph sources and the scan driver.

Sources: every labeled graph for n <= 8, the two-apex-over-a-clique
boundary family for 11 <= n <= 22, and graph6 line streams for externally
generated corpora.  The scan driver fans fixed-size chunks out to a worker
pool, evaluates the selected checkers in batch (LAPACK spectra, exact S_k
from multi-modular int64 characteristic polynomials, popcount odd-pair
counts), and re-runs the exact per-graph checkers on anything the batch
flags, so failure reports carry exact integers.

The exhaustive source is scanned one orbit at a time.  Every checked
quantity (|spectrum|, S_k(A^2), N_op, SC-equivalence to K_n) is invariant
under Seidel switching and under complementation (A -> -A), so each orbit
of that group is evaluated once, on the representative with vertex 0
isolated and the last edge (n-2, n-1) absent, and counted with the orbit's
size: 2^n labeled graphs for n >= 3, 2^(n-1) below.  Only what a report
names (equality graphs, failures, the minimum-energy witness, CSV rows) is
expanded back to the orbit's labeled members.  Every reported item is keyed
by its position in the source's enumeration order (the labeled edge mask
for the exhaustive source, the input position otherwise) and merged in
that order.  Chunk boundaries do not depend on the worker count, so
aggregate reports are reproducible field-for-field.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

import numpy as np

from .graphs import Graph, Graph6Error, encode_graph6, parse_graph6
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete
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

    def graph_for(self, a: int, b: int, c: int, e: int) -> Graph:
        n, m = self.n, self.n - 2
        v1, v2 = n - 2, n - 1
        edges = list(combinations(range(m), 2))
        edges += [(i, v1) for i in range(a)]
        edges += [(i, v2) for i in range(c)]
        edges += [(i, v2) for i in range(a, a + b - c)]
        if e:
            edges.append((v1, v2))
        return Graph.from_edges(n, edges)

    def __len__(self) -> int:
        return len(self.params())

    def __iter__(self):
        for a, b, c, e in self.params():
            yield self.graph_for(a, b, c, e)

    def chunk_specs(self, chunk_size: int = CHUNK_SIZE):
        graphs = list(self)
        return [
            ("graphs", i, graphs[i : i + chunk_size])
            for i in range(0, len(graphs), chunk_size)
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
        graphs = list(self)
        return [
            ("graphs", i, graphs[i : i + chunk_size])
            for i in range(0, len(graphs), chunk_size)
        ]


def enumerate_all_graphs(n: int) -> AllGraphs:
    return AllGraphs(n)


def boundary_family(n: int) -> BoundaryFamily:
    return BoundaryFamily(n)


def stream_graph6(path: str, strict: bool = True) -> Graph6Stream:
    return Graph6Stream(path, strict)


# ---------------------------------------------------------------------------
# vectorized chunk evaluation


def _edge_pairs(n: int):
    return [(i, j) for j in range(1, n) for i in range(j)]


def _edge_index(n: int):
    idx = {}
    for e, (i, j) in enumerate(_edge_pairs(n)):
        idx[(i, j)] = e
    return idx


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


def _seidel_batch_from_masks(n: int, masks: np.ndarray):
    m = n * (n - 1) // 2
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint64)) & 1).astype(np.int64)
    s = np.ones((masks.shape[0], n, n), dtype=np.int64)
    for e, (i, j) in enumerate(_edge_pairs(n)):
        s[:, i, j] = 1 - 2 * bits[:, e]
        s[:, j, i] = s[:, i, j]
    for i in range(n):
        s[:, i, i] = 0
    return s


def _nop_batch_from_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Ordered odd-pair counts via popcounts of 4-edge cross masks."""
    idx = _edge_index(n)
    nop = np.zeros(masks.shape[0], dtype=np.int64)
    verts = range(n)
    for x in combinations(verts, 2):
        for y in combinations([v for v in verts if v not in x], 2):
            if x < y:  # unordered; double at the end
                pm = 0
                for u in x:
                    for v in y:
                        pm |= 1 << idx[(min(u, v), max(u, v))]
                nop += (np.bitwise_count(masks & np.uint64(pm)) & 1).astype(np.int64)
    return 2 * nop


def _sc_batch_from_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """SC-equivalence to K_n: after normalizing vertex 0 to universal, the
    bits adj(i,j) ^ adj(0,i) ^ adj(0,j) must be constant over pairs i<j."""
    if n <= 2:
        return np.ones(masks.shape[0], dtype=bool)
    idx = _edge_index(n)
    total = np.zeros(masks.shape[0], dtype=np.int64)
    npairs = 0
    for i in range(1, n):
        for j in range(i + 1, n):
            pm = (1 << idx[(i, j)]) | (1 << idx[(0, i)]) | (1 << idx[(0, j)])
            total += (np.bitwise_count(masks & np.uint64(pm)) & 1).astype(np.int64)
            npairs += 1
    return (total == 0) | (total == npairs)


def _sk_batch(s_int: np.ndarray) -> np.ndarray:
    """Exact S_0..S_n of A^2 for a stack of Seidel matrices, ascending k:
    int64 up to n = 8, Python ints above."""
    n = s_int.shape[-1]
    coeffs = charpoly_batch_i64(np.matmul(s_int, s_int))
    signs = np.array([(-1) ** k for k in range(n + 1)])
    return coeffs[:, ::-1] * signs  # S_k = (-1)^k c_{n-k}


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
    # each group is (n, masks or None, graphs or None, members); members(i)
    # yields (position, Graph), ascending, for each graph batch row i stands for
    if spec[0] == "classes":
        _, n, start, stop = spec
        masks = _class_masks(n, start, stop)
        offsets = _orbit_offsets(n)

        def members(i):
            for m in np.sort(masks[i] ^ offsets).tolist():
                yield m, Graph.from_edge_mask(n, m)

        groups = [(n, masks, None, members)]
        count = (stop - start) * len(offsets)
    else:
        _, start, graphs = spec
        count = len(graphs)
        by_n: dict[int, list[Graph]] = {}
        order: dict[int, list[int]] = {}
        for i, g in enumerate(graphs):
            by_n.setdefault(g.n, []).append(g)
            order.setdefault(g.n, []).append(start + i)
        groups = []
        for n in sorted(by_n):
            gs, pos = by_n[n], order[n]
            groups.append(
                (n, None, gs, lambda i, gs=gs, pos=pos: iter([(pos[i], gs[i])]))
            )
    min_e = np.inf
    min_pos = None
    min_g6 = None
    failures: list[tuple[int, dict]] = []
    equality: list[tuple[int, str]] = []
    rows = [] if collect_rows else None
    for n, masks, gs, members in groups:
        if masks is not None:
            s_int = _seidel_batch_from_masks(n, masks)
        else:
            s_int = np.stack([_seidel_int(g) for g in gs])
        bsz = s_int.shape[0]
        # scan throughput path: batched LAPACK spectra; flagged graphs are
        # re-verified one by one through the certified Jacobi backend
        vals = np.linalg.eigvalsh(s_int.astype(np.float64))
        energy = np.sum(np.abs(vals), axis=1)
        need_sk = bool({"sk-basic", "sk-oddpairs"} & set(checks)) and n >= 2
        need_nop = bool({"sk-oddpairs", "oddpair-lower"} & set(checks)) or collect_rows
        sk = _sk_batch(s_int) if need_sk else None
        if need_nop:
            if masks is not None:
                nop = _nop_batch_from_masks(n, masks)
            else:
                nop = np.array([count_odd_pairs(g) for g in gs], dtype=np.int64)
        else:
            nop = None
        if masks is not None:
            sc = _sc_batch_from_masks(n, masks)
        else:
            sc = np.array([is_sc_equivalent_to_complete(g)[0] for g in gs])

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
        pos, g = min(next(members(int(i))) for i in np.flatnonzero(energy == e))
        if (e, pos) < (min_e, min_pos):
            min_e, min_pos, min_g6 = e, pos, encode_graph6(g)
        near = np.nonzero(np.abs(energy - (2 * n - 2)) <= STRICT_MARGIN)[0]
        for i in near:
            equality.extend((pos, encode_graph6(g)) for pos, g in members(int(i)))
        for i in np.nonzero(fail)[0]:
            for pos, g in members(int(i)):
                for rep in run_checks(g, checks, p_grid):
                    if not rep.passed:
                        failures.append((pos, rep.as_dict()))
        if collect_rows:
            for i in range(bsz):
                values = {"n": n, "E_S": float(energy[i]), "N_op": int(nop[i])}
                for name in checks:
                    if name in margins:
                        values[f"{name}_min_margin"] = float(margins[name][i])
                for pos, g in members(i):
                    rows.append((pos, {"graph6": encode_graph6(g), **values}))
    return _ChunkResult(count, min_e, min_pos, min_g6, failures, equality, rows)


def _seidel_int(g: Graph) -> np.ndarray:
    from .graphs import seidel_matrix

    return seidel_matrix(g)


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
        names = ["graph6", "n", "E_S", "N_op"] + [
            k for k in (f"{c}_min_margin" for c in self.checks)
            if self.rows and k in self.rows[0]
        ]
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)


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
        ((r.min_energy, r.min_position, r.min_energy_graph6) for r in results),
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
