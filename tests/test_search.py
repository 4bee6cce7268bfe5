import csv
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seidelab.graphs import (
    ASCII_WHITESPACE,
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    parse_graph6,
    seidel_matrix,
)
from seidelab.search import (
    AllGraphs,
    BoundaryFamily,
    Graph6Stream,
    Graph6StreamError,
    _adjacency,
    _class_masks,
    _decode_graph6,
    _graph6_lines,
    _mask_of_bits,
    _odd_pairs,
    _orbit_offsets,
    _sc_to_complete,
    _seidel,
    scan,
)
from seidelab import search
from seidelab.spectral import (
    binomial,
    char_poly_exact,
    charpoly_batch_i64,
    p_energy,
    sk_from_charpoly,
)
from seidelab.verify import evaluate, run_checks
from seidelab.seidel import (
    count_odd_pairs,
    is_sc_equivalent_to_complete,
    switch,
    switching_class_key,
)

from conftest import graph_strategy, random_graph

DESK_CHECKS = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem2")


class TestAllGraphs:
    def test_counts(self):
        assert len(AllGraphs(3)) == 8
        assert len(AllGraphs(4)) == 64
        assert sum(1 for _ in AllGraphs(3)) == 8

    def test_refusal_mentions_stream(self):
        with pytest.raises(ValueError, match="graph6 stream"):
            AllGraphs(9)

    def test_chunking_covers_everything(self):
        # n = 5 has 2^(C(4,2)-1) = 32 representatives
        specs = AllGraphs(5).chunk_specs(chunk_size=10)
        assert [s[2] for s in specs] == [0, 10, 20, 30]
        assert specs[-1][3] == 32
        # the orbits of the representatives partition every labeled mask
        for n in range(1, 7):
            members = [
                _class_masks(n, start, stop)[:, None] ^ _orbit_offsets(n)[None, :]
                for _, _, start, stop in AllGraphs(n).chunk_specs(chunk_size=7)
            ]
            labeled = np.sort(np.concatenate(members).ravel())
            assert np.array_equal(labeled, np.arange(len(AllGraphs(n)), dtype=np.uint64))


class TestBoundaryFamily:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            BoundaryFamily(10)
        with pytest.raises(ValueError):
            BoundaryFamily(23)

    def test_contains_extremes(self):
        fam = BoundaryFamily(11)
        g6s = {encode_graph6(g) for g in fam}
        # both apexes fully attached plus the apex edge is K_11
        assert encode_graph6(complete_graph(11)) in g6s
        # no apex attachments and no apex edge is K_9 plus two isolated vertices
        k9_iso = fam.graph_for(0, 0, 0, 0)
        assert k9_iso.edge_count() == 36
        assert encode_graph6(k9_iso) in g6s

    def test_every_member_has_clique_core(self):
        fam = BoundaryFamily(12)
        m = fam.n - 2
        for g in fam:
            assert all(
                g.has_edge(i, j) for i in range(m) for j in range(i + 1, m)
            )

    def test_param_constraints(self):
        for a, b, c, e in BoundaryFamily(11).params():
            assert 0 <= c <= b <= a <= 9
            assert a + b - c <= 9
            assert e in (0, 1)


class TestGraph6Stream:
    def test_reads_lines(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text("Bw\nBg\n\nB?\n")
        graphs = list(Graph6Stream(str(p)))
        assert [g.edge_count() for g in graphs] == [3, 2, 0]

    def test_strict_names_line(self, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_text("Bw\nBww\n")
        with pytest.raises(Graph6StreamError, match="line 2"):
            list(Graph6Stream(str(p)))

    def test_lenient_skips(self, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_text("Bw\nBww\nB?\n")
        graphs = list(Graph6Stream(str(p), strict=False))
        assert len(graphs) == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.g6"
        p.write_text("")
        assert list(Graph6Stream(str(p))) == []


class TestScan:
    def test_all_three(self):
        rep = scan(AllGraphs(3), checks=("theorem2",))
        assert rep.graphs_scanned == 8
        assert rep.total_failures == 0
        assert rep.min_energy == pytest.approx(4.0, abs=1e-9)
        # every graph on 3 vertices sits in the switching class of K_3
        assert len(rep.equality_graph6) == 8

    def test_all_five_checks_n5(self):
        rep = scan(
            AllGraphs(5),
            checks=("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2"),
            p_grid=(0.5, 1.0, 1.5),
        )
        assert rep.graphs_scanned == 1024
        assert rep.total_failures == 0
        assert rep.min_energy == pytest.approx(8.0, abs=1e-9)
        assert len(rep.equality_graph6) == 32

    def test_equality_cases_are_switching_class(self):
        rep = scan(AllGraphs(5))
        from seidelab.graphs import parse_graph6
        from seidelab.seidel import is_sc_equivalent_to_complete

        for g6 in rep.equality_graph6:
            assert is_sc_equivalent_to_complete(parse_graph6(g6))[0]

    def test_boundary_family(self):
        rep = scan(BoundaryFamily(11), checks=("theorem2",))
        assert rep.graphs_scanned == len(BoundaryFamily(11))
        assert rep.total_failures == 0
        assert rep.min_energy == pytest.approx(20.0, abs=1e-9)

    def test_boundary_family_22_exact(self):
        # the largest boundary order through the exact S_k checks
        rep = scan(BoundaryFamily(22), checks=("sk-basic", "sk-oddpairs"))
        assert rep.graphs_scanned == len(BoundaryFamily(22)) == 1892
        assert rep.total_failures == 0

    @pytest.mark.parametrize("n", range(17, 23))
    def test_boundary_sk_matches_exact(self, n):
        graphs = list(BoundaryFamily(n))[::61]
        s = np.stack([seidel_matrix(g) for g in graphs])
        for sk, m in zip(sk_from_charpoly(charpoly_batch_i64(s)), s):
            coeffs = char_poly_exact(m @ m).coeffs
            assert list(sk) == [(-1) ** k * coeffs[n - k] for k in range(n + 1)]

    def test_graph_source_nop_matches_mask_source(self, rng, tmp_path):
        # stream rows (n = 1..62) and exhaustive rows against the per-graph
        # functions: graph6 echoes the input, N_op and E_S agree
        graphs = [random_graph(rng, n=n) for n in range(1, 63) for _ in range(2)]
        lines = [encode_graph6(g) for g in graphs]
        p = tmp_path / "mixed.g6"
        p.write_text("\n".join(lines) + "\n")
        rep = scan(
            Graph6Stream(str(p)), checks=("oddpair-lower",), collect_rows=True
        )
        assert [row["graph6"] for row in rep.rows] == lines
        for row, g in zip(rep.rows, graphs):
            assert row["n"] == g.n
            assert row["N_op"] == count_odd_pairs(g)
            energy = np.abs(np.linalg.eigvalsh(seidel_matrix(g))).sum()
            assert row["E_S"] == pytest.approx(energy, rel=1e-12)
        rep = scan(AllGraphs(5), checks=("oddpair-lower",), collect_rows=True)
        assert len(rep.rows) == 1024
        for row in rep.rows:
            assert row["N_op"] == count_odd_pairs(parse_graph6(row["graph6"]))

    def test_csv_mixed_orders(self, tmp_path):
        # a first row below n = 4 has no odd-pair margin; later rows do
        p = tmp_path / "mixed.g6"
        p.write_text("B?\nD??\n")
        rep = scan(Graph6Stream(str(p)), checks=("oddpair-lower",), collect_rows=True)
        buf = io.StringIO()
        rep.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "graph6,n,E_S,N_op,oddpair-lower_min_margin"
        assert lines[1].startswith("B?,3,") and lines[1].endswith(",0,")
        assert lines[2].startswith("D??,5,") and lines[2].endswith(",0,0.0")

    def test_invalid_checks(self):
        with pytest.raises(ValueError):
            scan(AllGraphs(3), checks=())
        with pytest.raises(ValueError):
            scan(AllGraphs(3), checks=("bogus",))
        with pytest.raises(ValueError, match="chunk_size"):
            scan(AllGraphs(3), chunk_size=0)
        # a theorem1 grid must be nonempty and inside (0, 2), checked before
        # any chunk runs, even at n = 1, where theorem1 does not apply
        for p_grid in [(2.0,), (), (0.5, 0.0)]:
            with pytest.raises(ValueError, match="theorem1"):
                scan(AllGraphs(1), checks=("theorem1",), p_grid=p_grid)

    def test_worker_determinism(self):
        # n = 6 has 512 representatives: eight chunks
        reports = [
            scan(
                AllGraphs(6),
                checks=("theorem2",),
                workers=w,
                chunk_size=64,
            ).to_json(include_timing=False)
            for w in (1, 2, 5)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_chunk_size_independence(self):
        # n = 5 has 32 representatives: eleven, three and one chunks
        a, b, c = (
            scan(AllGraphs(5), chunk_size=size).to_json(include_timing=False)
            for size in (3, 16, 1024)
        )
        assert a == b == c

    def test_csv_output(self):
        rep = scan(AllGraphs(4), checks=("theorem2",), collect_rows=True)
        buf = io.StringIO()
        rep.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "graph6,n,E_S,N_op,theorem2_min_margin"
        assert len(lines) == 65

    def test_csv_requires_rows(self):
        rep = scan(AllGraphs(3))
        with pytest.raises(ValueError, match="row"):
            rep.write_csv(io.StringIO())

    def test_stream_outputs_follow_input_order(self, tmp_path):
        # K_5, K_4, the empty 5-graph and P_4 interleaved in one chunk
        lines = ["D~{", "C~", "D??", "Ch", "C?", "D~{"]
        p = tmp_path / "mixed.g6"
        p.write_text("\n".join(lines) + "\n")
        rep = scan(Graph6Stream(str(p)), checks=DESK_CHECKS, collect_rows=True)
        assert [row["graph6"] for row in rep.rows] == lines
        assert rep.equality_graph6 == ["D~{", "C~", "D??", "C?", "D~{"]


@given(st.lists(graph_strategy(min_n=1, max_n=10), min_size=1, max_size=12))
@example([empty_graph(1), cycle_graph(5), complete_graph(4), cycle_graph(9)])
@settings(max_examples=40)
def test_csv_margins_match_run_checks(graphs):
    """Batch and per-graph paths agree on every theorem margin of a stream.
    C_5 has a zero eigenvalue, whose solver noise p = 0.25 would amplify to
    ~1e-4 unless both paths snap it."""
    checks, p_grid = ("theorem1", "theorem2"), (0.25, 0.5, 1.0)
    lines = [encode_graph6(g) for g in graphs]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graphs.g6"
        path.write_text("\n".join(lines) + "\n")
        rep = scan(Graph6Stream(str(path)), checks, p_grid, collect_rows=True)
    buf = io.StringIO()
    rep.write_csv(buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert [row["graph6"] for row in rows] == lines
    for row, g in zip(rows, graphs):
        reports = run_checks(g, checks, p_grid)
        t1 = [r.margin for r in reports if r.check == "theorem1"]
        if t1:
            assert abs(float(row["theorem1_min_margin"]) - min(t1)) <= 1e-9
        else:
            assert row.get("theorem1_min_margin") in (None, "")
        (t2,) = [r.margin for r in reports if r.check == "theorem2"]
        assert abs(float(row["theorem2_min_margin"]) - t2) <= 1e-9


@pytest.fixture(scope="module")
def labeled_files(tmp_path_factory):
    """Every labeled graph on n = 1..6 vertices as graph6 lines, mask order."""
    root = tmp_path_factory.mktemp("labeled")
    files = {}
    for n in range(1, 7):
        files[n] = root / f"all{n}.g6"
        lines = (
            encode_graph6(Graph.from_edge_mask(n, m))
            for m in range(1 << (n * (n - 1) // 2))
        )
        files[n].write_text("\n".join(lines) + "\n")
    return files


@pytest.mark.parametrize(
    "checks,p_grid",
    [(DESK_CHECKS, (1.0,)), (("theorem1",), (0.25, 0.5, 1.0, 1.5, 1.75))],
)
def test_orbit_scan_matches_labeled_scan(labeled_files, checks, p_grid):
    """The orbit-quotient scan reports what scanning every labeled graph
    reports.  The minimum-energy witness may be another member of the same
    class: which labeled graph computes lowest is last-ulp noise."""
    for n, path in labeled_files.items():
        orbit, labeled = (
            json.loads(scan(src, checks, p_grid).to_json(include_timing=False))
            for src in (AllGraphs(n), Graph6Stream(str(path)))
        )
        e_orbit, e_labeled = orbit.pop("min_energy"), labeled.pop("min_energy")
        del orbit["source"], labeled["source"]
        assert json.dumps(orbit, sort_keys=True) == json.dumps(labeled, sort_keys=True)
        assert abs(e_orbit["value"] - e_labeled["value"]) <= 1e-12
        assert switching_class_key(parse_graph6(e_orbit["graph6"])) == (
            switching_class_key(parse_graph6(e_labeled["graph6"]))
        )


def test_orbit_scan_failures_match_labeled_scan(labeled_files, monkeypatch):
    """Failures expand to every labeled member of a flagged orbit and merge
    in labeled order.  The theorems hold, so an inflated strict margin makes
    the near-extremal graphs fail (48 at n = 4, 320 at n = 5), and a small
    failure cap truncates the list."""
    monkeypatch.setattr("seidelab.verify.STRICT_MARGIN", 0.8)  # read by both paths
    checks = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
    total = 0
    for n, path in labeled_files.items():
        orbit, labeled = (
            scan(src, checks, (0.5, 1.0), failure_cap=100)
            for src in (AllGraphs(n), Graph6Stream(str(path)))
        )
        total += orbit.total_failures
        assert orbit.total_failures == labeled.total_failures
        assert orbit.failures == labeled.failures
        assert orbit.equality_graph6 == labeled.equality_graph6
    assert total == 368


def test_exhaustive_n8_theorem2():
    rep = scan(AllGraphs(8), checks=("theorem2",), workers=2)
    assert rep.graphs_scanned == 2**28
    assert rep.total_failures == 0
    assert rep.min_energy >= 14 - 1e-6
    assert len(rep.equality_graph6) == 256
    for g6 in rep.equality_graph6:
        g = parse_graph6(g6)
        assert is_sc_equivalent_to_complete(g)[0]
        assert count_odd_pairs(g) == 0


# ---------------------------------------------------------------------------
# edge-bit stack kernels against the per-graph functions


def _edge_bits(g: Graph) -> np.ndarray:
    mask = g.edge_mask()
    return np.array([mask >> e & 1 for e in range(g.n * (g.n - 1) // 2)], dtype=np.uint8)


def test_decoder_matches_parse_graph6(rng):
    graphs = [random_graph(rng, n=n) for n in range(1, 63) for _ in range(3)]
    graphs += [complete_graph(n) for n in (1, 2, 3, 17, 62)]
    order = rng.permutation(len(graphs))
    lines = [encode_graph6(graphs[k]) for k in order]
    linenos = np.arange(10, 10 + len(lines))
    seen = []
    text = "".join(line + "\n" for line in lines).encode("ascii")
    for n, index, bits in _decode_graph6(linenos, text, strict=True):
        assert bits.shape == (len(index), n * (n - 1) // 2)
        for k, row in zip(index.tolist(), bits):
            assert _mask_of_bits(row) == parse_graph6(lines[k]).edge_mask()
            assert parse_graph6(lines[k]).n == n
        # and the vectorized encoder inverts the decoder
        assert _graph6_lines(n, bits).tolist() == [lines[k] for k in index]
        seen += index.tolist()
    assert sorted(seen) == list(range(len(lines)))


MALFORMED = {
    "bad byte": "Cw!",
    "~ header": "~AAA",
    "? header": "?",
    "short": "Dw",
    "long": "Bww",
    "nonzero padding": "Bx",
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("workers", [1, 2])
def test_decoder_rejects_like_parse_graph6(tmp_path, kind, workers):
    bad = MALFORMED[kind]
    with pytest.raises(Graph6Error) as parsed:
        parse_graph6(bad)
    good = ["D~{", "Bw", "@", "Ch", "E?Bw"] * 3
    lines = good[:7] + [bad] + good[7:] + ["", bad]  # the blank line still counts
    p = tmp_path / "bad.g6"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(Graph6StreamError) as streamed:
        scan(Graph6Stream(str(p)), workers=workers, chunk_size=4)
    assert str(streamed.value) == f"line 8: {parsed.value}"
    with pytest.raises(Graph6StreamError) as iterated:
        list(Graph6Stream(str(p)))
    assert str(iterated.value) == str(streamed.value)
    # lenient: chunks of one line leave some chunks empty
    for size in (1, 4):
        rep = scan(Graph6Stream(str(p), strict=False), workers=workers, chunk_size=size)
        assert rep.graphs_scanned == len(good) == len(list(Graph6Stream(str(p), strict=False)))


def _sc_members(rng, n):
    """Random members of K_n's switching class, with and without complement,
    and a graph one edge away from it."""
    w = int(rng.integers(0, 1 << min(n, 62)))
    k = switch(complete_graph(n), w)
    out = [k, complement(k)]
    if n >= 2:
        out.append(Graph.from_edge_mask(n, k.edge_mask() ^ 1))
    return out


@pytest.mark.parametrize("n", range(1, 63))
def test_stack_nop_and_sc_match_per_graph(rng, n):
    graphs = [random_graph(rng, n=n) for _ in range(3)] + _sc_members(rng, n)
    adj = _adjacency(n, np.stack([_edge_bits(g) for g in graphs]))
    s = _seidel(adj)
    assert np.array_equal(s, np.stack([seidel_matrix(g) for g in graphs]))
    assert _odd_pairs(s).tolist() == [count_odd_pairs(g) for g in graphs]
    assert _sc_to_complete(adj).tolist() == [
        is_sc_equivalent_to_complete(g)[0] for g in graphs
    ]
    # the scan kernels through evaluate give run_checks' exact S_k integers;
    # a bound formed in int64 overflows from n = 50
    checks = ("sk-basic", "sk-oddpairs")
    sk = sk_from_charpoly(charpoly_batch_i64(s))
    batch = dict(
        evaluate(n, checks, (1.0,), np.linalg.eigvalsh(s), sk, _odd_pairs(s), _sc_to_complete(adj))
    )
    for b, g in enumerate(graphs):
        reports = run_checks(g, checks)
        for check, (lhs, rhs, margin, _) in batch.items():
            want = [(int(r.lhs), int(r.rhs)) for r in reports if r.check == check]
            assert list(zip(lhs[b].tolist(), rhs[b].tolist())) == want
            assert margin[b].tolist() == [x - y for x, y in want]
            nop = count_odd_pairs(g) if check == "sk-oddpairs" else 0
            assert [y for _, y in want] == [
                n * (n - 1) * binomial(n - 2, k - 1) + 4 * nop * binomial(n - 4, k - 2)
                for k in range(1, n + 1)
            ]


@pytest.mark.parametrize("n", [11, 14, 22])
def test_boundary_bits_match_edge_lists(n):
    fam = BoundaryFamily(n)
    m = n - 2
    for (a, b, c, e), bits in zip(fam.params(), fam.edge_bits(fam.params())):
        edges = list(combinations(range(m), 2))
        edges += [(i, m) for i in range(a)]
        edges += [(i, m + 1) for i in range(c)]
        edges += [(i, m + 1) for i in range(a, a + b - c)]
        edges += [(m, m + 1)] * e
        assert _mask_of_bits(bits) == Graph.from_edges(n, edges).edge_mask()


def test_scan_calls_kernel_through_search_namespace(monkeypatch):
    # the benchmark times the exact kernel as seidelab.search.charpoly_batch_i64;
    # a call made from another module would leave that layer reading zero
    batches = []

    def counting(mats):
        batches.append(len(mats))
        return charpoly_batch_i64(mats)

    monkeypatch.setattr(search, "charpoly_batch_i64", counting)
    rep = scan(AllGraphs(5), checks=("sk-basic",))
    assert rep.total_failures == 0
    assert sum(batches) == 1 << len(search._free_edges(5))


# ---------------------------------------------------------------------------
# CSV rows against csv.writer over per-graph values


def _reference_rows(graphs, checks, p_grid=(1.0,)):
    """Per graph: the cells graph6, n, E_S, N_op, and check -> min margin for
    each check that has one at the graph's order.  Exact margins come from
    run_checks; float ones from the graph's own eigvalsh spectrum, at the
    orders where run_checks reports them (theorem1 from n = 2, theorem2
    always)."""
    exact = [c for c in checks if c not in ("theorem1", "theorem2")]
    rows = []
    for g in graphs:
        vals = np.linalg.eigvalsh(seidel_matrix(g))
        energy = p_energy(vals, 1.0)
        margins = {}
        for rep in run_checks(g, exact):
            margins[rep.check] = min(margins.get(rep.check, np.inf), rep.margin)
        if "theorem1" in checks and g.n >= 2:
            margins["theorem1"] = min(
                p_energy(vals, p) - ((g.n - 1) ** p + (g.n - 2)) for p in p_grid
            )
        if "theorem2" in checks:
            margins["theorem2"] = energy - (2 * g.n - 2)
        rows.append(([encode_graph6(g), g.n, energy, count_odd_pairs(g)], margins))
    return rows


def _reference_csv(groups) -> str:
    """csv.writer over (checks, rows) groups under one header: a margin
    column per check, first-seen order, that some row fills."""
    checks = dict.fromkeys(c for group_checks, _ in groups for c in group_checks)
    filled = {c for _, rows in groups for _, margins in rows for c in margins}
    columns = [c for c in checks if c in filled]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["graph6", "n", "E_S", "N_op"] + [f"{c}_min_margin" for c in columns])
    for _, rows in groups:
        writer.writerows(cells + [margins.get(c, "") for c in columns] for cells, margins in rows)
    return buf.getvalue()


def _written(*reports) -> str:
    buf = io.StringIO()
    reports[0].write_csv(buf, *reports[1:])
    return buf.getvalue()


ALL_CHECKS = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
SMALL = [Graph.from_edge_mask(n, m) for n in (1, 2, 3) for m in range(1 << (n * (n - 1) // 2))]


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_lenient_small_orders_match_csv_writer(tmp_path, workers):
    # no row fills an sk-oddpairs or oddpair-lower margin: both columns drop
    lines = [encode_graph6(g) for g in SMALL]
    bad = sorted(MALFORMED.values())
    text = [x for pair in zip(lines, bad + [""] * len(lines)) for x in pair]
    p = tmp_path / "small.g6"
    p.write_text("\n".join(text) + "\n")
    p_grid = (0.25, 1.0)
    rep = scan(
        Graph6Stream(str(p), strict=False), ALL_CHECKS, p_grid,
        workers=workers, collect_rows=True, chunk_size=4,
    )
    assert rep.graphs_scanned == len(SMALL)
    want = _reference_csv([(ALL_CHECKS, _reference_rows(SMALL, ALL_CHECKS, p_grid))])
    assert want.splitlines()[0] == (
        "graph6,n,E_S,N_op,sk-basic_min_margin,theorem1_min_margin,theorem2_min_margin"
    )
    assert _written(rep) == want
    # the rows view parses the lines back without loss
    names = ["graph6", "n", "E_S", "N_op"] + [f"{c}_min_margin" for c in ALL_CHECKS]
    buf = io.StringIO()
    csv.writer(buf).writerows([row.get(k, "") for k in names] for row in rep.rows)
    assert buf.getvalue() == rep.row_text


def _representative(g: Graph) -> Graph:
    """The member of g's switching-plus-complement orbit that the exhaustive
    scan evaluates: vertex 0 isolated, and the last edge absent."""
    h = switch(g, g.rows[0])
    if g.n >= 3 and h.has_edge(g.n - 2, g.n - 1):
        h = switch(complement(h), (1 << g.n) - 2)
    return h


def _exhaustive_reference(n, checks, p_grid=(1.0,)):
    """Reference rows of AllGraphs(n) in mask order.  Every cell of a labeled
    graph's row but its graph6 comes from its orbit representative, which
    the exhaustive scan evaluates for it."""
    by_representative = {}
    rows = []
    for mask in range(len(AllGraphs(n))):
        g = Graph.from_edge_mask(n, mask)
        h = _representative(g)
        if h not in by_representative:
            by_representative[h] = _reference_rows([h], checks, p_grid)[0]
        cells, margins = by_representative[h]
        rows.append(([encode_graph6(g)] + cells[1:], margins))
    assert len(by_representative) == 1 << len(search._free_edges(n))
    return rows


@pytest.fixture(scope="module")
def all_graphs_reference():
    checks = ("oddpair-lower", "theorem2")
    groups = [(checks, _exhaustive_reference(n, checks)) for n in range(1, 7)]
    return checks, _reference_csv(groups)


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_all_graphs_interleaved_chunks_match_csv_writer(all_graphs_reference, workers):
    # orbit members of one chunk spread over the whole mask range
    checks, want = all_graphs_reference
    reports = [
        scan(AllGraphs(n), checks, workers=workers, collect_rows=True, chunk_size=5)
        for n in range(1, 7)
    ]
    assert _written(*reports) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_reports_with_different_margin_columns(tmp_path, workers):
    small_checks = ("theorem2", "oddpair-lower")  # oddpair-lower is blank below n = 4
    big_checks = ("sk-oddpairs", "oddpair-lower", "theorem1")
    p = tmp_path / "small.g6"
    p.write_text("".join(encode_graph6(g) + "\n" for g in SMALL))
    small = scan(Graph6Stream(str(p)), small_checks, workers=workers, collect_rows=True, chunk_size=3)
    big = scan(AllGraphs(4), big_checks, workers=workers, collect_rows=True, chunk_size=3)
    small_rows = (small_checks, _reference_rows(SMALL, small_checks))
    big_rows = (big_checks, _exhaustive_reference(4, big_checks))
    assert _written(small, big) == _reference_csv([small_rows, big_rows])
    assert _written(big, small) == _reference_csv([big_rows, small_rows])
    assert _written(small).splitlines()[0] == "graph6,n,E_S,N_op,theorem2_min_margin"


def test_chunk_rows_ascend_by_position(tmp_path):
    # a chunk renders its orders' stacks interleaved back into input order,
    # so a stream's chunks concatenate without a sort
    lines = ["D~{", "C~", "Bw", "D??", "Ch", "@", "C?", "D~{"]
    p = tmp_path / "mixed.g6"
    p.write_text("\n\n".join(lines) + "\n")
    (spec,) = Graph6Stream(str(p)).chunk_specs()
    result = search._eval_chunk(spec, ("theorem2",), (1.0,), collect_rows=True)
    assert result.row_positions.tolist() == list(range(1, 2 * len(lines), 2))
    assert [line.split(",")[0] for line in result.row_text.splitlines()] == lines


# ---------------------------------------------------------------------------
# lazy stream feeding


def test_pooled_draws_chunks_as_slots_free(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(search, "_eval_chunk_star", lambda a: a * a)
    drawn = []

    def args():
        for k in range(20):
            drawn.append(k)
            yield k

    with ThreadPoolExecutor(2) as pool:
        for k, result in enumerate(search._pooled(pool, args(), 4)):
            assert result == k * k
            assert len(drawn) <= k + 1 + 4
    assert len(drawn) == 20


@pytest.mark.parametrize("workers", [1, 2])
def test_lazy_stream_strict_error_and_determinism(tmp_path, workers):
    # 30 lines in chunks of 3: ten chunks, more than 2 * workers in flight
    lines = ["D~{", "Bw", "@", "Ch", "E?Bw", "C~"] * 5
    lines[7] = "Cw!"  # line 8, the third chunk
    lines[19] = "Dw"  # line 20, a later chunk
    p = tmp_path / "bad.g6"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(Graph6Error) as parsed:
        parse_graph6("Cw!")
    with pytest.raises(Graph6StreamError) as streamed:
        scan(Graph6Stream(str(p)), workers=workers, chunk_size=3)
    assert str(streamed.value) == f"line 8: {parsed.value}"
    with pytest.raises(Graph6StreamError) as iterated:
        list(Graph6Stream(str(p)))
    assert str(iterated.value) == str(streamed.value)
    reports = [
        scan(Graph6Stream(str(p), strict=False), DESK_CHECKS, workers=w, chunk_size=3)
        for w in (1, workers)
    ]
    assert reports[0].graphs_scanned == 28
    assert reports[0].to_json(include_timing=False) == reports[1].to_json(include_timing=False)


@pytest.mark.parametrize("block", [3, 7, 1 << 18])
def test_stream_reader_matches_text_mode(tmp_path, monkeypatch, block):
    # blocks of a few characters split lines and \r\n pairs between reads
    monkeypatch.setattr(search, "_READ_BLOCK", block)
    data = (
        b"C~\r\n\r\n  Bw \t\n\x0c\n@\rD~{\r\r\nE?Bw\n\xff\nC\xa0~\n"
        b"\x1c\x1d\n" + b"Ch\n" * 7 + b"B?\r\nD??"
    )
    p = tmp_path / "mixed.g6"
    p.write_bytes(data)
    with open(p, encoding="latin-1") as fh:  # text mode: universal newlines
        kept = [
            (k, line.strip(ASCII_WHITESPACE))
            for k, line in enumerate(fh, start=1)
            if line.strip(ASCII_WHITESPACE)
        ]
    specs = list(Graph6Stream(str(p)).chunk_specs(chunk_size=4))
    assert [s[1].tolist() for s in specs] == [
        [k for k, _ in kept[i : i + 4]] for i in range(0, len(kept), 4)
    ]
    assert [s[2] for s in specs] == [
        "".join(line + "\n" for _, line in kept[i : i + 4]).encode("latin-1")
        for i in range(0, len(kept), 4)
    ]
    graphs = list(Graph6Stream(str(p), strict=False))
    assert [encode_graph6(g) for g in graphs] == [
        "C~", "Bw", "@", "D~{", "E?Bw"] + ["Ch"] * 7 + ["B?", "D??"]
    with pytest.raises(Graph6StreamError, match="^line 9: byte 255 out of range"):
        list(Graph6Stream(str(p)))
