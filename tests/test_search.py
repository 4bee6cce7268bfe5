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
    _sk_batch,
    scan,
)
from seidelab import search
from seidelab.spectral import char_poly_exact, charpoly_batch_i64
from seidelab.verify import run_checks
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
        for sk, m in zip(_sk_batch(s), s):
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
    monkeypatch.setattr("seidelab.search.STRICT_MARGIN", 0.8)
    monkeypatch.setattr("seidelab.verify.STRICT_MARGIN", 0.8)
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
    for n, index, bits in _decode_graph6(linenos, "\n".join(lines), strict=True):
        assert bits.shape == (len(index), n * (n - 1) // 2)
        for k, row in zip(index.tolist(), bits):
            assert _mask_of_bits(row) == parse_graph6(lines[k]).edge_mask()
            assert parse_graph6(lines[k]).n == n
        # and the vectorized encoder inverts the decoder
        assert _graph6_lines(n, bits) == [lines[k] for k in index]
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
    a2 = (s @ s).astype(np.int64)
    assert _odd_pairs(a2).tolist() == [count_odd_pairs(g) for g in graphs]
    assert _sc_to_complete(adj).tolist() == [
        is_sc_equivalent_to_complete(g)[0] for g in graphs
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
