import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from functools import lru_cache
from itertools import combinations, islice
from math import factorial
from pathlib import Path
from types import SimpleNamespace

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
from seidelab.graphs import _decode_graph6, _graph6_lines, _graph_of_bits, _relabel, _seidel
from seidelab.search import (
    AllGraphs,
    BoundaryFamily,
    Graph6Stream,
    Graph6StreamError,
    _class_masks,
    _orbit_offsets,
    scan,
)
from seidelab import search
from seidelab.spectral import (
    _charpoly_f64,
    _quotients,
    _sk_fits_int64,
    binomial,
    char_poly_exact,
    charpoly_batch_i64,
    p_energy,
    sk_from_charpoly,
)
from seidelab.verify import evaluate, run_checks
from seidelab.seidel import (
    _odd_pairs,
    _odd_pairs_of_sk,
    _sc_of_sk,
    _sc_to_complete,
    count_odd_pairs,
    is_sc_equivalent_to_complete,
    switch,
    switching_class_key,
)

from conftest import (
    graph_strategy,
    random_graph,
    reference_count_odd_pairs,
    reference_edge_bits,
    reference_encode_graph6,
    reference_is_sc_equivalent_to_complete,
    reference_parse_graph6,
    reference_seidel_matrix,
    sc_members,
)

DESK_CHECKS = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem2")


def _written(*reports) -> str:
    buf = io.StringIO()
    reports[0].write_csv(buf, *reports[1:])
    return buf.getvalue()


def _csv_rows(*reports) -> list[dict]:
    """The rows write_csv writes for the reports, read by csv.DictReader."""
    return list(csv.DictReader(io.StringIO(_written(*reports))))


class TestAllGraphs:
    def test_counts(self):
        assert len(AllGraphs(3)) == 8
        assert len(AllGraphs(4)) == 64
        assert sum(1 for _ in AllGraphs(3)) == 8

    def test_refusal_mentions_stream(self):
        with pytest.raises(ValueError, match="graph6 stream"):
            AllGraphs(9)

    @pytest.mark.parametrize("n", [5.0, 5.5, np.float64(5), "5", None, Graph(5, 0)])
    def test_order_must_be_an_integer(self, n):
        # as Graph checks its order: refused at construction, not when scanned
        with pytest.raises(ValueError, match="integers n in 1..8"):
            AllGraphs(n)

    def test_numpy_integer_order(self):
        assert scan(AllGraphs(np.int64(4))).to_json(False) == scan(AllGraphs(4)).to_json(False)

    def test_order_is_stored_as_int(self):
        # bool is an int, so True passes the check; it is stored as 1, as
        # Graph stores its order, and scans as order 1
        assert type(AllGraphs(True).n) is int and type(AllGraphs(np.int64(4)).n) is int
        assert type(BoundaryFamily(np.int64(11)).n) is int
        report = scan(AllGraphs(True))
        assert report.source == "all(n=1)"
        assert report.to_json(False) == scan(AllGraphs(1)).to_json(False)

    def test_chunking_covers_everything(self, set_chunk_size):
        # n = 5 has 2^(C(4,2)-1) = 32 representatives
        set_chunk_size(10)
        source = AllGraphs(5)
        specs = source.chunk_specs()
        assert all(s[0] is source for s in specs)
        assert [s[1] for s in specs] == [0, 10, 20, 30]
        assert specs[-1][2] == 32
        # the orbits of the representatives partition every labeled mask
        set_chunk_size(7)
        for n in range(1, 7):
            members = [
                _class_masks(n, np.arange(start, stop))[:, None] ^ _orbit_offsets(n)[None, :]
                for _, start, stop in AllGraphs(n).chunk_specs()
            ]
            labeled = np.sort(np.concatenate(members).ravel())
            assert np.array_equal(labeled, np.arange(len(AllGraphs(n)), dtype=np.uint64))


class TestBoundaryFamily:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            BoundaryFamily(10)
        with pytest.raises(ValueError):
            BoundaryFamily(23)

    @pytest.mark.parametrize("n", [12.0, 12.5, np.float64(12), "12", None])
    def test_order_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="integers n in 11..22"):
            BoundaryFamily(n)

    @pytest.mark.parametrize(
        "params",
        [
            (2.5, 1, 0, 0), (2.0, 1, 0, 0), (2, 1.0, 0, 0), (2, 1, 0.0, 0), (2, 1, 0, 1.0),
            ("2", 1, 0, 0),
        ],
    )
    def test_graph_for_needs_integers(self, params):
        # (2, 1, 0, 0) is a member; a float or str that compares like it is not
        fam = BoundaryFamily(12)
        assert fam.graph_for(2, 1, 0, 0) == fam.graph_for(*np.int64([2, 1, 0, 0]))
        with pytest.raises(ValueError, match="not a member: need integers"):
            fam.graph_for(*params)

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
        rows = _csv_rows(rep)
        assert [row["graph6"] for row in rows] == lines
        for row, g in zip(rows, graphs):
            assert int(row["n"]) == g.n
            assert int(row["N_op"]) == count_odd_pairs(g)
            energy = np.abs(np.linalg.eigvalsh(seidel_matrix(g))).sum()
            assert float(row["E_S"]) == pytest.approx(energy, rel=1e-12)
        rep = scan(AllGraphs(5), checks=("oddpair-lower",), collect_rows=True)
        rows = _csv_rows(rep)
        assert len(rows) == 1024
        for row in rows:
            assert int(row["N_op"]) == count_odd_pairs(parse_graph6(row["graph6"]))

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
        # a theorem1 grid must be nonempty and inside (0, 2), checked before
        # any chunk runs, even at n = 1, where theorem1 does not apply
        for p_grid in [(2.0,), (), (0.5, 0.0)]:
            with pytest.raises(ValueError, match="theorem1"):
                scan(AllGraphs(1), checks=("theorem1",), p_grid=p_grid)

    def test_worker_determinism(self, set_chunk_size):
        # n = 6 has 512 representatives: eight chunks
        set_chunk_size(64)
        reports = [
            scan(
                AllGraphs(6),
                checks=("theorem2",),
                workers=w,
            ).to_json(include_timing=False)
            for w in (1, 2, 5)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_chunk_size_independence(self, set_chunk_size, tmp_path, rng):
        # n = 5 has 32 representatives: eleven, three and one chunks; the
        # boundary family at n = 11 has 70: 24, five and one.  The stream
        # mixes orders 3..8 and repeats its 33 lines, so least-energy and
        # equality graphs (B?, Bw) recur in many chunks: 33, seven and one
        lines = [encode_graph6(random_graph(rng, int(n))) for n in rng.integers(3, 9, 30)]
        lines += ["C~", "Bw", "B?"]
        p = tmp_path / "mixed-repeated.g6"
        p.write_text("\n".join(lines + lines[::-1] + lines) + "\n")
        for source in (AllGraphs(5), BoundaryFamily(11), Graph6Stream(str(p))):
            reports = []
            for size in (3, 16, 1024):
                set_chunk_size(size)
                reports.append(scan(source).to_json(include_timing=False))
            assert reports[0] == reports[1] == reports[2]

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
        assert [row["graph6"] for row in _csv_rows(rep)] == lines
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
    rows = _csv_rows(rep)
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
    monkeypatch.setattr("seidelab.search.FAILURE_CAP", 100)
    checks = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
    total = 0
    for n, path in labeled_files.items():
        orbit, labeled = (
            scan(src, checks, (0.5, 1.0))
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
# edge-bit stack kernels against the reference loops of conftest.py


def test_decoder_matches_parse_graph6(rng):
    graphs = [random_graph(rng, n=n) for n in range(1, 63) for _ in range(3)]
    graphs += [complete_graph(n) for n in (1, 2, 3, 17, 62)]
    order = rng.permutation(len(graphs))
    lines = [reference_encode_graph6(graphs[k]) for k in order]
    seen = []
    lengths = np.array([len(line) for line in lines])
    codes = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    decoded, rejected = _decode_graph6(codes, np.cumsum(lengths) - lengths, lengths)
    assert rejected == []
    for n, index, bits in decoded:
        assert bits.shape == (len(index), n * (n - 1) // 2)
        for k, row in zip(index.tolist(), bits):
            assert np.array_equal(row, reference_edge_bits(reference_parse_graph6(lines[k])))
            assert reference_parse_graph6(lines[k]).n == n
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
def test_decoder_rejects_like_parse_graph6(tmp_path, kind, workers, set_chunk_size):
    bad = MALFORMED[kind]
    with pytest.raises(Graph6Error) as parsed:
        parse_graph6(bad)
    good = ["D~{", "Bw", "@", "Ch", "E?Bw"] * 3
    lines = good[:7] + [bad] + good[7:] + ["", bad]  # the blank line still counts
    p = tmp_path / "bad.g6"
    p.write_text("\n".join(lines) + "\n")
    set_chunk_size(4)
    with pytest.raises(Graph6StreamError) as streamed:
        scan(Graph6Stream(str(p)), workers=workers)
    assert str(streamed.value) == f"line 8: {parsed.value}"
    with pytest.raises(Graph6StreamError) as iterated:
        list(Graph6Stream(str(p)))
    assert str(iterated.value) == str(streamed.value)
    # lenient: chunks of one line leave some chunks empty
    for size in (1, 4):
        set_chunk_size(size)
        rep = scan(Graph6Stream(str(p), strict=False), workers=workers)
        assert rep.graphs_scanned == len(good) == len(list(Graph6Stream(str(p), strict=False)))


@pytest.mark.parametrize("n", range(1, 63))
def test_stack_nop_and_sc_match_per_graph(rng, n):
    graphs = [random_graph(rng, n=n) for _ in range(3)] + sc_members(rng, n)
    s = _seidel(n, np.stack([reference_edge_bits(g) for g in graphs]))
    assert np.array_equal(s, np.stack([reference_seidel_matrix(g) for g in graphs]))
    assert _odd_pairs(s).tolist() == [reference_count_odd_pairs(g) for g in graphs]
    assert _sc_to_complete(s).tolist() == [
        reference_is_sc_equivalent_to_complete(g)[0] for g in graphs
    ]
    # the scan kernels through evaluate give run_checks' exact S_k integers;
    # a bound formed in int64 overflows from n = 50
    checks = ("sk-basic", "sk-oddpairs")
    sk = sk_from_charpoly(charpoly_batch_i64(s))
    batch = dict(
        evaluate(n, checks, (1.0,), np.linalg.eigvalsh(s), sk, _odd_pairs(s), _sc_to_complete(s))
    )
    for b, g in enumerate(graphs):
        reports = run_checks(g, checks)
        for check, (lhs, rhs, margin, _) in batch.items():
            want = [(int(r.lhs), int(r.rhs)) for r in reports if r.check == check]
            assert list(zip(lhs[b].tolist(), rhs[b].tolist())) == want
            assert margin[b].tolist() == [x - y for x, y in want]
            nop = reference_count_odd_pairs(g) if check == "sk-oddpairs" else 0
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
        assert np.array_equal(bits, reference_edge_bits(Graph.from_edges(n, edges)))
    assert fam.edge_bits(np.zeros((0, 4), dtype=np.int64)).shape == (0, n * (n - 1) // 2)


def test_scan_calls_kernel_through_search_namespace(monkeypatch):
    # the benchmark times the exact kernel as seidelab.search.charpoly_batch_i64;
    # a call made from another module would leave that layer reading zero
    # (6 parent classes of order 4 for the 32 representatives at n = 5)
    batches = []

    def counting(mats, *borders):
        batches.append(len(mats))
        return charpoly_batch_i64(mats, *borders)

    monkeypatch.setattr(search, "charpoly_batch_i64", counting)
    rep = scan(AllGraphs(5), checks=("sk-basic",))
    assert rep.total_failures == 0
    assert sum(batches) == 6


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
        cells = [reference_encode_graph6(g), g.n, energy, reference_count_odd_pairs(g)]
        rows.append((cells, margins))
    return rows


def _reference_csv(checks, rows) -> str:
    """csv.writer over reference rows under one header: a margin column per
    check, blank where a row's order has no such margin."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["graph6", "n", "E_S", "N_op"] + [f"{c}_min_margin" for c in checks])
    writer.writerows(cells + [margins.get(c, "") for c in checks] for cells, margins in rows)
    return buf.getvalue()


FLOAT_COLUMNS = ("E_S", "theorem1_min_margin", "theorem2_min_margin")
FLOAT_CELL_TOL = 1e-12


def _assert_csv_close(got: str, want: str) -> None:
    """got has want's lines, cell for cell, except that a float cell (E_S and
    the energy margins) may differ by at most FLOAT_CELL_TOL: an orbit chunk
    computes each distinct Seidel char poly's spectrum once, on the first
    row with it, whose eigvalsh may differ from a row's own in the last
    digits.  Every other cell, and the header, must match exactly."""
    got_lines, want_lines = got.split("\r\n"), want.split("\r\n")
    assert len(got_lines) == len(want_lines)
    assert got_lines[0] == want_lines[0]
    header = want_lines[0].split(",")
    for g, w in zip(got_lines, want_lines):
        if g == w:
            continue
        got_cells, want_cells = g.split(","), w.split(",")
        assert len(got_cells) == len(want_cells) == len(header), (g, w)
        for column, x, y in zip(header, got_cells, want_cells):
            if column in FLOAT_COLUMNS and x and y:
                assert abs(float(x) - float(y)) <= FLOAT_CELL_TOL, (column, g, w)
            else:
                assert x == y, (column, g, w)


ALL_CHECKS = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
SMALL = [Graph.from_edge_mask(n, m) for n in (1, 2, 3) for m in range(1 << (n * (n - 1) // 2))]


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_lenient_small_orders_match_csv_writer(tmp_path, workers, set_chunk_size):
    # no row fills an sk-oddpairs or oddpair-lower margin: both columns stay, blank
    lines = [encode_graph6(g) for g in SMALL]
    bad = sorted(MALFORMED.values())
    text = [x for pair in zip(lines, bad + [""] * len(lines)) for x in pair]
    p = tmp_path / "small.g6"
    p.write_text("\n".join(text) + "\n")
    p_grid = (0.25, 1.0)
    set_chunk_size(4)
    rep = scan(
        Graph6Stream(str(p), strict=False), ALL_CHECKS, p_grid, workers=workers, collect_rows=True
    )
    assert rep.graphs_scanned == len(SMALL)
    reference = _reference_rows(SMALL, ALL_CHECKS, p_grid)
    want = _reference_csv(ALL_CHECKS, reference)
    assert want.splitlines()[0] == (
        "graph6,n,E_S,N_op,sk-basic_min_margin,sk-oddpairs_min_margin,"
        "oddpair-lower_min_margin,theorem1_min_margin,theorem2_min_margin"
    )
    assert _written(rep) == want
    # floats are written by repr: the cells read back are the values themselves
    for row, (cells, margins) in zip(_csv_rows(rep), reference, strict=True):
        assert [row["graph6"], int(row["n"]), float(row["E_S"]), int(row["N_op"])] == cells
        read = {c: float(row[f"{c}_min_margin"]) for c in ALL_CHECKS if row[f"{c}_min_margin"]}
        assert read == margins


def _representative(g: Graph) -> Graph:
    """The member of g's switching-plus-complement orbit that the exhaustive
    scan evaluates: vertex 0 isolated, and the last edge absent."""
    h = switch(g, [v for v in range(1, g.n) if g.has_edge(0, v)])
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
        rows.append(([reference_encode_graph6(g)] + cells[1:], margins))
    assert len(by_representative) == 1 << len(search._free_edges(n))
    return rows


@pytest.fixture(scope="module")
def all_graphs_reference():
    checks = ("oddpair-lower", "theorem2")
    rows = [row for n in range(1, 7) for row in _exhaustive_reference(n, checks)]
    return checks, _reference_csv(checks, rows)


@pytest.mark.parametrize(
    "workers, block", [(1, None), (2, None), (1, 7), (2, 7)], ids=["1", "2", "1-block7", "2-block7"]
)
def test_csv_all_graphs_interleaved_chunks_match_csv_writer(
    all_graphs_reference, monkeypatch, set_chunk_size, workers, block
):
    # orbit members of one chunk spread over the whole mask range; blocks of
    # 7 rendered lines end mid-orbit
    if block is not None:
        monkeypatch.setattr(search, "_ROW_BLOCK", block)
    checks, want = all_graphs_reference
    set_chunk_size(5)
    reports = [
        scan(AllGraphs(n), checks, workers=workers, collect_rows=True) for n in range(1, 7)
    ]
    _assert_csv_close(_written(*reports), want)


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_reports_with_different_margin_columns(tmp_path, set_chunk_size, workers):
    # one header serves reports with the same checks only; a stream report
    # and an exhaustive one share it
    checks = ("theorem2", "oddpair-lower")  # oddpair-lower is blank below n = 4
    big_checks = ("sk-oddpairs", "oddpair-lower", "theorem1")
    p = tmp_path / "small.g6"
    p.write_text("".join(encode_graph6(g) + "\n" for g in SMALL))
    set_chunk_size(3)
    small = scan(Graph6Stream(str(p)), checks, workers=workers, collect_rows=True)
    mid = scan(AllGraphs(4), checks, workers=workers, collect_rows=True)
    big = scan(AllGraphs(4), big_checks, workers=workers, collect_rows=True)
    small_rows = _reference_rows(SMALL, checks)
    mid_rows = _exhaustive_reference(4, checks)
    _assert_csv_close(_written(small, mid), _reference_csv(checks, small_rows + mid_rows))
    _assert_csv_close(_written(mid, small), _reference_csv(checks, mid_rows + small_rows))
    big_rows = _exhaustive_reference(4, big_checks)
    _assert_csv_close(_written(big), _reference_csv(big_checks, big_rows))
    assert _written(small).splitlines()[0] == (
        "graph6,n,E_S,N_op,theorem2_min_margin,oddpair-lower_min_margin"
    )
    for reports in [(small, big), (big, small), (mid, big)]:
        with pytest.raises(ValueError, match="same checks"):
            _written(*reports)


def test_csv_header_names_every_requested_check():
    # no check but theorem2 has a margin at n = 1, and neither odd-pair
    # check one below n = 4: the columns stay, blank
    reports = [scan(AllGraphs(n), ALL_CHECKS, collect_rows=True) for n in (1, 2, 3)]
    rows = [row for n in (1, 2, 3) for row in _exhaustive_reference(n, ALL_CHECKS)]
    assert _written(*reports) == _reference_csv(ALL_CHECKS, rows)
    assert _written(*reports).splitlines()[0] == (
        "graph6,n,E_S,N_op," + ",".join(f"{c}_min_margin" for c in ALL_CHECKS)
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_representatives_invert_orbit_expansion(n):
    offsets = _orbit_offsets(n)
    count = 1 << len(search._free_edges(n))
    if n == 8:  # sampled: each member of a sampled orbit maps to its representative
        sample = np.random.default_rng(8).choice(count, 64, replace=False)
        masks = (_class_masks(n, sample)[:, None] ^ offsets).ravel()
        got = search._representatives(n, search._mask_bits(n, masks))
        assert np.array_equal(got, np.repeat(sample, len(offsets)))
        return
    # every labeled mask maps to the representative whose orbit holds it,
    # and each representative is hit once per orbit member
    classes = _class_masks(n, np.arange(count))
    hits = np.zeros(len(classes), dtype=np.int64)
    for lo in range(0, len(AllGraphs(n)), 1 << 16):
        masks = np.arange(lo, min(lo + (1 << 16), len(AllGraphs(n))), dtype=np.uint64)
        got = search._representatives(n, search._mask_bits(n, masks))
        assert np.isin(masks ^ classes[got], offsets).all()
        hits += np.bincount(got, minlength=len(classes))
    assert (hits == len(offsets)).all()


def test_chunk_rows_ascend_by_position(tmp_path):
    # a chunk puts its orders' lines back into input order, skipping blank
    # and malformed lines, so a stream's chunks concatenate without a sort;
    # the second input also starts and ends the chunk with malformed lines
    lines = ["D~{", "C~", "Bw", "D??", "Ch", "@", "C?", "D~{"]
    text = "\n\nBww\n".join(lines) + "\n"
    p = tmp_path / "mixed.g6"
    for data in (text, "Bww\n" + text + "D~\n"):
        p.write_text(data)
        (spec,) = Graph6Stream(str(p), strict=False).chunk_specs()
        result = search._eval_chunk(spec, ("theorem2",), (1.0,), collect_rows=True)
        assert [line.split(",")[0] for line in result.rows.splitlines()] == lines
    # an exhaustive chunk returns its representatives' lines without graph6
    # instead: n, E_S, N_op and the two margins
    (spec,) = AllGraphs(5).chunk_specs()
    result = search._eval_chunk(spec, ("theorem2", "oddpair-lower"), (1.0,), collect_rows=True)
    assert result.rows.dtype == object and len(result.rows) == 32
    for tail in result.rows.tolist():
        assert tail.startswith(",5,") and tail.endswith("\r\n") and tail.count(",") == 5


def test_lenient_chunk_names_rows_without_copying_long_bad_lines(tmp_path, rng):
    # a stream stack names its rows by slicing their own bytes out of the
    # chunk, so a long malformed line that lenient mode skips costs its own
    # bytes, not a copy per line of the chunk (1,000 x 16 KiB here)
    lines = [encode_graph6(random_graph(rng, 10)) for _ in range(1000)]
    p = tmp_path / "long-bad-line.g6"
    p.write_text("\n".join(lines[:500] + ["~" * (1 << 14)] + lines[500:]) + "\n")
    (spec,) = Graph6Stream(str(p), strict=False).chunk_specs()
    tracemalloc.start()
    try:
        count, (st,) = spec[0].stacks(*spec[1:])
        names = st.members(np.arange(count))[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert names.tolist() == lines
    assert peak < 1 << 20


def _count_naming(monkeypatch, cls) -> list:
    """Per stack that cls.stacks builds from now on, the calls of its
    members, which expands and names rows, as they are made."""
    calls, stacks = [], cls.stacks

    def counted(tally, fn):
        def wrapper(*args):
            tally["members"] += 1
            return fn(*args)

        return wrapper

    def counting(self, *part):
        count, built = stacks(self, *part)
        wrapped = []
        for st in built:
            calls.append(tally := {"members": 0})
            wrapped.append(st._replace(members=counted(tally, st.members)))
        return count, wrapped

    monkeypatch.setattr(cls, "stacks", counting)
    return calls


def test_reports_expand_and_name_each_stack_once(monkeypatch, tmp_path, rng):
    # the rows a report names (minimum energy, equality, failures) are
    # expanded to their graphs and named by one members call per stack; the
    # exhaustive source names its CSV rows in _OrbitRows
    calls = _count_naming(monkeypatch, AllGraphs)
    rep = scan(AllGraphs(7), DESK_CHECKS, collect_rows=True)
    assert len(rep.equality_graph6) == 1 << 7
    assert calls == [{"members": 1}]
    # a stream chunk in which checks fail (see
    # test_orbit_scan_failures_match_labeled_scan); a stream stack names its
    # CSV lines once more
    monkeypatch.setattr("seidelab.verify.STRICT_MARGIN", 0.8)
    calls = _count_naming(monkeypatch, Graph6Stream)
    lines = [encode_graph6(Graph(4, mask)) for mask in range(64)]
    lines += [encode_graph6(random_graph(rng, 6)) for _ in range(10)]
    p = tmp_path / "failing.g6"
    p.write_text("\n".join(lines) + "\n")
    (spec,) = Graph6Stream(str(p)).chunk_specs()
    checks = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
    for collect_rows, per_stack in [(False, 1), (True, 2)]:
        calls.clear()
        result = search._eval_chunk(spec, checks, (0.5, 1.0), collect_rows)
        assert result.failure_reports and result.equality_graph6
        assert calls == [{"members": per_stack}] * 2


def test_n8_csv_head_matches_csv_writer(monkeypatch):
    # the first two blocks of 512 lines at n = 8: masks 0..1,023, whose
    # representatives lie in many chunks
    monkeypatch.setattr(search, "_ROW_BLOCK", 512)
    checks = ("oddpair-lower", "theorem2")
    rep = scan(AllGraphs(8), checks, collect_rows=True)
    header = "graph6,n,E_S,N_op,oddpair-lower_min_margin,theorem2_min_margin\r\n"
    got = header + "".join(islice(rep.csv_rows, 2))
    graphs = [Graph.from_edge_mask(8, mask) for mask in range(1024)]
    _assert_csv_close(got, _reference_csv(checks, _reference_rows(graphs, checks)))


# ---------------------------------------------------------------------------
# one evaluation per distinct Seidel characteristic polynomial

GROUPED_SOURCES = [AllGraphs(n) for n in range(1, 8)] + [BoundaryFamily(n) for n in range(11, 17)]


def _stack_bits(st, rows: int) -> np.ndarray:
    """The edge bits of a stack's rows 0..rows-1, decoded from the graph6
    line members gives each row's first member, expanded 256 rows at a
    time, so a whole n = 7 chunk's 2^21 graphs are never named at once: a
    boundary row is its one member, and an exhaustive row's first member in
    source order is its orbit representative."""
    blocks = []
    for lo in range(0, rows, 256):
        row, _, g6 = st.members(np.arange(lo, min(lo + 256, rows)))
        blocks.append(g6[np.flatnonzero(np.diff(row, prepend=-1))])
    lines = np.concatenate(blocks)
    width = len(lines[0])
    codes = np.frombuffer("".join(lines.tolist()).encode(), dtype=np.uint8)
    ((_, _, bits),), rejected = _decode_graph6(codes, np.arange(rows) * width, np.full(rows, width))
    assert not rejected
    return bits


def _catch(mp, name) -> list:
    """Arguments of each call of search.<name> while mp is in effect."""
    calls, fn = [], getattr(search, name)
    mp.setattr(search, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_distinct_rows_is_exact_on_object_rows():
    # rows equal but for a digit past int64, and repeats out of order
    big = 1 << 70
    rows = np.array(
        [[1, big, 3], [1, big + 1, 3], [1, big, 3], [0, 5, 6], [1, big + 1, 3]], dtype=object
    )
    first, inverse = search._distinct_rows(rows)
    assert sorted(first.tolist()) == [0, 1, 3]
    assert np.array_equal(rows[first][inverse], rows)
    assert inverse[0] == inverse[2] and inverse[1] == inverse[4]


@pytest.mark.parametrize("source", GROUPED_SOURCES, ids=lambda s: s.descriptor)
def test_grouped_quantities_match_per_row_kernels(source):
    # the groups are exactly the distinct char polys, each evaluated on its
    # first row, and the exact quantities scatter back to the per-row values:
    # N_op and the SC flag, read off the polynomials, equal the S kernels' on
    # every row; boundary spectra come from the 6x6 quotient, not
    # from eigvalsh of S
    need = {"vals", "sk", "nop", "sc"}
    for spec in source.chunk_specs():
        (st,) = source.stacks(*spec[1:])[1]
        inverse, vals, sk, nop, sc = st.quantities(need)
        assert st._fields == ("n", "members", "slots", "quantities")  # no edge bits
        s = _seidel(st.n, _stack_bits(st, len(inverse)))
        coeffs = charpoly_batch_i64(s)
        groups, first = np.unique(inverse, return_index=True)
        assert np.array_equal(groups, np.arange(len(vals)))
        assert np.array_equal(coeffs[first][inverse], coeffs)
        assert len(first) == len(np.unique(coeffs, axis=0))
        if isinstance(source, BoundaryFamily):
            assert np.abs(vals - np.linalg.eigvalsh(s[first])).max() <= 1e-12
        else:
            assert np.array_equal(vals.view(np.int64), np.linalg.eigvalsh(s[first]).view(np.int64))
        assert np.array_equal(nop[inverse], _odd_pairs(s))
        assert np.array_equal(sc[inverse], _sc_to_complete(s))
        assert np.array_equal(sk[inverse], sk_from_charpoly(coeffs))


@pytest.mark.parametrize("source", [AllGraphs(7), BoundaryFamily(16)], ids=lambda s: s.descriptor)
def test_rows_sharing_a_char_poly_carry_identical_floats(set_chunk_size, source):
    # every cell of a row's line but graph6, floats included, is its chunk's
    # first row's with the same char poly: an exhaustive chunk returns its
    # representatives' tails, a boundary chunk its members' lines
    p_grid = (0.5, 1.0, 1.5)
    set_chunk_size(50)
    for spec in source.chunk_specs():
        tails = search._eval_chunk(spec, ALL_CHECKS, p_grid, collect_rows=True).rows
        if isinstance(tails, str):
            tails = np.array([line.partition(",")[2] for line in tails.split("\r\n")[:-1]])
        (st,) = source.stacks(*spec[1:])[1]
        coeffs = charpoly_batch_i64(_seidel(st.n, _stack_bits(st, len(tails))))
        _, first, group = np.unique(coeffs, axis=0, return_index=True, return_inverse=True)
        assert tails.tolist() == tails[first][group.ravel()].tolist()


def test_exhaustive_n7_renders_one_tail_per_char_poly(monkeypatch):
    # the 53 distinct char polys of test_exhaustive_n7_runs_eigvalsh_once_per_char_poly
    rendered, render = [], search._render_tails

    def counting(n, columns, checks):
        tails = render(n, columns, checks)
        rendered.append(len(tails))
        return tails

    monkeypatch.setattr(search, "_render_tails", counting)
    rep = scan(AllGraphs(7), DESK_CHECKS, collect_rows=True)
    assert rendered == [53]
    assert len(rep.csv_rows.tails) == 1 << 14


def test_exhaustive_n7_runs_eigvalsh_once_per_char_poly(monkeypatch):
    # n = 7 is one chunk of 16,384 representatives with 53 distinct char
    # polys, which the exact kernel finds from the 90 classes of their 1,024
    # parents
    polys, batches, kernel, eigvalsh = [], [], charpoly_batch_i64, np.linalg.eigvalsh

    def counting(a):
        batches.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(search.np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(
        search, "charpoly_batch_i64", lambda m, *v: polys.append(m.shape) or kernel(m, *v)
    )
    rep = scan(AllGraphs(7), DESK_CHECKS)
    assert (rep.graphs_scanned, rep.total_failures) == (1 << 21, 0)
    assert sum(batches) == 53
    assert polys == [(90, 6, 6)]


def _sampled(specs, count=48):
    """About count specs spread evenly over specs, the last included."""
    return specs[:: -(-len(specs) // count)] + specs[-1:]


def _assert_bordered_rows_match(source, start, stop):
    """The polynomials an exhaustive stack of representatives start..stop-1
    groups its rows by, from parent classes and relabeled borders and read
    through each row's candidate index, equal the kernel's rows on its full
    stack; returns the number of parent classes and of borders.  source
    needs only its order n, so it may stand in for an order AllGraphs
    refuses."""
    (st,) = AllGraphs.stacks(source, start, stop)[1]
    with pytest.MonkeyPatch.context() as mp:
        polys, kernel = _catch(mp, "_by_charpoly"), _catch(mp, "charpoly_batch_i64")
        st.quantities(set())
    ((coeffs, rows, ones, _, _),), ((parents, borders),) = polys, kernel
    n = source.n
    assert ones == 0
    assert parents.shape[1:] == (n - 1, n - 1) and borders.shape[1] == n - 1
    assert coeffs.shape == (len(parents) * len(borders), n + 1)
    bits = search._mask_bits(n, _class_masks(n, np.arange(start, stop)))
    assert np.array_equal(coeffs[rows], charpoly_batch_i64(_seidel(n, bits)))
    return len(parents), len(borders)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("chunk_size", [1, 5, 7, 64, search.CHUNK_SIZE])
def test_bordered_rows_match_full_stack_kernel(set_chunk_size, n, chunk_size):
    # each exhaustive row's polynomial comes from its parent and border,
    # whatever the chunk boundaries
    set_chunk_size(chunk_size)
    for spec in _sampled(AllGraphs(n).chunk_specs()):
        _assert_bordered_rows_match(*spec)


@pytest.mark.parametrize(
    "start, stop", [(0, 1 << 15), (777 << 15, 778 << 15), ((5 << 15) - 300, (5 << 15) + 200)]
)
def test_bordered_rows_match_full_stack_kernel_n9(start, stop):
    # n = 9 borders at vertex 6: an aligned 2^15 chunk is the classes of
    # its 1,024 parents times 32 borders (chunk 0's parents are the graphs
    # on vertices 1..5, 34 up to isomorphism, OEIS A000088); a chunk across
    # an alignment spans parents of two values of its higher bits
    counts = _assert_bordered_rows_match(SimpleNamespace(n=9), start, stop)
    assert start % (1 << 15) or counts == ({0: 34, 777 << 15: 576}[start], 32)


def test_bordered_rows_match_full_stack_kernel_across_an_alignment():
    # AllGraphs(8)'s own numbers: the last 300 rows of chunk 4 (border 31)
    # and the first 200 of chunk 5 (border 0) span 500 parent numbers
    _assert_bordered_rows_match(AllGraphs(8), (5 << 15) - 300, (5 << 15) + 200)


def test_bordered_rows_match_with_edges_past_w_n9():
    # from n = 9 the border at w = 6 also holds the free edges (6, 7) and
    # (6, 8), bits 20 and 26 of the number, which G fixes: these rows hold
    # one or the other, and each value of the two bits up to the largest
    # adds 2^5 borders
    start = (1 << 26) - 3000
    assert _assert_bordered_rows_match(SimpleNamespace(n=9), start, start + 6000)[1] == 3 * 32


def test_exhaustive_scan_sorts_no_chunk_rows(monkeypatch):
    # parents and borders are bit fields of the representative numbers, so
    # the polynomials are grouped once per stack, on the candidates only
    # (90 classes times 16 borders at n = 7, against 16,384 rows), and edge
    # masks are built only for the 1,024 parents spanned and the rows read,
    # never for a whole chunk
    sorted_rows = _catch(monkeypatch, "_distinct_rows")
    masked = _catch(monkeypatch, "_class_masks")
    assert scan(AllGraphs(7), DESK_CHECKS).total_failures == 0
    assert [len(rows) for (rows,) in sorted_rows] == [90 * 16]
    assert sorted(len(numbers) for _, numbers in masked)[-2:] == [53, 1024]
    _, start, stop = AllGraphs(8).chunk_specs()[5]
    sorted_rows.clear(), masked.clear()
    assert not search._eval_chunk((AllGraphs(8), start, stop), DESK_CHECKS, (1.0,)).failure_reports
    assert [len(rows) for (rows,) in sorted_rows] == [148 * 32]
    assert masked and all(len(numbers) < stop - start for _, numbers in masked)


@pytest.mark.parametrize("n, classes", [(4, 2), (5, 6), (6, 20), (7, 90)])
def test_exhaustive_parent_classes(n, classes):
    # a whole order's parents are graphs on vertices 1..n-3 plus vertex
    # n-2, whose edges to them act as loops, so their classes are the
    # graphs with loops on n - 3 vertices, OEIS A000666
    parents, borders, _ = search._bordered(n, 0, 1 << len(search._free_edges(n)))
    assert (len(parents), len(borders)) == (classes, 1 << (n - 3))


def test_exhaustive_n8_parent_classes_per_chunk():
    # each of the 32 chunks at n = 8 fixes the edges from vertex 7 to
    # vertices 1..5, so its 1,024 parents fall into 34 to 148 classes
    counts = []
    for _, start, stop in AllGraphs(8).chunk_specs():
        parents, borders, _ = search._bordered(8, start, stop)
        assert len(borders) == 32
        counts.append(len(parents))
    assert (len(counts), min(counts), max(counts), sum(counts)) == (32, 34, 148, 3928)


@pytest.mark.parametrize("n", range(5, 10))
def test_canonical_parent_key_is_invariant_under_relabeling(rng, n):
    # every relabeling by G of a parent has the parent's canonical key, and
    # the key is the edge mask of the parent relabeled by the permutation
    # returned with it
    m = n - 1
    perms = search._parent_relabelings(n)[0]
    assert len(perms) == factorial(min(n - 3, 5))
    bits = rng.integers(0, 2, size=(40, m * (m - 1) // 2), dtype=np.uint8)
    keys, g = search._canonical_parents(n, bits)
    weights = 1 << np.arange(bits.shape[1])
    assert np.array_equal(keys, _relabel(m, bits, perms[g]) @ weights)
    for perm in perms:
        assert np.array_equal(search._canonical_parents(n, _relabel(m, bits, perm[None]))[0], keys)


@pytest.mark.parametrize(
    "checks, grouped", [(("theorem2", "oddpair-lower"), False), (DESK_CHECKS, True)]
)
def test_stream_groups_only_when_checks_read_sk(tmp_path, monkeypatch, rng, checks, grouped):
    # a stream without S_k checks computes no char polys and evaluates
    # every row; with them, repeated lines share one evaluation
    lines = [encode_graph6(random_graph(rng, 9)) for _ in range(20)]
    p = tmp_path / "repeats.g6"
    p.write_text("".join(g6 + "\n" for g6 in lines * 3))
    polys, spectra, kernel, eigvalsh = [], [], charpoly_batch_i64, np.linalg.eigvalsh
    monkeypatch.setattr(search, "charpoly_batch_i64", lambda m: polys.append(len(m)) or kernel(m))
    monkeypatch.setattr(
        search.np.linalg, "eigvalsh", lambda a: spectra.append(len(a)) or eigvalsh(a)
    )
    rep = scan(Graph6Stream(str(p)), checks, collect_rows=True)
    assert rep.graphs_scanned == 60
    assert sum(polys) == (60 if grouped else 0)
    assert sum(spectra) == (len(set(lines)) if grouped else 60)
    rows = _written(rep).split("\r\n")[1:-1]
    assert rows[:20] == rows[20:40] == rows[40:]


# ---------------------------------------------------------------------------
# the boundary family, each member reaching its polynomial through its
# apex-switching orbit's representative

BOUNDARY_ORDERS = range(11, 23)


@lru_cache(maxsize=None)
def _apex_switchings(n: int, a: int, b: int, c: int, e: int) -> list[tuple]:
    """(a, b, c, e) of the graphs that switching on apex v1, on v2 and on
    both make of a member, read off the switched graphs: the apexes' clique
    neighbourhood sizes and overlap and the apex edge, the larger
    neighbourhood first.  The clique is untouched, so these four numbers
    fix each graph up to a relabeling of the clique."""
    m = n - 2
    g = BoundaryFamily(n).graph_for(a, b, c, e)
    images = []
    for apexes in (1 << m, 1 << (m + 1), 3 << m):
        h = switch(g, apexes)
        assert all(h.has_edge(i, j) for i, j in combinations(range(m), 2))
        n1, n2 = ({i for i in range(m) if h.has_edge(i, v)} for v in (m, m + 1))
        p, q = sorted([len(n1), len(n2)], reverse=True)
        images.append((p, q, len(n1 & n2), int(h.has_edge(m, m + 1))))
    return images


def _times_x_minus_1(q: np.ndarray, ones: int) -> np.ndarray:
    """Ascending polynomial rows q times (x - 1)^ones, in Python ints."""
    p = q.astype(object)
    for _ in range(ones):
        p = np.pad(p, ((0, 0), (1, 0))) - np.pad(p, ((0, 0), (0, 1)))
    return p


def _boundary_orbits(n: int) -> list[np.ndarray]:
    """Each orbit's parameter indices, in representative order."""
    orbit = search._boundary_table(n).orbit
    return [np.flatnonzero(orbit == k) for k in range(orbit.max() + 1)]


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_boundary_orbits_partition_params(n):
    # a member's representative is its orbit's least parameter index, which
    # its apex switchings share; orbits are numbered by representative
    fam = BoundaryFamily(n)
    table = search._boundary_table(n)
    assert table._fields == ("params", "orbit", "reps")
    rep = table.reps[table.orbit]
    assert np.array_equal(table.reps, np.unique(rep))
    params = fam.params()
    index = {p: k for k, p in enumerate(params)}
    assert np.array_equal(rep[rep], rep)
    assert np.all(rep <= np.arange(len(params)))
    orbits = _boundary_orbits(n)
    assert np.array_equal(np.sort(np.concatenate(orbits)), np.arange(len(params)))
    assert [int(orbit[0]) for orbit in orbits] == np.unique(rep).tolist()
    assert len(fam) == len(params)
    for k, p in enumerate(params):
        for image in _apex_switchings(n, *p):
            assert rep[index[image]] == rep[k]


def test_boundary_order_is_one_chunk(set_chunk_size, monkeypatch):
    # the largest order fits one chunk, so every order is one chunk of all
    # its members, at any chunk size
    assert len(BoundaryFamily(search.BOUNDARY_MAX_N)) <= search.CHUNK_SIZE
    set_chunk_size(1)
    for n in BOUNDARY_ORDERS:
        fam = BoundaryFamily(n)
        assert fam.chunk_specs() == [(fam,)]
        count, (stack,) = fam.stacks()
        assert count == len(fam) and np.array_equal(stack.slots, np.arange(len(fam)))
    chunks = _catch(monkeypatch, "_eval_chunk")
    for n in (11, 22):
        assert scan(BoundaryFamily(n), workers=2).graphs_scanned == len(BoundaryFamily(n))
    assert [spec for spec, *_ in chunks] == [(BoundaryFamily(11),), (BoundaryFamily(22),)]


def test_boundary_orbit_counts():
    orbits = [len(np.unique(search._boundary_table(n).orbit)) for n in BOUNDARY_ORDERS]
    assert orbits == [len(search._boundary_table(n).reps) for n in BOUNDARY_ORDERS]
    assert sum(orbits) == 2971
    assert sum(orbits[:6]) == 785  # n = 11..16
    assert sum(len(BoundaryFamily(n)) for n in BOUNDARY_ORDERS) == 10982


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_boundary_polys_match_kernel(n):
    # the equitable quotient gives every member's exact polynomial, members
    # with empty cells included: (x - 1)^(n-6) times the 6x6 quotient's
    params = np.array(BoundaryFamily(n).params())
    a, b, c, _ = params.T
    sizes = np.stack([c, a - c, b - c, n - 2 - a - b + c])
    assert (sizes == 0).any(axis=1).all()  # each cell is empty in some member
    got = _charpoly_f64(_quotients(*search._boundary_type(n, params)))
    want = charpoly_batch_i64(_seidel(n, BoundaryFamily(n).edge_bits(params)))
    assert got.dtype == np.int64 and got.shape == (len(params), 7)
    assert _times_x_minus_1(got, n - 6).tolist() == want.tolist()


def test_boundary_scan_runs_no_exact_kernel(monkeypatch):
    # the boundary polynomials and spectra come from the quotient: n = 11..16
    # call the exact kernel never and eigvalsh once per distinct polynomial,
    # on its 6x6 quotient; N_op and the SC flag are read off the polynomials'
    # S_k, so no Seidel matrix is built, and members are looked up, not searched,
    # their orbits numbered once per order, not per scan;
    # the polynomials stay factored, the quotient's times (x - 1)^(n-6), so
    # none of degree n is built
    tables = [search._boundary_table(n) for n in range(11, 17)]
    polys, batches, kernel, eigvalsh = [], [], charpoly_batch_i64, np.linalg.eigvalsh
    grouped = _catch(monkeypatch, "_by_charpoly")
    quotients = _catch(monkeypatch, "_charpoly_f64")
    called = []
    for name in ("_seidel", "_odd_pairs", "_sc_to_complete"):
        monkeypatch.setattr(search, name, lambda *a, name=name: called.append(name))
    monkeypatch.setattr(search.np, "isin", lambda *a, **k: called.append("isin"))
    monkeypatch.setattr(search.np, "unique", lambda *a, **k: called.append("unique"))

    def counting(a):
        batches.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(search.np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(
        search, "charpoly_batch_i64", lambda m, *v: polys.append(m.shape) or kernel(m, *v)
    )
    for n in range(11, 17):
        assert scan(BoundaryFamily(n), DESK_CHECKS).total_failures == 0
    assert polys == [] and called == []
    shapes = [(coeffs.shape[1], ones) for coeffs, _, ones, *_ in grouped]
    assert shapes == [(7, n - 6) for n in range(11, 17)]
    # the candidates are the orbit representatives, each member reaching its
    # own through its rep, so the quotients expanded are the 785 orbits', not
    # the 2,842 members'
    assert [len(coeffs) for coeffs, *_ in grouped] == [70, 91, 112, 140, 168, 204]
    for (coeffs, rows, *_), table in zip(grouped, tables):
        assert np.array_equal(table.reps[rows], table.reps[table.orbit])
    assert sum(len(q) for q, in quotients) == 785
    assert {shape[1:] for shape in batches} == {(6, 6)}
    assert sum(shape[0] for shape in batches) == 715


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_charpoly_reads_match_s_kernels_on_every_boundary_member(n):
    # N_op and the SC flag read off the S_k of the quotient's polynomials
    # equal the S kernels' on every member, not only on the representatives
    # a scan expands
    params = np.array(BoundaryFamily(n).params())
    coeffs = _charpoly_f64(_quotients(*search._boundary_type(n, params)))
    s = _seidel(n, BoundaryFamily(n).edge_bits(params))
    sk = sk_from_charpoly(coeffs, n - 6)
    assert np.array_equal(_odd_pairs_of_sk(sk), _odd_pairs(s))
    assert np.array_equal(_sc_of_sk(sk), _sc_to_complete(s))


def _assert_factored_reads_match_expanded(q, ones):
    # S_k, N_op and the SC flag of (x - 1)^ones q, read off q and ones,
    # equal the reads off the polynomial multiplied out, as int64 rows;
    # S_k is int64 where Maclaurin's bound at (d, ones) allows
    p = _times_x_minus_1(q, ones).astype(np.int64)
    sk, expanded = sk_from_charpoly(q, ones), sk_from_charpoly(p)
    assert sk.dtype == (np.int64 if _sk_fits_int64(q.shape[1] - 1, ones) else object)
    assert sk.shape == p.shape and sk.tolist() == expanded.tolist()
    assert np.array_equal(_odd_pairs_of_sk(sk), _odd_pairs_of_sk(expanded))
    sc = _sc_of_sk(sk)
    assert sc.dtype == bool and np.array_equal(sc, _sc_of_sk(expanded))
    return sk, sc


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_factored_reads_match_expanded_on_every_boundary_member(n):
    # Maclaurin's bound on the quotient's six squared roots keeps every
    # member's S_k in int64 up to n = 22, equal to the Python-int S_k of the
    # expanded polynomial from n = 17; the equality members' S_k match the
    # SC class's row
    params = np.array(BoundaryFamily(n).params())
    q = _charpoly_f64(_quotients(*search._boundary_type(n, params)))
    sk, sc = _assert_factored_reads_match_expanded(q, n - 6)
    assert sk.dtype == np.int64
    assert sk.tolist() == sk_from_charpoly(q.astype(object), n - 6).tolist()
    assert sc.any() and not sc.all()


@pytest.mark.parametrize("n", [*range(1, 17), 20])
@pytest.mark.parametrize("ones", [0, 1, 3])
def test_factored_reads_match_expanded_on_random_stacks(rng, n, ones):
    # the reads are identities in the coefficients, so they hold for any
    # Seidel polynomial times (x - 1)^ones; ones = 0 reads q itself
    members = sc_members(rng, n)
    bits = rng.integers(0, 2, (40, n * (n - 1) // 2), dtype=np.uint8)
    s = _seidel(n, np.concatenate([bits, [reference_edge_bits(g) for g in members]]))
    q = charpoly_batch_i64(s)
    _, sc = _assert_factored_reads_match_expanded(q, ones)
    assert sc[-len(members) :][:2].all() == (ones == 0)  # K_n switched, and its complement


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_boundary_quotient_spectra_match_eigvalsh(n):
    # every member's spectrum, the symmetrized quotient's joined with n - 6
    # ones, is its own Seidel matrix's, members with empty cells included
    params = np.array(BoundaryFamily(n).params())
    q = _quotients(*search._boundary_type(n, params), symmetrized=True)
    assert q.shape == (len(params), 6, 6) and np.array_equal(q, q.swapaxes(1, 2))
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(q), np.ones((len(q), n - 6))], axis=1))
    want = np.linalg.eigvalsh(_seidel(n, BoundaryFamily(n).edge_bits(params)))
    assert np.abs(vals - want).max() <= 1e-12


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_boundary_min_energy_is_exact(n):
    # the equality class's quotient spectrum sums to 2n - 2 in float
    assert scan(BoundaryFamily(n)).min_energy == 2 * n - 2


@pytest.mark.parametrize(
    "params",
    [(0, 0, 0, 0), (0, 0, 0, 1), (2, 2, 2, 0), (3, 3, 1, 1), (5, 4, 0, 0), (9, 9, 9, 1), (9, 0, 0, 0)],
)
def test_boundary_graph_for_accepts_members(params):
    # each inequality of the family at equality: c = 0, c = b, b = a,
    # a + b - c = n - 2 (n = 11)
    fam = BoundaryFamily(11)
    assert params in fam.params()
    assert fam.graph_for(*params) == _graph_of_bits(11, fam.edge_bits([params]))


@pytest.mark.parametrize(
    "n, params",
    [
        (11, (3, 2, -1, 0)),  # c < 0
        (11, (3, 2, 7, 0)),  # c > b
        (11, (2, 3, 1, 0)),  # b > a
        (11, (9, 1, 0, 0)),  # a + b - c = n - 1
        (11, (10, 0, 0, 0)),  # a > n - 2
        (12, (12, 0, 0, 3)),
        (11, (3, 2, 1, 2)),  # e not 0 or 1
        (11, (3, 2, 1, -1)),
    ],
)
def test_boundary_graph_for_rejects_non_members(n, params):
    with pytest.raises(ValueError, match="not a member"):
        BoundaryFamily(n).graph_for(*params)


@pytest.mark.parametrize("n", BOUNDARY_ORDERS)
def test_boundary_checked_quantities_constant_on_orbits(n):
    fam = BoundaryFamily(n)
    s = _seidel(n, fam.edge_bits(fam.params()))
    vals = np.linalg.eigvalsh(s)
    sk = sk_from_charpoly(charpoly_batch_i64(s))
    nop = _odd_pairs(s)
    sc = _sc_to_complete(s)
    for orbit in _boundary_orbits(n):
        first, rest = orbit[0], orbit[1:]
        assert (sk[rest] == sk[first]).all()
        assert (nop[rest] == nop[first]).all()
        assert (sc[rest] == sc[first]).all()
        assert np.abs(vals[rest] - vals[first]).max(initial=0.0) <= 1e-9


@pytest.mark.parametrize("workers, chunk_size", [(1, 1), (1, 7), (2, 7), (2, None)])
def test_boundary_report_independent_of_chunks(set_chunk_size, workers, chunk_size):
    want = _boundary_reports(1, None)
    if chunk_size is not None:
        set_chunk_size(chunk_size)
    assert _boundary_reports(workers, chunk_size) == want


@lru_cache(maxsize=None)
def _boundary_reports(workers, chunk_size):
    """Reports of a scan at search.CHUNK_SIZE, which the caller has set to
    chunk_size (None: the default); cached by both."""
    return [
        scan(BoundaryFamily(n), ("sk-oddpairs", "oddpair-lower", "theorem2"), workers=workers)
        .to_json(include_timing=False)
        for n in BOUNDARY_ORDERS
    ]


def _boundary_reference(n, checks):
    """Reference rows of BoundaryFamily(n) in parameter order.  Every cell of
    a member's row but its graph6 comes from its orbit's least member, found
    by closing the member's apex switchings."""
    fam = BoundaryFamily(n)
    params = fam.params()
    index = {p: k for k, p in enumerate(params)}
    first = []
    for k in range(len(params)):
        orbit, frontier = {k}, [k]
        while frontier:
            images = {index[q] for q in _apex_switchings(n, *params[frontier.pop()])}
            frontier.extend(images - orbit)
            orbit |= images
        first.append(min(orbit))
    by_first = {k: _reference_rows([fam.graph_for(*params[k])], checks)[0] for k in set(first)}
    rows = []
    for p, k in zip(params, first):
        cells, margins = by_first[k]
        rows.append(([reference_encode_graph6(fam.graph_for(*p))] + cells[1:], margins))
    return rows


@pytest.fixture(scope="module")
def boundary_reference():
    checks = ("oddpair-lower", "theorem2")
    rows = [row for n in BOUNDARY_ORDERS for row in _boundary_reference(n, checks)]
    return checks, _reference_csv(checks, rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_boundary_matches_representative_reference(
    boundary_reference, set_chunk_size, workers
):
    # an order is one chunk at any chunk size; a row's float cells come
    # from the first member with its polynomial, which may be another
    # orbit's representative than the reference's
    checks, want = boundary_reference
    set_chunk_size(5)
    reports = [
        scan(BoundaryFamily(n), checks, workers=workers, collect_rows=True)
        for n in BOUNDARY_ORDERS
    ]
    _assert_csv_close(_written(*reports), want)


def test_import_builds_no_boundary_table():
    # neither the import nor an exhaustive scan builds a boundary orbit table
    code = (
        "import seidelab\n"
        "from seidelab import search\n"
        "assert search._boundary_table.cache_info().currsize == 0\n"
        "seidelab.scan(seidelab.AllGraphs(4), collect_rows=True)\n"
        "assert search._boundary_table.cache_info().currsize == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


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


def test_pool_size_capped_at_cpu_count(monkeypatch, set_chunk_size):
    # a stand-in pool on at most two threads records the size it is asked
    # for; no process pool is started
    from concurrent.futures import ThreadPoolExecutor

    sizes, in_flight = [], []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    pooled = search._pooled

    def recording_pooled(pool, args, n):
        in_flight.append(n)
        return pooled(pool, args, n)

    monkeypatch.setattr(search, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(search, "_pooled", recording_pooled)
    set_chunk_size(64)
    want = scan(AllGraphs(6)).to_json(include_timing=False)
    for cpus, pool in [(3, [3]), (None, [])]:  # no CPU count: one process, serially
        sizes.clear(), in_flight.clear()
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        rep = scan(AllGraphs(6), workers=100_000)
        assert sizes == pool
        assert in_flight == [2 * k for k in pool]
        assert rep.to_json(include_timing=False) == want


def test_one_chunk_scans_start_no_pool(monkeypatch, tmp_path):
    # forking costs more than a lone chunk takes: every exhaustive order up to
    # 7, every boundary order and a stream of at most CHUNK_SIZE lines run in
    # the calling process at any worker count
    def refuse(max_workers):
        raise AssertionError("a one-chunk scan started a pool")

    monkeypatch.setattr(search, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    path = tmp_path / "one-chunk.g6"
    masks = np.arange(search.CHUNK_SIZE, dtype=np.uint64)  # every graph on 6 vertices
    path.write_text("\n".join(_graph6_lines(6, search._mask_bits(6, masks)).tolist()) + "\n")
    sources = [*map(AllGraphs, range(1, 8)), BoundaryFamily(11), BoundaryFamily(22)]
    sources.append(Graph6Stream(str(path)))
    assert all(len(list(source.chunk_specs())) == 1 for source in sources)
    counts = [scan(source, DESK_CHECKS, workers=4).graphs_scanned for source in sources]
    assert counts == [*map(len, sources[:-1]), search.CHUNK_SIZE]


def test_two_chunk_stream_pooled_matches_serial(tmp_path, monkeypatch, set_chunk_size):
    # a real two-process pool over two chunks writes what one process writes
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    path = tmp_path / "two-chunks.g6"
    path.write_text("".join(f"{encode_graph6(Graph.from_edge_mask(5, m))}\n" for m in range(64)))
    set_chunk_size(32)
    source = Graph6Stream(str(path))
    assert len(list(source.chunk_specs())) == 2
    serial, pooled = (scan(source, DESK_CHECKS, workers=w, collect_rows=True) for w in (1, 2))
    assert pooled.to_json(include_timing=False) == serial.to_json(include_timing=False)
    assert _written(pooled) == _written(serial)


def test_workers_rejected_before_any_chunk(monkeypatch, set_chunk_size):
    def refuse(args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(search, "_eval_chunk_star", refuse)
    set_chunk_size(64)
    for workers in (0, -2, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            scan(AllGraphs(6), workers=workers)
    # a source of many chunks would reach the pool with it: refused alike
    with pytest.raises(ValueError, match="as an integer, not 1.5"):
        scan(AllGraphs(8), workers=1.5)


@pytest.mark.parametrize("workers", [1, np.int64(2), np.uint8(1)])
def test_integer_workers_accepted(workers):
    assert scan(AllGraphs(4), workers=workers).graphs_scanned == 64


@pytest.mark.parametrize(
    "checks, message",
    [
        ("theorem2", "not the string 'theorem2'"),
        (("theorem2", "sk-basic", "theorem2"), "name each check once"),
    ],
)
def test_checks_must_be_distinct_names(checks, message):
    # a bare string would be split into letters, and a repeated name would
    # give its margin column twice
    with pytest.raises(ValueError, match=message):
        scan(AllGraphs(4), checks)


@pytest.mark.parametrize("workers", [1, 2])
def test_lazy_stream_strict_error_and_determinism(tmp_path, workers, set_chunk_size):
    # 30 lines in chunks of 3: ten chunks, more than 2 * workers in flight
    lines = ["D~{", "Bw", "@", "Ch", "E?Bw", "C~"] * 5
    lines[7] = "Cw!"  # line 8, the third chunk
    lines[19] = "Dw"  # line 20, a later chunk
    p = tmp_path / "bad.g6"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(Graph6Error) as parsed:
        parse_graph6("Cw!")
    set_chunk_size(3)
    with pytest.raises(Graph6StreamError) as streamed:
        scan(Graph6Stream(str(p)), workers=workers)
    assert str(streamed.value) == f"line 8: {parsed.value}"
    with pytest.raises(Graph6StreamError) as iterated:
        list(Graph6Stream(str(p)))
    assert str(iterated.value) == str(streamed.value)
    reports = [
        scan(Graph6Stream(str(p), strict=False), DESK_CHECKS, workers=w)
        for w in (1, workers)
    ]
    assert reports[0].graphs_scanned == 28
    assert reports[0].to_json(include_timing=False) == reports[1].to_json(include_timing=False)


def test_stream_reader_matches_text_mode(tmp_path, set_chunk_size):
    # \r\n, lone \r, blank, padded and non-ASCII lines, and no final newline
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
    set_chunk_size(4)
    specs = list(Graph6Stream(str(p)).chunk_specs())
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


def test_stream_is_read_lazily(tmp_path, monkeypatch, set_chunk_size):
    # the first chunk arrives long before the file is read through, and
    # closing the chunk generator closes the file
    p = tmp_path / "long.g6"
    p.write_bytes(b"Bw\n" * (1 << 20))
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(search, "open", recording_open, raising=False)
    set_chunk_size(2)
    specs = Graph6Stream(str(p)).chunk_specs()
    assert next(specs)[1].tolist() == [1, 2]
    (fh,) = opened
    assert fh.buffer.raw.tell() < p.stat().st_size / 4
    specs.close()
    assert fh.closed
