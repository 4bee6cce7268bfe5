import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from itertools import permutations

from seidelab.graphs import (
    ASCII_WHITESPACE,
    MAX_VERTICES,
    Graph,
    Graph6Error,
    _edge_bits,
    _graph6_lines,
    _graph_of_bits,
    _relabel,
    _seidel,
    _unpack_graph6,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    seidel_matrix,
)
from seidelab.search import Graph6Stream, Graph6StreamError, scan

from conftest import (
    graph_strategy,
    random_graph,
    reference_edge_bits,
    reference_encode_graph6,
    reference_parse_graph6,
    reference_rows,
    reference_seidel_matrix,
)


class TestParseGraph6:
    def test_k3(self):
        g = parse_graph6("Bw")
        assert g.n == 3
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_path(self):
        g = parse_graph6("Bg")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1
        assert g.edges() == []

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error, match="offset 0"):
            parse_graph6("\x7fw")

    def test_non_ascii_rejected(self):
        # not read as "C?", the empty graph on four vertices
        with pytest.raises(Graph6Error, match="byte 255 .* offset 1"):
            parse_graph6("C\xff")
        with pytest.raises(Graph6Error, match="offset 2"):
            parse_graph6("C~\xa0")  # not stripped as whitespace

    def test_wrong_length(self):
        with pytest.raises(Graph6Error, match="edge bytes"):
            parse_graph6("Bww")

    def test_nonzero_padding(self):
        # n=3 uses 3 edge bits; the low 3 bits of the edge byte are padding
        bad = chr(63 + 3) + chr(63 + 0b111001)
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6(bad)

    def test_multibyte_header_rejected(self):
        with pytest.raises(Graph6Error, match="multi-byte"):
            parse_graph6("~??" + "?" * 10)


class TestEncodeGraph6:
    def test_k3(self):
        assert encode_graph6(complete_graph(3)) == "Bw"

    def test_empty3(self):
        assert encode_graph6(empty_graph(3)) == "B?"

    def test_k1(self):
        assert encode_graph6(Graph(1, 0)) == "@"

    def test_too_large(self):
        # a graph has graph6's orders only, so every graph encodes
        with pytest.raises(ValueError, match="outside 1..62"):
            empty_graph(63)
        assert encode_graph6(empty_graph(62)) == "}" + "?" * 316

    @given(graph_strategy(max_n=12))
    def test_roundtrip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    def test_string_roundtrip(self):
        # canonical strings survive parse-then-encode
        for s in ["Bw", "B?", "@", "DQc", "FsaC?"]:
            assert encode_graph6(parse_graph6(s)) == s


class TestComplement:
    def test_k3(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    @given(graph_strategy())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        co = complement(c5)
        assert co.edge_count() == 5
        assert any(
            co.permute(perm) == c5 for perm in permutations(range(5))
        )


class TestRelabel:
    @pytest.mark.parametrize("n", [1, 2, 7, 62])
    def test_stack_kernel_permutes_each_row(self, rng, n):
        bits = rng.integers(0, 2, (20, n * (n - 1) // 2), dtype=np.uint8)
        perms = np.array([rng.permutation(n) for _ in range(len(bits))])
        s = _seidel(n, bits)
        got = _seidel(n, _relabel(n, bits, perms))
        one = _seidel(n, _relabel(n, bits[:1], perms))  # a stack of one broadcasts
        for b, p in enumerate(perms):
            assert np.array_equal(got[b], s[b][np.ix_(p, p)])
            assert np.array_equal(one[b], s[0][np.ix_(p, p)])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permute_every_permutation(self, rng, n):
        g = random_graph(rng, n=n)
        s = seidel_matrix(g)
        for p in permutations(range(n)):
            assert np.array_equal(seidel_matrix(g.permute(p)), s[np.ix_(p, p)])

    @pytest.mark.parametrize(
        "perm",
        [
            [0, 0, 1],  # a repeat
            [0, 1],  # too short
            [0, 1, 2, 3],  # too long
            [0, 1, 5],  # out of range
            [-1, 0, 1],  # negative, which would wrap
            [[0, 1, 2]],  # not one row
            [0.0, 1.0, 2.0],  # not integers
        ],
    )
    def test_permute_rejects_non_permutations(self, perm):
        with pytest.raises(ValueError, match="permutation of range"):
            Graph.from_edges(3, [(0, 1), (1, 2)]).permute(perm)


class TestGraphInvariants:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 3)],  # past the last vertex
            [(3, 0)],
            [(-1, 0)],  # negative, which would be a negative shift
            [(0, -1)],
            [(0, 1), (1, 5)],  # a later edge
            [(0.0, 1)],  # not integers
            [(0, 1.5)],
        ],
    )
    def test_from_edges_rejects_endpoints_outside_range(self, edges):
        with pytest.raises(ValueError, match=r"endpoint outside range\(3\)"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize(
        "pair", [(-1, 2), (0, 3), (3, 0), (0, -1), (0.0, 1), (1, 1.5), (5, 5)]
    )
    def test_has_edge_rejects_vertices_outside_range(self, pair):
        # a negative vertex would read another edge's bit
        with pytest.raises(ValueError, match=r"endpoint outside range\(3\)"):
            complete_graph(3).has_edge(*pair)

    def test_has_edge_of_a_loop_is_false(self):
        assert not any(complete_graph(3).has_edge(v, v) for v in range(3))

    @pytest.mark.parametrize("n", [0, -3, 63, 5.0, 10**12])
    def test_from_edge_mask_checks_order_first(self, n):
        # the order is checked before the mask is compared with 2^C(n,2)
        with pytest.raises(ValueError, match="vertex count"):
            Graph.from_edge_mask(n, 1)

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
    def test_from_edge_mask_rejects_negative_masks(self, mask):
        with pytest.raises(ValueError, match=r"outside 0\.\.2\^"):
            Graph.from_edge_mask(3, mask)

    @pytest.mark.parametrize("n", [5, 12, 62])
    @pytest.mark.parametrize("mask", [np.int64(5), np.uint64(5), np.int8(5), np.uint64(2**63 + 5)])
    def test_numpy_integer_masks(self, n, mask):
        # numpy integers are masks like Python ints, past int64 too, and are
        # stored as Python ints; both builders refuse one past the last edge
        builders = (Graph, Graph.from_edge_mask)
        if int(mask) >= 1 << n * (n - 1) // 2:
            for build in builders:
                with pytest.raises(ValueError, match=r"outside 0\.\.2\^"):
                    build(n, mask)
            return
        want = Graph(n, int(mask))
        assert all(type(g.mask) is int and g == want for g in (b(n, mask) for b in builders))

    @pytest.mark.parametrize("mask", [5.0, np.float64(5), "5", None, (5,), np.array([5])])
    def test_non_integer_masks_rejected(self, mask):
        for build in (Graph, Graph.from_edge_mask):
            with pytest.raises(ValueError, match="not an integer"):
                build(12, mask)

    @pytest.mark.parametrize(
        "n, mask",
        [
            (3, -1),
            (3, 8),  # one past the last edge
            (3, np.int64(-1)),
            (3, np.uint8(8)),
            (1, 1),
            (12, 1 << 66),
            (12, -(1 << 70)),
            pytest.param(62, 1 << 1891, id="62-2^1891"),
        ],
    )
    def test_masks_outside_edge_range_rejected(self, n, mask):
        # neither builder takes a negative mask or a bit past the last edge
        for build in (Graph, Graph.from_edge_mask):
            with pytest.raises(ValueError, match=r"outside 0\.\.2\^"):
                build(n, mask)

    def test_from_edge_mask_rejects_bits_past_last_edge(self):
        # the bits past the last edge are refused, not dropped
        for mask in range(8):
            assert Graph.from_edge_mask(3, mask) == Graph(3, mask)
            for extra in (1 << 3, 1 << 70):
                with pytest.raises(ValueError, match=r"outside 0\.\.2\^"):
                    Graph.from_edge_mask(3, mask | extra)

    def test_order_bounds(self):
        for n in (0, MAX_VERTICES + 1, 5.0):
            with pytest.raises(ValueError, match="vertex count"):
                Graph(n, 0)
        assert MAX_VERTICES == 62 and Graph(62, 0) == empty_graph(62)

    @given(graph_strategy())
    def test_mask_roundtrip(self, g):
        assert Graph.from_edge_mask(g.n, g.edge_mask()) == g


class TestSeidelMatrix:
    def test_k2(self):
        assert seidel_matrix(complete_graph(2)).tolist() == [[0, -1], [-1, 0]]

    def test_empty2(self):
        assert seidel_matrix(empty_graph(2)).tolist() == [[0, 1], [1, 0]]

    def test_path3(self):
        expected = [[0, -1, 1], [-1, 0, -1], [1, -1, 0]]
        assert seidel_matrix(path_graph(3)).tolist() == expected

    @given(graph_strategy())
    def test_entries_and_symmetry(self, g):
        s = seidel_matrix(g)
        assert np.all(s == s.T)
        assert np.all(np.diag(s) == 0)
        off = s[~np.eye(g.n, dtype=bool)]
        assert np.all(np.abs(off) == 1) or g.n == 1

    @given(graph_strategy())
    def test_complement_negates_offdiagonal(self, g):
        s = seidel_matrix(g)
        sc = seidel_matrix(complement(g))
        assert np.all(sc == -s + 2 * np.diag(np.diag(s)))


# the edge-bit kernels and the per-graph functions built on them against the
# reference loops of conftest.py


@pytest.mark.parametrize("n", range(1, MAX_VERTICES + 1))
def test_codec_and_seidel_match_reference(rng, n):
    graphs = [random_graph(rng, n=n) for _ in range(3)] + [empty_graph(n), complete_graph(n)]
    bits = np.stack([reference_edge_bits(g) for g in graphs])
    want = np.stack([reference_seidel_matrix(g) for g in graphs])
    assert np.array_equal(_seidel(n, bits), want)
    for g, row, s in zip(graphs, bits, want):
        assert np.array_equal(_edge_bits(g), row[None])
        mask = sum(b << e for e, b in enumerate(row.tolist()))
        assert g.edge_mask() == mask and Graph.from_edge_mask(n, mask) == g
        assert seidel_matrix(g).dtype == np.int64
        assert np.array_equal(seidel_matrix(g), s)
    lines = [reference_encode_graph6(g) for g in graphs]
    assert [encode_graph6(g) for g in graphs] == lines == _graph6_lines(n, bits).tolist()
    assert [parse_graph6(line) for line in lines] == graphs
    assert [reference_parse_graph6(line) for line in lines] == graphs
    body = np.array([[ord(c) for c in line[1:]] for line in lines], dtype=np.uint8)
    unpacked, padded = _unpack_graph6(n, body)
    assert np.array_equal(unpacked, bits) and not padded.any()


@pytest.mark.parametrize("n", range(1, MAX_VERTICES + 1))
def test_graph_of_bits_rows_match_reference(rng, n):
    # the mask is packed straight from the edge bits, for parse_graph6,
    # switching, relabeling and BoundaryFamily.graph_for alike, and its
    # adjacency is the reference's
    m = n * (n - 1) // 2
    for bits in [rng.integers(0, 2, m, dtype=np.uint8) for _ in range(3)] + [np.ones(m, np.uint8)]:
        g = _graph_of_bits(n, bits[None])
        rows = reference_rows(n, bits.tolist())
        assert g.n == n and g.mask == sum(b << e for e, b in enumerate(bits.tolist()))
        assert g.edges() == [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1]
        assert all(g.has_edge(j, i) == g.has_edge(i, j) for i, j in g.edges())
        assert g.edge_count() == len(g.edges()) and np.array_equal(_edge_bits(g), bits[None])


def _short_lines():
    """Headers for orders 0..5, 63 and 64, each alone and followed by every
    byte from 60 to 127, and by "w" and that byte."""
    for header in [chr(63 + n) for n in (0, 1, 2, 3, 4, 5, 63, 64)]:
        yield header
        for b in range(60, 128):
            yield header + chr(b)
            yield header + "w" + chr(b)
    yield from ["", " \t", "C\xff", "C~\xa0", "A\u20ac", " Bw\r\n", "~??" + "?" * 10]
    yield from ["C~\nC~", "C~\rC~", "C\x00~"]  # one argument, never split


def test_parse_matches_reference_on_short_lines():
    # every accepted line decodes alike, and every rejected one raises the
    # same message
    for text in _short_lines():
        try:
            want = reference_parse_graph6(text)
        except Graph6Error as exc:
            with pytest.raises(Graph6Error) as got:
                parse_graph6(text)
            assert str(got.value) == str(exc), repr(text)
        else:
            assert parse_graph6(text) == want, repr(text)


def test_stream_matches_reference_on_short_lines(tmp_path):
    # the chunk decoder of a scan accepts and rejects what the reference does;
    # a file holds the short lines that are one nonblank latin-1 line each
    lines = [
        text.strip(ASCII_WHITESPACE)
        for text in _short_lines()
        if text.strip(ASCII_WHITESPACE)
        and not {"\r", "\n"} & set(text)
        and max(map(ord, text)) <= 255
    ]
    p = tmp_path / "short.g6"
    p.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
    accepted, first_error = [], None
    for lineno, line in enumerate(lines, start=1):
        try:
            reference_parse_graph6(line)
        except Graph6Error as exc:
            first_error = first_error or f"line {lineno}: {exc}"
        else:
            accepted.append(line)
    rep = scan(Graph6Stream(str(p), strict=False), collect_rows=True)
    buf = io.StringIO()
    rep.write_csv(buf)
    buf.seek(0)
    assert [row["graph6"] for row in csv.DictReader(buf)] == accepted
    with pytest.raises(Graph6StreamError) as got:
        scan(Graph6Stream(str(p)))
    assert str(got.value) == first_error


@st.composite
def _graph6_like(draw):
    """A header chr(63 + n), n = 0..64, and a body of about the length the
    order needs, its codes in 60..128 and mostly in range."""
    n = draw(st.integers(0, 64))
    size = max(0, (n * (n - 1) // 2 + 5) // 6 + draw(st.sampled_from([0, 0, -1, 1])))
    body = draw(st.lists(st.integers(63, 126), min_size=size, max_size=size))
    if body and draw(st.booleans()):
        body[draw(st.integers(0, size - 1))] = draw(st.integers(60, 128))
    return chr(63 + n) + "".join(map(chr, body))


@given(st.text(st.characters(min_codepoint=0, max_codepoint=300)) | _graph6_like())
def test_parse_matches_reference(text):
    try:
        want = reference_parse_graph6(text)
    except Graph6Error as exc:
        with pytest.raises(Graph6Error) as got:
            parse_graph6(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_graph6(text) == want
