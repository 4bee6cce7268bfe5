import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations
from math import comb

from seidelab.graphs import (
    Graph,
    _seidel,
    complement,
    complete_graph,
    cycle_graph,
    path_graph,
    seidel_matrix,
)
from seidelab.seidel import (
    _odd_pairs,
    _odd_pairs_of_sk,
    _sc_of_sk,
    _sc_to_complete,
    _switch,
    count_odd_pairs,
    is_sc_equivalent_to_complete,
    switch,
    switching_class_key,
)
from seidelab.spectral import (
    char_poly_exact,
    charpoly_batch_i64,
    sk_from_charpoly,
    submatrix_det_parity,
)

from conftest import (
    graph_strategy,
    random_graph,
    reference_count_odd_pairs,
    reference_edge_bits,
    reference_is_sc_equivalent_to_complete,
    sc_members,
)


def brute_force_odd_pairs(g):
    """Straight from the definition: ordered disjoint 2-subset pairs with an
    odd number of cross edges."""
    count = 0
    for x in combinations(range(g.n), 2):
        for y in combinations(range(g.n), 2):
            if set(x) & set(y):
                continue
            cross = sum(g.has_edge(u, v) for u in x for v in y)
            if cross % 2 == 1:
                count += 1
    return count


def subset_strategy(n):
    return st.sets(st.integers(0, n - 1), max_size=n)


class TestSwitch:
    def test_k3_single_vertex(self):
        assert switch(complete_graph(3), {0}).edges() == [(1, 2)]

    def test_identity_switches(self):
        g = cycle_graph(5)
        assert switch(g, set()) == g
        assert switch(g, set(range(5))) == g

    @given(graph_strategy(), st.data())
    def test_involution(self, g, data):
        w = data.draw(subset_strategy(g.n))
        assert switch(switch(g, w), w) == g

    @given(graph_strategy(), st.data())
    def test_conjugation_by_diagonal(self, g, data):
        w = data.draw(subset_strategy(g.n))
        d = np.diag([-1 if i in w else 1 for i in range(g.n)])
        assert np.all(seidel_matrix(switch(g, w)) == d @ seidel_matrix(g) @ d)

    @given(graph_strategy(), st.data())
    @settings(max_examples=40)
    def test_char_poly_invariant(self, g, data):
        w = data.draw(subset_strategy(g.n))
        assert char_poly_exact(seidel_matrix(switch(g, w))) == char_poly_exact(
            seidel_matrix(g)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 33, 62])
    def test_stack_kernel_conjugates_each_row(self, rng, n):
        bits = rng.integers(0, 2, (20, n * (n - 1) // 2), dtype=np.uint8)
        w = rng.integers(0, 2, (20, n), dtype=np.uint8)
        got = _switch(n, bits, w)
        s = _seidel(n, bits).astype(np.int64)
        for b in range(len(bits)):
            assert np.array_equal(got[b], _switch(n, bits[b : b + 1], w[b : b + 1])[0])
            d = np.diag(1 - 2 * w[b].astype(np.int64))
            assert np.array_equal(_seidel(n, got[b : b + 1])[0], d @ s[b] @ d)

    def test_int_masks_at_62(self, rng):
        # masks with the top vertex, as Python and numpy integers; a bit past
        # vertex 61 is no vertex
        g = random_graph(rng, n=62)
        for mask in (1 << 61, (1 << 61) | 0b1011, (1 << 62) - 1, np.int64(1 << 61), np.uint64(3)):
            w = {v for v in range(62) if mask >> v & 1}
            d = np.diag([-1 if v in w else 1 for v in range(62)])
            assert switch(g, mask) == switch(g, w)
            assert np.array_equal(seidel_matrix(switch(g, mask)), d @ seidel_matrix(g) @ d)
        for mask in ((1 << 70) | (1 << 61), 1 << 62, np.uint64(1 << 63)):
            with pytest.raises(ValueError, match="not a subset of range"):
                switch(g, mask)

    @pytest.mark.parametrize(
        "subset",
        [
            [5],  # out of range
            [0, 3],  # one past the last vertex
            [-1],  # negative
            [0.5],  # not an integer
            [1.0],  # a float, even if integral
            1 << 7,  # a mask bit past the last vertex
            0b1001,  # a mask bit one past the last vertex
            -1,  # a negative mask
        ],
    )
    def test_rejects_vertices_outside_range(self, subset):
        with pytest.raises(ValueError, match=r"range\(3\)"):
            switch(path_graph(3), subset)

    def test_vertex_kinds(self):
        # numpy integers, repeats and every mask in range are fine
        g = path_graph(3)
        assert switch(g, [np.int64(1), 1]) == switch(g, {1}) == switch(g, np.uint8(2))
        assert [switch(g, mask) for mask in range(8)] == [
            switch(g, {v for v in range(3) if mask >> v & 1}) for mask in range(8)
        ]


class TestScEquivalence:
    def test_path3(self):
        ok, _ = is_sc_equivalent_to_complete(path_graph(3))
        assert ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_complete(self, n):
        ok, w = is_sc_equivalent_to_complete(complete_graph(n))
        assert ok and w.switching_mask == 0 and not w.complemented

    def test_c5(self):
        ok, w = is_sc_equivalent_to_complete(cycle_graph(5))
        assert not ok and w is None

    @given(graph_strategy(max_n=3))
    def test_small_orders_always_equivalent(self, g):
        assert is_sc_equivalent_to_complete(g)[0]

    @given(graph_strategy())
    def test_witness_reaches_complete(self, g):
        ok, w = is_sc_equivalent_to_complete(g)
        if ok:
            h = switch(g, w.switching_mask)
            if w.complemented:
                h = complement(h)
            assert h == complete_graph(g.n)


class TestOddPairs:
    def test_examples(self):
        assert count_odd_pairs(complete_graph(6)) == 0
        assert count_odd_pairs(Graph.from_edges(4, [(0, 1)])) == 4
        assert count_odd_pairs(cycle_graph(5)) == 20

    def test_small_orders_zero(self):
        assert count_odd_pairs(path_graph(3)) == 0

    @given(graph_strategy())
    def test_matches_brute_force(self, g):
        assert count_odd_pairs(g) == brute_force_odd_pairs(g)

    @given(graph_strategy())
    def test_even_and_bounded(self, g):
        n, c = g.n, count_odd_pairs(g)
        assert c % 2 == 0
        assert 0 <= c <= n * (n - 1) * (n - 2) * (n - 3) // 4

    @given(graph_strategy(), st.data())
    def test_switching_invariant(self, g, data):
        w = data.draw(subset_strategy(g.n))
        assert count_odd_pairs(switch(g, w)) == count_odd_pairs(g)
        assert count_odd_pairs(complement(g)) == count_odd_pairs(g)

    def test_criterion_exhaustive_small(self):
        # zero odd pairs exactly on the SC-class of the complete graph
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                assert (count_odd_pairs(g) == 0) == is_sc_equivalent_to_complete(g)[0]

    def test_lower_bound_when_nonzero(self):
        for n in range(4, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                c = count_odd_pairs(g)
                assert c == 0 or c >= 2 * (n - 3) ** 2

    @given(graph_strategy(min_n=4, max_n=6))
    @settings(max_examples=50)
    def test_submatrix_determinants(self, g):
        # odd pairs give |det| = 2 on their 2x2 block, even pairs give 0
        a = seidel_matrix(g)
        for x in combinations(range(g.n), 2):
            for y in combinations(range(g.n), 2):
                if set(x) & set(y):
                    continue
                cross = sum(g.has_edge(u, v) for u in x for v in y)
                det = submatrix_det_parity(a, x, y)
                assert abs(det) == (2 if cross % 2 else 0)


class TestSwitchingClassKey:
    def test_k3_equals_path3(self):
        assert switching_class_key(complete_graph(3)) == switching_class_key(
            path_graph(3)
        )

    def test_c5_differs_from_k5(self):
        assert switching_class_key(cycle_graph(5)) != switching_class_key(
            complete_graph(5)
        )

    def test_too_large(self):
        with pytest.raises(ValueError):
            switching_class_key(complete_graph(9))

    def test_pinned_keys(self):
        # values, not only invariance, so that a rewrite cannot move a key
        distinct = [
            len({switching_class_key(Graph.from_edge_mask(n, m)) for m in range(1 << comb(n, 2))})
            for n in range(1, 6)
        ]
        assert distinct == [1, 1, 1, 2, 4]
        assert switching_class_key(complete_graph(4)) == b"C?"
        assert switching_class_key(cycle_graph(5)) == b"D@S"
        assert switching_class_key(path_graph(4)) == b"C@"

    @given(graph_strategy(max_n=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_sc_class_invariant(self, g, data):
        w = data.draw(subset_strategy(g.n))
        key = switching_class_key(g)
        assert switching_class_key(switch(g, w)) == key
        assert switching_class_key(complement(g)) == key
        perm = data.draw(st.permutations(range(g.n)))
        assert switching_class_key(g.permute(perm)) == key


# the edge-bit kernels and the per-graph functions built on them against the
# reference loops of conftest.py


@pytest.mark.parametrize("n", range(1, 63))
def test_nop_and_sc_match_reference(rng, n):
    graphs = [random_graph(rng, n=n) for _ in range(3)] + sc_members(rng, n)
    nops = [reference_count_odd_pairs(g) for g in graphs]
    scs = [reference_is_sc_equivalent_to_complete(g) for g in graphs]
    s = _seidel(n, np.stack([reference_edge_bits(g) for g in graphs]))
    assert _odd_pairs(s).tolist() == nops
    assert _sc_to_complete(s).tolist() == [ok for ok, _ in scs]
    for g, nop, sc in zip(graphs, nops, scs):
        assert type(count_odd_pairs(g)) is int and count_odd_pairs(g) == nop
        ok, witness = is_sc_equivalent_to_complete(g)
        assert type(ok) is bool and (ok, witness) == sc


@pytest.mark.parametrize("n", [*range(1, 21), 40, 62])
def test_charpoly_reads_match_s_kernels(rng, n):
    # N_op and the SC flag read off the exact S_k of exact char polys equal
    # the S kernels' on seeded random stacks and on switchings of K_n and of
    # its complement, n = 1 (no S_2) and n = 2, 3 (N_op = 0) included;
    # charpoly_batch_i64 gives int64 rows up to n = 17 and object rows
    # beyond, and S_k is int64 up to n = 16
    members = sc_members(rng, n)
    bits = rng.integers(0, 2, (40, n * (n - 1) // 2), dtype=np.uint8)
    s = _seidel(n, np.concatenate([bits, [reference_edge_bits(g) for g in members]]))
    coeffs = charpoly_batch_i64(s)
    assert coeffs.dtype == (np.int64 if n <= 17 else object)
    sk = sk_from_charpoly(coeffs)
    assert sk.dtype == (np.int64 if n <= 16 else object)
    nop, sc = _odd_pairs_of_sk(sk), _sc_of_sk(sk)
    assert nop.dtype == np.int64 and np.array_equal(nop, _odd_pairs(s))
    assert sc.dtype == bool and np.array_equal(sc, _sc_to_complete(s))
    assert sc[-len(members) :][:2].all()  # K_n switched, and its complement
    assert sc.all() == (nop == 0).all() == (n < 4)  # every graph is in the class below n = 4


def test_sc_witness_matches_reference_every_small_graph():
    for n in range(1, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            assert is_sc_equivalent_to_complete(g) == reference_is_sc_equivalent_to_complete(g)
