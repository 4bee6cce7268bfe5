import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from seidelab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    seidel_matrix,
)
from seidelab.graphs import _blow_up_bits, _seidel
from seidelab.search import BoundaryFamily
from seidelab.spectral import (
    CRT_PRIMES,
    CRT_PRIMES_WIDE,
    ExactCharPoly,
    SpectrumError,
    _charpoly_f64,
    _charpoly_residues,
    _crt_primes,
    _garner,
    _quotients,
    _reduce,
    _sk_fits_int64,
    binomial,
    bareiss_det,
    cauchy_binet_check,
    check_seidel_matrix,
    char_poly_exact,
    charpoly_batch_i64,
    eigenvalues,
    elementary_symmetric_A2,
    p_energy,
    sk_from_charpoly,
    submatrix_det_parity,
)

from conftest import graph_strategy, random_graph


@pytest.mark.parametrize("n", range(4, 63))
def test_second_smallest_energy_closed_form(n):
    # the class of K_2 + (n-2)K_1 has E_S = n - 2 + sqrt((n+6)(n-2)), the
    # smallest Seidel energy off the class of K_n wherever the scans reach
    energy = p_energy(eigenvalues(Graph.from_edges(n, [(0, 1)])), 1.0)
    assert energy == pytest.approx(n - 2 + math.sqrt((n + 6) * (n - 2)), rel=1e-9, abs=0)


class TestEigenvalues:
    def test_k3(self):
        s = eigenvalues(complete_graph(3))
        assert s.values == pytest.approx((1.0, 1.0, -2.0), abs=1e-10)
        assert s.residual < 1e-10

    def test_empty_graph(self):
        # S = J - I: one eigenvalue n-1, the rest -1
        for n in [2, 5, 9]:
            s = eigenvalues(empty_graph(n))
            assert s.values[0] == pytest.approx(n - 1, abs=1e-9)
            assert s.values[1:] == pytest.approx((-1.0,) * (n - 1), abs=1e-9)

    def test_c5(self):
        r5 = math.sqrt(5)
        s = eigenvalues(cycle_graph(5))
        assert s.values == pytest.approx((r5, r5, 0.0, -r5, -r5), abs=1e-9)

    def test_complete_family(self):
        # S(K_n) = I - J: eigenvalue 1 - n once, 1 with multiplicity n - 1
        for n in range(2, 51):
            s = eigenvalues(complete_graph(n))
            assert s.values[-1] == pytest.approx(1 - n, abs=1e-8)
            assert s.values[:-1] == pytest.approx((1.0,) * (n - 1), abs=1e-8)
            assert s.residual < 1e-8

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[1, -1], [-1, 0]]))
        with pytest.raises(ValueError):
            eigenvalues(np.array([[0, 2], [2, 0]]))
        with pytest.raises(ValueError):
            eigenvalues(np.array([[0, 1], [-1, 0]]))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((2, 3)), "Seidel matrix must be square"),
            (np.zeros(4), "Seidel matrix must be square"),
            (np.zeros((2, 2, 2)), "Seidel matrix must be square"),
            ([[0, 1], [1, -1]], "Seidel matrix must have zero diagonal"),
            ([[1, 2], [3, 1]], "Seidel matrix must have zero diagonal"),  # before +-1
            ([[0.0, np.nan], [np.nan, 0.0]], "off-diagonal Seidel entries must be +-1"),
            ([[0, 0], [0, 0]], "off-diagonal Seidel entries must be +-1"),
            ([[0, 2], [-2, 0]], "off-diagonal Seidel entries must be +-1"),  # before symmetry
            ([[0, 1, 1], [1, 0, -1], [1, 1, 0]], "Seidel matrix must be symmetric"),
        ],
    )
    def test_rejection_messages(self, matrix, message):
        # each malformed input is refused with its own message, the checks
        # running in the order listed
        with pytest.raises(ValueError) as raised:
            check_seidel_matrix(np.asarray(matrix))
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            eigenvalues(np.asarray(matrix))
        assert str(raised.value) == message

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_accepts_seidel_matrices(self, n):
        for g in (complete_graph(n), empty_graph(n), path_graph(n)):
            s = seidel_matrix(g)
            assert check_seidel_matrix(s) is s

    @given(graph_strategy(min_n=2, max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_residual_and_traces(self, g):
        s = eigenvalues(g)
        assert s.residual < 1e-9
        assert sum(s.values) == pytest.approx(0.0, abs=1e-9)
        assert sum(v * v for v in s.values) == pytest.approx(
            g.n * (g.n - 1), abs=1e-8
        )

    def test_agrees_with_lapack(self, rng):
        for _ in range(50):
            g = random_graph(rng, max_n=12)
            a = seidel_matrix(g)
            ours = np.array(eigenvalues(a).values)
            ref = np.sort(np.linalg.eigvalsh(a.astype(np.float64)))[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-7

    def test_residual_rejects_perturbed_eigenvectors(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            w, q = eigh(a)
            return w, q + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(SpectrumError, match="residual"):
            eigenvalues(cycle_graph(5))

    def test_lapack_failure_is_spectrum_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(SpectrumError, match="did not converge"):
            eigenvalues(cycle_graph(5))

    @given(graph_strategy(min_n=1, max_n=30))
    @settings(max_examples=40)
    def test_matches_exact_s1_and_sn(self, g):
        # sum theta^2 = S_1 and prod theta^2 = S_n, the exact S_k of A^2;
        # S_n = det(A)^2 vanishes exactly when an eigenvalue does
        theta = np.array(eigenvalues(g).values)
        sk = elementary_symmetric_A2(g)
        assert np.sum(theta**2) == pytest.approx(sk[1], rel=1e-12)
        if sk[g.n] == 0:
            assert np.min(np.abs(theta)) < 1e-9
        else:
            assert np.prod(theta**2) == pytest.approx(sk[g.n], rel=1e-8)


class TestPEnergy:
    def test_c5_energy(self):
        s = eigenvalues(cycle_graph(5))
        assert p_energy(s, 1.0) == pytest.approx(4 * math.sqrt(5), abs=1e-9)

    def test_complete_is_extremal(self):
        # E(K_n) = 2n - 2
        for n in range(2, 12):
            assert p_energy(eigenvalues(complete_graph(n)), 1.0) == pytest.approx(
                2 * n - 2, abs=1e-8
            )

    def test_p2_is_frobenius(self):
        g = path_graph(6)
        assert p_energy(eigenvalues(g), 2.0) == pytest.approx(30.0, abs=1e-8)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            p_energy(eigenvalues(path_graph(3)), 0.0)


class TestCharPolyExact:
    def test_k3(self):
        # det(xI - S(K3)) = x^3 - 3x + 2
        assert char_poly_exact(seidel_matrix(complete_graph(3))).coeffs == (
            2,
            -3,
            0,
            1,
        )

    def test_path3(self):
        assert char_poly_exact(seidel_matrix(path_graph(3))).coeffs == (
            -2,
            -3,
            0,
            1,
        )

    def test_evaluation(self):
        cp = ExactCharPoly((2, -3, 0, 1))
        assert cp(1) == 0 and cp(-2) == 0 and cp(0) == 2
        assert cp.n == 3

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            char_poly_exact(np.ones((2, 3), dtype=int))

    @given(graph_strategy(min_n=2, max_n=8))
    @settings(max_examples=40)
    def test_coefficients_match_eigh(self, g):
        # expand prod (x - lambda_i) from the float spectrum; repeated roots
        # make root-finding ill-conditioned but coefficients stay stable
        cp = char_poly_exact(seidel_matrix(g))
        poly = np.array([1.0])
        for lam in eigenvalues(g).values:
            poly = np.convolve(poly, [1.0, -lam])
        exact = np.array([float(c) for c in reversed(cp.coeffs)])
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(poly - exact)) < 1e-8 * scale


def _random_graph_any_n(rng, n: int) -> Graph:
    m = n * (n - 1) // 2
    mask = int.from_bytes(rng.bytes(m // 8 + 1), "little") % (1 << m)
    return Graph.from_edge_mask(n, mask)


def _paley_plus_vertex(q: int) -> Graph:
    """Paley graph on GF(q), q prime = 1 mod 4, plus an isolated vertex: its
    Seidel matrix is a conference matrix, A^2 = (n-1) I."""
    squares = {x * x % q for x in range(1, q)}
    pairs = combinations(range(q), 2)
    return Graph.from_edges(q + 1, [(i, j) for i, j in pairs if j - i in squares])


def _seidel_stack(graphs) -> np.ndarray:
    return np.stack([seidel_matrix(g) for g in graphs])


def _sk_exact(m: np.ndarray) -> list[int]:
    """S_0..S_n of m^2 from the object-dtype oracle on m @ m."""
    n = m.shape[0]
    coeffs = char_poly_exact(m @ m).coeffs
    return [(-1) ** k * coeffs[n - k] for k in range(n + 1)]


def _charpoly_closed(n: int, once: int, rest: int) -> tuple[int, ...]:
    """Coefficients, x^0 first, of (x - once)(x - rest)^(n-1)."""
    power = [math.comb(n - 1, k) * (-rest) ** (n - 1 - k) for k in range(n)] + [0]
    return tuple((power[k - 1] if k else 0) - once * power[k] for k in range(n + 1))


def _closed_forms(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """det(xI - S) and S_0..S_n of S^2 for K_n, whose S = I - J has the
    spectrum 1 - n, 1^(n-1), and for the empty graph, S = J - I.  Both have
    S^2 = I + (n-2) J, with eigenvalues (n-1)^2 once and 1 n-1 times."""
    sk = [binomial(n - 1, k) + (n - 1) ** 2 * binomial(n - 1, k - 1) for k in range(n + 1)]
    return [(_charpoly_closed(n, 1 - n, 1), sk), (_charpoly_closed(n, n - 1, -1), sk)]


class TestCharPolyBatch:
    """The multi-modular kernel against the object-dtype oracle."""

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_closed_forms_match_oracle(self, n):
        for g, (coeffs, sk) in zip([complete_graph(n), empty_graph(n)], _closed_forms(n)):
            m = seidel_matrix(g)
            assert char_poly_exact(m).coeffs == coeffs
            assert _sk_exact(m) == sk

    @pytest.mark.parametrize("n, randoms", [(9, 6), (16, 4), (22, 4), (40, 1), (62, 1)])
    def test_matches_exact(self, rng, n, randoms):
        # K_n and its complement share S^2 = I + (n-2) J, the largest
        # entries a Seidel S^2 can have; they are checked against closed
        # forms, the random graphs against the oracle
        graphs = [complete_graph(n), empty_graph(n)]
        graphs += [_random_graph_any_n(rng, n) for _ in range(randoms)]
        s = _seidel_stack(graphs)
        expect = _closed_forms(n) + [(char_poly_exact(m).coeffs, _sk_exact(m)) for m in s[2:]]
        batch = charpoly_batch_i64(s)
        assert batch.dtype == (np.int64 if n <= 17 else object)
        for row, sk, g, (coeffs, sks) in zip(batch, sk_from_charpoly(batch), graphs, expect):
            assert tuple(int(c) for c in row) == coeffs
            assert [int(v) for v in sk] == elementary_symmetric_A2(g) == sks

    @pytest.mark.parametrize("n", range(1, 63))
    def test_sk_matches_exact_every_n(self, rng, n):
        # the 2^53 envelope of the lazy reduction grows with n^2, so every
        # order is checked.  K_n and its complement share S^2 = I + (n-2) J,
        # with eigenvalues (n-1)^2 once and 1 n-1 times; a random graph goes
        # through the oracle
        graphs = [complete_graph(n), empty_graph(n), _random_graph_any_n(rng, n)]
        s = _seidel_stack(graphs)
        expect = [sk for _, sk in _closed_forms(n)] + [_sk_exact(s[2])]
        assert sk_from_charpoly(charpoly_batch_i64(s)).tolist() == expect
        assert [elementary_symmetric_A2(g) for g in graphs] == expect

    @pytest.mark.parametrize("q", [5, 13, 29, 61])
    def test_attains_hadamard_bound(self, q):
        # S_k = C(n,k) (n-1)^k, the largest S_k a Seidel matrix can have
        n = q + 1
        g = _paley_plus_vertex(q)
        s = _seidel_stack([g])
        assert np.array_equal(s[0] @ s[0], q * np.eye(n, dtype=np.int64))
        expect = [math.comb(n, k) * q**k for k in range(n + 1)]
        sk = sk_from_charpoly(charpoly_batch_i64(s))
        assert sk[0].tolist() == elementary_symmetric_A2(g) == expect

    @given(graph_strategy(min_n=1, max_n=30))
    @settings(max_examples=25)
    def test_matches_exact_hypothesis(self, g):
        s = _seidel_stack([g])
        assert tuple(int(c) for c in charpoly_batch_i64(s)[0]) == (
            char_poly_exact(s[0]).coeffs
        )
        assert elementary_symmetric_A2(g) == _sk_exact(s[0])

    def test_int64_switch_points(self):
        # one prime covers the coefficients of a Seidel matrix up to n = 17,
        # and S_k <= C(n,k) (n-1)^k fits int64 up to n = 16
        for n in range(1, 20):
            s = _seidel_stack([complete_graph(n), empty_graph(n)])
            coeffs = charpoly_batch_i64(s)
            assert coeffs.dtype == (np.int64 if n <= 17 else object)
            assert sk_from_charpoly(coeffs).dtype == (np.int64 if n <= 16 else object)

    def test_sk_int64_bound(self):
        # Maclaurin's bound is C(n,k) (n-1)^k at ones = 0, below 2^63 exactly
        # up to n = 16; on the boundary family's six quotient roots it stays
        # below 2^63 up to n = 22
        assert [n for n in range(1, 63) if _sk_fits_int64(n, 0)] == list(range(1, 17))
        assert all(_sk_fits_int64(6, n - 6) for n in range(11, 23))

    @pytest.mark.parametrize("n", [7, 9, 16])
    def test_row_independent_of_batch(self, rng, n):
        # blocks hold 2^15 / (P n^2) matrices (668, 404 and 128 here); the
        # stack spans three blocks and part of a fourth
        count = 3 * (2**15 // (len(_crt_primes(n)) * n * n)) + 1
        graphs = [complete_graph(n)] + [random_graph(rng, n=n) for _ in range(count - 1)]
        s = _seidel_stack(graphs).astype(np.int8)  # as scans pass it
        whole = charpoly_batch_i64(s)
        seven = charpoly_batch_i64(s[:7])
        for i in [*range(7), count - 1]:
            one = charpoly_batch_i64(s[i : i + 1])
            assert list(one[0]) == list(whole[i])
            assert i >= 7 or list(seven[i]) == list(whole[i])
        assert charpoly_batch_i64(s.astype(np.int64)).tolist() == whole.tolist()
        sk = sk_from_charpoly(whole)
        assert sk_from_charpoly(charpoly_batch_i64(s[-7:])).tolist() == sk[-7:].tolist()

    def test_crt_primes(self):
        for p in CRT_PRIMES:
            assert p > 62
            assert all(p % q for q in range(2, math.isqrt(p) + 1))
        # Hadamard: |c_{n-k}| <= C(n,k) (n-1)^(k/2) for a Seidel matrix
        bound_sq = max(math.comb(62, k) ** 2 * 61**k for k in range(63))
        assert math.prod(CRT_PRIMES[:7]) ** 2 > 4 * bound_sq
        assert math.prod(CRT_PRIMES_WIDE[:5]) ** 2 > 4 * bound_sq
        # the prime count by order: (last n, count, list), each from the n
        # after the previous last n on
        steps = [
            (13, 1, CRT_PRIMES), (17, 1, CRT_PRIMES_WIDE),
            (22, 2, CRT_PRIMES), (30, 2, CRT_PRIMES_WIDE),
            (31, 3, CRT_PRIMES), (42, 3, CRT_PRIMES_WIDE),
            (53, 4, CRT_PRIMES_WIDE), (62, 5, CRT_PRIMES_WIDE),
        ]
        expect, first = [], 1
        for last, count, primes in steps:
            expect += [primes[:count]] * (last + 1 - first)
            first = last + 1
        assert [_crt_primes(n) for n in range(1, 63)] == expect
        # lazy reduction: after reducing, every partial sum of the next
        # product with +-1 entries stays below 2^53, where float64 holds
        # every integer
        for primes in (CRT_PRIMES, CRT_PRIMES_WIDE):
            assert 62 * 62 * (max(primes) + 2) < 2**53

    def test_wide_primes_are_prime(self):
        # Miller-Rabin with the first twelve prime bases is deterministic
        # below 3.3e24
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

        def is_prime(p):
            d, s = p - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            for b in bases:
                x = pow(b, d, p)
                if x in (1, p - 1):
                    continue
                for _ in range(s - 1):
                    x = x * x % p
                    if x == p - 1:
                        break
                else:
                    return False
            return True

        # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
        assert all(map(is_prime, CRT_PRIMES)) and not is_prime(3215031751)
        assert list(CRT_PRIMES_WIDE) == sorted(set(CRT_PRIMES_WIDE), reverse=True)
        assert all(2**39 < p < 2**40 and is_prime(p) for p in CRT_PRIMES_WIDE)

    @pytest.mark.parametrize("p", [CRT_PRIMES[0], CRT_PRIMES_WIDE[0]], ids=["narrow", "wide"])
    def test_reduce_keeps_residue_class(self, rng, p):
        # any float64 integer below 2^53 goes to a symmetric residue, within
        # 2 of p/2, of its own class: the extremes, the ties q p + p/2 and
        # random values of every magnitude
        top = 2**53 - 1
        ties = [q * p + sign * (p // 2) for q in (0, 1, top // p - 1) for sign in (1, -1)]
        rand = rng.integers(-top, top, size=4000) >> rng.integers(0, 53, size=4000)
        ints = [top, -top, 0, p, -p, *ties, *ties[::-1], *rand.tolist()]
        m = np.array(ints, dtype=np.float64)
        _reduce(m, np.float64(p), np.empty_like(m))
        assert all(r == int(r) and (int(r) - x) % p == 0 for r, x in zip(m.tolist(), ints))
        assert np.abs(m).max() <= p // 2 + 2

    @pytest.mark.parametrize(
        "primes", [CRT_PRIMES[:2], CRT_PRIMES_WIDE[:1]], ids=["narrow", "wide"]
    )
    def test_one_residue_formula_on_both_lists(self, rng, primes):
        # c = (r + j p)/k serves 28-bit and 40-bit primes alike.  Two narrow
        # primes and one wide prime each cover n = 16; _crt_primes picks the
        # wide one there, so the narrow pair is passed in directly
        n = 16
        assert _crt_primes(n) == CRT_PRIMES_WIDE[:1]
        graphs = [complete_graph(n), empty_graph(n)]
        graphs += [_random_graph_any_n(rng, n) for _ in range(6)]
        s = _seidel_stack(graphs)
        coeffs = _garner(_charpoly_residues(s.astype(np.float64), primes), primes)
        expect = [c for c, _ in _closed_forms(n)] + [char_poly_exact(m).coeffs for m in s[2:]]
        assert [tuple(int(c) for c in row) for row in coeffs] == expect

    @pytest.mark.parametrize("n", [13, 14, 16, 17])
    def test_switch_points_match_oracle(self, n):
        # one prime and int64 coefficients through n = 17, int64 S_k through
        # n = 16: the closed forms and boundary-family members, whose S_k
        # are near the smallest allowed, against the object-dtype oracle
        graphs = [complete_graph(n), empty_graph(n)] + list(BoundaryFamily(n))[::29]
        s = _seidel_stack(graphs)
        coeffs = charpoly_batch_i64(s)
        sk = sk_from_charpoly(coeffs)
        assert len(_crt_primes(n)) == 1 and coeffs.dtype == np.int64
        assert sk.dtype == (np.int64 if n <= 16 else object)
        expect = _closed_forms(n) + [(char_poly_exact(m).coeffs, _sk_exact(m)) for m in s[2:]]
        assert [(tuple(c), k) for c, k in zip(coeffs.tolist(), sk.tolist())] == expect

    def test_rejects_out_of_range(self):
        # the prime count comes from the order alone, so anything but a
        # Seidel stack of order at most 62 would come back wrong
        s = seidel_matrix(cycle_graph(5))
        two = s.copy()
        two[0, 2] = two[2, 0] = 2
        for bad in [np.ones((2, 2, 3), dtype=np.int64), s]:
            with pytest.raises(ValueError, match="square"):
                charpoly_batch_i64(bad)
        for bad in [s @ s, s + np.eye(5, dtype=np.int64), two]:
            with pytest.raises(ValueError, match="Seidel"):
                charpoly_batch_i64(np.stack([s, bad]))
        with pytest.raises(ValueError, match="at most 62"):  # J - I at n = 63
            charpoly_batch_i64((1 - np.eye(63, dtype=np.int64))[None])


def _assembled(parents: np.ndarray, borders: np.ndarray) -> np.ndarray:
    """The (B, C, m+1, m+1) matrices [[S, v], [v^T, 0]] of every parent S
    and border v."""
    b, m, _ = parents.shape
    full = np.zeros((b, len(borders), m + 1, m + 1), dtype=np.int64)
    full[:, :, :m, :m] = parents[:, None]
    full[:, :, :m, m] = full[:, :, m, :m] = borders
    return full


class TestBorderedCharPoly:
    """charpoly_batch_i64(parents, borders) against the plain kernel on the
    assembled matrices, whose own exactness TestCharPolyBatch checks."""

    @pytest.mark.parametrize("n", range(1, 63))
    def test_matches_assembled_every_order(self, rng, n):
        # n is the bordered order: one prime and int64 Garner up to n = 17,
        # several primes above, their Garner digits int64 or objects by the
        # primes' width
        m = n - 1
        if m:
            graphs = [complete_graph(m), empty_graph(m), _random_graph_any_n(rng, m)]
            parents = _seidel_stack(graphs)
        else:  # the order-0 parent of n = 1
            parents = np.zeros((1, 0, 0), dtype=np.int64)
        ones = np.ones((1, m), dtype=np.int64)
        borders = np.concatenate([ones, -ones, rng.choice([-1, 1], size=(2, m))])
        got = charpoly_batch_i64(parents.astype(np.int8), borders.astype(np.int8))
        full = _assembled(parents, borders)
        want = charpoly_batch_i64(full.reshape(-1, n, n)).reshape(*full.shape[:2], n + 1)
        assert got.dtype == want.dtype == (np.int64 if n <= 17 else object)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [7, 10, 18])
    def test_rows_independent_of_blocks(self, rng, n):
        # a block holds 2^15 / (P (m^2 + C (m + 2))) parents; these stacks
        # span several blocks and part of one more
        m, borders = n - 1, rng.choice([-1, 1], size=(16, n - 1))
        count = 2 * (2**15 // (len(_crt_primes(n)) * (m * m + 16 * (m + 2)))) + 3
        parents = _seidel_stack([random_graph(rng, n=m) for _ in range(count)])
        got = charpoly_batch_i64(parents, borders)
        for i in [0, 1, count - 1]:
            assert got[i].tolist() == charpoly_batch_i64(parents[i : i + 1], borders)[0].tolist()
        picks = rng.integers(0, count, 20), rng.integers(0, 16, 20)
        full = _assembled(parents, borders)[picks]
        assert got[picks].tolist() == charpoly_batch_i64(full).tolist()

    def test_rejects_bad_borders_and_parents(self):
        s = seidel_matrix(cycle_graph(5))[None]
        ones = np.ones((3, 5), dtype=np.int64)
        zero, two = ones.copy(), ones.copy()
        zero[1, 2], two[2, 4] = 0, 2
        for bad in [zero, two]:
            with pytest.raises(ValueError, match="borders"):
                charpoly_batch_i64(s, bad)
        for bad in [ones[:, :4], ones[0], ones[None]]:
            with pytest.raises(ValueError, match="borders"):
                charpoly_batch_i64(s, bad)
        loop = s.copy()
        loop[0, 0, 0] = 1
        with pytest.raises(ValueError, match="Seidel"):
            charpoly_batch_i64(loop, ones)
        with pytest.raises(ValueError, match="at most 62"):  # bordered to n = 63
            charpoly_batch_i64((1 - np.eye(62, dtype=np.int64))[None], np.ones((1, 62)))


def _random_types(rng, n, k, count=24):
    """count random signed cell types of k cells and order n: symmetric +-1
    signs, so clique and coclique cells alike, and a random number of
    nonempty cells, from 1 to min(k, n); the others are empty."""
    upper = np.triu(rng.choice([-1.0, 1.0], (count, k, k)))
    signs = upper + np.triu(upper, 1).swapaxes(1, 2)
    sizes = np.zeros((count, k), dtype=np.int64)
    for row in sizes:
        full = rng.permutation(k)[: rng.integers(1, min(k, n) + 1)]
        row[full] = 1 + rng.multinomial(n - len(full), np.full(len(full), 1 / len(full)))
    return signs, sizes


def _times_linear(poly: list, a: int, power: int) -> list:
    """Ascending Python-int coefficients of poly times (x + a)^power."""
    for _ in range(power):
        poly = [a * c + lower for c, lower in zip(poly + [0], [0] + poly)]
    return poly


class TestSignedTypeQuotients:
    """The equitable quotient of a signed cell type against the type's own
    Seidel matrices: p_S prod_empty (x + s_ii) = q prod_nonempty (x + s_ii)^(s_i - 1)."""

    @pytest.mark.parametrize(
        "k, n",
        [(1, 1), (1, 9), (2, 2), (2, 13), (3, 4), (3, 30), (4, 17), (5, 22), (6, 6), (6, 40), (6, 62), (7, 62)],
    )
    def test_polynomials_and_spectra_match_the_seidel_matrices(self, rng, k, n):
        signs, sizes = _random_types(rng, n, k)
        s = _seidel(n, _blow_up_bits(n, signs, sizes))
        assert s.shape == (len(sizes), n, n)
        q = _charpoly_f64(_quotients(signs, sizes))
        assert q.dtype == np.int64 and q.shape == (len(sizes), k + 1)
        cells = np.diagonal(signs, axis1=1, axis2=2).astype(np.int64)
        vals, want_vals = np.linalg.eigvalsh(s), np.linalg.eigvalsh(_quotients(signs, sizes, True))
        for row, p_s in enumerate(charpoly_batch_i64(s).tolist()):
            lhs, rhs = p_s, q[row].tolist()
            joined, own = [want_vals[row]], [vals[row]]
            for size, sigma in zip(sizes[row].tolist(), cells[row].tolist()):
                if size:
                    rhs = _times_linear(rhs, sigma, size - 1)
                    joined.append(np.full(size - 1, -sigma))
                else:
                    lhs = _times_linear(lhs, sigma, 1)
                    own.append([-sigma])
            assert lhs == rhs
            spectra = np.sort(np.concatenate(joined)), np.sort(np.concatenate(own))
            assert np.abs(spectra[0] - spectra[1]).max() <= 1e-12 * n

    def test_types_cover_every_kind_of_cell(self, rng):
        signs, sizes = _random_types(rng, 30, 6)
        cells = np.diagonal(signs, axis1=1, axis2=2)
        assert (sizes == 0).any() and (cells[sizes > 0] < 0).any() and (cells[sizes > 0] > 0).any()

    def test_past_the_float64_bound_raises(self, rng):
        # k 2^k rho^k < 2^53 holds for k = 7 at n = 62 even with an empty
        # cell (rho = n + 1), and fails for k = 8
        signs, sizes = _random_types(rng, 62, 8)
        sizes[:, 0] = 0
        with pytest.raises(ValueError, match="2\\^53"):
            _charpoly_f64(_quotients(signs, sizes))
        sizes = np.zeros((1, 7), dtype=np.int64)
        sizes[0, 1] = 62
        assert _charpoly_f64(_quotients(signs[:1, :7, :7], sizes)).shape == (1, 8)


class TestElementarySymmetric:
    def test_examples(self):
        assert elementary_symmetric_A2(complete_graph(2)) == [1, 2, 1]
        assert elementary_symmetric_A2(complete_graph(3)) == [1, 6, 9, 4]
        assert elementary_symmetric_A2(cycle_graph(5)) == [1, 20, 150, 500, 625, 0]

    @given(graph_strategy(min_n=2, max_n=8))
    @settings(max_examples=60)
    def test_s1_is_frobenius(self, g):
        sk = elementary_symmetric_A2(g)
        assert sk[1] == g.n * (g.n - 1)
        assert all(v >= 0 for v in sk)

    @given(graph_strategy(min_n=2, max_n=7))
    @settings(max_examples=30)
    def test_matches_float_spectrum(self, g):
        # product expansion of (x + mu_i) over squared eigenvalues
        sk = elementary_symmetric_A2(g)
        mus = [v * v for v in eigenvalues(g).values]
        poly = np.array([1.0])
        for mu in mus:
            poly = np.convolve(poly, [1.0, mu])
        assert np.allclose(poly, np.array(sk, dtype=float), rtol=1e-9, atol=1e-6)


class TestBareissDet:
    def test_examples(self):
        assert bareiss_det([[2]]) == 2
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_matches_numpy(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = rng.integers(-5, 6, size=(n, n))
            assert bareiss_det(m) == round(np.linalg.det(m.astype(float)))


class TestSubmatrixDet:
    def test_validation(self):
        a = seidel_matrix(complete_graph(4))
        with pytest.raises(ValueError):
            submatrix_det_parity(a, [0], [1, 2])
        with pytest.raises(ValueError):
            submatrix_det_parity(a, [], [])

    @given(graph_strategy(min_n=3, max_n=7), st.data())
    @settings(max_examples=60)
    def test_overlap_k_minus_1_is_odd(self, g, data):
        # |I ∩ J| = k - 1 forces an odd determinant
        k = data.draw(st.integers(1, g.n - 1))
        rows = data.draw(
            st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k)
        )
        rows = sorted(rows)
        shared = rows[:-1]
        outside = sorted(set(range(g.n)) - set(rows))
        cols = sorted(shared + [data.draw(st.sampled_from(outside))])
        det = submatrix_det_parity(g, rows, cols)
        assert det % 2 == 1


class TestCauchyBinet:
    def test_identity(self):
        lhs, rhs = cauchy_binet_check(np.eye(3, dtype=int), 2)
        assert lhs == rhs == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_binet_check(np.eye(3, dtype=int), 4)
        with pytest.raises(ValueError):
            cauchy_binet_check(np.array([1, 2, 3]), 1)

    def test_random(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 5))
            q = int(rng.integers(m, 7))
            r = rng.integers(-3, 4, size=(m, q))
            for k in range(1, m + 1):
                lhs, rhs = cauchy_binet_check(r, k)
                assert lhs == rhs


class TestBinomial:
    def test_values(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1

    def test_vanishing_convention(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 1) == 0
