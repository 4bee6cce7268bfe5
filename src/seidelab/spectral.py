"""Seidel spectra and exact integer characteristic polynomials.

Two backends live here.  The floating-point one is LAPACK eigh for single
graphs, checked after the fact: its eigenpairs must rebuild the matrix to
within RESIDUAL_TOL_FACTOR * n, and the eigenvalues must meet the trace
identities of A and A^2.  Scans take their spectra from batched LAPACK
eigvalsh in the search module.  The exact one is charpoly_batch_i64:
Faddeev-LeVerrier on stacks of Seidel matrices in float64 BLAS products
kept below 2^53, modulo as many primes as a Hadamard bound at their order
asks for, with the integers rebuilt by Garner's CRT.  The products are
reduced in place by the rounded quotient, M - p rint(M (1/p)), which is
exact whatever the rounding, and the primes come from a 28-bit or a 40-bit
list, whichever needs fewer at that order: one prime up to n = 17, two up
to n = 30, five from n = 54 to 62.  Run on the Seidel matrix A itself
and passed through sk_from_charpoly, it yields the exact S_k(A^2) of every
scan and verify call up to n = 62, int64 wherever Maclaurin's bound keeps
them below 2^63 (_sk_fits_int64).  Given borders too, the kernel returns
the polynomials of the bordered matrices [[S, v], [v^T, 0]] by Schur's
complement, det = x p_S(x) - v^T adj(xI - S) v, reading each
quadratic form v^T B_k v off the running matrices B_k of adj(xI - S) that
the recurrence already holds; its partial sums obey the recurrence's own
2^53 guard.  Exhaustive scans run it so on parent classes up to relabeling,
parents and borders read off bit fields of the representative numbers with
no sort over rows: 90 classes of the 1,024 parents times 16 borders for the
16,384 representatives at n = 7, and 34 to 148 classes times 32 borders per
2^15-row chunk at n = 8.  A signed cell type's equitable quotient needs no
primes (_quotients, _charpoly_f64): one float64 Faddeev-LeVerrier loop,
exact under a bound it checks.  The object-dtype recurrence char_poly_exact
and the Bareiss determinants stay as oracles and behind the Cauchy-Binet
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod

import numpy as np

from .graphs import MAX_VERTICES, Graph, seidel_matrix

RESIDUAL_TOL_FACTOR = 1e-12  # eigenpairs must rebuild A to within factor * n


class SpectrumError(RuntimeError):
    """LAPACK eigh failed, its eigenpairs do not reconstruct the matrix, or its
    eigenvalues break tr S = 0 or sum(w^2) = n(n-1)."""


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending plus a reconstruction residual."""

    values: tuple[float, ...]
    residual: float

    @property
    def n(self) -> int:
        return len(self.values)


def check_seidel_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("Seidel matrix must be square")
    wrong = np.abs(a) != ~np.eye(len(a), dtype=bool)  # |A| != J - I
    if wrong.diagonal().any():
        raise ValueError("Seidel matrix must have zero diagonal")
    if wrong.any():
        raise ValueError("off-diagonal Seidel entries must be +-1")
    if (a != a.T).any():
        raise ValueError("Seidel matrix must be symmetric")
    return a


def eigenvalues(a: np.ndarray | Graph) -> Spectrum:
    """Checked Seidel spectrum of one matrix via LAPACK eigh, descending.

    The residual max |(Q diag(w) Q^T - A)_ij| is the pass/fail test:
    above RESIDUAL_TOL_FACTOR * n, or when eigh raises, SpectrumError.
    Zero trace and sum(w^2) = n(n-1) are enforced before returning, with
    SpectrumError too.
    """
    if isinstance(a, Graph):
        a = seidel_matrix(a)
    a = check_seidel_matrix(a)
    n = a.shape[0]
    try:
        w, q = np.linalg.eigh(a.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"eigh failed: {exc}") from exc
    w, q = w[::-1], q[:, ::-1]
    residual = float(np.max(np.abs((q * w) @ q.T - a)))
    if not residual <= RESIDUAL_TOL_FACTOR * n:
        raise SpectrumError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL_FACTOR * n:.3e}"
        )
    if abs(w.sum()) > 1e-9 * n:
        raise SpectrumError(f"eigenvalue sum {w.sum():.3e} violates zero trace")
    if abs(np.sum(w * w) - n * (n - 1)) > 1e-8 * n * n:
        raise SpectrumError("eigenvalue square sum violates trace of A^2")
    return Spectrum(tuple(float(x) for x in w), residual)


EIGENVALUE_SNAP = 1e-9  # |lambda| below this is treated as an exact zero


def p_energy(s: Spectrum | np.ndarray, p: float) -> float | np.ndarray:
    """Sum of |lambda_i|^p; p = 1 is the Seidel energy.

    One spectrum gives a float; a (..., n) stack of spectra gives the
    (...) array of sums over the last axis, each equal to the float its row
    alone would give.  Eigenvalues smaller than EIGENVALUE_SNAP in magnitude
    are treated as exact zeros: for p < 1 the map |x|^p amplifies solver
    noise at a true zero eigenvalue (1e-17 noise contributes ~1e-5 at
    p = 0.3), far above the accuracy of the spectrum itself.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    vals = np.asarray(s.values if isinstance(s, Spectrum) else s, dtype=np.float64)
    mags = np.abs(vals)
    mags[mags < EIGENVALUE_SNAP] = 0.0
    total = (mags**p).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# exact integer backend


@dataclass(frozen=True)
class ExactCharPoly:
    """Monic characteristic polynomial with exact integer coefficients.

    coeffs[k] is the coefficient of x^k; coeffs[n] = 1.
    """

    coeffs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def char_poly_exact(a) -> ExactCharPoly:
    """det(xI - A) for an integer matrix by Faddeev-LeVerrier.

    All arithmetic is in Python integers; every division in the recurrence
    is exact and asserted so.
    """
    m = np.array(a, dtype=object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    ident = np.eye(n, dtype=object)
    mk = m.copy()
    for k in range(1, n + 1):
        tr = int(np.trace(mk))
        if tr % k:
            raise ArithmeticError("inexact division in Faddeev-LeVerrier recurrence")
        ck = -(tr // k)
        coeffs[n - k] = ck
        if k < n:
            mk = m @ (mk + ck * ident)
    return ExactCharPoly(tuple(int(c) for c in coeffs))


# Two lists of primes, descending, listed rather than searched for at import:
# just below 2^28 and just below 2^40.  Being prime and > 62, each is
# invertible modulo every k <= n.  _crt_primes picks the list and the prime
# count by order.  A Seidel matrix times a matrix reduced modulo a prime p has trace at most
# n^2 (p + 2) (_charpoly_residues), which must stay below 2^53, where float64
# arithmetic on integers is exact: both lists fit every n <= MAX_VERTICES = 62.
CRT_PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313, 268435291,
    268435273, 268435243, 268435183, 268435171, 268435157, 268435147, 268435133,
)
CRT_PRIMES_WIDE = (
    1099511627689, 1099511627609, 1099511627581, 1099511627573, 1099511627563,
    1099511627491, 1099511627483, 1099511627477, 1099511627387, 1099511627339,
)
_F64_EXACT = 1 << 53
_BLOCK_ENTRIES = 1 << 15  # float64 entries of M_k per block, over all primes


@lru_cache(maxsize=None)
def _crt_primes(n: int) -> tuple[int, ...]:
    """The fewest leading primes of one list with product > 2 max_k C(n,k)
    (n-1)^(k/2), for Seidel stacks of order n <= 62; CRT_PRIMES on a tie.

    Every row of a Seidel matrix has squared norm n - 1, so Hadamard's
    inequality bounds each k x k principal minor by (n-1)^(k/2), hence
    |c_{n-k}| <= C(n,k) (n-1)^(k/2), and symmetric residues recover c
    exactly.  That is one prime up to n = 17 (the wide one from n = 14),
    two up to n = 30 and five from n = 54 to 62.
    """
    bound_sq = max(comb(n, k) ** 2 * (n - 1) ** k for k in range(n + 1))

    def leading(primes):
        prefixes = (primes[:count] for count in range(1, len(primes) + 1))
        return next(ps for ps in prefixes if prod(ps) ** 2 > 4 * bound_sq)

    return min(leading(CRT_PRIMES), leading(CRT_PRIMES_WIDE), key=len)


def _reduce(m: np.ndarray, p: np.ndarray, spare: np.ndarray) -> None:
    """m <- m - p rint(m (1/p)) in place, for float64 integers |m| < 2^53;
    spare is scratch of m's shape.

    The quotient Q is an integer, so the result lies in the residue class of
    m however the quotient was rounded; Q p and the difference are integers
    below 2^53, so both are exact.  The rounded quotient is off m/p by at
    most |m| 2^-52 + 1/2, so the result satisfies |r| <= p/2 + 2.
    """
    np.multiply(m, 1.0 / p, out=spare)
    np.rint(spare, out=spare)
    spare *= p
    m -= spare


def _charpoly_residues(
    m: np.ndarray, primes: tuple[int, ...], borders: np.ndarray | None = None
) -> np.ndarray:
    """Faddeev-LeVerrier on a (b, n, n) float64 block of a Seidel stack
    modulo every prime of one list at once; returns (P, b, n+1) ascending
    coefficients in [0, p).  With borders, a (C, n) float64 array of +-1
    rows v, returns instead the (P, b, C, n+2) coefficients of the bordered
    matrices [[S, v], [v^T, 0]] (see charpoly_batch_i64).

    The running product M_k is exact until the next product's trace could
    reach 2^53; then _reduce brings its entries to |r| <= p/2 + 2 in the same
    residue class.  With c_k kept as a symmetric residue, every entry entering
    a product is at most p + 2, every partial sum of a BLAS product with the
    +-1 entries of m stays below n^2 (p + 2) < 2^53, and so is an exactly
    represented integer.  c_{n-k} = -tr(M_k)/k mod p is c = (r + j p)/k with
    r = -tr(M_k) mod p and j = -r p^-1 mod k, an exact division of integers
    below k p < 2^47 for p < 2^40 and k <= 62.  Right after its diagonal
    update M_k holds B_k = M_k + c_{n-k} I, the coefficient of x^(n-1-k) in
    adj(xI - S), and every border's quadratic form v^T B_k v = <B_k, v v^T>
    is read off it in one GEMM with the flattened outer products.  Its
    partial sums stay below n^2 (bound + p/2), the guard that keeps the next
    product exact, so the forms are exact integers too.
    """
    b, n, _ = m.shape
    ps = np.array(primes, dtype=np.int64)[:, None]  # (P, 1)
    pf = ps.astype(np.float64)[..., None, None]  # (P, 1, 1, 1)
    half, pmax = ps // 2, max(primes)
    out = np.empty((len(primes), b, n + 1), dtype=np.int64)
    out[..., n] = 1
    if borders is not None:  # x p(x) - sum_k (v^T B_k v) x^(n-1-k), ascending
        outer = (borders[:, :, None] * borders[:, None, :]).reshape(len(borders), n * n)
        bordered = np.zeros((len(primes), b, len(borders), n + 2), dtype=np.int64)
        if n:
            bordered[..., n - 1] = -n  # v^T B_0 v = v^T v
        bordered[..., n + 1] = 1
    mk = np.repeat(m[None], len(primes), axis=0)  # M_1 = A
    spare = np.empty_like(mk)
    mk_bound = 1
    inverse = np.array([[pow(-p, -1, k) for k in range(1, n + 1)] for p in primes])  # -p^-1 mod k
    for k in range(1, n + 1):
        r = -np.einsum("pbii->pb", mk).astype(np.int64) % ps  # -tr(M_k) mod p
        ck = (r + r * inverse[:, k - 1 : k] % k * ps) // k
        out[:, :, n - k] = ck  # c_{n-k} = -tr(M_k) / k
        if borders is not None:
            bordered[..., n + 1 - k] += ck[..., None]
        if k == n:
            break
        if n * n * (mk_bound + pmax // 2) >= _F64_EXACT:
            _reduce(mk, pf, spare)
            mk_bound = pmax // 2 + 2
        np.einsum("pbii->pbi", mk)[...] += np.where(ck > half, ck - ps, ck)[..., None]
        if borders is not None:  # mk is B_k
            forms = mk.reshape(-1, n * n) @ outer.T
            bordered[..., n - 1 - k] = -forms.reshape(bordered.shape[:3])
        mk, spare = np.matmul(m, mk, out=spare), mk
        mk_bound = n * (mk_bound + pmax // 2)
    return out if borders is None else bordered % ps[..., None, None]


def _garner(res: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """Integers x with |x| < prod(primes)/2 from residues res[i] = x mod
    primes[i], by Garner's mixed-radix reconstruction.  One prime gives int64,
    several give Python ints in an object array.  The mixed-radix digits are
    int64 while p^2 < 2^63 and Python ints above."""
    if len(primes) == 1:
        x, p = res[0], primes[0]
        x -= (x > p // 2) * p
        return x
    wide = max(primes) ** 2 >= 1 << 63
    digits = []
    for i, p in enumerate(primes):
        v = res[i].astype(object) if wide else res[i]
        for q, dq in zip(primes, digits):
            v = (v - dq) * pow(q, -1, p) % p
        digits.append(v)
    x = digits[-1].astype(object)
    for p, v in zip(primes[-2::-1], digits[-2::-1]):
        x = x * p + v.astype(object)
    total = prod(primes)
    return np.where(x > total // 2, x - total, x)


def charpoly_batch_i64(mats: np.ndarray, borders: np.ndarray | None = None) -> np.ndarray:
    """Exact det(xI - S) for a (B, n, n) Seidel stack of order
    n <= MAX_VERTICES; returns (B, n+1) coefficients in ascending power order.

    Faddeev-LeVerrier runs on float64 BLAS products, converted from the
    stack one block of about 2^15 / (P n^2) matrices at a time, modulo each
    of the P primes _crt_primes(n), the prime count by order.  Garner's
    algorithm rebuilds the integers: int64 when one prime suffices (up to
    n = 17), Python ints in an object array otherwise.  A row does not depend
    on the rest of its batch.  The primes cover Seidel coefficients only, so
    a stack with |S| != J - I anywhere, or of a larger order, raises
    ValueError.

    With borders, a (C, n) array of +-1 rows v, returns instead the
    (B, C, n+2) coefficients of every bordered matrix [[S, v], [v^T, 0]], a
    Seidel matrix of order n + 1 <= MAX_VERTICES, by Schur's complement:

        det(xI - [[S, v], [v^T, 0]]) = x p_S(x) - v^T adj(xI - S) v,

    where adj(xI - S) = sum_k B_k x^(n-1-k) and B_k are Faddeev-LeVerrier's
    running matrices.  So the recurrence runs once per S, modulo the P
    primes _crt_primes(n + 1), and each border costs a quadratic form per k;
    blocks then hold about 2^15 / (P (n^2 + C (n + 2))) matrices S.  Borders
    other than a (C, n) stack of +-1 raise ValueError.
    """
    m = np.asarray(mats)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("expected a (B, n, n) stack of square matrices")
    bsz, n, _ = m.shape
    order = n if borders is None else n + 1
    if order > MAX_VERTICES or (np.abs(m) != ~np.eye(n, dtype=bool)).any():
        raise ValueError(f"expected Seidel matrices, |S| = J - I, of order at most {MAX_VERTICES}")
    v, shape, per_matrix = None, (bsz,), n * n
    if borders is not None:
        v = np.asarray(borders)
        if v.ndim != 2 or v.shape[1] != n or (np.abs(v) != 1).any():
            raise ValueError(f"expected a (C, {n}) stack of +-1 borders")
        v, shape, per_matrix = v.astype(np.float64), (bsz, len(v)), n * n + len(v) * (n + 2)
    primes = _crt_primes(order)
    res = np.empty((len(primes), *shape, order + 1), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // (len(primes) * per_matrix or 1))
    for lo in range(0, bsz, step):
        block = m[lo : lo + step].astype(np.float64)
        res[:, lo : lo + step] = _charpoly_residues(block, primes, v)
    return _garner(res, primes)


def _quotients(signs: np.ndarray, sizes: np.ndarray, symmetrized: bool = False) -> np.ndarray:
    """The (B, k, k) float64 quotients of a signed cell type (see
    graphs._blow_up_bits): Q = sigma * (w - I), w_ij = s_j, or symmetrized,
    w_ij = sqrt(s_i s_j).  The cells are an equitable partition (Brouwer and
    Haemers, Spectra of Graphs, ch. 2), so det(xI - S) prod_(s_i = 0)
    (x + sigma_ii) = det(xI - Q) prod_(s_i > 0) (x + sigma_ii)^(s_i - 1),
    and the symmetrized form's spectrum is the roots of det(xI - Q).  The
    root of s_i s_j is exact on the diagonal, and + 0.0 makes -0.0 +0.0,
    whose sign LAPACK's last digits see."""
    s = np.asarray(sizes, dtype=np.float64)[:, None, :]
    w = np.sqrt(s.swapaxes(1, 2) * s) if symmetrized else s
    return signs * (w - np.eye(s.shape[-1])) + 0.0


def _charpoly_f64(q: np.ndarray) -> np.ndarray:
    """Exact det(xI - Q), (B, k+1) int64 ascending, of a (B, k, k) integer
    stack, by Faddeev-LeVerrier in float64 BLAS products.  With rho >= 1
    above every absolute row sum of Q, |c_(k-j)| <= C(k,j) rho^j, the loop's
    matrices M_j have entries up to 2^k rho^(j-1), and every partial sum is
    within k 2^k rho^k; unless that is below 2^53 it raises ValueError.  A
    quotient of _quotients has rho <= n + 1, so k <= 7 passes at n <= 62."""
    b, k, _ = q.shape
    rho = float((np.abs(q).reshape(-1, k) @ np.ones(k)).max(initial=1.0))  # GEMV beats sum(axis=2)
    if k * 2.0**k * rho**k >= _F64_EXACT:
        raise ValueError(f"k 2^k rho^k >= 2^53 for k = {k}, rho = {rho:g}: float64 is not exact")
    # M_j = Q M_(j-1) + c_(k+1-j) I and c_(k-j) = -tr(Q M_j) / j, which j divides
    coeffs = np.zeros((b, k + 1))
    coeffs[:, k] = 1
    qm, diagonal = np.zeros_like(q, dtype=np.float64), np.arange(k)
    for j in range(1, k + 1):
        qm[:, diagonal, diagonal] += coeffs[:, k + 1 - j, None]  # qm is now M_j
        qm = q @ qm
        coeffs[:, k - j] = -np.einsum("bii->b", qm) / j
    return coeffs.astype(np.int64)


def sk_from_charpoly(coeffs: np.ndarray, ones: int = 0) -> np.ndarray:
    """S_0..S_n of A^2, ascending, for Seidel matrices A of order n with
    det(xI - A) = (x - 1)^ones q(x), from the (B, d+1) ascending
    coefficients c of q, n = d + ones.  With f_i = c_{d-i},
    (-1)^d q(x) q(-x) is the product of x^2 - mu^2 over q's roots mu, so
    T_j, the j-th elementary symmetric function of the mu^2, is
    (-1)^j sum_{i+l=2j} (-1)^i f_i f_l, whose terms pair up around i = j.
    The other ones squared eigenvalues are 1, so
    S_k = sum_j C(ones, k-j) T_j, one product with a binomial band.  This
    is the only read that knows of ones: N_op and the SC flag are read off
    its S_k (seidel._odd_pairs_of_sk, seidel._sc_of_sk).

    int64 coefficients give int64 S_k wherever _sk_fits_int64(d, ones)
    holds (n <= 16 at ones = 0, every boundary order at d = 6), computed
    in uint64, where wraparound is arithmetic mod 2^64: each sum is exact
    once its true value is known to lie in [0, 2^63), and T_j <= S_j, since
    S_j is T_j plus C(ones, j-i) T_i over i < j and every T_i >= 0.
    Otherwise, and for object coefficients, S_k are Python ints in an
    object array.
    """
    d = coeffs.shape[-1] - 1
    if coeffs.dtype != object and _sk_fits_int64(d, ones):
        f = coeffs.astype(np.int64, copy=False).view(np.uint64)[:, ::-1]
    else:
        f = coeffs.astype(object, copy=False)[:, ::-1]
    sign = ((-1) ** np.arange(2 * d + 1)).astype(f.dtype)
    sk = np.empty_like(f, order="F")  # filled a column at a time
    for k in range(d + 1):
        lo = max(0, 2 * k - d)  # f_i f_(2k-i) for i = lo..k-1
        cross = (f[:, lo:k] * f[:, 2 * k - lo : k : -1]) @ sign[lo + k : 2 * k]
        sk[:, k] = f[:, k] * f[:, k] + 2 * cross
    if ones:
        sk = sk @ _ones_band(d, ones, sk.dtype)
    return sk if sk.dtype == object else sk.view(np.int64)


@lru_cache(maxsize=None)
def _sk_fits_int64(d: int, ones: int) -> bool:
    """Whether Maclaurin's bound keeps every S_k below 2^63 for
    det(xI - A) = (x - 1)^ones q(x), q of degree d, n = d + ones.  q's d
    squared roots sum to tr A^2 - ones = n(n-1) - ones, so their mean is
    m = (n(n-1) - ones) / d and T_j <= C(d,j) m^j; hence
    S_k <= sum_j C(ones, k-j) C(d,j) m^j, taken exactly in Python ints
    times d^d.  At ones = 0 that is C(n,k) (n-1)^k, below 2^63 up to
    n = 16."""
    n = d + ones
    total = n * (n - 1) - ones
    bound = max(
        sum(comb(ones, k - j) * comb(d, j) * total**j * d ** (d - j) for j in range(min(k, d) + 1))
        for k in range(n + 1)
    )
    return bound < (1 << 63) * d**d


@lru_cache(maxsize=None)
def _ones_band(d: int, ones: int, dtype: np.dtype) -> np.ndarray:
    """The (d+1, d+ones+1) band C(ones, k-j), j down and k across, in dtype:
    T @ band joins ones squared eigenvalues 1 to the sums T_0..T_d."""
    band = np.array(
        [[binomial(ones, k - j) for k in range(d + ones + 1)] for j in range(d + 1)], dtype
    )
    band.flags.writeable = False
    return band


def elementary_symmetric_A2(a: np.ndarray | Graph) -> list[int]:
    """Exact S_0..S_n of the squared Seidel eigenvalues: a batch of one
    through charpoly_batch_i64 on the Seidel matrix itself, then sk_from_charpoly."""
    if isinstance(a, Graph):
        a = seidel_matrix(a)
    a = check_seidel_matrix(a)
    sk = [int(v) for v in sk_from_charpoly(charpoly_batch_i64(a[None]))[0]]
    if sk[0] != 1 or any(v < 0 for v in sk):
        raise AssertionError("S_k of a squared symmetric matrix must be nonnegative")
    return sk


def bareiss_det(mat) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [[int(x) for x in row] for row in np.asarray(mat, dtype=object)]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def cauchy_binet_check(r, k: int) -> tuple[int, int]:
    """Both sides of S_k(R R^T) = sum over k-subsets I, J of det(R_{I,J})^2.

    Returns (lhs via exact char poly of R R^T, rhs via exact minors)."""
    rm = np.array(r, dtype=object)
    if rm.ndim != 2:
        raise ValueError("R must be a matrix")
    m, q = rm.shape
    if not 1 <= k <= min(m, q):
        raise ValueError(f"k={k} outside 1..min({m},{q})")
    b = rm @ rm.T
    cp = char_poly_exact(b)
    lhs = (-1) ** k * cp.coeffs[m - k]
    rhs = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(q), k):
            d = bareiss_det(rm[np.ix_(rows, cols)])
            rhs += d * d
    return int(lhs), int(rhs)


def binomial(a: int, b: int) -> int:
    """C(a, b) with the vanishing convention outside 0 <= b <= a."""
    if b < 0 or b > a or a < 0:
        return 0
    return comb(a, b)
