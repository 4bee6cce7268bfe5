"""Acceptance suite: one test per release criterion, one status line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the status
lines inline).  Tolerances are pinned here and must not be loosened to
make a criterion pass.
"""

import math
import time

import numpy as np
import pytest

from seidelab.analytic import (
    CubicCoefficients,
    cp_constant,
    cp_constant_quadrature,
    cubic_bound_rhs,
    cubic_integral_lhs,
    energy_by_integral,
)
from seidelab.graphs import complete_graph, parse_graph6
from seidelab.search import (
    AllGraphs,
    BoundaryFamily,
    _class_masks,
    _free_edges,
    _mask_bits,
    _seidel,
    scan,
)
from seidelab.seidel import count_odd_pairs, is_sc_equivalent_to_complete
from seidelab.spectral import (
    cauchy_binet_check,
    charpoly_batch_i64,
    eigenvalues,
    elementary_symmetric_A2,
    p_energy,
    sk_from_charpoly,
)

from conftest import random_graph


def report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def desk_scan():
    """One exhaustive pass over all labeled graphs for n <= 7, shared by the
    criteria that quantify over that range."""
    t0 = time.monotonic()
    reports = {
        n: scan(
            AllGraphs(n),
            checks=("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem2"),
        )
        for n in range(1, 8)
    }
    return reports, time.monotonic() - t0


def test_criterion_01_complete_graph_equality():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 51):
        s = eigenvalues(complete_graph(n))
        ok &= abs(p_energy(s, 1.0) - (2 * n - 2)) <= 1e-8
        closed = (1.0,) * (n - 1) + (float(1 - n),)
        ok &= max(abs(a - b) for a, b in zip(s.values, closed)) <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(1, "complete-graph equality, n=2..50", ok)


def test_criterion_02_exhaustive_theorem2(desk_scan):
    reports, elapsed = desk_scan
    ok = elapsed < 600.0
    for n, rep in reports.items():
        t2 = [f for f in rep.failures if f["check"] == "theorem2"]
        ok &= rep.total_failures == len(rep.failures)  # nothing truncated
        ok &= rep.graphs_scanned == 1 << (n * (n - 1) // 2)
        ok &= not t2
        ok &= rep.min_energy >= 2 * n - 2 - 1e-6
        for g6 in rep.equality_graph6:
            g = parse_graph6(g6)
            ok &= count_odd_pairs(g) == 0
            ok &= is_sc_equivalent_to_complete(g)[0]
    report(2, "exhaustive E_S >= 2n-2 for n <= 7", ok)


def test_criterion_03_boundary_family():
    t0 = time.monotonic()
    ok = True
    for n in range(11, 23):
        rep = scan(BoundaryFamily(n), checks=("theorem2",))
        ok &= rep.total_failures == 0
        ok &= rep.graphs_scanned == len(BoundaryFamily(n))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(3, "boundary-family search, n=11..22", ok)


def test_criterion_04_integral_identity(rng):
    ok = True
    for _ in range(100):
        g = random_graph(rng, max_n=10)
        spectrum = eigenvalues(g)
        sk = elementary_symmetric_A2(g)
        for p in (0.3, 0.5, 1.0, 1.5, 1.9):
            direct = p_energy(spectrum, p)
            via = energy_by_integral(sk, p)
            ok &= abs(via - direct) <= 1e-6 * max(1.0, direct)
    report(4, "singular-integral energy identity", ok)


def test_criterion_05_normalizing_constant():
    closed = cp_constant(0.5)
    quad = cp_constant_quadrature(0.5)
    ok = abs(closed - quad) <= 1e-9 * closed
    ok &= abs(closed - 0.159154943) <= 1e-9 + 5e-10  # printed value is rounded
    ok &= abs(closed - 1.0 / (2.0 * math.pi)) <= 1e-15
    report(5, "C_{1/2} closed form vs quadrature", ok)


def test_criterion_06_exact_sk_bounds(desk_scan):
    reports, _ = desk_scan
    ok = True
    for n, rep in reports.items():
        ok &= not [
            f for f in rep.failures if f["check"] in ("sk-basic", "sk-oddpairs")
        ]
        # S_1(A^2) = tr(A^2) must equal n(n-1) exactly for every graph.  S_1
        # is invariant under switching and complementation (S -> DSD, -S),
        # so checking every orbit representative covers every labeled graph,
        # as the orbits do (test_search.py: test_chunking_covers_everything
        # and test_representatives_invert_orbit_expansion)
        if n >= 2:
            masks = _class_masks(n, np.arange(1 << len(_free_edges(n))))
            s = _seidel(n, _mask_bits(n, masks))
            s1 = sk_from_charpoly(charpoly_batch_i64(s))[:, 1]
            ok &= bool(np.all(s1 == n * (n - 1)))
    report(6, "exact S_k inequalities for n <= 7", ok)


def test_criterion_07_odd_pair_lemmas(desk_scan):
    reports, _ = desk_scan
    ok = all(
        not [f for f in rep.failures if f["check"] == "oddpair-lower"]
        for rep in reports.values()
    )
    report(7, "odd-pair characterization and lower bound", ok)


def test_criterion_08_theorem1_exhaustive():
    ok = True
    for n in range(2, 7):
        rep = scan(
            AllGraphs(n),
            checks=("theorem1",),
            p_grid=(0.25, 0.5, 1.0, 1.5, 1.75),
        )
        ok &= rep.total_failures == 0
    report(8, "E_p > (n-1)^p + (n-2) for n <= 6", ok)


def test_criterion_09_cauchy_binet(rng):
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        r = rng.integers(-3, 4, size=(m, q))
        for k in range(1, min(m, q) + 1):
            lhs, rhs = cauchy_binet_check(r, k)
            ok &= lhs == rhs
    report(9, "Cauchy-Binet minor identity", ok)


def test_criterion_10_cubic_lemma(rng):
    ok = True
    for _ in range(1000):
        a, b, c = np.exp(rng.uniform(-2.0, 2.5, size=3))
        cc = CubicCoefficients(float(a), float(b), float(c))
        ok &= cubic_integral_lhs(cc) >= cubic_bound_rhs(cc) - 1e-9
    ok &= abs(cubic_integral_lhs(CubicCoefficients(3.0, 3.0, 1.0)) - 3.0) <= 1e-7
    ok &= abs(cubic_integral_lhs(CubicCoefficients(6.0, 9.0, 4.0)) - 4.0) <= 1e-7
    report(10, "cubic integral lower bound", ok)


def test_criterion_11_worker_determinism(set_chunk_size):
    set_chunk_size(64)  # n = 6 has 512 representatives: eight chunks
    outputs = [
        scan(
            AllGraphs(6),
            checks=("sk-basic", "theorem2"),
            workers=w,
        ).to_json(include_timing=False)
        for w in (1, 2, 8)
    ]
    ok = outputs[0] == outputs[1] == outputs[2]
    report(11, "byte-identical reports across worker counts", ok)
