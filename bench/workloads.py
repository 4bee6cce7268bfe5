"""The four workloads: inputs made from a seed, the calls into seidelab, and
the reference facts every output is checked against.

A workload is a list of operations run in order (one *pass*).  Each
operation calls the program through ``lab`` (the imported ``seidelab``
package) at call time, so the traced run sees the same calls through its
wrappers.  ``check`` returns one message per reference fact the output
breaks; those messages are the benchmark's ``wrong_results``.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SCAN_CHECKS = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem2")
STREAM_CHECKS = ("theorem2", "oddpair-lower")
SINGLE_P_GRID = (0.5, 1.0, 1.5)

EXHAUSTIVE_ORDERS = range(1, 8)
# A contiguous slice of the paper's n = 11..22 family: the whole range takes
# about 100 s, this one about 8 s, and exact S_k dominates it just the same.
BOUNDARY_ORDERS = range(11, 17)
STREAM_GRAPHS = 1 << 16  # two scan chunks of 2^15, one per worker
STREAM_ORDERS = range(9, 17)
STREAM_SAMPLE = 64  # rows re-derived independently (energy, N_op)
# Graphs per single-graph round, chosen so each order takes a similar share
# of the round's time (about 2 s each at the seed commit).
SINGLE_ROUND = {10: 64, 30: 8, 60: 1}

WORKERS = {"exhaustive": 1, "boundary": 1, "stream": 2, "single": 1}


@dataclass
class Op:
    label: str  # latency group, e.g. "n=7" or "n60"
    graphs: int  # graphs this call verifies
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def _order_floor_violation(n: int, energy: float) -> bool:
    return not energy >= 2 * n - 2 - ref.ENERGY_TOL


def _check_scan_totals(report, n: int, expect_graphs: int) -> list[str]:
    wrong = []
    if report.graphs_scanned != expect_graphs:
        wrong.append(f"n={n}: scanned {report.graphs_scanned}, expected {expect_graphs}")
    if report.total_failures:
        wrong.append(f"n={n}: {report.total_failures} check failures")
    if _order_floor_violation(n, report.min_energy):
        wrong.append(f"n={n}: min E_S {report.min_energy!r} below 2n-2")
    return wrong


# ---------------------------------------------------------------------------
# exhaustive: every labeled graph on n <= 7 vertices, mask-chunk batch path


def _check_exhaustive(n: int, report) -> list[str]:
    wrong = _check_scan_totals(report, n, 1 << (n * (n - 1) // 2))
    got = report.equality_graph6
    expect = ref.sc_class_of_complete(n)
    if len(set(got)) != len(got) or set(got) != expect:
        wrong.append(f"n={n}: equality graphs are not the SC-class of K_n")
    if n >= 4 and len(got) != 1 << n:
        wrong.append(f"n={n}: {len(got)} equality graphs, expected 2^n")
    if any(ref.odd_pairs(ref.decode(g6)) for g6 in got):
        wrong.append(f"n={n}: an equality graph has odd pairs")
    return wrong


def exhaustive(lab, seed: int, workdir: Path, workers: int) -> list[Op]:
    # The paper fixes these inputs; the seed does not change them.
    return [
        Op(
            f"n={n}",
            1 << (n * (n - 1) // 2),
            lambda n=n: lab.scan(lab.AllGraphs(n), checks=SCAN_CHECKS, workers=workers),
            lambda report, n=n: _check_exhaustive(n, report),
        )
        for n in EXHAUSTIVE_ORDERS
    ]


# ---------------------------------------------------------------------------
# boundary: clique plus two apexes, Graph-object path, exact S_k per graph


def boundary(lab, seed: int, workdir: Path, workers: int) -> list[Op]:
    # The paper fixes these inputs; the seed does not change them.
    return [
        Op(
            f"n={n}",
            ref.boundary_family_size(n),
            lambda n=n: lab.scan(
                lab.BoundaryFamily(n), checks=SCAN_CHECKS, workers=workers
            ),
            lambda report, n=n: _check_scan_totals(
                report, n, ref.boundary_family_size(n)
            ),
        )
        for n in BOUNDARY_ORDERS
    ]


# ---------------------------------------------------------------------------
# stream: graph6 file in, CSV rows out, worker pool


def random_graph6(rng: np.random.Generator, orders) -> list[str]:
    """One uniformly random labeled graph per requested order."""
    orders = np.asarray(orders)
    lines = [""] * len(orders)
    for n in np.unique(orders):
        idx = np.flatnonzero(orders == n)
        bits = rng.integers(0, 2, (len(idx), n * (n - 1) // 2), dtype=np.uint8)
        for k, line in zip(idx, ref.encode_bits(int(n), bits)):
            lines[k] = line
    return lines


def _check_stream(lines: list[str], sample: list[int], csv_path: Path, report) -> list[str]:
    wrong = []
    if report.graphs_scanned != len(lines) or report.total_failures:
        wrong.append(
            f"scanned {report.graphs_scanned} of {len(lines)}, "
            f"{report.total_failures} failures"
        )
    with open(csv_path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    # Rows come grouped by order within each chunk, not in input order, so
    # they are matched to input lines by their graph6.
    if Counter(row["graph6"] for row in rows) != Counter(lines):
        return wrong + [f"{len(rows)} CSV rows are not one per input line"]
    bad_rows = sum(
        int(row["n"]) != ord(row["graph6"][0]) - 63
        or _order_floor_violation(int(row["n"]), float(row["E_S"]))
        for row in rows
    )
    if bad_rows:
        wrong.append(f"{bad_rows} CSV rows have the wrong n or break E_S >= 2n-2")
    by_graph6 = {row["graph6"]: row for row in rows}
    for k in sample:
        row = by_graph6[lines[k]]
        adj = ref.decode(lines[k])
        energy = ref.p_energies(adj, [1.0])[0]
        if abs(float(row["E_S"]) - energy) > 1e-9 * max(1.0, energy):
            wrong.append(f"{lines[k]}: E_S {row['E_S']} vs reference {energy!r}")
        if int(row["N_op"]) != ref.odd_pairs(adj):
            wrong.append(f"{lines[k]}: N_op {row['N_op']} vs reference")
    return wrong


def stream(lab, seed: int, workdir: Path, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    orders = rng.integers(STREAM_ORDERS.start, STREAM_ORDERS.stop, STREAM_GRAPHS)
    lines = random_graph6(rng, orders)
    sample = sorted(rng.choice(len(lines), STREAM_SAMPLE, replace=False).tolist())
    g6_path = workdir / "stream.g6"
    csv_path = workdir / "stream.csv"
    g6_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    def call():
        report = lab.scan(
            lab.Graph6Stream(str(g6_path)),
            checks=STREAM_CHECKS,
            workers=workers,
            collect_rows=True,
        )
        with open(csv_path, "w", newline="", encoding="ascii") as fh:
            report.write_csv(fh)
        return report

    return [
        Op("file", len(lines), call, lambda report: _check_stream(lines, sample, csv_path, report))
    ]


# ---------------------------------------------------------------------------
# single: one graph at a time, what `verify --g6` and `energy --backend both` do


def _check_single(line: str, result) -> list[str]:
    reports, integral = result
    adj = ref.decode(line)
    n = adj.shape[0]
    wrong = [f"{line}: {r.check} failed" for r in reports if not r.passed]
    if sum(r.check == "sk-basic" for r in reports) != n:
        wrong.append(f"{line}: expected {n} sk-basic reports")
    for p, got, want in zip(SINGLE_P_GRID, integral, ref.p_energies(adj, SINGLE_P_GRID)):
        if abs(got - want) > 1e-6 * max(1.0, want):
            wrong.append(f"{line}: integral E_{p} = {got!r}, eigenvalues give {want!r}")
    return wrong


def _verify_single(lab, line: str):
    g = lab.parse_graph6(line)
    reports = lab.run_checks(g, p_grid=SINGLE_P_GRID)
    # the sk-basic reports carry the certified S_1..S_n as exact decimals
    sk = [1] + [int(r.lhs) for r in reports if r.check == "sk-basic"]
    return reports, [lab.energy_by_integral(sk, p) for p in SINGLE_P_GRID]


def single(lab, seed: int, workdir: Path, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    orders = [n for n, count in SINGLE_ROUND.items() for _ in range(count)]
    rng.shuffle(orders)
    return [
        Op(
            f"n{n}",
            1,
            lambda line=line: _verify_single(lab, line),
            lambda result, line=line: _check_single(line, result),
        )
        for n, line in zip(orders, random_graph6(rng, orders))
    ]


WORKLOAD_OPS = {"exhaustive": exhaustive, "boundary": boundary, "stream": stream, "single": single}


def warmup(lab) -> None:
    """The warm-up made after import, before anything is timed."""
    lab.scan(lab.AllGraphs(4), checks=SCAN_CHECKS + ("theorem1",), collect_rows=True)
    lab.run_checks(lab.complete_graph(6), p_grid=SINGLE_P_GRID)
