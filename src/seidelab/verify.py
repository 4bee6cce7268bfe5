"""One checker per lemma/theorem, each returning a margin report.

Integer-valued claims (the S_k lower bounds and the odd-pair counts) are
compared through the exact backend and the reports carry the integers as
decimal strings; floating point appears only in the energy inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, encode_graph6
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete
from .spectral import Spectrum, binomial, eigenvalues, elementary_symmetric_A2, p_energy

STRICT_MARGIN = 1e-6  # strict inequalities must clear this; equalities stay within it

CHECK_NAMES = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")


@dataclass(frozen=True)
class VerificationReport:
    graph6: str
    check: str
    passed: bool
    lhs: str
    rhs: str
    margin: float
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "check": self.check,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "metadata": self.metadata,
        }


def _sk_reports(g: Graph, sk, check: str, nop: int, meta: dict) -> list:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) + 4 nop C(n-4, k-2) exactly, k = 1..n."""
    n = g.n
    g6 = encode_graph6(g)
    reports = []
    for k in range(1, n + 1):
        bound = n * (n - 1) * binomial(n - 2, k - 1) + 4 * nop * binomial(n - 4, k - 2)
        margin = sk[k] - bound
        reports.append(
            VerificationReport(
                g6, check, margin >= 0, str(sk[k]), str(bound),
                float(margin), {"n": n, "k": k, **meta},
            )
        )
    return reports


def verify_sk_basic(g: Graph, sk: list[int] | None = None) -> list[VerificationReport]:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) exactly, for k = 1..n."""
    if g.n < 2:
        raise ValueError("needs at least two vertices")
    if sk is None:
        sk = elementary_symmetric_A2(g)
    return _sk_reports(g, sk, "sk-basic", 0, {})


def verify_sk_oddpairs(
    g: Graph, sk: list[int] | None = None, nop: int | None = None
) -> list[VerificationReport]:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) + 4 N_op C(n-4, k-2), exactly.

    Stated for k <= n-2; the vanishing-binomial convention extends the
    check harmlessly to all k = 1..n.
    """
    if g.n < 4:
        raise ValueError("needs at least four vertices")
    if sk is None:
        sk = elementary_symmetric_A2(g)
    if nop is None:
        nop = count_odd_pairs(g)
    return _sk_reports(g, sk, "sk-oddpairs", nop, {"N_op": nop})


def verify_oddpair_lower(g: Graph, nop: int | None = None) -> VerificationReport:
    """N_op = 0 on the SC-class of K_n, else N_op >= 2(n-3)^2."""
    n = g.n
    if n < 4:
        raise ValueError("needs at least four vertices")
    if nop is None:
        nop = count_odd_pairs(g)
    sc, _ = is_sc_equivalent_to_complete(g)
    if sc:
        bound = 0
        passed = nop == 0
    else:
        bound = 2 * (n - 3) ** 2
        passed = nop >= bound
    return VerificationReport(
        encode_graph6(g), "oddpair-lower", passed, str(nop), str(bound),
        float(nop - bound), {"n": n, "sc_equivalent": sc, "N_op": nop},
    )


def verify_theorem1(
    g: Graph, p: float, spectrum: Spectrum | None = None
) -> VerificationReport:
    """E_p(G) > (n-1)^p + (n-2) strictly, for p in (0, 2)."""
    n = g.n
    if n < 2:
        raise ValueError("needs at least two vertices")
    if not 0.0 < p < 2.0:
        raise ValueError(f"p={p} outside (0, 2)")
    if spectrum is None:
        spectrum = eigenvalues(g)
    lhs = p_energy(spectrum, p)
    rhs = (n - 1) ** p + (n - 2)
    margin = lhs - rhs
    return VerificationReport(
        encode_graph6(g), "theorem1", margin > STRICT_MARGIN,
        f"{lhs!r}", f"{rhs!r}", margin, {"n": n, "p": p},
    )


def verify_theorem2(g: Graph, spectrum: Spectrum | None = None) -> VerificationReport:
    """E_S(G) >= 2n-2, strictly off the SC-class of K_n.

    Equality-branch passes need |E_S - (2n-2)| within the tolerance and the
    SC-equivalence test to agree; strict-branch passes need the margin to
    clear the threshold.
    """
    n = g.n
    if spectrum is None:
        spectrum = eigenvalues(g)
    energy = p_energy(spectrum, 1.0)
    rhs = 2 * n - 2
    margin = energy - rhs
    sc, _ = is_sc_equivalent_to_complete(g)
    if sc:
        passed = margin >= -STRICT_MARGIN
        branch = "equality-class"
    else:
        passed = margin > STRICT_MARGIN
        branch = "strict"
    return VerificationReport(
        encode_graph6(g), "theorem2", passed, f"{energy!r}", str(rhs),
        margin, {"n": n, "sc_equivalent": sc, "branch": branch},
    )


def run_checks(
    g: Graph, checks=CHECK_NAMES, p_grid=(1.0,)
) -> list[VerificationReport]:
    """Run the selected checkers on one graph, sharing the heavy intermediates."""
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    reports: list[VerificationReport] = []
    need_sk = {"sk-basic", "sk-oddpairs"} & set(checks)
    sk = elementary_symmetric_A2(g) if need_sk else None
    nop = count_odd_pairs(g) if {"sk-oddpairs", "oddpair-lower"} & set(checks) else None
    spectrum = eigenvalues(g) if {"theorem1", "theorem2"} & set(checks) else None
    if "sk-basic" in checks and g.n >= 2:
        reports.extend(verify_sk_basic(g, sk))
    if "sk-oddpairs" in checks and g.n >= 4:
        reports.extend(verify_sk_oddpairs(g, sk, nop))
    if "oddpair-lower" in checks and g.n >= 4:
        reports.append(verify_oddpair_lower(g, nop))
    if "theorem1" in checks and g.n >= 2:
        for p in p_grid:
            reports.append(verify_theorem1(g, p, spectrum))
    if "theorem2" in checks:
        reports.append(verify_theorem2(g, spectrum))
    return reports
