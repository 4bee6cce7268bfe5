"""One checker per lemma/theorem, each returning a margin report.

Integer-valued claims (the S_k lower bounds and the odd-pair counts) are
compared through the exact backend and the reports carry the integers as
decimal strings; floating point appears only in the energy inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs
from .graphs import Graph, encode_graph6
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete
from .spectral import Spectrum, binomial, eigenvalues, elementary_symmetric_A2, p_energy

STRICT_MARGIN = 1e-6  # strict inequalities must clear this; equalities stay within it

CHECK_NAMES = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
_MIN_ORDER = {"sk-basic": 2, "sk-oddpairs": 4, "oddpair-lower": 4, "theorem1": 2, "theorem2": 1}


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


def _sk_reports(g6: str, n: int, sk, check: str, nop: int, meta: dict) -> list:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) + 4 nop C(n-4, k-2) exactly, k = 1..n."""
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


def _oddpair_lower_report(g6: str, n: int, nop: int, sc: bool) -> VerificationReport:
    bound = 0 if sc else 2 * (n - 3) ** 2
    passed = nop == 0 if sc else nop >= bound
    return VerificationReport(
        g6, "oddpair-lower", passed, str(nop), str(bound),
        float(nop - bound), {"n": n, "sc_equivalent": sc, "N_op": nop},
    )


def _theorem1_report(g6: str, n: int, p: float, spectrum: Spectrum) -> VerificationReport:
    if not 0.0 < p < 2.0:
        raise ValueError(f"p={p} outside (0, 2)")
    lhs = p_energy(spectrum, p)
    rhs = (n - 1) ** p + (n - 2)
    margin = lhs - rhs
    return VerificationReport(
        g6, "theorem1", margin > STRICT_MARGIN,
        f"{lhs!r}", f"{rhs!r}", margin, {"n": n, "p": p},
    )


def _theorem2_report(g6: str, n: int, spectrum: Spectrum, sc: bool) -> VerificationReport:
    energy = p_energy(spectrum, 1.0)
    rhs = 2 * n - 2
    margin = energy - rhs
    passed = margin >= -STRICT_MARGIN if sc else margin > STRICT_MARGIN
    return VerificationReport(
        g6, "theorem2", passed, f"{energy!r}", str(rhs), margin,
        {"n": n, "sc_equivalent": sc, "branch": "equality-class" if sc else "strict"},
    )


def verify_sk_basic(g: Graph, sk: list[int] | None = None) -> list[VerificationReport]:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) exactly, for k = 1..n."""
    if g.n < 2:
        raise ValueError("needs at least two vertices")
    sk = elementary_symmetric_A2(g) if sk is None else sk
    return _sk_reports(encode_graph6(g), g.n, sk, "sk-basic", 0, {})


def verify_sk_oddpairs(
    g: Graph, sk: list[int] | None = None, nop: int | None = None
) -> list[VerificationReport]:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) + 4 N_op C(n-4, k-2), exactly.

    Stated for k <= n-2; the vanishing-binomial convention extends the
    check harmlessly to all k = 1..n.
    """
    if g.n < 4:
        raise ValueError("needs at least four vertices")
    sk = elementary_symmetric_A2(g) if sk is None else sk
    nop = count_odd_pairs(g) if nop is None else nop
    return _sk_reports(encode_graph6(g), g.n, sk, "sk-oddpairs", nop, {"N_op": nop})


def verify_oddpair_lower(g: Graph, nop: int | None = None) -> VerificationReport:
    """N_op = 0 on the SC-class of K_n, else N_op >= 2(n-3)^2."""
    if g.n < 4:
        raise ValueError("needs at least four vertices")
    nop = count_odd_pairs(g) if nop is None else nop
    return _oddpair_lower_report(encode_graph6(g), g.n, nop, is_sc_equivalent_to_complete(g)[0])


def verify_theorem1(
    g: Graph, p: float, spectrum: Spectrum | None = None
) -> VerificationReport:
    """E_p(G) > (n-1)^p + (n-2) strictly, for p in (0, 2)."""
    if g.n < 2:
        raise ValueError("needs at least two vertices")
    spectrum = eigenvalues(g) if spectrum is None else spectrum
    return _theorem1_report(encode_graph6(g), g.n, p, spectrum)


def verify_theorem2(g: Graph, spectrum: Spectrum | None = None) -> VerificationReport:
    """E_S(G) >= 2n-2, strictly off the SC-class of K_n.

    Equality-branch passes need |E_S - (2n-2)| within the tolerance and the
    SC-equivalence test to agree; strict-branch passes need the margin to
    clear the threshold.
    """
    spectrum = eigenvalues(g) if spectrum is None else spectrum
    return _theorem2_report(encode_graph6(g), g.n, spectrum, is_sc_equivalent_to_complete(g)[0])


def run_checks(
    g: Graph, checks=CHECK_NAMES, p_grid=(1.0,)
) -> list[VerificationReport]:
    """Run the selected checkers that apply at g's order, computing each
    intermediate (graph6, Seidel matrix, S_k, N_op, spectrum, SC flag) once."""
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    n, run = g.n, {c for c in checks if g.n >= _MIN_ORDER[c]}
    g6 = encode_graph6(g)
    # looked up on the module, so a wrapper installed there sees the call
    s = graphs.seidel_matrix(g) if run - {"oddpair-lower"} else None  # all others use it
    sk = elementary_symmetric_A2(s) if run & {"sk-basic", "sk-oddpairs"} else None
    nop = count_odd_pairs(g) if run & {"sk-oddpairs", "oddpair-lower"} else None
    spectrum = eigenvalues(s) if run & {"theorem1", "theorem2"} else None
    sc = is_sc_equivalent_to_complete(g)[0] if run & {"oddpair-lower", "theorem2"} else None
    reports: list[VerificationReport] = []
    if "sk-basic" in run:
        reports.extend(_sk_reports(g6, n, sk, "sk-basic", 0, {}))
    if "sk-oddpairs" in run:
        reports.extend(_sk_reports(g6, n, sk, "sk-oddpairs", nop, {"N_op": nop}))
    if "oddpair-lower" in run:
        reports.append(_oddpair_lower_report(g6, n, nop, sc))
    if "theorem1" in run:
        reports.extend(_theorem1_report(g6, n, p, spectrum) for p in p_grid)
    if "theorem2" in run:
        reports.append(_theorem2_report(g6, n, spectrum, sc))
    return reports
