"""The lemma and theorem checks, each defined once in evaluate, on stacks.

Scans evaluate their chunk stacks; run_checks evaluates a stack of one,
read off one Seidel matrix, and reports each entry.
Integer-valued claims (the S_k lower bounds and the odd-pair counts) are
exact, and reports carry them as decimal strings; floating point appears
only in the energy inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import graphs
from .graphs import Graph, encode_graph6
# unused here; kept importable as seidelab.verify.<name> for bench/tracing.py
from .seidel import count_odd_pairs, is_sc_equivalent_to_complete  # noqa: F401
from .seidel import _odd_pairs, _sc_to_complete
from .spectral import binomial, eigenvalues, elementary_symmetric_A2, p_energy

STRICT_MARGIN = 1e-6  # strict inequalities must clear this; equalities stay within it

CHECK_NAMES = ("sk-basic", "sk-oddpairs", "oddpair-lower", "theorem1", "theorem2")
# check: (the smallest order it applies at, the quantities it reads)
_CHECKS = {
    "sk-basic": (2, {"sk"}),
    "sk-oddpairs": (4, {"sk", "nop"}),
    "oddpair-lower": (4, {"nop", "sc"}),
    "theorem1": (2, {"vals"}),
    "theorem2": (1, {"vals", "sc"}),
}


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


def validate(checks, p_grid) -> None:
    """Raise ValueError unless checks is a nonempty subset of CHECK_NAMES
    and, when it holds theorem1, p_grid is a nonempty grid inside (0, 2)."""
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if not checks:
        raise ValueError(f"checks must be a nonempty subset of {CHECK_NAMES}")
    if "theorem1" in checks and not (p_grid and all(0.0 < p < 2.0 for p in p_grid)):
        raise ValueError(f"theorem1 needs p in the open interval (0, 2), got {list(p_grid)}")


def applicable(n: int, checks) -> list[str]:
    """The checks of checks that apply at order n, in CHECK_NAMES order."""
    return [c for c in CHECK_NAMES if c in checks and n >= _CHECKS[c][0]]


def require_applicable(n: int, checks) -> None:
    """Raise ValueError naming the first check of checks that needs more than n vertices."""
    for c in CHECK_NAMES:
        if c in checks and n < _CHECKS[c][0]:
            raise ValueError(f"{c} needs at least {_CHECKS[c][0]} vertices")


def reads(n: int, checks) -> set[str]:
    """What evaluate reads ("vals", "sk", "nop", "sc") for checks at order n."""
    return set().union(*(_CHECKS[c][1] for c in applicable(n, checks)))


def near_equality(n: int, energy):
    """Whether E_S is within the tolerance of 2n-2, the equality case."""
    return np.abs(energy - (2 * n - 2)) <= STRICT_MARGIN


@lru_cache(maxsize=None)
def _sk_bounds(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """n(n-1) C(n-2, k-1) and 4 C(n-4, k-2) for k = 1..n, in dtype."""
    base = np.array([n * (n - 1) * binomial(n - 2, k - 1) for k in range(1, n + 1)], dtype)
    extra = np.array([4 * binomial(n - 4, k - 2) for k in range(1, n + 1)], dtype)
    base.flags.writeable = extra.flags.writeable = False
    return base, extra


def evaluate(n: int, checks, p_grid, vals, sk, nop, sc):
    """Each check of checks that applies at order n on a stack of B graphs,
    in CHECK_NAMES order and one at a time, as (check, (lhs, rhs, margin,
    passed)) of (B, K) arrays: K = n for the S_k checks, one per p for
    theorem1, one otherwise.

    vals: (B, n) spectra; sk: (B, n+1) exact S_0..S_n of A^2, int64 or
    Python ints, in whose dtype the S_k bounds are formed; nop: (B,) N_op;
    sc: (B,) SC-equivalence to K_n.  Quantities reads(n, checks) does not
    name may be None.  Strict float inequalities must clear STRICT_MARGIN.
      sk-basic       S_k >= n(n-1) C(n-2, k-1), k = 1..n
      sk-oddpairs    S_k >= n(n-1) C(n-2, k-1) + 4 N_op C(n-4, k-2), stated
                     for k <= n-2 and harmless up to n (C vanishes)
      oddpair-lower  N_op = 0 on the SC-class of K_n (margin -N_op), else
                     N_op >= 2(n-3)^2
      theorem1       E_p > (n-1)^p + (n-2), per p of p_grid
      theorem2       E_S >= 2n-2: within STRICT_MARGIN on the SC-class of
                     K_n, strictly off it
    """
    for check in applicable(n, checks):
        if check in ("sk-basic", "sk-oddpairs"):
            lhs = sk[:, 1:]
            base, extra = _sk_bounds(n, sk.dtype)
            if check == "sk-basic":
                rhs = np.repeat(base[None], len(lhs), axis=0)
            else:
                rhs = base + nop.astype(sk.dtype)[:, None] * extra
            margin = lhs - rhs
            passed = margin >= 0
        elif check == "oddpair-lower":
            lhs = nop[:, None]
            rhs = np.where(sc, 0, 2 * (n - 3) ** 2)[:, None]
            margin = np.where(sc[:, None], -lhs, lhs - rhs)
            passed = margin >= 0  # on the class, -N_op >= 0 iff N_op = 0
        elif check == "theorem1":
            lhs = np.array([p_energy(vals, p) for p in p_grid]).T
            bound = np.array([(n - 1) ** p + (n - 2) for p in p_grid])
            rhs = np.repeat(bound[None], len(lhs), axis=0)
            margin = lhs - bound
            passed = margin > STRICT_MARGIN
        else:
            lhs = p_energy(vals, 1.0)[:, None]
            rhs = np.full(lhs.shape, 2 * n - 2)
            margin = lhs - (2 * n - 2)
            passed = np.where(sc[:, None], margin >= -STRICT_MARGIN, margin > STRICT_MARGIN)
        yield check, (lhs, rhs, margin, passed)


def run_checks(
    g: Graph, checks=CHECK_NAMES, p_grid=(1.0,)
) -> list[VerificationReport]:
    """Run the selected checks that apply at g's order on one Seidel matrix
    S, reading S_k and the spectrum off it through the checked single-graph
    backends, and N_op and the SC flag through the stack kernels."""
    validate(checks, p_grid)
    n, need = g.n, reads(g.n, checks)
    g6 = encode_graph6(g)
    # looked up on the module, so a wrapper installed there sees the call
    s = graphs.seidel_matrix(g)
    sk = np.array([elementary_symmetric_A2(s)], dtype=object) if "sk" in need else None
    nop = int(_odd_pairs(s[None])[0]) if "nop" in need else None
    vals = np.array([eigenvalues(s).values]) if "vals" in need else None
    sc = bool(_sc_to_complete(s[None])[0]) if "sc" in need else None
    branch = "equality-class" if sc else "strict"
    metadata = {
        "sk-basic": lambda j: {"n": n, "k": j + 1},
        "sk-oddpairs": lambda j: {"n": n, "k": j + 1, "N_op": nop},
        "oddpair-lower": lambda j: {"n": n, "sc_equivalent": sc, "N_op": nop},
        "theorem1": lambda j: {"n": n, "p": p_grid[j]},
        "theorem2": lambda j: {"n": n, "sc_equivalent": sc, "branch": branch},
    }
    reports = []
    for check, arrays in evaluate(n, checks, p_grid, vals, sk, np.array([nop]), np.array([sc])):
        meta = metadata[check]
        reports += [
            VerificationReport(g6, check, ok, repr(lhs), repr(rhs), float(margin), meta(j))
            for j, (lhs, rhs, margin, ok) in enumerate(zip(*(a[0].tolist() for a in arrays)))
        ]
    return reports


def _only(g: Graph, check: str, p_grid=(1.0,)) -> list[VerificationReport]:
    require_applicable(g.n, (check,))
    return run_checks(g, (check,), p_grid)


def verify_sk_basic(g: Graph) -> list[VerificationReport]:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) exactly, for k = 1..n."""
    return _only(g, "sk-basic")


def verify_sk_oddpairs(g: Graph) -> list[VerificationReport]:
    """S_k(A^2) >= n(n-1) C(n-2, k-1) + 4 N_op C(n-4, k-2) exactly, k = 1..n."""
    return _only(g, "sk-oddpairs")


def verify_oddpair_lower(g: Graph) -> VerificationReport:
    """N_op = 0 on the SC-class of K_n, else N_op >= 2(n-3)^2."""
    return _only(g, "oddpair-lower")[0]


def verify_theorem1(g: Graph, p: float) -> VerificationReport:
    """E_p(G) > (n-1)^p + (n-2) strictly, for p in (0, 2)."""
    return _only(g, "theorem1", (p,))[0]


def verify_theorem2(g: Graph) -> VerificationReport:
    """E_S(G) >= 2n-2, strictly off the SC-class of K_n."""
    return _only(g, "theorem2")[0]
