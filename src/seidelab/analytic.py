"""Singular-integral energy machinery.

The load-bearing identity is

    sum_i |lambda_i|^p = C_{p/2} * integral_0^inf ln(sum_k S_k(A^2) t^k) t^(-p/2-1) dt

for p in (0, 2), together with the normalizing constants
C_s = (integral_0^inf ln(1+t) t^(-s-1) dt)^(-1) and a closed-form lower
bound for the integral of a positive-coefficient cubic.  The quadrature
engine splits at t = 1, walks dyadic panels toward the endpoint singularity
with fixed Gauss-Legendre nodes, and maps (1, inf) back onto (0, 1) by
t -> 1/u.  The integrand is evaluated on PANEL_BLOCK panels per call, so the
Horner loop over the S_k runs once per block rather than once per panel;
the stopping rule still looks at one panel at a time.  Results are
bit-reproducible for a fixed QuadratureSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


PANEL_BLOCK = 64  # dyadic panels evaluated per call of the integrand


class QuadratureError(RuntimeError):
    """Panel budget exhausted before the tail estimate met tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    nodes_per_panel: int = 32
    max_panels: int = 4000

    def __post_init__(self):
        if not 0 < self.rel_tol <= 1e-4:
            raise ValueError("rel_tol must lie in (0, 1e-4]")
        if self.nodes_per_panel < 2 or self.max_panels < 8:
            raise ValueError("quadrature spec too coarse")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class CubicCoefficients:
    """f(t) = 1 + a t + b t^2 + c t^3 with strictly positive a, b, c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError("cubic coefficients must all be positive")


@lru_cache(maxsize=8)
def _gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    # map from [-1, 1] to [0, 1]
    return (x + 1.0) / 2.0, w / 2.0


def _dyadic_unit_integral(fun, spec: QuadratureSpec) -> float:
    """integral_0^1 fun(u) du over panels [2^-k-1, 2^-k], k = 0, 1, ...

    fun is evaluated on PANEL_BLOCK panels at a time, as one (panels, nodes)
    array.  The panel sums are then added one by one, stopping once the
    geometric tail estimate from the last two panel contributions drops
    below rel_tol relative to the running total.
    """
    x, w = _gauss_nodes(spec.nodes_per_panel)
    total = 0.0
    prev = None
    for start in range(0, spec.max_panels, PANEL_BLOCK):
        hi = 2.0 ** -np.arange(start, min(start + PANEL_BLOCK, spec.max_panels))
        lo = hi / 2.0
        u = lo[:, None] + (hi - lo)[:, None] * x
        with np.errstate(over="ignore", invalid="ignore"):
            panels = (fun(u) @ w) * (hi - lo)
        for k, panel in enumerate(panels.tolist(), start):
            total += panel
            if prev is not None and k >= 4:
                scale = max(abs(total), 1e-300)
                ap, aprev = abs(panel), abs(prev)
                ratio = min(ap / aprev, 0.995) if aprev > 0 else 0.0
                tail = ap * ratio / (1.0 - ratio) if ratio > 0 else 0.0
                if max(ap, tail) <= spec.rel_tol * scale:
                    return total
            prev = panel
    raise QuadratureError(
        f"no convergence within {spec.max_panels} dyadic panels (rel_tol={spec.rel_tol})"
    )


def integral_log_poly(coeffs, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_0^inf ln(f(t)) t^(-s-1) dt for f(t) = sum_k coeffs[k] t^k.

    Requires 0 < s < 1, coeffs[0] = 1 and all coefficients nonnegative, so
    the endpoint singularity t^(-s) is integrable and ln f is evaluated via
    log1p near t = 0 without cancellation.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"singular exponent s={s} outside (0, 1)")
    c = [float(v) for v in coeffs]
    if not c or c[0] != 1.0 or any(v < 0 for v in c):
        raise ValueError("coefficients must start with 1 and be nonnegative")
    deg = len(c) - 1
    tail = np.array(c[1:][::-1], dtype=np.float64)  # (f(t)-1)/t, highest power first
    rev = np.array(c, dtype=np.float64)  # f(1/u) * u^deg as poly in u, highest first

    def low(t):
        # ln(f(t)) * t^(-s-1) on (0, 1]: f(t) - 1 via Horner, then log1p;
        # on deep panels fold one power of t into the log factor so the
        # t^(-s-1) prefactor cannot overflow
        g = np.polyval(tail, t)
        x = g * t
        return np.where(
            x < 1e-8, g * t ** (-s), np.log1p(np.maximum(x, 0.0)) * t ** (-s - 1.0)
        )

    def high(u):
        # t = 1/u on (1, inf): ln f(1/u) = ln(sum_k c_k u^(deg-k)) - deg*ln(u)
        return (np.log(np.polyval(rev, u)) - deg * np.log(u)) * u ** (s - 1.0)

    if deg == 0:
        return 0.0
    return _dyadic_unit_integral(low, spec) + _dyadic_unit_integral(high, spec)


def cp_constant(p: float) -> float:
    """C_p by the derived closed form p * sin(pi p) / pi, for p in (0, 1).

    The defining integral is (integral_0^inf ln(1+t) t^(-p-1) dt)^(-1);
    cp_constant_quadrature evaluates that directly and the test suite holds
    the two within 1e-9 relative.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    return p * math.sin(math.pi * p) / math.pi


def cp_constant_quadrature(p: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """C_p straight from its defining integral."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    return 1.0 / integral_log_poly([1.0, 1.0], p, spec)


def base_integral_check(
    alpha: float, p: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[float, float]:
    """(alpha^p, C_p * integral_0^inf ln(1+alpha t) t^(-p-1) dt) for assertion."""
    if alpha <= 0:
        raise ValueError("alpha must be a positive real")
    lhs = alpha**p
    rhs = cp_constant(p) * integral_log_poly([1.0, alpha], p, spec)
    return lhs, rhs


def energy_by_integral(sk, p: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """p-energy from the exact S_k(A^2) list through the singular integral."""
    if not 0.0 < p < 2.0:
        raise ValueError(f"p={p} outside (0, 2)")
    if not sk or int(sk[0]) != 1 or any(v < 0 for v in sk):
        raise ValueError("S_k list must start with S_0 = 1 and be nonnegative")
    return cp_constant(p / 2.0) * integral_log_poly(sk, p / 2.0, spec)


def cubic_bound_rhs(cc: CubicCoefficients) -> float:
    """Closed-form lower bound sqrt(a + 2 sqrt(b + 2 sqrt(a c)))."""
    return math.sqrt(cc.a + 2.0 * math.sqrt(cc.b + 2.0 * math.sqrt(cc.a * cc.c)))


def cubic_integral_lhs(
    cc: CubicCoefficients, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """C_{1/2} * integral_0^inf ln(1 + a t + b t^2 + c t^3) t^(-3/2) dt.

    Equals sum_i sqrt(alpha_i) over the factorization f(t) = prod (1 + alpha_i t);
    real even when two alpha_i form a conjugate pair.
    """
    return cp_constant(0.5) * integral_log_poly([1.0, cc.a, cc.b, cc.c], 0.5, spec)
