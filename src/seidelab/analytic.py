"""Singular-integral energy machinery.

The load-bearing identity is

    sum_i |lambda_i|^p = C_{p/2} * integral_0^inf ln(sum_k S_k(A^2) t^k) t^(-p/2-1) dt

for p in (0, 2), together with the normalizing constants
C_s = (integral_0^inf ln(1+t) t^(-s-1) dt)^(-1) and a closed-form lower
bound for the integral of a positive-coefficient cubic.  The quadrature
puts t = e^x: ln f(e^x) e^(-sx) decays exponentially both ways and is
analytic in |Im x| < d, d = pi when f has only negative real roots (as
prod_i (1 + lambda_i^2 t) does), else d = pi/deg.  The trapezoid rule with
step h then errs by at most 2M/(e^(2 pi d/h) - 1) (Trefethen & Weideman,
SIAM Review 56, 2014).  Step and cut-offs follow from closed-form bounds, so
rel_tol bounds the relative error up to rounding.  Both tails' leading
parts, c_1 e^((1-s)x) on the left and (deg x + ln c_deg) e^(-sx) on the
right, are summed over every node in closed form, so the cut-offs grow like
neither 1/(1-s) nor 1/s.  The sum is one numpy array,
bit-reproducible for a fixed QuadratureSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """The cut-off range at the chosen step needs more nodes than the budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """rel_tol bounds the relative error of the trapezoid sum; max_nodes caps
    its length and is checked before the integrand is evaluated."""

    rel_tol: float = 1e-10
    max_nodes: int = 100_000

    def __post_init__(self):
        if not (0 < self.rel_tol <= 1e-4 and self.max_nodes >= 2):
            raise ValueError("rel_tol must lie in (0, 1e-4] and max_nodes be at least 2")


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


def _trapezoid(coeffs, s: float, spec: QuadratureSpec, real_roots: bool) -> float:
    """integral_R ln f(e^x) e^(-sx) dx, f(t) = sum_k coeffs[k] t^k, by the
    trapezoid rule; rel_tol is split 1/2 : 1/4 : 1/4 over step and cut-offs.

    With f = prod_i (1 + alpha_i t), M <= m0 sum_i |alpha_i|^s, m0 bounding
    integral_R |ln(1 + e^(x + i phi))| e^(-sx) dx over |phi| <= pi (by 2e^x,
    pi + ln 3 + ln(2/|x|) and x + pi + 1/2 on x < -ln 2, |x| < ln 2, x > ln 2).
    real_roots promises alpha_i >= 0, so sum_i alpha_i^s = C_s I; otherwise
    Fujiwara's bound |alpha_i| <= 2 max_k c_k^(1/k) applies.
    """
    c = np.array([float(v) for v in coeffs])
    if not c[1:].any():
        return 0.0
    # t -> t/scale makes max_k c_k^(1/k) = 1, so every c_k <= 1 and ln f(e^x)
    # turns over near x = 0, where the two evaluation forms below meet
    scale = float((c[1:] ** (1.0 / np.arange(1.0, len(c)))).max())
    c = c * (1.0 / scale) ** np.arange(len(c))
    c = c[: np.flatnonzero(c)[-1] + 1]
    deg = len(c) - 1
    k = np.arange(1.0, deg + 1.0)
    # I >= integral of ln(1 + c_k t^k) t^(-s-1) = pi c_k^(s/k) / (s sin(pi s/k))
    i_lo = math.pi / s * float((c[1:] ** (s / k) / np.sin(math.pi * s / k)).max())
    m0 = 2.0 / (1.0 - s) + (1.0 + 3.65 * s) / s**2 + 17.5
    if real_roots:
        strip, m_over_i = math.pi, m0 * cp_constant(s)
    else:
        strip, m_over_i = math.pi / deg, m0 * deg * 2.0**s / i_lo
    h = 2.0 * math.pi * strip / math.log1p(4.0 * m_over_i / spec.rel_tol)
    tail = spec.rel_tol * i_lo / 4.0
    # x <= 0: ln f(e^x) = c_1 e^x + r(x).  The first term is summed over every
    # node in closed form below.  With y = f(e^x) - 1, r is sum_(k>=2) c_k e^(kx)
    # minus y - ln(1+y), both in [0, e^(2x)/(1-1/e)] on x <= -1 since c_k <= 1,
    # so the nodes of r e^(-sx) below a <= -1 add at most
    # e^((2-s)a) / ((2-s)(1-1/e)), a cut-off that does not grow like 1/(1-s)
    a = min(-1.0, math.log(tail * (2.0 - s) * (1.0 - 1.0 / math.e)) / (2.0 - s))
    # x > 0: ln f(e^x) = deg x + ln c_deg + r(x), r = ln(1 + sum_(k<deg) c_k/c_deg
    # e^((k-deg)x)).  The first two terms are summed over every node in closed
    # form below.  r decreases from at most ln(f(1)/c_deg) and lies below
    # (f(1)/c_deg) e^(-x), so the nodes of r e^(-sx) beyond b add at most
    # ln(f(1)/c_deg) e^(-sb)/s and at most (f(1)/c_deg) e^(-(1+s)b)/(1+s); b
    # takes the smaller cut-off of the two, which does not grow like 1/s
    spread = math.log(float(c.sum()) / c[-1])
    b = max(
        0.0,
        min(math.log(spread / (s * tail)) / s, (spread - math.log((1.0 + s) * tail)) / (1.0 + s)),
    )
    # nodes j h for j = -n_neg..n_pos cover [a, b]
    n_neg, n_pos = math.ceil(-a / h), math.ceil(b / h)
    if n_neg + n_pos + 1 > spec.max_nodes:
        raise QuadratureError(
            f"{n_neg + n_pos + 1} nodes > max_nodes={spec.max_nodes} at rel_tol={spec.rel_tol}"
        )
    neg, pos = h * np.arange(-n_neg, 1.0), h * np.arange(1.0, n_pos + 1.0)
    # x <= 0: h sum_(j<=0) c_1 e^((1-s)jh) is h c_1/(1 - e^(-(1-s)h)); with
    # y = g e^x, g = (f(e^x) - 1)/e^x, r is summed as ((log1p(y)/y) g - c_1)
    # e^((1-s)x) so that tiny or underflowing y lose nothing
    total = c[1] / -math.expm1(-(1.0 - s) * h)
    t = np.exp(neg)
    g = _horner(c[:0:-1], t)
    y = g * t
    ratio = np.divide(np.log1p(y), y, out=np.ones_like(y), where=y > 0.0)
    total += (ratio * g - c[1]) @ np.exp((1.0 - s) * neg)
    # x > 0: h sum_(j>=1) (deg j h + ln c_deg) q^j, q = e^(-sh), is
    # h q/(1-q) (deg h/(1-q) + ln c_deg); r is a polynomial in e^-x
    q, one_minus_q = math.exp(-s * h), -math.expm1(-s * h)
    total += q / one_minus_q * (deg * h / one_minus_q + math.log(c[-1]))
    z = np.exp(-pos)
    total += np.log1p(z * _horner(c[:-1], z) / c[-1]) @ np.exp(-s * pos)
    return scale**s * h * float(total)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] z^(len-1-j), highest power first, in place."""
    acc = np.full_like(z, coeffs[0])
    for v in coeffs[1:].tolist():
        acc *= z
        acc += v
    return acc


def integral_log_poly(coeffs, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_0^inf ln(f(t)) t^(-s-1) dt for f(t) = sum_k coeffs[k] t^k.

    Requires 0 < s < 1, coeffs[0] = 1 and all coefficients nonnegative, so
    the endpoint singularity t^(-s) is integrable and f has no zero in
    |arg t| < pi/deg.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"singular exponent s={s} outside (0, 1)")
    c = [float(v) for v in coeffs]
    if not c or c[0] != 1.0 or not all(0.0 <= v < math.inf for v in c):
        raise ValueError("coefficients must start with 1 and be finite and nonnegative")
    return _trapezoid(c, s, spec, real_roots=False)


def cp_constant(p: float) -> float:
    """C_p by the derived closed form p * sin(pi p) / pi, for p in (0, 1).

    The defining integral is (integral_0^inf ln(1+t) t^(-p-1) dt)^(-1);
    cp_constant_quadrature evaluates that directly and the test suite holds
    the two within 1e-9 relative.  sin(pi p) is taken as sin(pi (1 - p))
    above p = 1/2, where 1 - p is exact, so p near 1 keeps full precision.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    return p * math.sin(math.pi * min(p, 1.0 - p)) / math.pi


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
    return alpha**p, cp_constant(p) * integral_log_poly([1.0, alpha], p, spec)


def energy_by_integral(sk, p: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """p-energy from the exact S_k(A^2) list through the singular integral."""
    if not 0.0 < p < 2.0:
        raise ValueError(f"p={p} outside (0, 2)")
    if not sk or int(sk[0]) != 1 or any(v < 0 for v in sk):
        raise ValueError("S_k list must start with S_0 = 1 and be nonnegative")
    return cp_constant(p / 2.0) * _trapezoid(sk, p / 2.0, spec, real_roots=True)


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
