import math

import numpy as np
import pytest

from seidelab import analytic
from seidelab.analytic import (
    CubicCoefficients,
    QuadratureError,
    QuadratureSpec,
    base_integral_check,
    cp_constant,
    cp_constant_quadrature,
    cubic_bound_rhs,
    cubic_integral_lhs,
    energy_by_integral,
    integral_log_poly,
)
from seidelab.graphs import complete_graph, cycle_graph
from seidelab.spectral import eigenvalues, elementary_symmetric_A2, p_energy

from conftest import random_graph


class TestCpConstant:
    def test_half(self):
        assert cp_constant(0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_domain(self):
        for p in [0.0, 1.0, -0.3, 2.0]:
            with pytest.raises(ValueError):
                cp_constant(p)
            with pytest.raises(ValueError):
                cp_constant_quadrature(p)

    @pytest.mark.parametrize("p", [0.05, 0.125, 0.25, 0.5, 0.75, 0.9, 0.95])
    def test_closed_form_matches_integral(self, p):
        closed = cp_constant(p)
        quad = cp_constant_quadrature(p)
        assert quad == pytest.approx(closed, rel=1e-9)


class TestBaseIntegral:
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 4.0, 9.0, 100.0])
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_alpha_power(self, alpha, p):
        # C_p * int ln(1 + alpha t) t^(-p-1) dt == alpha^p
        lhs, rhs = base_integral_check(alpha, p)
        assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            base_integral_check(0.0, 0.5)


class TestIntegralLogPoly:
    def test_validation(self):
        with pytest.raises(ValueError):
            integral_log_poly([1.0, 1.0], 1.5)
        with pytest.raises(ValueError):
            integral_log_poly([2.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            integral_log_poly([1.0, -1.0], 0.5)

    def test_constant_poly_is_zero(self):
        assert integral_log_poly([1.0], 0.5) == 0.0

    def test_monotone_in_coefficients(self):
        lo = integral_log_poly([1.0, 2.0, 1.0], 0.5)
        hi = integral_log_poly([1.0, 2.0, 3.0], 0.5)
        assert hi > lo

    def test_product_additivity(self):
        # ln((1+t)(1+4t)) integrates to the sum of the factors' integrals
        both = integral_log_poly([1.0, 5.0, 4.0], 0.5)
        one = integral_log_poly([1.0, 1.0], 0.5)
        four = integral_log_poly([1.0, 4.0], 0.5)
        assert both == pytest.approx(one + four, rel=1e-10)

    def test_deterministic(self):
        spec = QuadratureSpec()
        a = integral_log_poly([1.0, 3.0, 2.0], 0.7, spec)
        b = integral_log_poly([1.0, 3.0, 2.0], 0.7, spec)
        assert a == b

    def test_panel_budget_error(self):
        # 8 panels are fewer than one block
        spec = QuadratureSpec(rel_tol=1e-10, nodes_per_panel=2, max_panels=8)
        with pytest.raises(QuadratureError, match="within 8 dyadic panels"):
            integral_log_poly([1.0, 1.0], 0.99, spec)


def _panel_by_panel(fun, spec, used):
    """The dyadic quadrature with one integrand call per panel; appends the
    number of panels it used to `used`."""
    x, w = analytic._gauss_nodes(spec.nodes_per_panel)
    total, prev = 0.0, None
    for k in range(spec.max_panels):
        hi = 2.0 ** (-k)
        lo = hi / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            panel = float(np.dot(w, fun(lo + (hi - lo) * x))) * (hi - lo)
        total += panel
        if prev is not None and k >= 4:
            ap, aprev = abs(panel), abs(prev)
            ratio = min(ap / aprev, 0.995) if aprev > 0 else 0.0
            tail = ap * ratio / (1.0 - ratio) if ratio > 0 else 0.0
            if max(ap, tail) <= spec.rel_tol * max(abs(total), 1e-300):
                used.append(k + 1)
                return total
        prev = panel
    raise QuadratureError("reference did not converge")


class TestPanelBlocks:
    """Blocked panel evaluation against a panel-by-panel reference loop."""

    def _blocked_and_reference(self, monkeypatch, compute):
        blocked = compute()
        used = []
        monkeypatch.setattr(
            analytic,
            "_dyadic_unit_integral",
            lambda fun, spec: _panel_by_panel(fun, spec, used),
        )
        reference = compute()
        monkeypatch.undo()
        return blocked, reference, used

    def test_stops_inside_first_block(self, monkeypatch):
        spec = QuadratureSpec(rel_tol=1e-6)
        blocked, reference, used = self._blocked_and_reference(
            monkeypatch, lambda: integral_log_poly([1.0, 3.0, 2.0], 0.5, spec)
        )
        assert max(used) < analytic.PANEL_BLOCK
        assert blocked == pytest.approx(reference, rel=1e-14)

    def test_crosses_two_block_boundaries(self, monkeypatch):
        # s = 0.25 on (1, inf): panel sums decay like 2^(-k/4), ~150 panels
        sk = elementary_symmetric_A2(cycle_graph(5))
        blocked, reference, used = self._blocked_and_reference(
            monkeypatch, lambda: energy_by_integral(sk, 0.5)
        )
        assert max(used) > 2 * analytic.PANEL_BLOCK
        assert blocked == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_cp_constant_quadrature(self, monkeypatch, p):
        blocked, reference, _ = self._blocked_and_reference(
            monkeypatch, lambda: cp_constant_quadrature(p)
        )
        assert blocked == pytest.approx(reference, rel=1e-14)


class TestEnergyByIntegral:
    def test_k3(self):
        sk = elementary_symmetric_A2(complete_graph(3))
        assert energy_by_integral(sk, 1.0) == pytest.approx(4.0, rel=1e-9)

    def test_c5(self):
        sk = elementary_symmetric_A2(cycle_graph(5))
        assert energy_by_integral(sk, 1.0) == pytest.approx(
            4.0 * math.sqrt(5), rel=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_by_integral([1, 2, 1], 2.0)
        with pytest.raises(ValueError):
            energy_by_integral([2, 2, 1], 1.0)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.5, 1.9])
    def test_matches_spectrum(self, p, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=9)
            direct = p_energy(eigenvalues(g), p)
            via_integral = energy_by_integral(elementary_symmetric_A2(g), p)
            assert via_integral == pytest.approx(direct, rel=1e-8, abs=1e-8)


class TestCubicBound:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            CubicCoefficients(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CubicCoefficients(1.0, -2.0, 1.0)

    def test_witness_distinct_roots(self):
        # (1+t)(1+2t)(1+4t): energy side is 1 + sqrt(2) + 2
        cc = CubicCoefficients(7.0, 14.0, 8.0)
        lhs = cubic_integral_lhs(cc)
        assert lhs == pytest.approx(3.0 + math.sqrt(2.0), rel=1e-9)
        assert lhs >= cubic_bound_rhs(cc) - 1e-12

    def test_witness_triple_root(self):
        # (1+t)^3: lhs is exactly 3, bound is sqrt(3 + 2 sqrt(3 + 2 sqrt 3))
        cc = CubicCoefficients(3.0, 3.0, 1.0)
        assert cubic_integral_lhs(cc) == pytest.approx(3.0, rel=1e-9)
        assert cubic_bound_rhs(cc) == pytest.approx(
            math.sqrt(3.0 + 2.0 * math.sqrt(3.0 + 2.0 * math.sqrt(3.0))), rel=1e-15
        )

    def test_witness_equality_style(self):
        # (1+2t)^2 (1+t/2) has lhs 2 sqrt(2) + sqrt(1/2); rhs must sit below
        cc = CubicCoefficients(4.5, 6.0, 2.0)
        lhs = cubic_integral_lhs(cc)
        assert lhs == pytest.approx(2.0 * math.sqrt(2.0) + math.sqrt(0.5), rel=1e-9)
        assert lhs >= cubic_bound_rhs(cc) - 1e-12

    def test_random_lemma(self, rng):
        for _ in range(200):
            a, b, c = np.exp(rng.uniform(-2.0, 3.0, size=3))
            cc = CubicCoefficients(float(a), float(b), float(c))
            lhs = cubic_integral_lhs(cc)
            rhs = cubic_bound_rhs(cc)
            assert lhs >= rhs - 1e-7 * max(1.0, rhs)
