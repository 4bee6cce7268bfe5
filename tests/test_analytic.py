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
from seidelab.graphs import complete_graph, cycle_graph, empty_graph
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

    def test_node_budget_error(self, monkeypatch):
        sk = elementary_symmetric_A2(cycle_graph(5))
        # the budget is checked before the integrand is evaluated
        monkeypatch.setattr(analytic, "_horner", None)
        spec = QuadratureSpec(max_nodes=20)
        with pytest.raises(QuadratureError, match="max_nodes=20"):
            integral_log_poly([1.0, 1.0], 0.5, spec)
        with pytest.raises(QuadratureError, match="max_nodes=20"):
            energy_by_integral(sk, 1.0, spec)

    def test_spec_validation(self):
        for kwargs in ({"rel_tol": 0.0}, {"rel_tol": 1e-3}, {"max_nodes": 1}):
            with pytest.raises(ValueError):
                QuadratureSpec(**kwargs)


TIGHT = QuadratureSpec(rel_tol=1e-13)


class TestTrapezoid:
    """The trapezoid rule on t = e^x against closed forms, to its stated bound."""

    @pytest.mark.parametrize("n", [2, 5, 10, 13, 30, 60, 62])
    def test_energy_matches_spectrum(self, n, rng):
        for g in (random_graph(rng, n), complete_graph(n), cycle_graph(max(n, 3))):
            sk = elementary_symmetric_A2(g)
            spectrum = eigenvalues(g)
            for p in [0.1, 0.3, 0.5, 1.0, 1.5, 1.9]:
                direct = p_energy(spectrum, p)
                assert energy_by_integral(sk, p, TIGHT) == pytest.approx(direct, rel=1e-12)
                assert energy_by_integral(sk, p) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("theta", [math.pi / 2 - 1e-3, math.pi / 2 - 0.05, math.pi / 2])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_complex_root_pair(self, theta, s):
        # (1 + r e^(i theta) t)(1 + r e^(-i theta) t): roots at arg t = pi -+ theta,
        # at the edge of the strip |arg t| < pi/2 that deg = 2 guarantees
        for r in [0.01, 1.0, 30.0]:
            coeffs = [1.0, max(2.0 * r * math.cos(theta), 0.0), r * r]
            exact = 2.0 * r**s * math.cos(s * theta) / cp_constant(s)
            assert integral_log_poly(coeffs, s, TIGHT) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_cp_constant_quadrature(self, p):
        assert cp_constant_quadrature(p, TIGHT) == pytest.approx(cp_constant(p), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 30, 62])
    def test_node_budget_suffices(self, n, rng):
        # a few hundred nodes cover p in [0.5, 1.5] at every order the lab handles
        spec = QuadratureSpec(max_nodes=2000)
        for g in (random_graph(rng, n), complete_graph(n), empty_graph(n)):
            sk = elementary_symmetric_A2(g)
            for p in [0.5, 0.75, 1.0, 1.25, 1.5]:
                assert energy_by_integral(sk, p, spec) == pytest.approx(
                    p_energy(eigenvalues(g), p), rel=1e-10
                )

    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_small_p_node_budget(self, n, rng):
        # the right cut-off does not grow like 1/p: its tail's leading terms
        # are summed in closed form
        spec = QuadratureSpec(max_nodes=2000)
        for g in (random_graph(rng, n), complete_graph(n), empty_graph(n)):
            sk = elementary_symmetric_A2(g)
            for p in [1e-4, 5e-4, 1e-3, 1e-2]:
                assert energy_by_integral(sk, p, spec) == pytest.approx(
                    p_energy(eigenvalues(g), p), rel=1e-10
                )


    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_near_two_node_budget(self, n, rng):
        # the left cut-off does not grow like 1/(2 - p): its tail's leading
        # term is summed in closed form; C_(p/2) keeps full precision there
        spec = QuadratureSpec(max_nodes=2000)
        for g in (random_graph(rng, n), complete_graph(n), empty_graph(n)):
            sk = elementary_symmetric_A2(g)
            for p in [1.99, 1.999, 1.9999, 1.99999]:
                direct = p_energy(eigenvalues(g), p)
                assert energy_by_integral(sk, p, spec) == pytest.approx(direct, rel=1e-10)
                assert energy_by_integral(sk, p, TIGHT) == pytest.approx(direct, rel=1e-12)


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
