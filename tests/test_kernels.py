"""Kernel primitives: frozen values, derivative identities, quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import heat_identity_defect, kernel_dt, kernel_dx, primitive_quadrature_defect

from heatbem.kernels import (
    QuadratureError,
    adaptive_quadrature,
    erfc,
    heat_kernel,
    primitive_I0,
    primitive_I1,
    primitive_J0,
    primitive_J1,
)


class TestErfc:
    def test_symmetry_point(self):
        assert erfc(0.0) == 1.0

    def test_large_argument_underflow(self):
        assert erfc(10.0) < 1e-40

    def test_half(self):
        # high-precision reference value, matches the stdlib implementation
        assert abs(erfc(0.5) - 0.47950012218695346) < 1e-15

    def test_against_stdlib_grid(self):
        # math.erfc is an independent C implementation
        xs = np.linspace(-6.0, 6.0, 241)
        ours = erfc(xs)
        ref = np.array([math.erfc(x) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-13

    def test_range(self):
        # strictly inside (0, 2) wherever doubles can represent that;
        # beyond |x| ~ 5.8 the value rounds to the boundary itself
        xs = np.linspace(-5.0, 5.0, 101)
        vals = erfc(xs)
        assert np.all(vals > 0.0) and np.all(vals < 2.0)
        assert erfc(-7.0) <= 2.0 and erfc(7.0) >= 0.0


class TestHeatKernel:
    def test_unit_value(self):
        # radicand is exactly one at tau = 1/(4 pi)
        assert heat_kernel(0.0, 1.0 / (4.0 * np.pi), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_causal_zero(self):
        assert heat_kernel(3.0, -0.5, 1.0) == 0.0
        assert heat_kernel(0.0, 0.0, 1.0) == 0.0

    def test_separated_value(self):
        # (1/(4 pi))^(1/2) e^(-1/4), frozen from extended-precision evaluation
        assert heat_kernel(1.0, 1.0, 1.0) == pytest.approx(0.21969564473386122, rel=1e-14)

    def test_vectorized(self):
        taus = np.array([-1.0, 0.0, 1.0])
        out = heat_kernel(0.0, taus, 1.0)
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.floats(-3.0, 3.0),
        tau=st.floats(1e-3, 10.0),
        lam=st.floats(0.1, 10.0),
        alpha=st.floats(0.1, 10.0),
    )
    def test_parabolic_scaling(self, d, tau, lam, alpha):
        # G(lam d, lam^2 tau) = G(d, tau) / lam
        left = heat_kernel(lam * d, lam * lam * tau, alpha)
        right = heat_kernel(d, tau, alpha) / lam
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(d=st.floats(-5.0, 5.0), tau=st.floats(-5.0, 0.0))
    def test_causality_family(self, d, tau):
        for f in (heat_kernel, kernel_dx, kernel_dt, primitive_I0,
                  primitive_I1, primitive_J0, primitive_J1):
            assert f(d, tau, 1.0) == 0.0


class TestDerivatives:
    def test_dx_even_point(self):
        assert kernel_dx(0.0, 0.7, 1.0) == 0.0

    def test_dt_at_origin_distance(self):
        # -(1/2)(4 pi)^(-1/2)
        assert kernel_dt(0.0, 1.0, 1.0) == pytest.approx(-0.14104739588693905, rel=1e-14)

    def test_dx_by_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
            tau = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.3, 3.0)
            h = 1e-6
            fd = (heat_kernel(d + h, tau, alpha) - heat_kernel(d - h, tau, alpha)) / (2 * h)
            assert fd == pytest.approx(kernel_dx(d, tau, alpha), rel=1e-6)

    def test_dt_by_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(-2.0, 2.0)
            tau = rng.uniform(0.1, 3.0)
            alpha = rng.uniform(0.3, 3.0)
            h = 1e-6 * tau
            fd = (heat_kernel(d, tau + h, alpha) - heat_kernel(d, tau - h, alpha)) / (2 * h)
            assert fd == pytest.approx(kernel_dt(d, tau, alpha), rel=1e-6, abs=1e-12)

    def test_heat_equation_identity(self):
        # d2G/dd2 = alpha dG/dtau to 1e-6 relative or 1e-10 = 1e-6 * floor absolute
        rng = np.random.default_rng(42)
        d, tau, alpha = rng.uniform([-2.0, 0.05, 0.3], [2.0, 3.0, 3.0], size=(20, 3)).T
        assert heat_identity_defect(d, tau, alpha, floor=1e-4) <= 1e-6

    def test_identity_at_fixed_point(self):
        assert heat_identity_defect(0.7, 0.3, 2.0) <= 1e-7


class TestPrimitives:
    def test_I0_at_zero_distance(self):
        assert primitive_I0(0.0, 1.0, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_I0_empty_integral(self):
        assert primitive_I0(1.3, 0.0, 1.0) == 0.0
        assert primitive_I0(-0.2, -1.0, 2.0) == 0.0

    def test_I0_separated_value(self):
        # frozen from the adaptive-quadrature oracle of int_0^1 G(1, s) ds
        assert primitive_I0(1.0, 1.0, 1.0) == pytest.approx(0.19964122837424564, rel=1e-12)

    def test_I0_monotone_in_tau(self):
        taus = np.linspace(0.01, 3.0, 50)
        vals = primitive_I0(0.7, taus, 1.5)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals >= 0.0)

    def test_J0_at_zero_distance(self):
        assert primitive_J0(0.0, 1.0, 1.0) == pytest.approx(2.0 / (3.0 * math.sqrt(math.pi)), rel=1e-14)

    def test_J0_homogeneity(self):
        # J0(0, tau) ~ tau^{3/2}: quadrupling tau scales by 8
        assert primitive_J0(0.0, 4.0, 1.0) == pytest.approx(8.0 * primitive_J0(0.0, 1.0, 1.0), rel=1e-14)

    def test_J0_frozen_value(self):
        # frozen from the triangle-reduced quadrature oracle below
        assert primitive_J0(0.5, 0.8, 1.0) == pytest.approx(0.12261287199425636, rel=1e-12)

    def test_dI0_dtau_is_kernel(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(-2.0, 2.0)
            tau = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.3, 3.0)
            h = 1e-6 * tau
            fd = (primitive_I0(d, tau + h, alpha) - primitive_I0(d, tau - h, alpha)) / (2 * h)
            assert fd == pytest.approx(heat_kernel(d, tau, alpha), rel=1e-6, abs=1e-12)

    def test_dJ0_dtau_is_I0(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(-2.0, 2.0)
            tau = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.3, 3.0)
            h = 1e-6 * tau
            fd = (primitive_J0(d, tau + h, alpha) - primitive_J0(d, tau - h, alpha)) / (2 * h)
            assert fd == pytest.approx(primitive_I0(d, tau, alpha), rel=1e-6)

    def test_d_derivatives_by_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
            tau = rng.uniform(0.05, 3.0)
            alpha = rng.uniform(0.3, 3.0)
            h = 1e-6
            fd_i = (primitive_I0(d + h, tau, alpha) - primitive_I0(d - h, tau, alpha)) / (2 * h)
            fd_j = (primitive_J0(d + h, tau, alpha) - primitive_J0(d - h, tau, alpha)) / (2 * h)
            assert fd_i == pytest.approx(primitive_I1(d, tau, alpha), rel=1e-6)
            assert fd_j == pytest.approx(primitive_J1(d, tau, alpha), rel=1e-6)

    def test_d_derivatives_odd_and_zero_at_origin(self):
        assert primitive_I1(0.0, 1.0, 1.0) == 0.0
        assert primitive_J1(0.0, 1.0, 1.0) == 0.0
        for d in (0.3, 1.7):
            assert primitive_I1(-d, 0.9, 1.2) == -primitive_I1(d, 0.9, 1.2)
            assert primitive_J1(-d, 0.9, 1.2) == -primitive_J1(d, 0.9, 1.2)

    @staticmethod
    def separated_samples(rng, count):
        return np.transpose([
            (rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.05, 2.0),
             rng.uniform(0.3, 3.0))
            for _ in range(count)
        ])

    def test_I0_against_quadrature(self):
        # separated distances to 1e-10, on-axis (weakly singular) to 1e-8
        rng = np.random.default_rng(42)
        assert primitive_quadrature_defect(*self.separated_samples(rng, 50), order=0) < 1e-10
        tau, alpha = rng.uniform([0.05, 0.3], [2.0, 3.0], size=(10, 2)).T
        assert primitive_quadrature_defect(0.0, tau, alpha, order=0, tol=1e-10) < 1e-8

    def test_J0_against_quadrature(self):
        rng = np.random.default_rng(42)
        assert primitive_quadrature_defect(*self.separated_samples(rng, 50), order=1) < 1e-10
        tau = rng.uniform(0.05, 2.0, size=10)
        assert primitive_quadrature_defect(0.0, tau, 1.0, order=1, tol=1e-10) < 1e-8

    def test_I1_shares_the_primitive_evaluator_bitwise(self):
        # the erfc form of dI0/dd, including d = 0 (value -0.0) and both signs
        d = np.array([-2.0, -0.7, -1e-3, 0.0, 1e-3, 0.7, 2.0])[:, None]
        tau = np.array([1e-6, 0.05, 0.7, 3.0])
        alpha = 2.5
        arg = np.sqrt(alpha) * np.abs(d) / (2.0 * np.sqrt(tau))
        direct = -np.sign(d) * (alpha / 2.0) * erfc(arg)
        got = primitive_I1(d, tau, alpha)
        assert np.array_equal(got, direct)
        assert np.array_equal(np.signbit(got), np.signbit(direct))
        assert np.all(primitive_I1(d, np.array([-1.0, 0.0]), alpha) == 0.0)


class TestAdaptiveQuadrature:
    def test_constant(self):
        assert adaptive_quadrature(lambda s: 1.0, 0.0, 1.0, tol=1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt_singularity(self):
        val = adaptive_quadrature(lambda s: s ** (-0.5), 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_heat_kernel_on_axis(self):
        val = adaptive_quadrature(lambda s: heat_kernel(0.0, s, 1.0), 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(primitive_I0(0.0, 1.0, 1.0), abs=1e-9)

    def test_empty_interval(self):
        assert adaptive_quadrature(lambda s: 1.0, 1.0, 1.0) == 0.0

    def test_one_integrand_call_per_panel(self):
        # a panel's 10- and 20-point nodes go to the integrand together
        calls = []

        def f(s):
            calls.append(len(s))
            return np.sin(40.0 * s)

        adaptive_quadrature(f, 0.0, np.pi, tol=1e-12)
        assert set(calls) == {30} and len(calls) % 2 == 1  # the first panel, two per split

    def test_budget_exhaustion_reported(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(lambda s: s ** (-0.5), 0.0, 1.0, tol=1e-10, max_panels=8)

    def test_nonintegrable_reported(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(lambda s: 1.0 / s, 0.0, 1.0, tol=1e-10, max_panels=500)

    def test_oscillatory(self):
        val = adaptive_quadrature(lambda s: np.sin(40.0 * s), 0.0, np.pi, tol=1e-12)
        exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
        assert val == pytest.approx(exact, abs=1e-11)
