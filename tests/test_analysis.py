"""Condition numbers, L2 errors, convergence rates."""

import math

import numpy as np
import pytest

from heatbem.analysis import condition_number, ellipticity_margin, eoc, l2_error
from heatbem.galerkin import DiscreteFlux
from heatbem.krylov import NumericalError
from heatbem.mesh import uniform_mesh
from heatbem.reference import example1_series
from heatbem.verification import best_approximation


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == pytest.approx(1.0)
        assert condition_number(np.eye(5), "eig") == pytest.approx(1.0)

    def test_diagonal(self):
        A = np.diag([4.0, 1.0])
        assert condition_number(A, "sv") == pytest.approx(4.0)
        assert condition_number(A, "eig") == pytest.approx(4.0)

    def test_conventions_differ_for_nonnormal(self):
        A = np.array([[1.0, 100.0], [0.0, 1.0]])
        assert condition_number(A, "eig") == pytest.approx(1.0)
        assert condition_number(A, "sv") > 100.0

    def test_singular_reported(self):
        with pytest.raises(NumericalError):
            condition_number(np.diag([1.0, 0.0]))
        with pytest.raises(NumericalError):
            condition_number(np.diag([1.0, 0.0]), "eig")

    def test_validation(self):
        with pytest.raises(ValueError):
            condition_number(np.ones((2, 3)))
        with pytest.raises(ValueError):
            condition_number(np.eye(2), "spectral")


class TestEoc:
    def test_halving(self):
        assert eoc([1.0, 0.5, 0.25]) == pytest.approx([1.0, 1.0])

    def test_table_style_pair(self):
        assert eoc([0.658, 0.324])[0] == pytest.approx(math.log2(0.658 / 0.324))

    def test_constant_sequence(self):
        assert eoc([0.3, 0.3, 0.3]) == pytest.approx([0.0, 0.0])

    def test_nonpositive_flagged(self):
        with pytest.warns(UserWarning):
            vals = eoc([1.0, 0.0])
        assert math.isnan(vals[0])


class TestEllipticityMargin:
    def test_identity(self):
        assert ellipticity_margin(np.eye(3)) == pytest.approx(1.0)

    def test_antisymmetric_is_zero(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert ellipticity_margin(A) == pytest.approx(0.0, abs=1e-15)

    def test_shifted(self):
        A = 2.0 * np.eye(3)
        A[0, 1] = 1.0  # nonsymmetric part does not move the symmetric spectrum much
        assert ellipticity_margin(A) == pytest.approx(2.0 - 0.5)


class TestL2Error:
    def test_zero_flux_equals_reference_norm(self):
        mesh = uniform_mesh(1.0, 5)
        ref = example1_series()
        err = l2_error(DiscreteFlux(np.zeros(mesh.n_elements), mesh), ref)
        assert err == pytest.approx(ref.flux_l2_norm(1.0), abs=1e-3)
        assert err == pytest.approx(1.0, abs=1e-3)

    def test_projection_optimality(self):
        # element means are the L2 projection; any perturbation is worse
        mesh = uniform_mesh(1.0, 4)
        ref = example1_series()
        means = best_approximation(mesh, ref)
        best = l2_error(DiscreteFlux(means, mesh), ref, gauss_order=20)
        rng = np.random.default_rng(5)
        for _ in range(3):
            bumped = means + 0.05 * rng.standard_normal(len(means))
            worse = l2_error(DiscreteFlux(bumped, mesh), ref, gauss_order=20)
            assert worse > best

    def test_exact_constant_flux(self):
        # single-mode series with known constant value over a tiny window
        mesh = uniform_mesh(1.0, 0)
        ref = example1_series()
        w = best_approximation(mesh, ref)
        err = l2_error(DiscreteFlux(w, mesh), ref, gauss_order=40)
        # best-approximation error of a steep exponential by one constant
        assert 0.0 < err < ref.flux_l2_norm(1.0)

    def test_gauss_order_refinement_converges(self):
        mesh = uniform_mesh(1.0, 3)
        ref = example1_series()
        flux = DiscreteFlux(np.zeros(mesh.n_elements), mesh)
        e8 = l2_error(flux, ref, gauss_order=8)
        e32 = l2_error(flux, ref, gauss_order=32)
        assert e8 == pytest.approx(e32, rel=1e-4)


class TestUniformRefinementTrends:
    def test_kappa_grows_under_refinement(self):
        # strict growth over the dyadic family; the one-off L=11 value is
        # 133.5 (> 100) but a 4096^2 SVD is too slow for the default suite
        from heatbem.galerkin import assemble_V

        kappas = [
            condition_number(assemble_V(uniform_mesh(1.0, L), 1.0))
            for L in range(1, 6)
        ]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_error_halves_in_asymptotic_range(self):
        # linear convergence onsets at L ~ 6 for the default heat capacity,
        # where the flux boundary layer (width 1/(4 pi^2)) is resolved
        from heatbem.galerkin import Problem, assemble_rhs, assemble_V
        from heatbem.krylov import direct_solve
        from heatbem.reference import example1_initial_datum

        prob = Problem(u0=example1_initial_datum)
        ref = example1_series()
        errors = []
        for level in (5, 6, 7, 8):
            mesh = uniform_mesh(1.0, level)
            w = direct_solve(assemble_V(mesh, prob.alpha), assemble_rhs(mesh, prob))
            errors.append(l2_error(DiscreteFlux(w, mesh), ref))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine / coarse == pytest.approx(0.5, abs=0.05)
