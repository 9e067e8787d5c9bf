"""GMRES, preconditioners, and the dense direct solver."""

import numpy as np
import pytest

from heatbem.galerkin import Problem, assemble_all, assemble_rhs
from heatbem.krylov import (
    NumericalError,
    Preconditioner,
    direct_solve,
    gmres,
)
from heatbem.mesh import uniform_mesh
from heatbem.reference import example1_initial_datum
from heatbem.studies import ExperimentConfig, _level_record, build_problem
from heatbem.verification import gmres_lu_deviation


def example1_system(level):
    prob = Problem(u0=example1_initial_datum)
    mesh = uniform_mesh(1.0, level)
    mats = assemble_all(mesh, prob.alpha)
    return mats, assemble_rhs(mesh, prob)


class TestGmres:
    def test_identity_one_iteration(self):
        rng = np.random.default_rng(123)
        b = rng.standard_normal(6)
        report = gmres(np.eye(6), b)
        assert report.iterations == 1
        assert report.converged
        np.testing.assert_allclose(report.solution, b, atol=1e-12)

    def test_zero_rhs(self):
        report = gmres(np.eye(4), np.zeros(4))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(report.solution, 0.0)

    def test_smallest_system_one_iteration(self):
        # antisymmetric datum makes the rhs an eigenvector of the 2x2 system
        mats, f = example1_system(0)
        report = gmres(mats.V, f, tol=1e-8)
        assert report.converged
        assert report.iterations == 1

    def test_against_direct_solve(self):
        rng = np.random.default_rng(123)
        A = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        report = gmres(A, b, tol=1e-12)
        x = direct_solve(A, b)
        assert report.converged
        np.testing.assert_allclose(report.solution, x, atol=1e-10)

    def test_history_non_increasing(self):
        mats, f = example1_system(4)
        report = gmres(mats.V, f, tol=1e-10)
        hist = report.relative_residual_history
        assert hist[0] == 1.0
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(hist, hist[1:]))

    def test_true_residual_at_exit(self):
        mats, f = example1_system(3)
        report = gmres(mats.V, f, tol=1e-8)
        true_rel = np.linalg.norm(f - mats.V @ report.solution) / np.linalg.norm(f)
        assert report.final_relative_residual == pytest.approx(true_rel, rel=1e-9)
        assert true_rel <= 1e-8

    def test_non_convergence_flagged(self):
        mats, f = example1_system(3)
        report = gmres(mats.V, f, tol=1e-8, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_breakdown_flagged(self):
        A = np.diag([1.0, 0.0])
        b = np.array([0.0, 1.0])
        report = gmres(A, b, tol=1e-8)
        assert report.breakdown
        assert not report.converged

    def test_gmres_matches_direct_on_flux(self):
        mats, f = example1_system(4)
        assert gmres_lu_deviation(mats.V, f, gmres(mats.V, f, tol=1e-8)) <= 1e-7

    def test_solutions_agree_across_preconditioners(self):
        mats, f = example1_system(4)
        preconds = [
            Preconditioner.identity(),
            Preconditioner.diagonal(np.diag(mats.V)),
            Preconditioner.calderon(mats.mass, mats.D),
        ]
        for prec in preconds:
            report = gmres(mats.V, f, tol=1e-10, preconditioner=prec)
            assert report.converged
            assert gmres_lu_deviation(mats.V, f, report) < 1e-7

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            gmres(np.eye(2), np.ones(2), tol=0.0)


class TestPreconditioner:
    def test_identity_apply(self):
        rng = np.random.default_rng(123)
        r = rng.standard_normal(5)
        np.testing.assert_array_equal(Preconditioner.identity().apply(r), r)

    def test_diagonal_validation(self):
        with pytest.raises(NumericalError):
            Preconditioner.diagonal(np.array([1.0, 0.0]))
        with pytest.raises(NumericalError):
            Preconditioner.diagonal(np.array([1.0, -2.0]))

    def test_calderon_validation(self):
        with pytest.raises(NumericalError):
            Preconditioner.calderon(np.array([1.0, 0.0]), np.eye(2))
        with pytest.raises(NumericalError):
            Preconditioner.calderon(np.ones(3), np.eye(2))

    def test_calderon_synthetic_identity(self):
        # D = M^2 makes M^-1 D M^-1 the identity
        rng = np.random.default_rng(123)
        m = np.array([0.5, 2.0, 1.5])
        prec = Preconditioner.calderon(m, np.diag(m * m))
        r = rng.standard_normal(3)
        np.testing.assert_allclose(prec.apply(r), r, atol=1e-14)

    def test_calderon_uniform_half(self):
        # uniform h = 1/2: M^-1 D M^-1 = 4 D
        rng = np.random.default_rng(123)
        mesh = uniform_mesh(1.0, 1)
        mats = assemble_all(mesh, Problem().alpha)
        prec = Preconditioner.calderon(mats.mass, mats.D)
        r = rng.standard_normal(4)
        np.testing.assert_allclose(prec.apply(r), 4.0 * (mats.D @ r), rtol=1e-13)

    def test_apply_matches_dense_inverse(self):
        # the dense P^-1 of each flavour; the Calderon one as the studies form it
        rng = np.random.default_rng(123)
        mesh = uniform_mesh(1.0, 2)
        mats = assemble_all(mesh, Problem().alpha)
        diag = np.diag(mats.V)
        for prec, dense in (
            (Preconditioner.identity(), np.eye(8)),
            (Preconditioner.diagonal(diag), np.diag(1.0 / diag)),
            (Preconditioner.calderon(mats.mass, mats.D),
             mats.D / np.outer(mats.mass, mats.mass)),
        ):
            r = rng.standard_normal(8)
            np.testing.assert_allclose(dense @ r, prec.apply(r), rtol=1e-12, atol=1e-14)

    def test_calderon_conditioning_regression(self):
        # frozen plateau value of the preconditioned condition number at L=5,
        # through the study's kappa(C^-1 V) column
        cfg = ExperimentConfig(example=1, preconds=("calderon",))
        problem, series = build_problem(cfg)
        rec, _ = _level_record(uniform_mesh(1.0, 5), problem, series, cfg, 5, None)
        assert rec.kappa_calderon_prec == pytest.approx(1.70525, rel=1e-4)


class TestDirectSolve:
    def test_identity(self):
        rng = np.random.default_rng(123)
        b = rng.standard_normal(5)
        np.testing.assert_array_equal(direct_solve(np.eye(5), b), b)

    def test_hilbert4_analytic_inverse(self):
        H = np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])
        H_inv = np.array(
            [
                [16.0, -120.0, 240.0, -140.0],
                [-120.0, 1200.0, -2700.0, 1680.0],
                [240.0, -2700.0, 6480.0, -4200.0],
                [-140.0, 1680.0, -4200.0, 2800.0],
            ]
        )
        b = np.array([1.0, 0.5, -2.0, 3.0])
        np.testing.assert_allclose(direct_solve(H, b), H_inv @ b, atol=1e-8)

    def test_singular_reported(self):
        A = np.ones((3, 3))
        with pytest.raises(NumericalError):
            direct_solve(A, np.ones(3))

    def test_residual_small(self):
        mats, f = example1_system(4)
        x = direct_solve(mats.V, f)
        assert np.linalg.norm(f - mats.V @ x) <= 1e-10 * np.linalg.norm(f)
