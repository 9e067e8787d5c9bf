"""GMRES, preconditioners, and the dense direct solver."""

import tracemalloc

import numpy as np
import pytest
from test_galerkin import adaptive_ex2_final_mesh, graded_mesh, nonuniform_mesh

from heatbem.galerkin import Problem, assemble_all, assemble_rhs
from heatbem.krylov import (
    NumericalError,
    Preconditioner,
    _triangularize,
    direct_solve,
    gmres,
)
from heatbem.mesh import uniform_mesh
from heatbem.reference import example1_initial_datum, example2_initial_datum
from heatbem.studies import ExperimentConfig, _level_record, build_problem


def example1_system(level):
    prob = Problem(u0=example1_initial_datum)
    mesh = uniform_mesh(1.0, level)
    mats = assemble_all(mesh, prob.alpha)
    return mats, assemble_rhs(mesh, prob)


def mgs2_gmres(A, b, tol=1e-8, preconditioner=None):
    """Oracle: the same GMRES orthogonalized by modified Gram-Schmidt, one
    dot product per basis vector, plus a full reorthogonalization pass.

    Returns (solution, iterations, history, converged, breakdown).
    """
    n = len(b)
    prec = preconditioner or Preconditioner.identity()
    norm_b = float(np.linalg.norm(b))
    basis = np.zeros((n + 1, n))
    basis[0] = b / norm_b
    H = np.zeros((n + 1, n))
    cs, sn, rhs = np.zeros(n), np.zeros(n), np.zeros(n + 1)
    rhs[0] = norm_b
    history, h_scale, breakdown, m = [1.0], 0.0, False, 0
    for j in range(n):
        w = A @ prec.apply(basis[j])
        for i in range(j + 1):
            H[i, j] = basis[i] @ w
            w -= H[i, j] * basis[i]
        for i in range(j + 1):
            corr = basis[i] @ w
            H[i, j] += corr
            w -= corr * basis[i]
        h_next = float(np.linalg.norm(w))
        H[j + 1, j] = h_next
        h_scale = max(h_scale, float(np.max(np.abs(H[: j + 2, j]))))
        for i in range(j):
            hi, hj = H[i, j], H[i + 1, j]
            H[i, j] = cs[i] * hi + sn[i] * hj
            H[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = float(np.hypot(H[j, j], H[j + 1, j]))
        if denom <= 1e-14 * max(h_scale, 1e-300):
            breakdown = True
            break
        cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
        H[j, j], H[j + 1, j] = denom, 0.0
        rhs[j + 1] = -sn[j] * rhs[j]
        rhs[j] = cs[j] * rhs[j]
        m = j + 1
        history.append(abs(rhs[j + 1]) / norm_b)
        if history[-1] <= tol:
            break
        if h_next <= 1e-14 * max(h_scale, 1e-300):
            breakdown = True
            break
        basis[j + 1] = w / h_next
    y = np.linalg.solve(np.triu(H[:m, :m]), rhs[:m])
    x = prec.apply(basis[:m].T @ y)
    history[-1] = float(np.linalg.norm(b - A @ x) / norm_b)
    converged = history[-1] <= tol
    return x, m, np.array(history), converged, breakdown and not converged


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

    def test_nonzero_rhs_with_an_underflowing_norm_raises(self):
        # every entry is below ~1e-162, so ||b|| is 0.0 although b is not zero
        b = np.full(4, 1e-170)
        assert np.linalg.norm(b) == 0.0
        with pytest.raises(NumericalError, match="underflows to 0"):
            gmres(np.eye(4), b)

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
        assert report.relative_residual_history[-1] == pytest.approx(true_rel, rel=1e-9)
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
        report = gmres(mats.V, f, tol=1e-8)
        assert np.max(np.abs(direct_solve(mats.V, f) - report.solution)) <= 1e-7

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
            assert np.max(np.abs(direct_solve(mats.V, f) - report.solution)) < 1e-7

    def test_square_operator_gives_the_array_result(self):
        class Wrapped:  # only shape and @, no array interface
            def __init__(self, A):
                self.shape, self._A = A.shape, A

            def __matmul__(self, x):
                return self._A @ x

        mats, f = example1_system(4)
        for prec in (Preconditioner.identity(),
                     Preconditioner.calderon(mats.mass, mats.D),
                     Preconditioner.calderon(mats.mass, Wrapped(mats.D))):
            got = gmres(Wrapped(mats.V), f, tol=1e-10, preconditioner=prec)
            ref = gmres(mats.V, f, tol=1e-10, preconditioner=prec)
            assert got.iterations == ref.iterations
            assert got.relative_residual_history == ref.relative_residual_history
            np.testing.assert_array_equal(got.solution, ref.solution)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            gmres(np.eye(2), np.ones(2), tol=0.0)


class TestTriangularize:
    @staticmethod
    def numpy_scalar_givens(H, norm_b):
        """The column-by-column Givens update on float64 scalars read from and
        written to arrays: R (upper triangular) and the rotated norm_b e_1."""
        m = H.shape[1]
        H, cs, sn, rhs = H.copy(), np.zeros(m), np.zeros(m), np.zeros(m + 1)
        rhs[0] = norm_b
        for j in range(m):
            for i in range(j):
                hi, hj = H[i, j], H[i + 1, j]
                H[i, j] = cs[i] * hi + sn[i] * hj
                H[i + 1, j] = -sn[i] * hi + cs[i] * hj
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j], H[j + 1, j] = denom, 0.0
            rhs[j + 1] = -sn[j] * rhs[j]
            rhs[j] = cs[j] * rhs[j]
        return np.triu(H[:m]), rhs[:m]

    def test_bitwise_equal_to_numpy_scalar_loop(self):
        rng = np.random.default_rng(13)
        for m in [1, 2] + list(rng.integers(3, 121, 198)):
            hess = np.triu(rng.standard_normal((m + 1, m)), -1)
            hess *= 10.0 ** rng.uniform(-8.0, 8.0, hess.shape)
            norm_b = float(10.0 ** rng.uniform(-8.0, 8.0))
            expected_R, expected_rhs = self.numpy_scalar_givens(hess, norm_b)
            # row j holds column j, zero past its j + 2 entries
            stored = np.zeros((m, m + 1))
            for j in range(m):
                stored[j, : j + 2] = hess[: j + 2, j]
            rhs = _triangularize(stored, m, norm_b)
            assert np.array_equal(stored[:, :m].T.view(np.int64), expected_R.view(np.int64)), m
            assert np.array_equal(rhs.view(np.int64), expected_rhs.view(np.int64)), m


class TestBlockGramSchmidt:
    """CGS2 against the MGS-plus-reorthogonalization oracle."""

    SYSTEMS = {
        **{f"uniform_L{lv}_ex1": (lambda lv=lv: uniform_mesh(1.0, lv), example1_initial_datum)
           for lv in range(8)},
        "unequal_sides_ex1": (nonuniform_mesh, example1_initial_datum),
        "unequal_sides_ex2": (nonuniform_mesh, example2_initial_datum),
        "graded_2^-19_ex1": (lambda: graded_mesh(2.0 ** -19), example1_initial_datum),
        "graded_2^-19_ex2": (lambda: graded_mesh(2.0 ** -19), example2_initial_datum),
    }
    # Residual histories agree to 1e-12 absolute, except where the oracle's
    # own history moves by more when b moves by 1e-15 relative: for none and
    # diag on uniform L >= 4, where V is close to defective, by up to 1.3e-6;
    # for none on the graded mesh, kappa(V) ~ 1.7e8, by up to 1.2e-6.  There
    # the bound is SPREAD_FACTOR times the oracle's largest deviation over
    # PERTURBATIONS such moves of b; CGS2 came to at most 1.73 times it.
    PERTURBATIONS = 4
    SPREAD_FACTOR = 4.0

    def oracle_spread(self, mats, f, prec, history):
        spread = 0.0
        for seed in range(self.PERTURBATIONS):
            rng = np.random.default_rng(seed)
            moved = mgs2_gmres(mats.V, f * (1.0 + 1e-15 * rng.standard_normal(len(f))),
                               preconditioner=prec)[2]
            k = min(len(moved), len(history))
            spread = max(spread, float(np.max(np.abs(moved[:k] - history[:k]))))
        return spread

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_matches_mgs2_oracle(self, name):
        make_mesh, u0 = self.SYSTEMS[name]
        mesh = make_mesh()
        mats = assemble_all(mesh, 1.0)
        f = assemble_rhs(mesh, Problem(u0=u0))
        for prec in (
            Preconditioner.identity(),
            Preconditioner.diagonal(np.diag(mats.V)),
            Preconditioner.calderon(mats.mass, mats.D),
        ):
            report = gmres(mats.V, f, preconditioner=prec)
            _, its, history, converged, breakdown = mgs2_gmres(mats.V, f, preconditioner=prec)
            assert (report.iterations, report.converged, report.breakdown) == (
                its, converged, breakdown), prec.kind
            dev = np.max(np.abs(np.array(report.relative_residual_history) - history))
            if dev > 1e-12:
                assert prec.kind != "calderon"
                assert dev <= self.SPREAD_FACTOR * self.oracle_spread(mats, f, prec, history)

    def test_storage_grows_with_the_iterations(self):
        # a rank-one update of 2 I converges in two iterations; an up-front
        # (n + 1) x n basis and Hessenberg matrix would take 268 MB here
        n = 4096
        rng = np.random.default_rng(123)
        A = np.outer(rng.standard_normal(n), rng.standard_normal(n) / n)
        A[np.diag_indices(n)] += 2.0
        b = rng.standard_normal(n)
        tracemalloc.start()
        try:
            report = gmres(A, b, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged and report.iterations <= 3
        assert peak < 4e6  # bytes; the first chunk is 33 x n doubles (1.1 MB)

    def test_no_copy_of_the_hessenberg_at_exit(self):
        # n = 32 iterations fill the first chunk: a 33 x 32 basis and 32 x 33 Hessenberg
        # storage.  R is solved where it was rotated, so the peak (about 21 kB) stays
        # below that storage plus one 32 x 32 triangle; an np.triu copy took it to 34 kB.
        n = 32
        rng = np.random.default_rng(123)
        A = np.diag(np.linspace(1.0, 100.0, n)) + 0.1 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        tracemalloc.start()
        try:
            report = gmres(A, b, tol=1e-14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == n
        storage = 2 * (n + 1) * n * 8
        assert peak < storage + n * n * 8


class TestCountOnly:
    """``count_only`` runs the full solve's iterations and builds no solution."""

    @staticmethod
    def assert_same_count(A, b, **kw):
        full = gmres(A, b, **kw)
        count = gmres(A, b, count_only=True, **kw)
        assert count.solution is None
        assert (count.iterations, count.breakdown) == (full.iterations, full.breakdown)
        # the full history ends with the true residual, the count's with the estimate
        got, ref = (np.array(r.relative_residual_history) for r in (count, full))
        assert np.array_equal(got[:-1].view(np.int64), ref[:-1].view(np.int64))
        assert len(got) == len(ref)
        assert count.converged == (got[-1] <= kw.get("tol", 1e-8))
        return count, full

    @pytest.mark.parametrize("uniform", [False, True])
    def test_same_iterations_and_history_as_the_full_solve(self, uniform):
        # graded mesh: dense V and D; uniform L7: V and D are MirrorToeplitz operators
        mesh = uniform_mesh(1.0, 7) if uniform else graded_mesh(2.0 ** -19)
        mats = assemble_all(mesh, 1.0)
        f = assemble_rhs(mesh, Problem(u0=example2_initial_datum))
        V = mats.operator("V")
        for prec in (None, Preconditioner.identity(),
                     Preconditioner.diagonal(V.diagonal()),
                     Preconditioner.calderon(mats.mass, mats.operator("D"))):
            count, full = self.assert_same_count(V, f, preconditioner=prec)
            assert count.converged and full.converged
            assert count.iterations > 1

    def test_breakdown(self):
        count, _ = self.assert_same_count(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))
        assert count.breakdown and not count.converged

    def test_stops_at_max_iter(self):
        mats, f = example1_system(3)
        count, _ = self.assert_same_count(mats.V, f, max_iter=2)
        assert count.iterations == 2 and not count.converged and not count.breakdown

    def test_zero_rhs(self):
        report = gmres(np.eye(4), np.zeros(4), count_only=True)
        assert report.converged and report.iterations == 0 and report.solution is None

    def test_last_adaptive_level_holds_no_hessenberg_storage(self):
        # N = 340, 331 iterations: the basis grows from 257 to 341 rows, and its two
        # copies (1.78 N^2 doubles) are the count's peak.  The full solve also holds
        # the 340 x 341 Hessenberg storage (2.78 N^2); a view of the old storage kept
        # across a doubling would take it to 3.35
        mesh = adaptive_ex2_final_mesh()
        V = assemble_all(mesh, 1.0).V
        f = assemble_rhs(mesh, Problem(u0=example2_initial_datum))
        peaks = {}
        for count_only in (True, False):
            tracemalloc.start()
            try:
                report = gmres(V, f, count_only=count_only)
                peaks[count_only] = tracemalloc.get_traced_memory()[1] / (8 * 340 ** 2)
            finally:
                tracemalloc.stop()
            assert report.iterations == 331
        assert mesh.n_elements == 340
        assert peaks[True] < 2.0
        assert peaks[False] < 2.9


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
        assert rec.kappa_calderon_sv == pytest.approx(1.70525, rel=1e-4)


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
