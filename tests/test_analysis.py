"""Condition numbers, L2 errors, convergence rates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from oracles import ellipticity_margin, flux_l2_norm, mirror_halves
from test_galerkin import (
    adaptive_ex2_final_mesh,
    graded_mesh,
    mirror_graded_mesh,
    nonuniform_mesh,
)

import heatbem
from heatbem.analysis import (
    condition_number,
    element_means,
    eoc,
    l2_error,
)
from heatbem.galerkin import DiscreteFlux, assemble_all
from heatbem.krylov import NumericalError
from heatbem.mesh import BoundaryMesh, Side, uniform_mesh
from heatbem.reference import example1_series, example2_series
from heatbem.studies import ExperimentConfig, _level_record, _spectral_pieces, build_problem
from heatbem.verification import best_approximation


def unequal_sides_mesh():
    return BoundaryMesh(
        horizon=1.0,
        interval=(0.0, 1.0),
        left_breaks=np.array([0.0, 0.125, 0.25, 0.5, 0.625, 1.0]),
        right_breaks=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
    )


def dense_eig_ratio(A):
    ev = np.abs(np.linalg.eigvals(A))
    return ev.max() / ev.min()


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

    @pytest.mark.parametrize("method", ["sv", "eig"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reported(self, method, bad):
        A = np.eye(4)
        A[1, 2] = bad
        with pytest.raises(NumericalError):
            condition_number(A, method)
        with pytest.raises(NumericalError):
            condition_number((np.eye(2), A), method)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_symmetric_reported(self, bad):
        A = np.eye(4)
        A[1, 1] = bad
        with pytest.raises(NumericalError):
            condition_number(A)

    @staticmethod
    def svd_ratio(*mats):
        s = np.concatenate([np.linalg.svd(A, compute_uv=False) for A in mats])
        return float(s.max() / s.min())

    def test_symmetric_takes_eigvalsh(self, monkeypatch):
        # sigma = |lambda| of an exactly symmetric matrix, indefinite ones included
        rng = np.random.default_rng(21)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        for n in (1, 2, 7, 40, 200):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n)
            A = q @ np.diag(lam) @ q.T
            A = 0.5 * (A + A.T)  # bitwise symmetric
            B = q @ np.diag(np.abs(lam)) @ q.T
            halves = (A, 0.5 * (B + B.T))
            kappa = np.abs(lam).max() / np.abs(lam).min()
            assert condition_number(A) == pytest.approx(self.svd_ratio(A), rel=1e-13, abs=0)
            assert condition_number(A) == pytest.approx(kappa, rel=1e-13, abs=0)
            assert condition_number(halves) == pytest.approx(self.svd_ratio(*halves), rel=1e-13)
        assert len(calls) == 4 * 5  # A twice, then both halves

    def test_non_symmetric_is_the_svd_bitwise(self, monkeypatch):
        rng = np.random.default_rng(22)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # never reached
        for n in (2, 7, 40, 200):
            A, B = rng.standard_normal((2, n, n)) + 3.0 * np.sqrt(n) * np.eye(n)
            S = 0.5 * (A + A.T)
            S[0, 1] = np.nextafter(S[0, 1], np.inf)  # one ulp off symmetric
            for mats in ((A,), (S,), (A, B)):
                got = condition_number(mats[0] if len(mats) == 1 else mats)
                assert got == self.svd_ratio(*mats), n

    def test_stack_and_halves_give_the_formed_value(self):
        # a (k, s, s) stack stands for its block-diagonal matrix, and the mirror halves
        # P + Q, P - Q for [[P, Q], [Q, P]], in both conventions
        rng = np.random.default_rng(23)
        stack = np.eye(3) + 0.4 * rng.standard_normal((5, 3, 3))
        P, Q = np.eye(4) + 0.3 * rng.standard_normal((2, 4, 4))
        for pieces, A in (([stack], scipy.linalg.block_diag(*stack)),
                          ((P + Q, P - Q), np.block([[P, Q], [Q, P]]))):
            for method in ("sv", "eig"):
                assert condition_number(pieces, method) == pytest.approx(
                    condition_number(A, method), rel=1e-12), method

    def test_validation(self):
        with pytest.raises(ValueError):
            condition_number(np.ones((2, 3)))
        with pytest.raises(ValueError):
            condition_number([np.ones((4, 2, 3))])
        with pytest.raises(ValueError):
            condition_number(np.eye(2), "spectral")


def diagonal_blocks(A, blocks):
    """The diagonal blocks A[idx, idx] of A, one per index array."""
    return [A[np.ix_(idx, idx)] for idx in blocks]


class TestBlockTriangularEig:
    """The eig convention reads the spectrum off the diagonal blocks of a
    block-triangular matrix; the studies pass the blocks of the mesh's slabs."""

    def test_permuted_block_triangular_matches_dense(self):
        rng = np.random.default_rng(11)
        sizes = rng.integers(2, 5, size=8)
        n = int(sizes.sum())
        # distinct, well separated eigenvalues keep dense eigvals accurate
        lam = rng.permutation(np.linspace(1.0, 10.0, n))
        A = np.tril(0.1 * rng.standard_normal((n, n)))
        start = 0
        for size in sizes:
            q, _ = np.linalg.qr(rng.standard_normal((size, size)))
            block = slice(start, start + size)
            A[block, block] = q @ np.diag(lam[block]) @ q.T
            start += size
        perm = rng.permutation(n)
        B = A[np.ix_(perm, perm)]
        # row k of B is row perm[k] of A, so block [start, stop) of A sits at these rows of B
        where = np.argsort(perm)
        stops = np.cumsum(sizes)
        blocks = [np.sort(where[stop - size : stop]) for size, stop in zip(sizes, stops)]
        kappa = condition_number(diagonal_blocks(B, blocks), "eig")
        assert kappa == pytest.approx(dense_eig_ratio(B), rel=1e-12)

    def test_irreducible_matrix_is_bitwise_dense(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((40, 40)) + 5.0 * np.eye(40)
        assert condition_number(A, "eig") == dense_eig_ratio(A)

    def test_stable_under_relative_perturbation(self):
        # the dense ratio reads 1.737 here, and 1.741 after the perturbation
        rng = np.random.default_rng(13)
        mesh = uniform_mesh(1.0, 5)
        V = assemble_all(mesh, 1.0).V
        perturbed = V * (1.0 + 1e-15 * rng.standard_normal(V.shape))
        kappa = condition_number(diagonal_blocks(V, mesh.slabs), "eig")
        assert kappa == pytest.approx(1.0, abs=1e-4)
        assert abs(condition_number(diagonal_blocks(perturbed, mesh.slabs), "eig") - kappa) < 1e-12

    @pytest.mark.parametrize(
        "mesh",
        [uniform_mesh(1.0, 5), unequal_sides_mesh(), graded_mesh(2.0 ** -10)],
        ids=["uniform_L5", "unequal_sides", "graded_2^-10"],
    )
    def test_zero_above_the_slab_blocks(self, mesh):
        # exact zeros above the slab blocks make the slab spectrum that of A
        assert len(mesh.slabs) > 1
        order = np.sort(np.concatenate(mesh.slabs))
        np.testing.assert_array_equal(order, np.arange(mesh.n_elements))  # a partition
        slab = np.empty(mesh.n_elements, dtype=int)
        for k, idx in enumerate(mesh.slabs):
            slab[idx] = k
        above = slab[:, None] < slab[None, :]
        mats = assemble_all(mesh, 1.0)
        cv = mats.D / np.outer(mats.mass, mats.mass) @ mats.V
        for A in (mats.V, mats.D, cv):
            assert np.all(A[above] == 0.0)

    @staticmethod
    def per_slab_ratio(A, blocks):
        """The oracle: one eigvals call per block."""
        ev = np.abs(np.concatenate([np.linalg.eigvals(B) for B in diagonal_blocks(A, blocks)]))
        return float(ev.max()) / float(ev.min())

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda lv=lv: uniform_mesh(3.0, lv) for lv in range(9)),
            unequal_sides_mesh,
            lambda: graded_mesh(2.0 ** -10),
            mirror_graded_mesh,
            adaptive_ex2_final_mesh,
        ],
        ids=[*(f"uniform_3_L{lv}" for lv in range(9)), "unequal_sides", "graded_2^-10",
             "mirror_graded", "adaptive_ex2_final"],
    )
    def test_batched_is_bitwise_the_per_slab_loop(self, make, monkeypatch):
        # h = 3 / 2^L is no power of two: the studies form the matrices on every mesh here
        mesh = make()
        mats = assemble_all(mesh, 1.0)
        assert not mats.toeplitz
        V, D, m = mats.V, mats.D, mats.mass
        systems = {"V": V, "diag": V / np.diag(V)[:, None], "calderon": D / np.outer(m, m) @ V}
        expected = [self.per_slab_ratio(A, mesh.slabs) for A in systems.values()]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        got = [condition_number(_spectral_pieces(mats, name, "eig"), "eig") for name in systems]
        assert got == expected
        assert len(calls) == 3 * len({len(idx) for idx in mesh.slabs})  # one call per slab size

    def test_import_leaves_csgraph_unloaded(self):
        # csgraph loads scipy.sparse.linalg: ~90 ms of start-up and ~9 MB resident
        assert not loaded_by_cli_import("scipy.sparse.csgraph")


def loaded_by_cli_import(module):
    """Whether ``import heatbem.cli`` in a fresh interpreter loads ``module``."""
    code = f"import sys, heatbem.cli; print({module!r} in sys.modules)"
    src = str(Path(heatbem.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip() == "True"


class TestMirrorHalves:
    """On a Toeplitz mesh the study's sv columns come from the even/odd halves; on any
    other mesh, a mirror one included, from the formed matrix."""

    @staticmethod
    def study_sv(mesh):
        cfg = ExperimentConfig()
        problem, series = build_problem(cfg)
        rec, _ = _level_record(mesh, problem, series, cfg, 0, None)
        return [rec.kappa_V_sv, rec.kappa_diag_sv, rec.kappa_calderon_sv]

    @staticmethod
    def dense_sv(mesh):
        mats = assemble_all(mesh, 1.0)
        V, D, m = mats.V, mats.D, mats.mass
        return [condition_number(A) for A in (V, V / np.diag(V)[:, None], D / np.outer(m, m) @ V)]

    @pytest.mark.parametrize(
        "make", [*(lambda lv=lv: uniform_mesh(1.0, lv) for lv in range(9)), mirror_graded_mesh],
        ids=[*(f"uniform_L{lv}" for lv in range(9)), "mirror_graded"],
    )
    def test_halves_agree_with_dense_svd(self, make):
        mesh = make()
        assert mesh.mirror
        np.testing.assert_allclose(self.study_sv(mesh), self.dense_sv(mesh), rtol=1e-14, atol=0)

    def test_other_meshes_take_the_dense_svd(self):
        mesh = nonuniform_mesh()
        assert not mesh.mirror
        assert self.study_sv(mesh) == self.dense_sv(mesh)

    def test_mirror_meshes_off_the_toeplitz_grid_take_the_dense_svd(self):
        mesh = mirror_graded_mesh()
        assert mesh.mirror and not assemble_all(mesh, 1.0).toeplitz
        assert self.study_sv(mesh) == self.dense_sv(mesh)

    def test_halves_stand_for_the_mirror_matrix(self):
        rng = np.random.default_rng(5)
        P, Q = np.eye(6) + 0.3 * rng.standard_normal((2, 6, 6))
        A = np.block([[P, Q], [Q, P]])
        for method in ("sv", "eig"):
            assert condition_number((P + Q, P - Q), method) == pytest.approx(
                condition_number(A, method), rel=1e-12
            )

    def test_lazy_halves_are_the_tuple_bitwise(self):
        mats = assemble_all(uniform_mesh(1.0, 4), 1.0)
        halves = mirror_halves(mats.V, 16)
        assert not isinstance(halves, tuple)
        assert condition_number(halves) == condition_number(tuple(mirror_halves(mats.V, 16)))

    def test_import_leaves_scipy_linalg_unloaded(self):
        # the halves use numpy's svd and strided views, not scipy.linalg
        assert not loaded_by_cli_import("scipy.linalg")


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
        assert err == pytest.approx(flux_l2_norm(ref, 1.0), abs=1e-3)
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
        assert 0.0 < err < flux_l2_norm(ref, 1.0)

    def test_gauss_order_refinement_converges(self):
        mesh = uniform_mesh(1.0, 3)
        ref = example1_series()
        flux = DiscreteFlux(np.zeros(mesh.n_elements), mesh)
        e8 = l2_error(flux, ref, gauss_order=8)
        e32 = l2_error(flux, ref, gauss_order=32)
        assert e8 == pytest.approx(e32, rel=1e-4)


def side_of(mesh, i):
    return Side.LEFT if i < mesh.n_left else Side.RIGHT


def loop_element_means(mesh, fn, gauss_order):
    """Oracle: one fn(i, ts) call and one weight dot product per element i."""
    xi, wt = np.polynomial.legendre.leggauss(gauss_order)
    out = np.empty(mesh.n_elements)
    for i in range(mesh.n_elements):
        ts = mesh.t_begin_all[i] + 0.5 * (xi + 1.0) * mesh.element_sizes[i]
        out[i] = 0.5 * float(np.dot(wt, fn(i, ts)))
    return out


def loop_l2_error(flux, reference, gauss_order):
    """Oracle: l2_error on the per-element loop, summed in element order."""
    mesh = flux.mesh

    def squared_error(i, ts):
        diff = reference.flux(side_of(mesh, i), ts) - flux.coefficients[i]
        return diff * diff

    total = 0.0
    for h, mean in zip(mesh.element_sizes, loop_element_means(mesh, squared_error, gauss_order)):
        total += h * mean
    return math.sqrt(total)


class TestElementMeans:
    """One flux call per side gives the per-element loop's values, bitwise."""

    MESHES = {
        "uniform_L5": lambda: uniform_mesh(1.0, 5),
        "unequal_sides": nonuniform_mesh,
        "graded_2^-19": lambda: graded_mesh(2.0 ** -19),
    }

    @pytest.mark.parametrize("order", [8, 30])
    @pytest.mark.parametrize("name", list(MESHES))
    def test_equal_to_per_element_loop(self, name, order):
        mesh = self.MESHES[name]()
        ref = example2_series()
        got = element_means(mesh, ref.flux, order)
        oracle = loop_element_means(mesh, lambda i, ts: ref.flux(side_of(mesh, i), ts), order)
        assert np.array_equal(got.view(np.int64), oracle.view(np.int64))
        if order == 30:
            assert np.array_equal(best_approximation(mesh, ref), oracle)
        rng = np.random.default_rng(order)
        flux = DiscreteFlux(oracle + 0.01 * rng.standard_normal(mesh.n_elements), mesh)
        assert l2_error(flux, ref, order) == loop_l2_error(flux, ref, order)


class TestUniformRefinementTrends:
    def test_kappa_grows_under_refinement(self):
        # strict growth over the dyadic family; the one-off L=11 value is
        # 133.5 (> 100) but a 4096^2 SVD is too slow for the default suite

        kappas = [
            condition_number(assemble_all(uniform_mesh(1.0, L), 1.0).V)
            for L in range(1, 6)
        ]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_error_halves_in_asymptotic_range(self):
        # linear convergence onsets at L ~ 6 for the default heat capacity,
        # where the flux boundary layer (width 1/(4 pi^2)) is resolved
        from heatbem.galerkin import Problem, assemble_rhs
        from heatbem.krylov import direct_solve
        from heatbem.reference import example1_initial_datum

        prob = Problem(u0=example1_initial_datum)
        ref = example1_series()
        errors = []
        for level in (5, 6, 7, 8):
            mesh = uniform_mesh(1.0, level)
            w = direct_solve(assemble_all(mesh, prob.alpha).V, assemble_rhs(mesh, prob))
            errors.append(l2_error(DiscreteFlux(w, mesh), ref))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine / coarse == pytest.approx(0.5, abs=0.05)
