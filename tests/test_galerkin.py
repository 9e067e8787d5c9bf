"""Galerkin assembly: frozen entries, oracle agreement, structure, RHS, potentials."""

import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from oracles import (
    ellipticity_margin,
    entry_defect,
    initial_neumann_moments,
    mass_weighted_norm,
    min_ellipticity_margin,
    mirror_halves,
    rhs_moment_oracle,
    second_bie_residual,
    single_layer_oracle,
    singular_pair,
)

from heatbem import galerkin
from heatbem.galerkin import (
    DiscreteFlux,
    OperatorMatrices,
    Problem,
    assemble_all,
    assemble_rhs,
    evaluate_interior,
    initial_dirichlet_moments,
    write_matrix_text,
)
from heatbem.kernels import (
    _causal_terms,
    _i0,
    _j0,
    _j1,
    _vectorize_integrand,
    primitive_I0,
    primitive_I1,
)
from heatbem.krylov import NumericalError, direct_solve
from heatbem.mesh import BoundaryMesh, refine_adaptive, refine_uniform, uniform_mesh
from heatbem.reference import example1_initial_datum, example2_initial_datum
from heatbem.studies import ExperimentConfig, run_adaptive_study

ALPHA = 1.0


def nonuniform_mesh():
    return BoundaryMesh(
        horizon=1.0,
        interval=(0.0, 1.0),
        left_breaks=np.array([0.0, 0.125, 0.25, 0.625, 1.0]),
        right_breaks=np.array([0.0, 0.5, 0.75, 1.0]),
    )


def random_mesh():
    """Random breakpoints on each side: no two corner lags are equal."""
    rng = np.random.default_rng(2718)
    left, right = (
        np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n)), [1.0]]) for n in (15, 11)
    )
    return BoundaryMesh(1.0, (0.0, 1.0), left, right)


def causal_break_pairs(mesh):
    """Number of causal lags B_i - B_j, i > j, of the mesh's merged breakpoints."""
    m = len(np.union1d(mesh.left_breaks, mesh.right_breaks))
    return m * (m - 1) // 2


def graded_mesh(h_min, interval=(0.0, 1.0)):
    """refine_adaptive toward t = 0 on the left side and t = 0.3 on the right."""
    mesh = uniform_mesh(1.0, 1, interval)
    while mesh.h_min > h_min:
        mid = 0.5 * (mesh.t_begin_all + mesh.t_end_all)
        focus = np.where(mesh.x_all == interval[0], 0.0, 0.3)
        h = mesh.element_sizes
        mesh = refine_adaptive(mesh, h / (np.abs(mid - focus) + h))
    return mesh


def two_block_mesh():
    """graded_mesh(2^-19) bisected: 77 and 111 breakpoints, each side past one RHS row block."""
    return refine_uniform(graded_mesh(2.0 ** -19))


def mirror_graded_mesh():
    """The left side of graded_mesh(2^-5) on both sides: mirror, not a uniform grid."""
    breaks = graded_mesh(2.0 ** -5).left_breaks
    return BoundaryMesh(1.0, (0.0, 1.0), breaks, breaks.copy())


@lru_cache(maxsize=1)
def adaptive_ex2_meshes():
    """The 24 meshes of the default adaptive study of example 2 (N = 2 ... 340)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the study's stagnation warning
        return run_adaptive_study(ExperimentConfig(example=2, target_n=278))[1]


def adaptive_ex2_final_mesh():
    """The last mesh of the default adaptive study of example 2 (N = 340, h_min = 2^-19)."""
    return adaptive_ex2_meshes()[-1]


def reference_matrices(mesh, alpha):
    """V, K and D from four N x N corner-lag matrices, one term pass each.

    A primitive is exactly +0.0 at lags <= 0, so each pass evaluates the
    causal terms only at the positive lags, derives J0, J1 and I0 from them
    as the primitives do, and writes +0.0 elsewhere.  The corners add up as
    a - b - c + d.
    """
    t1, t2 = mesh.t_begin_all, mesh.t_end_all
    x, n = mesh.x_all, mesh.normal_all
    dmat = x[:, None] - x[None, :]
    corners = (
        (None, t2, t1), (np.subtract, t2, t2), (np.subtract, t1, t1), (np.add, t1, t2),
    )
    sums = {}
    for op, ends, begins in corners:
        lag = ends[:, None] - begins[None, :]
        pos = lag > 0.0
        d, t = dmat[pos], lag[pos]
        terms = _causal_terms(d, t, alpha)
        for name, formula in (("J0", _j0), ("J1", _j1), ("I0", _i0)):
            value = np.zeros_like(lag)
            value[pos] = formula(d, t, alpha, *terms)
            sums[name] = value if op is None else op(sums[name], value, out=sums[name])

    V = sums["J0"] / alpha
    K = np.where(x[:, None] != x[None, :], (-n[None, :] / alpha) * sums["J1"], 0.0)
    D = np.outer(n, n) * sums["I0"]
    return {"V": V, "K": K, "D": D}


def reference_moments(mesh, problem, primitive):
    """Initial-datum moments on the full grading, F at both ends of every element."""
    u0 = _vectorize_integrand(problem.u0)
    breaks = np.asarray(galerkin._graded_breaks(*mesh.interval))
    x, t1, t2 = mesh.x_all, mesh.t_begin_all, mesh.t_end_all
    order, prev = galerkin.QUAD_ORDER, None
    while True:
        ys, ws = galerkin._composite_nodes(breaks, order)
        d = x[:, None] - ys[None, :]
        win = primitive(d, t2[:, None], problem.alpha) - primitive(d, t1[:, None], problem.alpha)
        cur = win @ (ws * u0(ys))
        if prev is not None and np.abs(cur - prev).max() <= galerkin.QUAD_TOL:
            return cur
        assert order < galerkin.QUAD_MAX_ORDER
        order, prev = 2 * order, cur


class TestMass:
    def test_uniform(self):
        np.testing.assert_allclose(OperatorMatrices(uniform_mesh(1.0, 1), ALPHA).mass, 0.5)

    def test_mixed_sizes(self):
        m = BoundaryMesh(
            1.0, (0.0, 1.0), np.array([0.0, 0.25, 1.0]), np.array([0.0, 1.0])
        )
        np.testing.assert_allclose(OperatorMatrices(m, ALPHA).mass, [0.25, 0.75, 1.0])

    def test_trace_is_twice_horizon(self):
        for mesh in (uniform_mesh(1.0, 3), nonuniform_mesh()):
            mass = OperatorMatrices(mesh, ALPHA).mass
            assert np.sum(mass) == pytest.approx(2.0 * mesh.horizon)


class TestSingleLayer:
    def test_diagonal_level0(self):
        V = OperatorMatrices(uniform_mesh(1.0, 0), ALPHA).V
        expected = 2.0 / (3.0 * math.sqrt(math.pi))
        assert V[0, 0] == pytest.approx(expected, rel=1e-14)
        assert V[1, 1] == pytest.approx(expected, rel=1e-14)

    def test_causal_zeros(self):
        # entry is exactly zero whenever the test element ends before the
        # trial element starts, regardless of sides
        mesh = uniform_mesh(1.0, 2)
        V = OperatorMatrices(mesh, ALPHA).V
        t1, t2 = mesh.t_begin_all, mesh.t_end_all
        for i in range(mesh.n_elements):
            for j in range(mesh.n_elements):
                if t2[i] <= t1[j]:
                    assert V[i, j] == 0.0

    def test_entries_nonnegative(self):
        V = OperatorMatrices(nonuniform_mesh(), ALPHA).V
        assert np.all(V >= 0.0)
        assert np.all(np.isfinite(V))

    def test_side_swap_symmetry(self):
        # permuting the two identical side blocks leaves V invariant
        mesh = uniform_mesh(1.0, 2)
        V = OperatorMatrices(mesh, ALPHA).V
        n = mesh.n_left
        perm = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
        np.testing.assert_array_equal(V, V[np.ix_(perm, perm)])

    def test_diagonal_scaling(self):
        # same-element diagonal scales like h^{3/2}
        diags = [OperatorMatrices(uniform_mesh(1.0, L), ALPHA).V[0, 0] for L in (2, 3, 4)]
        for coarse, fine in zip(diags, diags[1:]):
            assert coarse / fine == pytest.approx(2.0 ** 1.5, rel=1e-12)

    def test_entries_vs_oracle(self):
        # every entry, the diagonal and the overlapping same-side pairs included
        mats = assemble_all(uniform_mesh(1.0, 2), ALPHA)
        n = mats.mesh.n_elements
        assert entry_defect(mats, [("V", i, j) for i in range(n) for j in range(n)]) <= 1e-10

    def test_alpha_dependence_matches_oracle(self):
        mats = assemble_all(uniform_mesh(1.0, 1), 2.5)
        assert entry_defect(mats, [("V", 0, 0), ("V", 1, 0), ("V", 2, 1)]) <= 1e-11


class TestDoubleLayer:
    def test_same_side_zero(self):
        K = OperatorMatrices(uniform_mesh(1.0, 2), ALPHA).K
        n = 4
        assert np.all(K[:n, :n] == 0.0)
        assert np.all(K[n:, n:] == 0.0)

    def test_causal_zero(self):
        mesh = uniform_mesh(1.0, 2)
        K = OperatorMatrices(mesh, ALPHA).K
        t1, t2 = mesh.t_begin_all, mesh.t_end_all
        for i in range(mesh.n_elements):
            for j in range(mesh.n_elements):
                if t2[i] <= t1[j]:
                    assert K[i, j] == 0.0

    def test_cross_entry_frozen(self):
        # frozen from a nested 2D adaptive-quadrature oracle
        K = OperatorMatrices(uniform_mesh(1.0, 0), ALPHA).K
        assert K[0, 1] == pytest.approx(-0.13992944690635392, rel=1e-12)
        assert K[1, 0] == pytest.approx(-0.13992944690635392, rel=1e-12)

    def test_cross_entries_vs_oracle(self):
        mats = assemble_all(nonuniform_mesh(), ALPHA)
        nl, n = mats.mesh.n_left, mats.mesh.n_elements
        entries = [("K", i, j) for i in range(nl) for j in range(nl, n)]
        assert entry_defect(mats, entries) <= 1e-10


class TestHypersingular:
    def test_diagonal_level0(self):
        D = OperatorMatrices(uniform_mesh(1.0, 0), ALPHA).D
        assert D[0, 0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_diagonal_is_I0_of_element_size(self):
        mesh = nonuniform_mesh()
        D = OperatorMatrices(mesh, ALPHA).D
        for i in range(mesh.n_elements):
            assert D[i, i] == pytest.approx(
                primitive_I0(0.0, mesh.element_sizes[i], 1.0), rel=1e-13
            )

    def test_causal_zero(self):
        mesh = uniform_mesh(1.0, 2)
        D = OperatorMatrices(mesh, ALPHA).D
        t1, t2 = mesh.t_begin_all, mesh.t_end_all
        for i in range(mesh.n_elements):
            for j in range(mesh.n_elements):
                if t2[i] <= t1[j]:
                    assert D[i, j] == 0.0

    def test_separated_pairs_vs_oracle(self):
        mats = assemble_all(uniform_mesh(1.0, 2), ALPHA)
        n = mats.mesh.n_elements
        entries = [
            ("D", i, j) for i in range(n) for j in range(n)
            if not singular_pair(mats.mesh, i, j)  # no brute-force value there
        ]
        assert len(entries) > 20
        assert entry_defect(mats, entries) <= 1e-10

    def test_diagonal_scaling(self):
        # same-element diagonal scales like h^{1/2}
        diags = [OperatorMatrices(uniform_mesh(1.0, L), ALPHA).D[0, 0] for L in (2, 3, 4)]
        for coarse, fine in zip(diags, diags[1:]):
            assert coarse / fine == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestEllipticity:
    def test_margins_positive_small_meshes(self):
        assert min_ellipticity_margin([uniform_mesh(1.0, lv) for lv in range(5)], ALPHA) > 0.0

    def test_level0_frozen_margins(self):
        mats = assemble_all(uniform_mesh(1.0, 0), ALPHA)
        assert ellipticity_margin(mats.V) == pytest.approx(0.28967538575112506, rel=1e-12)
        assert ellipticity_margin(mats.D) == pytest.approx(0.36454835517351064, rel=1e-12)

    def test_nonuniform_mesh(self):
        assert min_ellipticity_margin([nonuniform_mesh()], ALPHA) > 0.0


class TestBreakpointTable:
    MESHES = {
        **{f"uniform_L{lv}": (lambda lv=lv: uniform_mesh(1.0, lv)) for lv in range(11)},
        "unequal_sides": nonuniform_mesh,
        "adaptive_2^-19": lambda: graded_mesh(2.0 ** -19),
        "interval_-0.5_1.5": lambda: graded_mesh(2.0 ** -6, (-0.5, 1.5)),
        "random_breaks": random_mesh,
        # k/3 - j/3 and k/5 - j/5 are near-equal, not equal, in binary: a lag
        # merge by tolerance would move bits here
        "thirds_fifths": lambda: BoundaryMesh(
            1.0, (0.0, 1.0), np.arange(4) / 3.0, np.arange(6) / 5.0
        ),
        # h = 0.3/16 and h = 0.1 are no powers of two: i h - j h need not equal
        # (i - j) h (3 * 0.1 - 0.1 != 2 * 0.1), even where B_i == i h bitwise
        "uniform_T0.3_L4": lambda: uniform_mesh(0.3, 4),
        "arange_tenths": lambda: BoundaryMesh(
            1.0, (0.0, 1.0), np.arange(11) * 0.1, np.arange(11) * 0.1
        ),
        "uniform_interval_-0.5_1.5": lambda: uniform_mesh(1.0, 5, (-0.5, 1.5)),
        # a uniform left side alone is no Toeplitz mesh
        "uniform_left_only": lambda: BoundaryMesh(
            1.0, (0.0, 1.0), np.arange(9) / 8.0, np.delete(np.arange(9) / 8.0, 3)
        ),
        "mirror_graded": mirror_graded_mesh,
    }
    # the meshes whose side blocks are Toeplitz in the lags k h, bitwise
    TOEPLITZ = {f"uniform_L{lv}" for lv in range(11)} | {"uniform_interval_-0.5_1.5"}

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 2.0 * math.pi ** 2])
    @pytest.mark.parametrize("name", list(MESHES))
    def test_bitwise_equal_to_corner_lag_assembly(self, name, alpha):
        mesh = self.MESHES[name]()
        mats = assemble_all(mesh, alpha)
        for kind, ref in reference_matrices(mesh, alpha).items():
            got = getattr(mats, kind)
            assert np.array_equal(got, ref), kind
            assert np.array_equal(np.signbit(got), np.signbit(ref)), kind

    @pytest.mark.parametrize("name", list(MESHES))
    def test_toeplitz_exactly_on_the_power_of_two_grids(self, name):
        assert assemble_all(self.MESHES[name](), ALPHA).toeplitz == (name in self.TOEPLITZ)

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 2.0 * math.pi ** 2])
    @pytest.mark.parametrize("name", sorted(TOEPLITZ))
    def test_operator_columns_are_the_dense_halves_bitwise(self, name, alpha):
        # the operator's P and Q columns, second differences of one lag vector, against
        # the first columns of P + Q and P - Q of the table's dense matrix
        mats = assemble_all(self.MESHES[name](), alpha)
        n = mats.mesh.n_left
        for kind in "VD":
            got = mats.operator(kind).columns
            ref = np.stack([half[:, 0] for half in mirror_halves(getattr(mats, kind), n)])
            assert np.array_equal(got, ref), kind
            assert np.array_equal(np.signbit(got), np.signbit(ref)), kind

    @pytest.mark.parametrize("name", ["uniform_L6", "mirror_graded"])
    def test_mirror_meshes_give_mirror_blocks(self, name):
        mesh = self.MESHES[name]()
        assert mesh.mirror
        mats, n = assemble_all(mesh, ALPHA), mesh.n_left
        for A in (mats.V, mats.K, mats.D):
            np.testing.assert_array_equal(A[:n, :n], A[n:, n:])
            np.testing.assert_array_equal(A[:n, n:], A[n:, :n])

    def test_causal_terms_once_per_distinct_lag(self, monkeypatch):
        sizes = []

        def counting(d, t, alpha):
            sizes.append(np.size(t))
            return _causal_terms(d, t, alpha)

        monkeypatch.setattr(galerkin, "_causal_terms", counting)

        def lags_seen(mesh):  # by each _causal_terms call, one per distance |d|
            sizes.clear()
            mats = assemble_all(mesh, ALPHA)
            assert mats.V.shape == mats.D.shape  # reads both
            assert len(sizes) == 2
            return sizes

        for lv in range(9):  # the lags k 2^-L, k = 1..2^L
            assert lags_seen(uniform_mesh(1.0, lv)) == [2 ** lv] * 2
        graded = graded_mesh(2.0 ** -19)
        assert max(lags_seen(graded)) < causal_break_pairs(graded)
        unequal = random_mesh()
        assert lags_seen(unequal) == [causal_break_pairs(unequal)] * 2

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_mirror_operator_matches_dense(self, alpha):
        rng = np.random.default_rng(31)
        for lv in range(10):
            mats = assemble_all(uniform_mesh(1.0, lv), alpha)
            for kind in "VD":
                op, dense = mats.operator(kind), getattr(mats, kind)
                assert isinstance(op, galerkin.MirrorToeplitz) and op.shape == dense.shape
                x = rng.standard_normal(dense.shape[0])
                ref = dense @ x
                assert np.linalg.norm(op @ x - ref) <= 1e-14 * np.linalg.norm(ref), (lv, kind)

    def test_product_is_the_two_half_formula_bitwise(self):
        # the in-place product against (p x1 + q x2, q x1 + p x2) formed as two new halves
        rng = np.random.default_rng(29)
        for lv in range(12):
            mats, n = assemble_all(uniform_mesh(1.0, lv), ALPHA), 2 ** lv
            for kind in "VD":
                op = mats.operator(kind)
                for _ in range(3):
                    x = rng.standard_normal(2 * n)
                    (p, q), (x1, x2) = op._pq, np.fft.rfft(np.reshape(x, (2, n)), 2 * n)
                    y = np.fft.irfft(np.stack([p * x1 + q * x2, q * x1 + p * x2]), 2 * n)
                    assert np.array_equal(op @ x, y[:, :n].ravel()), (lv, kind)

    @pytest.mark.parametrize("name", ["mirror_graded", "unequal_sides"])
    def test_operator_is_the_dense_matrix_off_the_toeplitz_meshes(self, name):
        mats = assemble_all(self.MESHES[name](), ALPHA)
        for kind in "VD":
            assert mats.operator(kind) is getattr(mats, kind)

    def test_same_side_blocks_of_K_are_exact_zeros(self):
        mesh = graded_mesh(2.0 ** -8)
        K = OperatorMatrices(mesh, ALPHA).K
        nl = mesh.n_left
        for block in (K[:nl, :nl], K[nl:, nl:]):
            assert np.all(block == 0.0) and not np.any(np.signbit(block))


class TestMirrorToeplitzSolve:
    """On a Toeplitz mesh V is solved by the fast Volterra inversion, and the operator's
    diagonal is the dense one bitwise; the ``mirror_halves`` oracle gives P + Q and P - Q."""

    ALPHAS = [1.0, 2.5, 2.0 * math.pi ** 2]

    @staticmethod
    def refined(V, f):
        """LU solution of V x = f refined with long-double residuals: x to about eps."""
        lu = scipy.linalg.lu_factor(V)
        x = scipy.linalg.lu_solve(lu, f)
        VL = V.astype(np.longdouble)
        for _ in range(2):
            x = x + scipy.linalg.lu_solve(lu, (f - VL @ x).astype(float))
        return x

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_inversion_matches_the_solution(self, alpha):
        rng = np.random.default_rng(7)
        for lv in range(11):
            mesh = uniform_mesh(1.0, lv)
            mats = assemble_all(mesh, alpha)
            op, V = mats.operator("V"), mats.V
            f = rng.standard_normal(mesh.n_elements)
            w, lu = op.solve(f), direct_solve(V, f)
            assert np.linalg.norm(w - lu) <= 1e-14 * np.linalg.norm(lu), lv
            # the study's right-hand side: there LU itself is off the solution by up
            # to 2.3e-14 (L10 at alpha = 2 pi^2), the inversion by at most 6.1e-15
            f = assemble_rhs(mesh, Problem(alpha, example1_initial_datum))
            w, ref = op.solve(f), self.refined(V, f)
            assert np.linalg.norm(w - ref) <= 1e-14 * np.linalg.norm(ref), lv
            assert np.linalg.norm(V @ w - f) <= 1e-14 * np.linalg.norm(f), lv

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_diagonal_is_the_dense_one_bitwise(self, alpha):
        for lv in range(10):
            mats = assemble_all(uniform_mesh(1.0, lv), alpha)
            for kind in "VD":
                dense = getattr(mats, kind)
                assert np.array_equal(mats.operator(kind).diagonal(), np.diag(dense)), lv

    @pytest.mark.parametrize("make", [lambda: uniform_mesh(1.0, 3), nonuniform_mesh])
    def test_non_finite_solution_raises(self, make):
        mats = assemble_all(make(), ALPHA)
        f = np.ones(mats.mesh.n_elements)
        f[0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            mats.solve(f)

    @pytest.mark.parametrize("make", [lambda: uniform_mesh(1.0, 2),
                                      lambda: graded_mesh(2.0 ** -8)], ids=["uniform_L2", "graded"])
    def test_overflowing_operators_raise(self, make):
        # the kernel primitives overflow to NaN at this alpha, on the FFT path and on LU
        mats = assemble_all(make(), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError):
                mats.solve(np.ones(mats.mesh.n_elements))

    def test_halves_off_the_toeplitz_meshes_are_the_dense_ones(self):
        mats = assemble_all(mirror_graded_mesh(), ALPHA)
        assert not mats.toeplitz and mats.mesh.mirror
        n = mats.mesh.n_left
        P, Q = mats.D[:n, :n], mats.D[:n, n:]
        for got, ref in zip(mirror_halves(mats.D, n), (P + Q, P - Q)):
            assert np.array_equal(got, ref)


class TestAssemblyMemory:
    @staticmethod
    def build_peak_and_held(mesh):
        """Traced peak and memory held beyond V and D, in N x N units of doubles."""
        unit = mesh.n_elements ** 2 * 8
        tracemalloc.start()
        try:
            mats = assemble_all(mesh, ALPHA)
            held = mats.V.nbytes + mats.D.nbytes
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / unit, (current - held) / unit

    @staticmethod
    def one_break_fewer():
        """Uniform L9 with one right-side break fewer: no mirror, the same merged breaks."""
        left = uniform_mesh(1.0, 9).left_breaks
        mesh = BoundaryMesh(1.0, (0.0, 1.0), left, np.delete(left, 1))
        assert not mesh.mirror
        return mesh

    @pytest.mark.parametrize("make", [one_break_fewer, lambda: uniform_mesh(1.0, 9)],
                             ids=["one_break_fewer_L9", "uniform_L9"])
    def test_build_peak_and_retained_memory(self, make):
        # V and D are one N x N unit each; the build adds one breakpoint table
        # and one gathered block, a quarter unit each here, and keeps only the
        # causal mask and the lag map beyond V and D.
        peak, held = self.build_peak_and_held(make())
        assert peak <= 3.0
        assert held <= 0.25

    @pytest.mark.parametrize("level", [9, 11])
    def test_fft_pair_is_built_in_linear_memory(self, level):
        # the pair reads trial element 0 of the lag table alone; a build through the
        # full table needs at least N^2 / 4 doubles, 256 N at L9
        mesh = uniform_mesh(1.0, level)
        tracemalloc.start()
        try:
            mats = assemble_all(mesh, ALPHA)
            mats.operator("V")
            mats.operator("D")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * mesh.n_elements * 8
        assert not {"V", "D", "_full_lags"} & set(vars(mats))


class TestCausalMarch:
    """Off the Toeplitz meshes ``solve`` marches over column blocks of whole slabs:
    V is block lower triangular over the slabs, each block solves its diagonal
    block, and a block's columns are the same whether V is formed or not."""

    @staticmethod
    def recorded_solve(monkeypatch, mats, f):
        """mats.solve(f) and the shapes of the matrices ``direct_solve`` received."""
        shapes = []

        def recording(A, b):
            shapes.append(np.shape(A))
            return direct_solve(A, b)

        monkeypatch.setattr(galerkin, "direct_solve", recording)
        return mats.solve(f), shapes

    @pytest.mark.parametrize("make", [lambda: graded_mesh(2.0 ** -16), nonuniform_mesh,
                                      random_mesh, mirror_graded_mesh],
                             ids=["graded", "unequal_sides", "random", "mirror_graded"])
    def test_entries_above_the_slab_blocks_are_zero(self, make):
        mesh = make()
        slab = np.empty(mesh.n_elements, dtype=int)
        for k, idx in enumerate(mesh.slabs):
            slab[idx] = k
        V = assemble_all(mesh, ALPHA).V
        assert np.all(V[slab[:, None] < slab[None, :]] == 0.0)

    def test_formed_and_unformed_v_give_the_same_bits(self, monkeypatch):
        mesh = two_block_mesh()  # N = 186: three march blocks
        f = assemble_rhs(mesh, Problem(ALPHA, example2_initial_datum))
        unformed, formed = OperatorMatrices(mesh, ALPHA), OperatorMatrices(mesh, ALPHA)
        formed.V
        w, shapes = self.recorded_solve(monkeypatch, unformed, f)
        assert len(shapes) >= 3 and "V" not in vars(unformed)
        assert np.array_equal(w, formed.solve(f))

    def test_a_block_assembles_only_its_own_and_later_rows(self, monkeypatch):
        # the rows of earlier blocks are zero in a block's columns
        mesh = two_block_mesh()
        f = assemble_rhs(mesh, Problem(ALPHA, example2_initial_datum))
        shapes, corner_sums = [], OperatorMatrices._corner_sums

        def recording(mats, *args):
            out = corner_sums(mats, *args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(OperatorMatrices, "_corner_sums", recording)
        OperatorMatrices(mesh, ALPHA).solve(f)
        rows, cols = zip(*shapes)
        assert len(shapes) >= 3 and sum(cols) == mesh.n_elements
        assert list(rows) == [mesh.n_elements - sum(cols[:k]) for k in range(len(cols))]

    @pytest.mark.parametrize("make", [lambda: graded_mesh(2.0 ** -8), nonuniform_mesh,
                                      mirror_graded_mesh],
                             ids=["graded", "unequal_sides", "mirror_graded"])
    def test_one_block_is_the_lu_of_v(self, make):
        mesh = make()
        assert mesh.n_elements <= galerkin.MARCH_BLOCK
        f = assemble_rhs(mesh, Problem(ALPHA, example2_initial_datum))
        w = OperatorMatrices(mesh, ALPHA).solve(f)
        assert np.array_equal(w, direct_solve(assemble_all(mesh, ALPHA).V, f))

    @pytest.mark.parametrize("make", [lambda: graded_mesh(2.0 ** -16), two_block_mesh],
                             ids=["graded", "bisected"])
    def test_lu_sees_only_diagonal_blocks(self, monkeypatch, make):
        mesh = make()
        f = assemble_rhs(mesh, Problem(ALPHA, example2_initial_datum))
        _, shapes = self.recorded_solve(monkeypatch, OperatorMatrices(mesh, ALPHA), f)
        n = mesh.n_elements
        assert n > galerkin.MARCH_BLOCK and len(shapes) >= 2
        assert all(a == b < n for a, b in shapes)
        assert sum(a for a, _ in shapes) == n

    @pytest.mark.parametrize("make", [lambda: graded_mesh(2.0 ** -14),
                                      lambda: graded_mesh(2.0 ** -16),
                                      lambda: refine_uniform(graded_mesh(2.0 ** -12))],
                             ids=["graded_N67", "graded_N77", "bisected_N114"])
    def test_residual_and_forward_error(self, make):
        # V's condition grows with the grading: at h_min = 2^-19 LU and the march
        # are both 2.8e-13 off the reference, so these meshes stop at 2^-16; the
        # bound is for the example-2 datum (with example 1's, graded_N77 gives the
        # march 1.4e-13 and LU 9.2e-14)
        mesh = make()
        f = assemble_rhs(mesh, Problem(ALPHA, example2_initial_datum))
        mats = assemble_all(mesh, ALPHA)
        w = mats.solve(f)
        assert mesh.n_elements > galerkin.MARCH_BLOCK
        assert np.linalg.norm(mats.V @ w - f) <= 1e-15 * np.linalg.norm(f)
        ref = TestMirrorToeplitzSolve.refined(mats.V, f)
        assert np.linalg.norm(w - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_bisected_solve_forms_no_matrix(self):
        # the indicator's solve at adaptive_ex2's N = 243 step; assembling the fine
        # V for LU peaked at 3.63 N_f^2 doubles, the march at 1.775: the first block,
        # whose rows are all rows, sorting its lags; 1.700 with the lag matrix freed
        # before the sort
        mesh = refine_uniform(adaptive_ex2_meshes()[-2])
        assert mesh.n_elements == 486
        f = assemble_rhs(mesh, Problem(ALPHA, example2_initial_datum))
        tracemalloc.start()
        try:
            mats = assemble_all(mesh, ALPHA)
            mats.solve(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * mesh.n_elements ** 2 * 8
        assert not {"V", "K", "D"} & set(vars(mats))


class TestRhs:
    def test_zero_data_gives_zero(self):
        prob = Problem()  # u0 = None
        f = assemble_rhs(uniform_mesh(1.0, 2), prob)
        np.testing.assert_array_equal(f, 0.0)

    def test_initial_moment_vs_nested_oracle(self):
        # element [0, 1] at x = 0 with the smooth datum
        prob = Problem(u0=example1_initial_datum)
        mesh = uniform_mesh(1.0, 0)
        f = assemble_rhs(mesh, prob)
        oracle = rhs_moment_oracle(mesh, 0, prob, tol=1e-10)
        assert f[0] == pytest.approx(oracle, abs=1e-8)
        # antisymmetric datum: the two sides carry opposite moments
        assert f[1] == pytest.approx(-f[0], rel=1e-12)

    def test_initial_moment_nonuniform_vs_oracle(self):
        prob = Problem(u0=lambda y: y * (1.0 - y))
        mesh = nonuniform_mesh()
        f = assemble_rhs(mesh, prob)
        for idx in (0, 3, 5):
            assert f[idx] == pytest.approx(
                rhs_moment_oracle(mesh, idx, prob, tol=1e-10), abs=1e-8
            )

    MESHES = {
        **{f"uniform_L{lv}": (lambda lv=lv: uniform_mesh(1.0, lv)) for lv in range(9)},
        "unequal_sides": nonuniform_mesh,
        "adaptive_2^-19": lambda: graded_mesh(2.0 ** -19),
        "interval_-0.5_1.5": lambda: graded_mesh(2.0 ** -6, (-0.5, 1.5)),
        "two_row_blocks": two_block_mesh,
    }

    @pytest.mark.parametrize("u0", [example1_initial_datum, example2_initial_datum])
    @pytest.mark.parametrize("name", list(MESHES))
    def test_moments_within_bound_of_full_grading(self, name, u0):
        # each row block drops the graded panels finer than a tenth of its
        # smallest lag's layer; the full grading moves no moment by more than
        # 1e-13 of the largest one
        mesh = self.MESHES[name]()
        prob = Problem(u0=u0)
        for got, ref in (
            (initial_dirichlet_moments(mesh, prob), reference_moments(mesh, prob, primitive_I0)),
            (initial_neumann_moments(mesh, prob),
             mesh.normal_all * reference_moments(mesh, prob, primitive_I1)),
        ):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("make_mesh", [lambda: graded_mesh(2.0 ** -10), two_block_mesh,
                                           lambda: uniform_mesh(1.0, 8)])
    def test_one_primitive_row_per_side_breakpoint(self, monkeypatch, make_mesh):
        calls = []  # (t, node count) of each primitive call, per side table and order

        def counting(d, tau, alpha):
            tau = np.ravel(tau)
            if tau[0] == 0.0:  # t = 0 starts each side's first block
                calls.append([])
            calls[-1].append((tau, len(d)))
            return primitive_I0(d, tau[:, None], alpha)

        monkeypatch.setattr(galerkin, "primitive_I0", counting)
        mesh = make_mesh()
        initial_dirichlet_moments(mesh, Problem(u0=example2_initial_datum))
        sides = [mesh.left_breaks, mesh.right_breaks] * (len(calls) // 2)
        assert len(calls) == len(sides) >= 4  # two sides, two or more orders
        changes = 0
        for side, breaks in zip(calls, sides):
            blocks = [side[0][0]]
            for (prev, before), (tau, nodes) in zip(side, side[1:]):
                if nodes != before:  # a new panel set: the carry row again, alone
                    np.testing.assert_array_equal(tau, prev[-1:])
                    changes += 1
                else:
                    blocks.append(tau)
            np.testing.assert_array_equal(np.concatenate(blocks), breaks)
        # here each side of more than one block sees its smallest lag grow past a break
        assert (changes > 0) == (max(map(len, sides)) > galerkin.RHS_ROW_BLOCK)

    ORACLE_MESHES = {
        **{f"uniform_L{lv}": (lambda lv=lv: uniform_mesh(1.0, lv)) for lv in range(5)},
        "uniform_L11": lambda: uniform_mesh(1.0, 11),
        "adaptive_2^-19": lambda: graded_mesh(2.0 ** -19),
        "adaptive_ex2_final": adaptive_ex2_final_mesh,
    }

    @staticmethod
    def oracle_elements(mesh):
        """Every element up to 32; else per side the first block's first two and last
        windows, the first window after its carry and the middle and last windows."""
        if mesh.n_elements <= 32:
            return range(mesh.n_elements)
        block = galerkin.RHS_ROW_BLOCK
        picks = []
        for start, n in ((0, mesh.n_left), (mesh.n_left, mesh.n_right)):
            picks += [start + k for k in {0, 1, block - 2, block - 1, n // 2, n - 1} if k < n]
        return sorted(picks)

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 2.0 * math.pi ** 2])
    @pytest.mark.parametrize("u0", [example1_initial_datum, example2_initial_datum])
    @pytest.mark.parametrize("name", list(ORACLE_MESHES))
    def test_rhs_within_bound_of_nested_oracle(self, name, u0, alpha):
        # bound: 1e-12 of the largest moment of the mesh; worst seen 4.5e-13
        # (uniform L11, alpha = 2 pi^2), the same with the full grading
        mesh = self.ORACLE_MESHES[name]()
        prob = Problem(alpha=alpha, u0=u0)
        f = assemble_rhs(mesh, prob)
        for idx in self.oracle_elements(mesh):
            oracle = rhs_moment_oracle(mesh, idx, prob, tol=1e-12)
            assert abs(f[idx] - oracle) <= 1e-12 * np.abs(f).max(), idx

    def test_incompatible_data_warns(self):
        prob = Problem(u0=lambda y: np.cos(np.pi * y))  # u0(0) = 1 != g = 0
        with pytest.warns(UserWarning, match="incompatible"):
            assemble_rhs(uniform_mesh(1.0, 0), prob)

    @pytest.mark.parametrize("make", [lambda: uniform_mesh(1.0, 2),
                                      lambda: graded_mesh(2.0 ** -8)], ids=["uniform_L2", "graded"])
    def test_all_zero_moments_raise(self, make):
        # the initial potential underflows to exactly zero at this alpha; GMRES would
        # return w = 0 after 0 iterations as the solution
        prob = Problem(alpha=1e40, u0=example1_initial_datum)
        with pytest.raises(NumericalError, match=r"exactly zero at alpha=1e\+40"):
            assemble_rhs(make(), prob)


class TestInteriorEvaluation:
    def test_zero_everything(self):
        prob = Problem()
        mesh = uniform_mesh(1.0, 1)
        flux = DiscreteFlux(np.zeros(4), mesh)
        assert evaluate_interior(0.5, 0.5, flux, prob) == 0.0

    def test_causality_of_late_elements(self):
        # elements starting at or after the evaluation time contribute nothing
        prob = Problem()
        mesh = uniform_mesh(1.0, 1)
        early = DiscreteFlux(np.array([1.0, 0.0, -2.0, 0.0]), mesh)
        full = DiscreteFlux(np.array([1.0, 7.0, -2.0, 5.0]), mesh)
        t = 0.5  # second element on each side starts exactly at 0.5
        assert evaluate_interior(0.3, t, early, prob) == evaluate_interior(
            0.3, t, full, prob
        )

    def test_domain_validation(self):
        prob = Problem()
        flux = DiscreteFlux(np.zeros(2), uniform_mesh(1.0, 0))
        with pytest.raises(ValueError):
            evaluate_interior(1.5, 0.5, flux, prob)
        with pytest.raises(ValueError):
            evaluate_interior(0.5, 0.0, flux, prob)
        with pytest.raises(ValueError):
            evaluate_interior(0.5, -0.1, flux, prob)

    @pytest.mark.parametrize("level", [*range(12), "graded"])
    def test_single_layer_equals_the_elementwise_oracle(self, level):
        # I0 once per side breakpoint, at the positive lags only: every value, product
        # and sum is the element-wise formula's, also at a breakpoint t and at t = T
        mesh = graded_mesh(2.0 ** -19) if level == "graded" else uniform_mesh(1.0, level)
        rng = np.random.default_rng(7)
        flux = DiscreteFlux(rng.standard_normal(mesh.n_elements), mesh)
        ts = [*rng.uniform(1e-6, 1.0, 3), mesh.left_breaks[len(mesh.left_breaks) // 2],
              mesh.right_breaks[1], 1.0]
        for alpha in (1.0, 2.5):
            for x in (0.3, 0.9):
                for t in ts:
                    got = evaluate_interior(x, t, flux, Problem(alpha))
                    assert got == single_layer_oracle(x, t, flux, alpha), (alpha, x, t)

    def test_converges_to_reference(self):
        # end-to-end sign check: solve, then reproduce the interior solution
        from heatbem.reference import example1_series

        prob = Problem(u0=example1_initial_datum)
        mesh = uniform_mesh(1.0, 5)
        mats = assemble_all(mesh, prob.alpha)
        w = direct_solve(mats.V, assemble_rhs(mesh, prob))
        flux = DiscreteFlux(w, mesh)
        ref = example1_series()
        u_h = evaluate_interior(0.25, 0.1, flux, prob)
        assert u_h == pytest.approx(ref.interior(0.25, 0.1), abs=2e-3)


class TestSecondBie:
    def test_zero_flux_gives_neumann_moments(self):
        prob = Problem(u0=example1_initial_datum)
        mesh = uniform_mesh(1.0, 2)
        flux = DiscreteFlux(np.zeros(mesh.n_elements), mesh)
        r = second_bie_residual(prob, flux)
        np.testing.assert_allclose(r, -initial_neumann_moments(mesh, prob), atol=1e-14)

    def test_transpose_coupling_bitwise(self):
        # with u0 = 0 the residual is exactly (M/2 - K^T) w
        rng = np.random.default_rng(7)
        prob = Problem()
        mesh = uniform_mesh(1.0, 2)
        mats = assemble_all(mesh, prob.alpha)
        w = rng.standard_normal(mesh.n_elements)
        r = second_bie_residual(prob, DiscreteFlux(w, mesh), mats)
        np.testing.assert_array_equal(r, 0.5 * mats.mass * w - mats.K.T @ w)

    def test_residual_value_frozen(self):
        prob = Problem(u0=example1_initial_datum)
        mesh = uniform_mesh(1.0, 3)
        mats = assemble_all(mesh, prob.alpha)
        w = direct_solve(mats.V, assemble_rhs(mesh, prob))
        r = second_bie_residual(prob, DiscreteFlux(w, mesh), mats)
        assert mass_weighted_norm(mesh, r) == pytest.approx(0.17447934024417064, rel=1e-6)


class TestProblemValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            Problem(alpha=0.0)

    def test_operator_alpha_validation(self):
        mesh = uniform_mesh(1.0, 0)
        assert OperatorMatrices(mesh, 2.0).alpha == 2.0
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                OperatorMatrices(mesh, alpha)


def test_matrix_text_dump(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix_text(path, np.array([[1.0, 2.0], [3.0, np.pi]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2"
    assert lines[2].split()[1] == f"{np.pi:.17g}"
