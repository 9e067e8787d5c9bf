"""Study drivers, table emission, and the command-line interface."""

import argparse
import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import mirror_halves, second_bie_residual
from test_galerkin import (
    adaptive_ex2_final_mesh,
    adaptive_ex2_meshes,
    graded_mesh,
    nonuniform_mesh,
)

from heatbem import cli, galerkin, studies
from heatbem.analysis import StudyRecord, condition_number
from heatbem.cli import main
from heatbem.galerkin import (
    DiscreteFlux,
    OperatorMatrices,
    Problem,
    assemble_all,
    assemble_rhs,
    evaluate_interior,
)
from heatbem.krylov import Preconditioner, direct_solve, gmres
from heatbem.mesh import dumps, refine_adaptive, refine_uniform, uniform_mesh
from heatbem.studies import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    records_to_csv,
    records_to_markdown,
    run_adaptive_study,
    run_single_solve,
    run_uniform_study,
    two_level_indicator,
)

GOLDEN = Path(__file__).parent / "golden"
FAST_UNIFORM = ExperimentConfig(example=1, max_level=2, kappa_convention="both")
FAST_ADAPTIVE = ExperimentConfig(example=2, target_n=12, max_steps=30)


@pytest.fixture(scope="module")
def uniform_small():
    return run_uniform_study(FAST_UNIFORM)


@pytest.fixture(scope="module")
def adaptive_small():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_adaptive_study(FAST_ADAPTIVE)


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(tol=2.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(theta=0.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(example=3).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(max_level=12).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(preconds=("cholesky",)).validate()
        with pytest.raises(ConfigError, match="max_steps must be >= 0"):
            ExperimentConfig(max_steps=-1).validate(adaptive=True)
        for adaptive in (False, True):
            with pytest.raises(ConfigError, match="max_kappa_n must be >= 0"):
                ExperimentConfig(max_kappa_n=-5).validate(adaptive=adaptive)
        ExperimentConfig(max_kappa_n=0).validate()  # 0: no kappa at all

    def test_negative_target_n(self):
        with pytest.raises(ConfigError, match="target_n must be >= 0"):
            ExperimentConfig(target_n=-5).validate(adaptive=True)
        ExperimentConfig(target_n=0).validate(adaptive=True)  # 0: stop after step 0


class TestUniformStudy:
    def test_degenerate_single_row(self):
        records, meshes = run_uniform_study(
            ExperimentConfig(example=1, max_level=0)
        )
        assert len(records) == 1
        assert records[0].N == 2
        assert records[0].it_none == 1
        assert records[0].eoc is None

    def test_row_shape(self, uniform_small):
        records, meshes = uniform_small
        assert [r.N for r in records] == [2, 4, 8]
        assert records[1].eoc is not None
        for r in records:
            assert r.kappa_V_sv is not None and r.kappa_V_eig is not None
            assert r.it_none is not None
            assert r.it_diag is not None
            assert r.it_calderon is not None

    def test_kappa_cap_skips(self):
        records, _ = run_uniform_study(
            ExperimentConfig(example=1, max_level=2, max_kappa_n=4)
        )
        assert records[0].kappa_V_sv is not None
        assert records[2].kappa_V_sv is None

    @pytest.mark.parametrize(
        "run, changes",
        [(run_uniform_study, dict(max_level=8)), (run_adaptive_study, dict(target_n=60))],
        ids=["uniform", "adaptive"],
    )
    def test_iteration_counts_ignore_the_kappa_cap(self, run, changes):
        # GMRES reads the same operators whether or not the kappa columns are computed
        def counts(max_kappa_n):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                records, _ = run(ExperimentConfig(example=2, max_kappa_n=max_kappa_n, **changes))
            return [(r.N, r.it_none, r.it_diag, r.it_calderon) for r in records]

        assert counts(0) == counts(ExperimentConfig.max_kappa_n)

    def test_precond_subset(self):
        records, _ = run_uniform_study(
            ExperimentConfig(example=1, max_level=0, preconds=("calderon",))
        )
        assert records[0].it_none is None
        assert records[0].it_calderon == 1


class TestConstantDiagonal:
    """Where diag(V) is constant, diag^-1 V is V over a scalar: the diag kappa is V's,
    and it_diag is it_none."""

    CFG = ExperimentConfig(kappa_convention="both")

    def record(self, mesh):
        problem, series = build_problem(self.CFG)
        return studies._level_record(mesh, problem, series, self.CFG, 0, None)[0]

    @pytest.mark.parametrize("level", range(7))
    def test_uniform_diag_kappa_is_the_v_kappa(self, level, monkeypatch):
        calls = []
        kappa = studies.condition_number
        monkeypatch.setattr(studies, "condition_number", lambda *a: calls.append(a) or kappa(*a))
        rec = self.record(uniform_mesh(1.0, level))
        for conv in ("sv", "eig"):
            assert getattr(rec, f"kappa_diag_{conv}") == getattr(rec, f"kappa_V_{conv}")
        assert len(calls) == 4  # V and C^-1 V in both conventions; V / diag is never formed

    @staticmethod
    def computed(mesh, V):
        """kappa_diag_{sv, eig} of V / diag(V): the formed matrix for sv, its slabs for eig."""
        A = V / np.diag(V)[:, None]
        slabs = [A[np.ix_(idx, idx)] for idx in mesh.slabs]
        return condition_number(A, "sv"), condition_number(slabs, "eig")

    @pytest.mark.parametrize(
        "make", [nonuniform_mesh, lambda: graded_mesh(2.0 ** -6)], ids=["unequal_sides", "graded"]
    )
    def test_other_meshes_compute_the_diag_kappa(self, make):
        mesh = make()
        V = assemble_all(mesh, 1.0).V
        assert not np.all(np.diag(V) == V[0, 0])
        rec = self.record(mesh)
        assert (rec.kappa_diag_sv, rec.kappa_diag_eig) == self.computed(mesh, V)

    def test_one_ulp_off_the_constant_diagonal_is_computed(self, monkeypatch):
        # h = 3/8: a mirror mesh with a bitwise constant diagonal but no Toeplitz
        # operator, so the shadowed V below is the one the diagonal is read from
        mesh = uniform_mesh(3.0, 3)
        mats = assemble_all(mesh, 1.0)
        assert mesh.mirror and not mats.toeplitz and np.all(np.diag(mats.V) == mats.V[0, 0])
        V = mats.V.copy()
        V[5, 5] = np.nextafter(V[5, 5], np.inf)

        def assemble_perturbed(mesh, alpha):
            mats = assemble_all(mesh, alpha)
            mats.V = V  # shadows the cached property
            return mats

        monkeypatch.setattr(studies, "assemble_all", assemble_perturbed)
        rec = self.record(mesh)
        assert (rec.kappa_diag_sv, rec.kappa_diag_eig) == self.computed(mesh, V)

    @staticmethod
    def gmres_sizes(monkeypatch):
        """The system size of every GMRES solve the studies make, in call order."""
        sizes = []
        solve = studies.gmres
        monkeypatch.setattr(studies, "gmres", lambda A, b, **kw: sizes.append(len(b)) or
                            solve(A, b, **kw))
        return sizes

    def test_uniform_levels_solve_none_and_calderon_only(self, monkeypatch):
        # GMRES's residual estimates do not see a scalar right preconditioner
        sizes = self.gmres_sizes(monkeypatch)
        records, _ = run_uniform_study(ExperimentConfig(example=2, max_level=4))
        assert sizes == [2 ** (lv + 1) for lv in range(5) for _ in range(2)]
        assert all(r.it_diag == r.it_none is not None for r in records)

    @pytest.mark.parametrize("preconds", [("diag",), ("diag", "none")])
    def test_diag_alone_or_first_solves_once_per_level(self, monkeypatch, preconds):
        # the same rule in any order: diag's system is the unpreconditioned one
        sizes = self.gmres_sizes(monkeypatch)
        records, _ = run_uniform_study(ExperimentConfig(example=2, max_level=4,
                                                        preconds=preconds))
        assert sizes == [2 ** (lv + 1) for lv in range(5)]
        reference, _ = run_uniform_study(ExperimentConfig(example=2, max_level=4))
        assert [r.it_diag for r in records] == [r.it_none for r in reference]
        if "none" in preconds:
            assert all(r.it_diag == r.it_none for r in records)

    def test_adaptive_steps_after_the_first_solve_all_three(self, monkeypatch):
        sizes = self.gmres_sizes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records, _ = run_adaptive_study(ExperimentConfig(example=2, target_n=40))
        assert len(records) > 2
        assert sizes == [2, 2] + [r.N for r in records[1:] for _ in range(3)]


class TestAdaptiveStudy:
    def test_n_strictly_increasing(self, adaptive_small):
        records, meshes = adaptive_small
        ns = [r.N for r in records]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert ns[0] == 2
        assert ns[-1] > 12

    def test_meshes_match_records(self, adaptive_small):
        records, meshes = adaptive_small
        for rec, mesh in zip(records, meshes):
            assert rec.N == mesh.n_elements


class TestIndicator:
    def test_matches_definition_on_unequal_sides(self):
        problem, _ = build_problem(ExperimentConfig(example=2))
        mesh = refine_adaptive(uniform_mesh(1.0, 1), [1.0, 0.0, 0.0, 0.0])
        assert (mesh.n_left, mesh.n_right) == (3, 2)

        def solve(m):
            return direct_solve(assemble_all(m, problem.alpha).V, assemble_rhs(m, problem))

        w = solve(mesh)
        eta = two_level_indicator(problem, DiscreteFlux(w, mesh))

        # eta_l^2 = (h_l / 2) * sum over the children of (w_fine - w_l)^2, with
        # the children found by geometry rather than by index
        fine = refine_uniform(mesh)
        w_fine = solve(fine)
        expected = np.empty(mesh.n_elements)
        for i in range(mesh.n_elements):
            children = [
                k for k in range(fine.n_elements)
                if fine.normal_all[k] == mesh.normal_all[i]
                and mesh.t_begin_all[i] <= fine.t_begin_all[k] < mesh.t_end_all[i]
            ]
            assert len(children) == 2
            sq = sum((w_fine[k] - w[i]) ** 2 for k in children)
            expected[i] = np.sqrt(0.5 * mesh.element_sizes[i] * sq)
        assert np.all(expected > 0.0)
        np.testing.assert_allclose(eta, expected, rtol=1e-13, atol=0.0)


class TestLazyAssembly:
    @staticmethod
    def record_assembly(monkeypatch):
        """(matrices built by ``studies.assemble_all``, (matrices, name) per dense block
        formed), both filled as the study runs."""
        built, formed = [], []
        dense = OperatorMatrices._dense

        def recording(mesh, alpha):
            built.append(galerkin.assemble_all(mesh, alpha))
            return built[-1]

        def recording_dense(mats, name):
            formed.append((mats, name))
            return dense(mats, name)

        monkeypatch.setattr(studies, "assemble_all", recording)
        monkeypatch.setattr(OperatorMatrices, "_dense", recording_dense)
        return built, formed

    def test_study_paths_build_only_the_blocks_they_read(self, monkeypatch):
        built, formed = self.record_assembly(monkeypatch)
        cfg = ExperimentConfig(example=2)
        problem, series = build_problem(cfg)
        mesh = refine_adaptive(uniform_mesh(1.0, 2), [1.0] + [0.0] * 7)
        rec, flux = studies._level_record(mesh, problem, series, cfg, 0, None)
        two_level_indicator(problem, flux)

        level, fine = built
        assert fine.mesh.n_elements == 2 * mesh.n_elements
        # V and D once each, K never; D is released after its last reader
        assert sorted(name for mats, name in formed if mats is level) == ["D", "V"]
        assert not any(mats is fine for mats, _ in formed)  # the march forms no fine block
        assert "V" in vars(level) and not {"K", "D", "_full_lags"} & set(vars(level))

        # K read on demand is the eagerly assembled one, and feeds the residual
        np.testing.assert_array_equal(level.K, OperatorMatrices(mesh, problem.alpha).K)
        np.testing.assert_array_equal(
            second_bie_residual(problem, flux, level),
            second_bie_residual(problem, flux),
        )

    def level_peak(self, monkeypatch, cfg):
        """_level_record of adaptive_ex2's last level (N = 340) under ``cfg``: its
        tracemalloc peak in N x N units of doubles, its matrices afterwards and the
        names of the dense blocks it formed, in order."""
        mesh = adaptive_ex2_final_mesh()
        built, formed = self.record_assembly(monkeypatch)
        problem, series = build_problem(cfg)
        tracemalloc.start()
        try:
            studies._level_record(mesh, problem, series, cfg, 0, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_elements == 340
        (level,) = built
        return peak / (mesh.n_elements ** 2 * 8), level, [name for _, name in formed]

    def test_last_adaptive_level_releases_d_and_the_lag_table(self, monkeypatch):
        # the level forms V and D densely.  With D and the lag table held to the end it
        # peaked at 5.99 N^2 doubles, in the unpreconditioned GMRES; released after
        # their last readers, the peak is D's assembly: 4.91 N^2, and 4.44 with the lag
        # matrix freed before its sort and the left side's rows of the table read as a view
        peak, level, _ = self.level_peak(monkeypatch, ExperimentConfig(example=2))
        assert peak < 4.6
        assert "V" in vars(level) and not {"D", "_full_lags"} & set(vars(level))

    def test_unpreconditioned_level_drops_the_lag_table(self, monkeypatch):
        # no stage reads D: releasing it drops the lag table (1.2 N^2) before the GMRES,
        # which with the table held peaked at 4.99 N^2 doubles
        cfg = ExperimentConfig(example=2, preconds=("none",), max_kappa_n=0)
        peak, level, formed = self.level_peak(monkeypatch, cfg)
        assert peak < 4.0
        assert formed == ["V"]
        assert "V" in vars(level) and not {"D", "_full_lags"} & set(vars(level))


class TestToeplitzLevels:
    """Uniform levels: the flux by the fast Volterra inversion, the kappa columns from
    the halves' first columns (Hankel flips for sv, diagonals for eig), and no N x N
    V, K or D at any level."""

    ALPHAS = [1.0, 2.5, 2.0 * np.pi ** 2]

    @staticmethod
    def traced_record(level, monkeypatch, **changes):
        """_level_record of uniform level ``level``: its tracemalloc peak in N x N
        units of doubles, and the matrices it assembled."""
        built = []

        def recording(mesh, alpha):
            built.append(galerkin.assemble_all(mesh, alpha))
            return built[-1]

        monkeypatch.setattr(studies, "assemble_all", recording)
        cfg = ExperimentConfig(**changes)
        problem, series = build_problem(cfg)
        studies._level_record(uniform_mesh(1.0, 1), problem, series, cfg, 1, None)  # warm caches
        mesh = uniform_mesh(1.0, level)
        tracemalloc.start()
        try:
            studies._level_record(mesh, problem, series, cfg, level, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (mesh.n_elements ** 2 * 8), built[-1]

    def test_uniform_flux_takes_no_lu(self, monkeypatch):
        def no_lu(A, b):
            raise AssertionError("LU on a Toeplitz mesh")

        monkeypatch.setattr(galerkin, "direct_solve", no_lu)
        cfg = ExperimentConfig(example=2, max_level=4, max_steps=0)
        run_uniform_study(cfg)
        run_adaptive_study(cfg)  # step 0 is uniform level 0
        problem, series = build_problem(cfg)
        _, flux = studies._level_record(uniform_mesh(1.0, 0), problem, series, cfg, 0, None)
        two_level_indicator(problem, flux)  # its fine mesh is uniform level 1
        with pytest.raises(AssertionError, match="LU"):  # the inversion needs a Toeplitz mesh
            studies._level_record(nonuniform_mesh(), problem, series, cfg, 0, None)

    def test_one_fft_operator_per_name_and_level(self, monkeypatch):
        built = []

        class Counting(galerkin.MirrorToeplitz):
            def __init__(self, p, q):
                built.append(len(p))
                super().__init__(p, q)

        monkeypatch.setattr(galerkin, "MirrorToeplitz", Counting)
        run_uniform_study(ExperimentConfig(max_level=9, kappa_convention="both"))
        assert sorted(built) == [2 ** lv for lv in range(10) for _ in "VD"]  # one per name and level
        mats = assemble_all(uniform_mesh(1.0, 4), 1.0)
        for kind in "VD":
            assert mats.operator(kind) is mats.operator(kind)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_hankel_flips_are_the_flipped_dense_halves(self, alpha):
        for lv in range(10):
            mats, n = assemble_all(uniform_mesh(1.0, lv), alpha), 2 ** lv
            flips = studies._spectral_pieces(mats, "V", "sv")
            for H, T in zip(flips, mirror_halves(mats.V, n)):
                assert np.array_equal(H, T[::-1]) and np.array_equal(H, H.T), lv
            # the halves of C^-1 V, flipped from their first columns by convolution, are
            # the flipped formed products to rounding
            m = mats.mass[:n]
            flips = studies._spectral_pieces(mats, "calderon", "sv")
            for H, E, P in zip(flips, mirror_halves(mats.D, n), mirror_halves(mats.V, n)):
                formed = (E / np.outer(m, m) @ P)[::-1]
                assert np.array_equal(H, H.T), lv
                assert np.abs(H - formed).max() <= 1e-15 * np.abs(H).max(), lv

    @pytest.mark.parametrize("alpha", [0.01, *ALPHAS])
    def test_sv_kappa_is_the_dense_svd(self, alpha):
        # the Hankel eigensolves against the svd of the full N x N matrices
        cfg = ExperimentConfig(alpha=alpha)
        for lv in range(10):
            mats = assemble_all(uniform_mesh(1.0, lv), alpha)
            rec = StudyRecord(L=lv, N=mats.mesh.n_elements, l2_error=0.0)
            for name in ("V", "diag", "calderon"):
                studies._kappa_columns(rec, mats, cfg, name, scalar_diag=True)
            assert not {"V", "D"} & set(vars(mats))
            m = mats.mass
            for got, A in ((rec.kappa_V_sv, mats.V),
                           (rec.kappa_calderon_sv, mats.D / np.outer(m, m) @ mats.V)):
                s = np.linalg.svd(A, compute_uv=False)
                assert got == pytest.approx(s.max() / s.min(), rel=1e-14, abs=0.0), lv

    @staticmethod
    def mp_lower_toeplitz(c):
        """The lower-triangular Toeplitz matrix of first column c, exact in mpmath."""
        n = len(c)
        return mpmath.matrix([[c[i - j] if i >= j else 0 for j in range(n)] for i in range(n)])

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 2.0 * np.pi ** 2])
    def test_sv_kappa_against_mpmath(self, alpha):
        # 40-digit singular values of the halves, formed in mpmath from the same first columns
        cfg = ExperimentConfig(alpha=alpha)
        for lv in range(6):
            mats = assemble_all(uniform_mesh(1.0, lv), alpha)
            rec = StudyRecord(L=lv, N=mats.mesh.n_elements, l2_error=0.0)
            for name in ("V", "diag", "calderon"):
                studies._kappa_columns(rec, mats, cfg, name, scalar_diag=True)
            with mpmath.workdps(40):
                v, d = ([self.mp_lower_toeplitz(c) for c in mats.operator(name).columns]
                        for name in "VD")
                h2 = mpmath.mpf(mats.mass[0]) ** 2
                for got, halves in ((rec.kappa_V_sv, v),
                                    (rec.kappa_calderon_sv, [E * P / h2 for E, P in zip(d, v)])):
                    s = [x for T in halves for x in mpmath.svd_r(T, compute_uv=False)]
                    assert got == pytest.approx(float(max(s) / min(s)), rel=1e-14, abs=0.0), lv

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5, 2.0 * np.pi ** 2, 1e6])
    def test_eig_kappa_against_mpmath(self, alpha):
        # the halves P + Q, P - Q are lower triangular: their eigenvalues are p0 + q0 and
        # p0 - q0 (V's lag-0 entries), and C^-1 V's the products of D's and V's / h^2
        cfg = ExperimentConfig(alpha=alpha, kappa_convention="eig")
        for lv in range(10):
            mats, n = assemble_all(uniform_mesh(1.0, lv), alpha), 2 ** lv
            rec = StudyRecord(L=lv, N=mats.mesh.n_elements, l2_error=0.0)
            for name in ("V", "diag", "calderon"):
                studies._kappa_columns(rec, mats, cfg, name, scalar_diag=True)
            assert not {"V", "D"} & set(vars(mats))
            with mpmath.workdps(40):
                v, d = ([mpmath.mpf(A[0, 0]) + s * mpmath.mpf(A[0, n]) for s in (1, -1)]
                        for A in (mats.V, mats.D))
                h2 = mpmath.mpf(mats.mass[0]) ** 2
                for got, lam in ((rec.kappa_V_eig, v),
                                 (rec.kappa_calderon_eig, [e * p / h2 for e, p in zip(d, v)])):
                    mod = [abs(x) for x in lam]
                    assert got == pytest.approx(float(max(mod) / min(mod)), rel=1e-15, abs=0.0), lv

    def test_peak_at_the_kappa_cap(self, monkeypatch):
        # eig reads the diagonals of the halves and sv their Hankel views, both from the
        # halves' columns: no V, K or D is formed at the cap, and the peak (0.206 units
        # either way) is GMRES's Krylov basis
        for kappa, bound in (("both", 0.25), ("eig", 0.25)):
            peak, mats = self.traced_record(9, monkeypatch, kappa_convention=kappa)
            assert peak <= bound, kappa
            assert not {"V", "K", "D"} & set(vars(mats)), kappa

    def test_sv_kappa_forms_no_v_or_d(self, monkeypatch):
        # the sv columns read the halves' first columns, and GMRES the FFT operators
        peak, mats = self.traced_record(9, monkeypatch, kappa_convention="sv")
        assert peak <= 0.25
        assert not {"V", "K", "D"} & set(vars(mats))

    @pytest.mark.parametrize("level", [10, 11])
    def test_no_matrix_above_the_kappa_cap(self, level, monkeypatch):
        peak, mats = self.traced_record(level, monkeypatch, preconds=("calderon",))
        assert peak <= 0.05
        assert not {"V", "K", "D"} & set(vars(mats))
        # unpreconditioned GMRES keeps its Krylov basis, 84 to 98 vectors of N doubles
        # in storage that doubles (129 + 65 rows while it grows): the level adds at
        # most 0.05 units to that
        peak, mats = self.traced_record(level, monkeypatch)
        assert not {"V", "K", "D"} & set(vars(mats))
        op, f = mats.operator("V"), assemble_rhs(mats.mesh, build_problem(ExperimentConfig())[0])
        tracemalloc.start()
        try:
            gmres(op, f)
            _, krylov = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - krylov / (mats.mesh.n_elements ** 2 * 8) <= 0.05


class TestEmission:
    def test_csv_deterministic(self, uniform_small):
        records, _ = uniform_small
        assert records_to_csv(records) == records_to_csv(records)
        again, _ = run_uniform_study(FAST_UNIFORM)
        assert records_to_csv(records) == records_to_csv(again)

    def test_csv_shape(self, uniform_small):
        records, _ = uniform_small
        lines = records_to_csv(records).splitlines()
        assert len(lines) == len(records) + 1
        header = lines[0].split(",")
        assert header[0] == "L" and "kappa_calderon_sv" in header
        assert lines[1].split(",")[3] == ""  # eoc empty on the first row

    def test_markdown_styles(self, uniform_small, adaptive_small):
        uni = records_to_markdown(uniform_small[0], style="uniform")
        ada = records_to_markdown(adaptive_small[0], style="adaptive")
        assert "kappa(C_V^-1 V_h)" in uni
        assert "kappa(diag^-1 V_h)" in ada
        assert uni.count("|") > 10
        with pytest.raises(ValueError):
            records_to_markdown(uniform_small[0], style="wide")


    @staticmethod
    def reference_files(mesh, coefficients):
        """The mesh and flux files as whole texts, formatted element by element."""
        tags = np.where(mesh.x_all == mesh.interval[0], "L", "R").tolist()
        lines = [f"{tag} {t0:.17g} {t1:.17g}" for tag, t0, t1
                 in zip(tags, mesh.t_begin_all.tolist(), mesh.t_end_all.tolist())]
        flux = [f"{line} {w:.17g}" for line, w in zip(lines, coefficients.tolist())]
        return "\n".join(lines) + "\n", "\n".join(flux) + "\n"

    def test_streamed_mesh_and_flux_files(self, tmp_path):
        rng = np.random.default_rng(3)
        for mesh in [uniform_mesh(1.0, level) for level in range(12)] + adaptive_ex2_meshes():
            w = rng.standard_normal(mesh.n_elements) * 10.0 ** rng.integers(-300, 300, mesh.n_elements)
            w[:2] = 0.0, -0.0
            mesh_text, flux_text = self.reference_files(mesh, w)
            assert dumps(mesh) == mesh_text
            cli._write_mesh(tmp_path, "A", mesh, DiscreteFlux(w, mesh))
            cli._write_mesh(tmp_path, "B", mesh)
            assert (tmp_path / "mesh_A.txt").read_bytes() == mesh_text.encode()
            assert (tmp_path / "flux_A.txt").read_bytes() == flux_text.encode()
            assert (tmp_path / "mesh_B.txt").read_bytes() == mesh_text.encode()
            assert not (tmp_path / "flux_B.txt").exists()

    def test_l11_files_are_written_line_by_line(self, tmp_path):
        # the whole text, its list of lines and the joined flux text peaked at 1.0 MB
        mesh = uniform_mesh(1.0, 11)
        flux = DiscreteFlux(np.random.default_rng(1).standard_normal(mesh.n_elements), mesh)
        tracemalloc.start()
        try:
            cli._write_mesh(tmp_path, "L11", mesh, flux)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestSingleSolve:
    def test_samples_and_flux(self):
        result = run_single_solve(
            ExperimentConfig(example=1, max_level=3), [(0.25, 0.1)]
        )
        assert result.mesh.n_elements == 16
        assert len(result.interior_samples) == 1
        x, t, u_h, u_ref = result.interior_samples[0]
        assert abs(u_h - u_ref) < 0.05

    def test_zero_data_zero_flux(self):
        problem = Problem(u0=None)
        mesh = uniform_mesh(1.0, 2)
        mats = assemble_all(mesh, problem.alpha)
        f = assemble_rhs(mesh, problem)
        np.testing.assert_array_equal(f, 0.0)
        report = gmres(mats.V, f, preconditioner=Preconditioner.calderon(mats.mass, mats.D))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(report.solution, 0.0)
        assert evaluate_interior(0.5, 0.5, DiscreteFlux(report.solution, mesh), problem) == 0.0

    @pytest.mark.parametrize("example", [1, 2])
    def test_operator_path_matches_the_dense_path(self, example):
        for level in range(10):
            cfg = ExperimentConfig(example=example, max_level=level)
            result = run_single_solve(cfg)
            assert not {"V", "D"} & set(vars(result.matrices)), level  # never formed
            mats = result.matrices
            dense = gmres(mats.V, result.rhs, tol=cfg.tol,
                          preconditioner=Preconditioner.calderon(mats.mass, mats.D))
            assert result.iterations == dense.iterations, level
            w = result.flux.coefficients
            assert np.linalg.norm(w - dense.solution) <= 1e-12 * np.linalg.norm(dense.solution)

    def test_solve_peak_and_retained_memory(self):
        # in N x N units of doubles: the dense V and D alone would be two units
        run_single_solve(ExperimentConfig(example=1, max_level=1))  # fill the small caches
        tracemalloc.start()
        try:
            result = run_single_solve(ExperimentConfig(example=1, max_level=10))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = result.mesh.n_elements ** 2 * 8
        assert peak / unit <= 1.0
        assert current / unit <= 0.05

    def test_solve_peak_at_level_11(self):
        # in N x N units of doubles: no N x N array and no N x nodes window
        # array of the initial-datum moments (a third of a unit at N = 4096)
        run_single_solve(ExperimentConfig(example=1, max_level=1))  # fill the small caches
        tracemalloc.start()
        try:
            result = run_single_solve(ExperimentConfig(example=1, max_level=11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (result.mesh.n_elements ** 2 * 8) <= 0.05

    def test_point_outside_rejected(self):
        with pytest.raises(ConfigError):
            run_single_solve(ExperimentConfig(max_level=1), [(1.5, 0.5)])
        with pytest.raises(ConfigError):
            run_single_solve(ExperimentConfig(max_level=1), [(0.5, 0.0)])


# config key -> (ExperimentConfig field, value, other value); the value differs
# from the key's default, the other value from the value
KEY_VALUES = {
    "example": ("example", "2", "1"),
    "alpha": ("alpha", "2.5", "3.0"),
    "levels": ("max_level", "3", "5"),
    "level": ("max_level", "2", "6"),
    "tol": ("tol", "1e-06", "0.0001"),
    "precond": ("preconds", "diag", "calderon"),
    "theta": ("theta", "0.25", "0.75"),
    "kappa": ("kappa_convention", "both", "eig"),
    "max_kappa_n": ("max_kappa_n", "64", "128"),
    "target_n": ("target_n", "40", "60"),
    "max_steps": ("max_steps", "5", "7"),
}
# each command's options (argparse dests), its config with no option set, its
# driver, and the changes that make the driver's run small
COMMANDS = {
    "study-uniform": (
        {"example", "alpha", "levels", "tol", "precond", "kappa", "max_kappa_n",
         "out", "dump_matrices", "config"},
        ExperimentConfig(), run_uniform_study, dict(max_level=1),
    ),
    "study-adaptive": (
        {"example", "alpha", "tol", "precond", "theta", "kappa", "max_kappa_n",
         "target_n", "max_steps", "out", "dump_matrices", "config"},
        ExperimentConfig(), run_adaptive_study, dict(target_n=4),
    ),
    "solve": (
        {"example", "alpha", "level", "tol", "out", "dump_matrices", "config", "points"},
        ExperimentConfig(max_level=4), lambda cfg: run_single_solve(cfg, [(0.5, 0.5)]),
        dict(max_level=1),
    ),
}
COMMAND_KEYS = [(command, key) for command, keys in cli._COMMAND_KEYS.items() for key in keys]
FOREIGN_KEYS = [
    (command, key) for command, keys in cli._COMMAND_KEYS.items()
    for key in cli._OPTIONS if key not in keys
]


def _config_of(tmp_path, argv, file_text=None):
    if file_text is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(file_text)
        argv = [*argv, "--config", str(cfgfile)]
    return cli._build_config(cli._parser().parse_args(argv))


def _parsed(field, text):
    if field == "preconds":
        return (text,)
    default = getattr(ExperimentConfig(), field)
    return type(default)(text)


def _fields_read(driver, cfg, monkeypatch):
    """The ExperimentConfig fields that driver(cfg) reads, validation aside.

    driver must not copy cfg (dataclasses.replace, asdict): a copy reads every
    field.
    """
    reads = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(ExperimentConfig, "validate", lambda self, adaptive=False: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        driver(Recording(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}))
    return reads & {f.name for f in dataclasses.fields(ExperimentConfig)}


class TestPrecedence:
    """Explicit flag > config file > command default, key by key."""

    @pytest.mark.parametrize("source", ["flag", "file", "both", "neither"])
    @pytest.mark.parametrize("command, key", COMMAND_KEYS)
    def test_flag_over_file_over_default(self, tmp_path, command, key, source):
        field, value, other = KEY_VALUES[key]
        argv = [command]
        if source in ("flag", "both"):
            argv += ["--" + key.replace("_", "-"), value]
        file_text = None
        if source != "neither":
            file_text = f"{key}={value if source == 'file' else other}\n"
        cfg = _config_of(tmp_path, argv, file_text)
        expected = COMMANDS[command][1]
        if source != "neither":
            expected = dataclasses.replace(expected, **{field: _parsed(field, value)})
        assert cfg == expected

    @pytest.mark.parametrize(
        "argv, file_text, expected",
        [
            (["study-uniform", "--precond", "all"], "precond=none\n", ExperimentConfig()),
            # an explicit flag at the default value still wins over the file
            (["solve", "--level", "4"], "level=6\n", ExperimentConfig(max_level=4)),
        ],
    )
    def test_overrides(self, tmp_path, argv, file_text, expected):
        assert _config_of(tmp_path, argv, file_text) == expected


class TestCommandOptions:
    """Each command takes exactly the options its driver reads, one name each."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_subparser_options_are_the_table(self, command):
        sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        assert dests == COMMANDS[command][0]
        common = {"out", "dump_matrices", "config", "points"}
        assert dests - common == set(cli._COMMAND_KEYS[command])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_key_fields_are_the_fields_the_driver_reads(self, command, monkeypatch):
        _, base, driver, small = COMMANDS[command]
        read = _fields_read(driver, dataclasses.replace(base, **small), monkeypatch)
        assert {cli._OPTIONS[key][0] for key in cli._COMMAND_KEYS[command]} == read

    @pytest.mark.parametrize("command, key", FOREIGN_KEYS)
    def test_foreign_key_exits_2(self, tmp_path, capsys, command, key):
        value, out = KEY_VALUES[key][1], str(tmp_path / "out")
        with pytest.raises(SystemExit) as err:
            main([command, "--" + key.replace("_", "-"), value, "--out", out])
        assert err.value.code == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key}={value}\n")
        capsys.readouterr()
        assert main([command, "--config", str(cfgfile), "--out", out]) == 2
        assert f"unknown config key for {command}: {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGoldenTables:
    """The study tables, byte for byte, against fixtures in tests/golden.

    A change that moves a digit regenerates the fixtures and says which digits
    moved and why.
    """

    @pytest.mark.parametrize(
        "table, argv",
        [
            ("table1", ["study-uniform", "--levels", "3", "--kappa", "both"]),
            # the benchmark's uniform command: perfbench/gate.py holds it_none at L0-9
            # and it_calderon at L4-9 to the paper's, and a 1e-16 relative move of the
            # right-hand side took L7's it_none from 50 to 51
            ("uniform_kappa/table1",
             ["study-uniform", "--example", "1", "--levels", "9", "--kappa", "both"]),
            # it_none (and it_diag, copied from it) at L7-9 moves by one under a change
            # of rounding, so these cells pin the bits of the FFT product and of GMRES
            ("uniform_ex2_L9/table1", ["study-uniform", "--example", "2", "--levels", "9"]),
            ("table2", ["study-adaptive", "--example", "2", "--target-n", "40"]),
            # the benchmark's adaptive command: levels up to N = 340, several march
            # blocks and dense kappa columns
            ("adaptive_ex2/table2", ["study-adaptive", "--example", "2", "--target-n", "278"]),
            # mirror meshes, 9 of the 11 not Toeplitz: the svd and the 2 x 2 slab
            # stacks of the formed matrices
            ("kappa/adaptive_ex1_both/table2",
             ["study-adaptive", "--example", "1", "--target-n", "40", "--kappa", "both"]),
            # graded meshes whose slabs take 15 sizes, from 2 to 38
            ("kappa/adaptive_ex2_eig/table2",
             ["study-adaptive", "--example", "2", "--target-n", "40", "--kappa", "eig"]),
        ],
    )
    def test_tables_byte_identical(self, tmp_path, capsys, table, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([*argv, "--out", str(tmp_path)]) == 0
        for suffix in (".csv", ".md"):
            name = table + suffix
            got = (tmp_path / Path(name).name).read_bytes()
            assert got == (GOLDEN / name).read_bytes(), name

    def test_solve_flux_byte_identical(self, tmp_path, capsys):
        # N = 128, 13 Calderon GMRES iterations: the 17 digits of each coefficient pin
        # the bits of GMRES's solution
        assert main(["solve", "--level", "6", "--example", "2", "--out", str(tmp_path)]) == 0
        got = (tmp_path / "flux_L6.txt").read_bytes()
        assert got == (GOLDEN / "solve_ex2_L6" / "flux_L6.txt").read_bytes()

    def test_stdout_table_in_the_run_kappa_convention(self, tmp_path, capsys):
        argv = ["study-uniform", "--levels", "2", "--kappa", "eig", "--out", str(tmp_path)]
        assert main(argv) == 0
        fixture = (GOLDEN / "uniform_L2_eig_stdout.md").read_bytes()
        assert capsys.readouterr().out.encode() == fixture


class TestCli:
    def test_study_uniform_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["study-uniform", "--levels", "1", "--out", str(out), "--max-kappa-n", "8"]
        )
        assert code == 0
        for name in ("table1.csv", "table1.md", "meta.txt", "mesh_L0.txt", "mesh_L1.txt"):
            assert (out / name).is_file()
        header = (out / "table1.csv").read_text().splitlines()[0]
        assert header.startswith("L,N,l2_error,eoc")

    def test_csv_bitwise_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["study-uniform", "--levels", "1", "--out", str(out)]) == 0
        assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()
        assert (out1 / "meta.txt").read_bytes() == (out2 / "meta.txt").read_bytes()

    def test_dump_matrices(self, tmp_path):
        out = tmp_path / "dump"
        code = main(
            ["study-uniform", "--levels", "0", "--out", str(out), "--dump-matrices"]
        )
        assert code == 0
        assert (out / "V_L0.txt").is_file()
        assert (out / "D_L0.txt").is_file()
        assert (out / "rhs_L0.txt").read_text().splitlines()[0] == "1 2"

    def test_solve_dump_reuses_the_solved_system(self, tmp_path, monkeypatch):
        calls = {"assemble_all": 0, "assemble_rhs": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(galerkin, name)):
                calls[_name] += 1
                return _original(*args)

            for mod in (studies, cli):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting)
        out = tmp_path / "solve"
        assert main(["solve", "--level", "3", "--dump-matrices", "--out", str(out)]) == 0
        assert calls == {"assemble_all": 1, "assemble_rhs": 1}
        problem, _ = build_problem(ExperimentConfig())
        mesh = uniform_mesh(1.0, 3)
        mats = OperatorMatrices(mesh, problem.alpha)
        for tag, ref in (("V", mats.V), ("D", mats.D), ("rhs", assemble_rhs(mesh, problem))):
            text = (out / f"{tag}_L3.txt").read_text().splitlines()
            np.testing.assert_array_equal(
                np.array([row.split() for row in text[1:]], dtype=float).ravel(), ref.ravel()
            )

    def test_study_adaptive_writes_outputs(self, tmp_path):
        out = tmp_path / "ada"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                ["study-adaptive", "--example", "2", "--target-n", "8",
                 "--out", str(out)]
            )
        assert code == 0
        assert (out / "table2.csv").is_file()
        assert (out / "table2.md").is_file()

    def test_solve_interior_csv(self, tmp_path):
        out = tmp_path / "solve"
        code = main(
            ["solve", "--level", "3", "--points", "0.25,0.1;0.5,0.3",
             "--out", str(out)]
        )
        assert code == 0
        rows = (out / "interior.csv").read_text().splitlines()
        assert rows[0] == "x,t,u_h,u_reference,abs_error"
        assert len(rows) == 3
        assert (out / "flux_L3.txt").is_file()

    def test_solve_point_outside_is_config_error(self, tmp_path):
        code = main(
            ["solve", "--level", "1", "--points", "2.0,0.5",
             "--out", str(tmp_path / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize("level", ["-1", "12"])
    def test_solve_level_out_of_range_exits_2(self, tmp_path, level):
        code = main(["solve", "--level", level, "--out", str(tmp_path / "x")])
        assert code == 2

    def test_solve_level_from_config_file_and_default(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("level=6\n")
        assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out.startswith("solved N=128 ")
        assert main(["solve", "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out.startswith("solved N=32 ")
        assert "max_level=4" in (tmp_path / "b" / "meta.txt").read_text().splitlines()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        for out in ("taken", "taken/sub"):
            argv = ["study-uniform", "--levels", "0", "--out", str(tmp_path / out)]
            assert main(argv) == 2, out
            assert "cannot make output directory" in capsys.readouterr().err

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["study-uniform", "--precond", "ilu"])
        assert err.value.code == 2

    def test_negative_target_n_exits_2(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["study-adaptive", "--target-n", "-5", "--out", str(out)]) == 2
        assert "target_n must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("target_n=-5\n")
        assert main(["study-adaptive", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "target_n must be >= 0" in capsys.readouterr().err

    def test_solve_meta_has_no_table_lines(self, tmp_path):
        assert main(["solve", "--level", "2", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "meta.txt").read_text().lower().splitlines()
        assert "tol=1e-08" in lines
        assert not [line for line in lines if "kappa" in line or "error column" in line]

    @pytest.mark.parametrize(
        "argv, echoed",
        [
            (["study-uniform", "--levels", "0"], ["example", "alpha", "max_level", "tol",
                                                  "preconds", "kappa_convention", "max_kappa_n"]),
            (["study-adaptive", "--max-steps", "0"], ["example", "alpha", "tol", "preconds",
                                                      "theta", "kappa_convention", "max_kappa_n",
                                                      "target_n", "max_steps"]),
            (["solve", "--level", "0"], ["example", "alpha", "max_level", "tol"]),
        ],
        ids=["study-uniform", "study-adaptive", "solve"],
    )
    def test_meta_echoes_the_fields_the_command_reads(self, tmp_path, argv, echoed):
        # in field order, between the command line and the fixed cylinder
        assert main([*argv, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "meta.txt").read_text().splitlines()
        assert lines[0] == f"command={argv[0]}"
        assert [line.split("=")[0] for line in lines[1:lines.index("horizon=1")]] == echoed

    def test_negative_max_steps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["study-adaptive", "--max-steps", "-1", "--out", str(out)]) == 2
        assert "max_steps must be >= 0" in capsys.readouterr().err
        assert not (out / "table2.csv").exists()

    @pytest.mark.parametrize("command", ["study-uniform", "study-adaptive"])
    def test_negative_max_kappa_n_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "neg"
        assert main([command, "--max-kappa-n", "-5", "--out", str(out)]) == 2
        assert "max_kappa_n must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unknown_argument_shows_the_command_usage(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--levels-of", "6"])
        assert err.value.code == 2
        text = capsys.readouterr().err
        assert text.startswith(f"usage: heatbem {command} ")
        assert f"heatbem {command}: error: unrecognized arguments: --levels-of 6" in text

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, tmp_path, capsys, alpha):
        argv = ["study-uniform", "--levels", "1", "--alpha", alpha]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["study-uniform", "--levels", "2", "--alpha", "1e300", "--max-kappa-n", "0"],
        ["study-uniform", "--levels", "2", "--alpha", "1e300"],
        ["study-adaptive", "--alpha", "1e300", "--target-n", "10"],
    ], ids=["uniform_no_kappa", "uniform", "adaptive"])
    def test_non_finite_operators_exit_3(self, tmp_path, capsys, argv):
        # the right-hand side underflows to zero and the kernel primitives overflow to
        # NaN at this alpha: no table is written
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([*argv, "--out", str(tmp_path / "a")]) == 3
        assert "numerical failure:" in capsys.readouterr().err
        assert not list((tmp_path / "a").glob("table*"))

    @pytest.mark.parametrize("argv", [
        ["study-uniform", "--levels", "2", "--alpha", "1e40"],
        ["study-adaptive", "--alpha", "1e40", "--target-n", "10"],
    ], ids=["uniform", "adaptive"])
    def test_studies_with_a_zero_rhs_exit_3(self, tmp_path, capsys, argv):
        # the initial potential underflows to an all-zero right-hand side at this alpha;
        # the studies would print the zero flux's l2_error and 0 iterations on every row
        assert main([*argv, "--out", str(tmp_path / "a")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: right-hand side is exactly zero at alpha=1e+40" in err
        assert not list((tmp_path / "a").glob("table*"))

    def test_solve_with_a_zero_rhs_exits_3(self, tmp_path, capsys):
        # the initial potential underflows to an all-zero right-hand side at this alpha;
        # GMRES would report w = 0 after 0 iterations as a solution
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            argv = ["solve", "--alpha", "1e300", "--level", "2", "--out", str(tmp_path / "a")]
            assert main(argv) == 3
        out, err = capsys.readouterr()
        assert "numerical failure: right-hand side is exactly zero at alpha=1e+300" in err
        assert "solved" not in out and not list((tmp_path / "a").glob("flux_*"))

    def test_solve_with_an_underflowing_rhs_norm_exits_3(self, tmp_path, capsys):
        # every right-hand side entry is below ~1e-162 at this alpha, so ||b|| is 0.0
        # although b is not zero; GMRES would report x = 0 after 0 iterations
        argv = ["solve", "--alpha", "1e-300", "--level", "2", "--out", str(tmp_path / "a")]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert "numerical failure: ||b|| underflows to 0" in err
        assert "solved" not in out and not list((tmp_path / "a").glob("flux_*"))

    def test_bad_config_value_exits_2(self, tmp_path):
        code = main(["study-uniform", "--levels", "20", "--out", str(tmp_path / "y")])
        assert code == 2

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("levels=1\nalpha=1.0\n# comment\nkappa=both\n")
        out = tmp_path / "cfg_run"
        code = main(
            ["study-uniform", "--config", str(cfgfile), "--out", str(out),
             "--levels", "0"]  # flag overrides the file
        )
        assert code == 0
        body = (out / "table1.csv").read_text().splitlines()
        assert len(body) == 2  # header + single level-0 row
        meta = (out / "meta.txt").read_text()
        assert "kappa_convention=both" in meta

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("solver=mumps\n")
        code = main(["study-uniform", "--config", str(cfgfile)])
        assert code == 2

    def test_config_theta_not_a_number_exits_2(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("theta=abc\n")
        code = main(["study-adaptive", "--config", str(cfgfile), "--out", str(tmp_path / "t")])
        assert code == 2

    @pytest.mark.parametrize("path", ["latin1.cfg", ".", "missing.cfg"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, path):
        (tmp_path / "latin1.cfg").write_bytes(b"alpha=1\xff\n")
        argv = ["study-uniform", "--config", str(tmp_path / path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_max_steps_counts_adaptive_steps(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("example=2\nmax_steps=2\n")
        out = tmp_path / "steps"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["study-adaptive", "--config", str(cfgfile), "--out", str(out)])
        assert code == 0
        body = (out / "table2.csv").read_text().splitlines()
        assert len(body) == 1 + 3  # header + steps 0, 1, 2

    def test_config_max_steps_above_step_cap_exits_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max_steps=300\n")
        code = main(["study-adaptive", "--config", str(cfgfile), "--out", str(tmp_path / "c")])
        assert code == 2
