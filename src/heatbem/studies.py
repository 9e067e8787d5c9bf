"""Experiment drivers: uniform and adaptive refinement studies, single solves.

Each refinement level assembles the operators once, takes the flux for the
error column from a direct solve (``OperatorMatrices.solve``: deterministic,
solver-error free), and runs GMRES on ``OperatorMatrices.operator`` once per
distinct preconditioned system for the iteration counts (where diag(V) is one
scalar, diag's system is the unpreconditioned one).  These solves count their
iterations only (``gmres(..., count_only=True)``): they build no solution,
which ``run_single_solve`` alone does.  ``galerkin`` alone picks
the FFT operators of a uniform mesh or the dense matrices.  Each system's kappa
columns and GMRES run together, C^-1 V's first: D is then released, formed or
not, and the lag table with it, so a dense level holds V and one stage's
temporaries through V's own stages.
The adaptive driver uses a two-level hierarchical indicator: the L2 norm per
element of the difference between the current solution and the solution on
the uniformly bisected mesh.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import L2_GAUSS_ORDER, StudyRecord, condition_number, eoc, l2_error
from .galerkin import (
    DiscreteFlux,
    OperatorMatrices,
    Problem,
    assemble_all,
    assemble_rhs,
    evaluate_interior,
)
from .krylov import NumericalError, Preconditioner, gmres
from .mesh import BoundaryMesh, refine_adaptive, refine_uniform, uniform_mesh
from .reference import (
    SineSeries,
    example1_initial_datum,
    example1_series,
    example2_initial_datum,
    example2_series,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SolveResult",
    "build_problem",
    "run_uniform_study",
    "run_adaptive_study",
    "run_single_solve",
    "two_level_indicator",
    "records_to_csv",
    "records_to_markdown",
    "meta_text",
]

PRECOND_CHOICES = ("none", "diag", "calderon")
KAPPA_CONVENTIONS = ("sv", "eig", "both")
# cylinder of every study; the reference series exist only on (0, 1), so
# another interval would report wrong errors
HORIZON = 1.0
INTERVAL = (0.0, 1.0)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by all study commands.

    alpha defaults to 1 (recorded as an assumption in the run metadata; the
    flux decay rate of the smooth example is 4 pi^2 / alpha).
    """

    example: int = 1
    alpha: float = 1.0
    max_level: int = 8
    tol: float = 1e-8
    preconds: tuple[str, ...] = PRECOND_CHOICES
    theta: float = 0.5
    kappa_convention: str = "sv"  # one of KAPPA_CONVENTIONS
    max_kappa_n: int = 1024
    target_n: int = 278
    max_steps: int = 80

    def validate(self, adaptive: bool = False) -> None:
        if self.example not in (1, 2):
            raise ConfigError("example must be 1 or 2")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta must lie in (0, 1]")
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError("alpha must be positive and finite")
        if self.max_level < 0:
            raise ConfigError("levels must be >= 0")
        for name in ("max_steps", "max_kappa_n", "target_n"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not adaptive and self.max_level > 11:
            raise ConfigError("uniform studies are capped at 11 levels (N = 4096)")
        if adaptive and self.max_steps > 200:
            raise ConfigError("adaptive studies are capped at 200 steps")
        if self.kappa_convention not in KAPPA_CONVENTIONS:
            raise ConfigError("kappa convention must be sv, eig, or both")
        bad = set(self.preconds) - set(PRECOND_CHOICES)
        if bad:
            raise ConfigError(f"unknown preconditioners: {sorted(bad)}")


def build_problem(cfg: ExperimentConfig) -> tuple[Problem, SineSeries]:
    """Problem data plus the matching flux reference series."""
    if cfg.example == 1:
        u0 = example1_initial_datum
        series = example1_series(alpha=cfg.alpha)
    else:
        u0 = example2_initial_datum
        series = example2_series(alpha=cfg.alpha)
    return Problem(alpha=cfg.alpha, u0=u0), series


def _preconditioner(name: str, mats: OperatorMatrices) -> Preconditioner:
    """The right preconditioner ``name`` of V, built from ``mats.operator``."""
    if name == "none":
        return Preconditioner.identity()
    if name == "diag":
        return Preconditioner.diagonal(mats.operator("V").diagonal())
    if name == "calderon":
        return Preconditioner.calderon(mats.mass, mats.operator("D"))
    raise ConfigError(f"unknown preconditioner {name!r}")


def _spectral_pieces(mats: OperatorMatrices, name: str, conv: str):
    """Pieces of V, diag^-1 V or ("calderon") C^-1 V whose spectra together are the
    matrix's, for ``condition_number`` in convention ``conv``.

    A Toeplitz mesh forms no n x n product: its pieces come from the first columns
    c of the halves P + Q and P - Q (C^-1 V's are D's and V's convolved / h^2), and
    diag^-1 V is V over a scalar.  sv reads each half's row reversal, the symmetric
    Hankel view H[i, j] = c[n - 1 - i - j] (0 where i + j >= n), sigma = |lambda(H)|;
    eig reads the halves' diagonals as one stack of 1 x 1 blocks.  Every other mesh
    forms the matrix: sv reads it whole, eig its slab blocks, one (k, s, s) stack per
    slab size.
    """
    mesh, n = mats.mesh, mats.mesh.n_left
    if mats.toeplitz:
        m = 1 if conv == "eig" else n  # eig reads only the lag-0 terms
        cols, h = mats.operator("V").columns[:, :m], mats.mass[0]
        if name == "calderon":
            cols = [np.convolve(e, v)[:m] / (h * h)
                    for e, v in zip(mats.operator("D").columns[:, :m], cols)]
        if conv == "eig":
            return [np.array(cols)[:, :, None]]
        return (sliding_window_view(np.r_[c[::-1], np.zeros(n - 1)], n) for c in cols)
    A = mats.V / mats.V.diagonal()[:, None] if name == "diag" else mats.V
    if name == "calderon":
        D = mats.D  # formed before the outer product is allocated
        outer = np.outer(mats.mass, mats.mass)
        A = np.divide(D, outer, out=outer) @ A  # one N x N temporary, not two
    if conv == "sv":
        return A
    by_size = {}  # slab size -> its slabs' rows
    for idx in mesh.slabs:
        by_size.setdefault(len(idx), []).append(idx)
    return (A[ix[:, :, None], ix[:, None, :]] for ix in map(np.array, by_size.values()))


def _kappa_columns(rec: StudyRecord, mats: OperatorMatrices, cfg: ExperimentConfig,
                   name: str, scalar_diag: bool) -> None:
    """The kappa columns of V, diag^-1 V or C^-1 V (``name``: V, diag or calderon) in
    the run's conventions, each reduced from its spectral pieces; where diag(V) is one
    scalar d (``scalar_diag``: every Toeplitz mesh), diag^-1 V = V / d and, kappa
    being scale invariant, its columns are copied from V's, which come first."""
    conventions = ("sv", "eig") if cfg.kappa_convention == "both" else (cfg.kappa_convention,)
    for conv in conventions:
        if name == "diag" and scalar_diag:
            kappa = getattr(rec, f"kappa_V_{conv}")
        else:
            kappa = condition_number(_spectral_pieces(mats, name, conv), conv)
        setattr(rec, f"kappa_{name}_{conv}", kappa)


def _level_record(mesh: BoundaryMesh, problem: Problem, series: SineSeries,
                  cfg: ExperimentConfig, level: int, prev_error: float | None):
    """One table row and its direct flux.

    The flux and GMRES read V and D only through ``mats.solve`` and
    ``mats.operator``; the kappa cap decides only whether the kappa columns
    are computed.  The stages of each system run together, D's readers (the
    calderon kappa columns and GMRES) first; then D is released, formed or
    not, and the lag table with it, so that V's stages (V's and diag^-1 V's
    kappa columns, the none and diag GMRES) run with V alone formed: the level
    holds V and one stage's temporaries, not D's N x N block or the lag table
    as well.  No cell depends on this order.  Where diag(V) is
    one scalar, the diag preconditioner is that scalar's inverse, and GMRES's
    Givens residual estimates and breakdown tests do not see a scalar right
    preconditioner: like the diag kappa columns, ``it_diag`` is then the
    unpreconditioned count, and each distinct system is solved once, whatever
    the order of ``cfg.preconds``.
    """
    mats = assemble_all(mesh, problem.alpha)
    f = assemble_rhs(mesh, problem)
    V = mats.operator("V")  # before the solve, which then marches on this V's columns
    flux = DiscreteFlux(coefficients=mats.solve(f), mesh=mesh)
    err = l2_error(flux, series)

    rec = StudyRecord(L=level, N=mesh.n_elements, l2_error=err)
    if prev_error is not None:
        rec.eoc = eoc([prev_error, err])[0]

    d = V.diagonal()
    scalar_diag = bool(np.all(d == d[0]))
    iterations = {}  # per distinct preconditioned system
    for name in ("calderon", "V", "diag"):  # D's readers first; V's kappa, which diag's may copy
        precond = "none" if name == "V" else name
        if mesh.n_elements <= cfg.max_kappa_n and (name == "V" or name in cfg.preconds):
            _kappa_columns(rec, mats, cfg, name, scalar_diag)
        if precond in cfg.preconds:
            key = "none" if precond == "diag" and scalar_diag else precond
            if key not in iterations:  # the preconditioner, and its hold on D, ends with the call
                iterations[key] = gmres(V, f, tol=cfg.tol, count_only=True,
                                        preconditioner=_preconditioner(key, mats)).iterations
            setattr(rec, f"it_{precond}", iterations[key])
        if name == "calderon":
            mats.release("D")  # the stages left read V alone
    return rec, flux


def run_uniform_study(cfg: ExperimentConfig):
    """Dyadic refinement study; returns (records, meshes)."""
    cfg.validate(adaptive=False)
    problem, series = build_problem(cfg)
    records: list[StudyRecord] = []
    meshes: list[BoundaryMesh] = []
    mesh = uniform_mesh(HORIZON, 0, INTERVAL)
    prev_err = None
    for level in range(cfg.max_level + 1):
        rec, _ = _level_record(mesh, problem, series, cfg, level, prev_err)
        records.append(rec)
        meshes.append(mesh)
        prev_err = rec.l2_error
        if level < cfg.max_level:
            mesh = refine_uniform(mesh)
    return records, meshes


def two_level_indicator(problem: Problem, flux: DiscreteFlux) -> np.ndarray:
    """Hierarchical indicator: per-element L2 distance to the bisected solve.

    eta_l^2 = (h_l/2) * sum over the two children of (w_fine - w_l)^2.
    refine_uniform puts the children of element l at 2l and 2l + 1.
    """
    mesh = flux.mesh
    fine = refine_uniform(mesh)
    w_f = assemble_all(fine, problem.alpha).solve(assemble_rhs(fine, problem))
    w = flux.coefficients
    half = 0.5 * mesh.element_sizes
    return np.sqrt(half * ((w_f[0::2] - w) ** 2 + (w_f[1::2] - w) ** 2))


def run_adaptive_study(cfg: ExperimentConfig):
    """Adaptive refinement study driven by the two-level indicator.

    Records every step until the element count first exceeds cfg.target_n
    (that step included) or cfg.max_steps steps were taken.  A stagnating
    error (no decrease over three consecutive steps) is reported with a
    warning but does not stop the run.
    """
    cfg.validate(adaptive=True)
    problem, series = build_problem(cfg)
    records: list[StudyRecord] = []
    meshes: list[BoundaryMesh] = []
    mesh = uniform_mesh(HORIZON, 0, INTERVAL)
    prev_err = None
    stagnation = 0
    for step in range(cfg.max_steps + 1):
        rec, flux = _level_record(mesh, problem, series, cfg, step, prev_err)
        records.append(rec)
        meshes.append(mesh)
        if prev_err is not None:
            stagnation = stagnation + 1 if rec.l2_error >= prev_err else 0
            if stagnation >= 3:
                warnings.warn(
                    f"adaptive study error stagnated for {stagnation} steps "
                    f"(step {step}, N={mesh.n_elements})",
                    stacklevel=2,
                )
        prev_err = rec.l2_error
        if mesh.n_elements > cfg.target_n or step == cfg.max_steps:
            break
        eta = two_level_indicator(problem, flux)
        mesh = refine_adaptive(mesh, eta, theta=cfg.theta)
    return records, meshes


@dataclass
class SolveResult:
    """Artifacts of a single solve: flux, mesh, interior samples, and the system."""

    flux: DiscreteFlux
    mesh: BoundaryMesh
    iterations: int
    interior_samples: list[tuple[float, float, float, float]]
    # rows: (x, t, u_h, u_reference)
    matrices: OperatorMatrices
    rhs: np.ndarray


def run_single_solve(cfg: ExperimentConfig, points=()) -> SolveResult:
    """Solve on the uniform mesh of level ``cfg.max_level``; evaluate u_h at points."""
    cfg.validate(adaptive=False)
    problem, series = build_problem(cfg)
    a, b = INTERVAL
    for x, t in points:
        if not (a < x < b) or not (0.0 < t <= HORIZON):
            raise ConfigError(
                f"point ({x}, {t}) lies outside the space-time cylinder"
            )
    mesh = uniform_mesh(HORIZON, cfg.max_level, INTERVAL)
    mats = assemble_all(mesh, problem.alpha)  # V and D stay unformed unless dumped
    f = assemble_rhs(mesh, problem)
    prec = _preconditioner("calderon", mats)
    report = gmres(mats.operator("V"), f, tol=cfg.tol, preconditioner=prec)
    if not report.converged:
        raise NumericalError(
            f"GMRES did not reach tol={cfg.tol:g} within {report.iterations} iterations"
        )
    flux = DiscreteFlux(coefficients=report.solution, mesh=mesh)
    samples = []
    for x, t in points:
        u_h = evaluate_interior(x, t, flux, problem)
        u_ref = series.interior(x, t)
        samples.append((float(x), float(t), u_h, u_ref))
    return SolveResult(
        flux=flux, mesh=mesh, iterations=report.iterations, interior_samples=samples,
        matrices=mats, rhs=f,
    )


# ---------------------------------------------------------------------------
# table emission

def _fmt(value) -> str:
    """CSV and meta.txt text of a value; floats keep 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return f"{float(value):.17g}"


def records_to_csv(records) -> str:
    """One column per StudyRecord field, in field order."""
    lines = [",".join(f.name for f in fields(StudyRecord))]
    lines.extend(",".join(map(_fmt, astuple(rec))) for rec in records)
    return "\n".join(lines) + "\n"


def _md_table(headers, rows) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def _md_num(value, digits: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.{digits}f}"


# per style: (header, StudyRecord field, digits); kappa fields take the
# convention as suffix
_MD_COLUMNS = {
    "uniform": [
        ("L", "L", 3), ("N", "N", 3), ("||w-w_h||_L2", "l2_error", 3),
        ("eoc", "eoc", 3), ("kappa(V_h)", "kappa_V", 3), ("It.", "it_none", 3),
        ("kappa(C_V^-1 V_h)", "kappa_calderon", 3), ("It.", "it_calderon", 3),
    ],
    "adaptive": [
        ("L", "L", 3), ("N", "N", 3), ("||w-w_h||_L2", "l2_error", 3),
        ("kappa(V_h)", "kappa_V", 2), ("It.", "it_none", 3),
        ("kappa(diag^-1 V_h)", "kappa_diag", 3), ("It.", "it_diag", 3),
        ("kappa(C_V^-1 V_h)", "kappa_calderon", 3), ("It.", "it_calderon", 3),
    ],
}


def records_to_markdown(records, style: str = "uniform", convention: str = "sv") -> str:
    """Human-readable table mirroring the reference column layout."""
    if style not in _MD_COLUMNS:
        raise ValueError(f"unknown table style {style!r}")
    columns = [
        (header, f"{attr}_{convention}" if attr.startswith("kappa") else attr, digits)
        for header, attr, digits in _MD_COLUMNS[style]
    ]
    rows = [[_md_num(getattr(r, attr), digits) for _, attr, digits in columns] for r in records]
    return _md_table([header for header, _, _ in columns], rows)


def meta_text(cfg: ExperimentConfig, command: str, read) -> str:
    """Deterministic run metadata: the command, the fields of ``cfg`` that it reads
    (``read``, echoed in field order), and the standing assumptions; ``solve``
    writes no line on the table columns."""
    study = command != "solve"
    lines = [
        f"command={command}",
        *(f"{f.name}={_fmt(getattr(cfg, f.name))}" for f in fields(cfg) if f.name in read),
        f"horizon={_fmt(HORIZON)}",
        f"interval={_fmt(INTERVAL)}",
        *[f"gauss_order={L2_GAUSS_ORDER}"] * study,
        "",
        "# assumptions",
        "# alpha defaults to 1; the smooth-example flux then decays like exp(-4 pi^2 t)",
        "# GMRES: right preconditioning, x0 = 0, stopping on the true relative",
        "#   residual ||b - A x|| / ||b|| <= tol (preconditioner independent)",
        *[
            "# kappa columns: sv = singular-value ratio, eig = eigenvalue-modulus",
            "#   ratio of the (preconditioned) matrix",
            "# kappa_*_eig: causality makes the matrices block lower triangular, so the",
            "#   eigenvalues are those of the diagonal blocks (2x2 on uniform meshes)",
            "# error column: direct flux (fast Toeplitz inversion on uniform meshes,",
            "#   causal slab march elsewhere), element-wise Gauss quadrature",
        ] * study,
    ]
    return "\n".join(lines) + "\n"
