"""Independent oracles, the invariant checks and the check-invariants battery.

Each invariant check returns the worst deviation over the inputs it is given;
the test suite and ``run_invariant_battery`` call the same functions, each
with its own samples and bounds.

The entry oracles never touch the closed-form primitives used by the
assembly.  A double time integral of any convolution kernel over an element
pair reduces exactly (Fubini plus the lag substitution tau = t - s) to a
single integral of kernel(d, tau) against the trapezoidal overlap weight

    m(tau) = | [p, q] intersect [r + tau, s + tau] |,

which is then evaluated with adaptive Gauss quadrature on the kernel itself.
"""

from __future__ import annotations

import numpy as np

from .analysis import element_means, ellipticity_margin
from .galerkin import OperatorMatrices, Problem, assemble_all, assemble_rhs
from .kernels import (
    adaptive_quadrature,
    heat_kernel,
    kernel_dt,
    kernel_dx,
    primitive_I0,
    primitive_J0,
)
from .krylov import Preconditioner, SolveReport, direct_solve, gmres
from .mesh import BoundaryMesh, quasi_uniformity_constant, refine_adaptive, uniform_mesh
from .reference import example1_initial_datum

__all__ = [
    "overlap_weight",
    "entry_oracle",
    "rhs_moment_oracle",
    "best_approximation",
    "singular_pair",
    "partition_defect",
    "zero_indicator_growth",
    "heat_identity_defect",
    "primitive_quadrature_defect",
    "entry_defect",
    "min_ellipticity_margin",
    "gmres_lu_deviation",
    "run_invariant_battery",
]


def overlap_weight(p, q, r, s, tau):
    """Length of [p, q] intersect [r + tau, s + tau] (vectorized in tau)."""
    tau = np.asarray(tau, dtype=float)
    lo = np.maximum(p, r + tau)
    hi = np.minimum(q, s + tau)
    return np.maximum(hi - lo, 0.0)


def _pair_geometry(mesh: BoundaryMesh, row: int, col: int):
    p, q = mesh.t_begin_all[row], mesh.t_end_all[row]
    r, s = mesh.t_begin_all[col], mesh.t_end_all[col]
    d = mesh.x_all[row] - mesh.x_all[col]
    return p, q, r, s, d


def singular_pair(mesh: BoundaryMesh, row: int, col: int) -> bool:
    """Same side with overlapping time spans: D has no brute-force entry there."""
    p, q, r, s, d = _pair_geometry(mesh, row, col)
    return bool(d == 0.0 and q > r and s > p)


def entry_oracle(
    kind: str, mesh: BoundaryMesh, row: int, col: int, alpha: float, tol=1e-12
) -> float:
    """Quadrature value of one Galerkin entry of V, K, or D.

    For D the kernel is hypersingular on temporally touching same-side pairs
    (``singular_pair``); those pairs have no brute-force value and raise
    ValueError.
    """
    p, q, r, s, d = _pair_geometry(mesh, row, col)
    n_row = mesh.normal_all[row]
    n_col = mesh.normal_all[col]

    if kind == "V":
        kernel = lambda tau: heat_kernel(d, tau, alpha) / alpha
    elif kind == "K":
        if d == 0.0:
            return 0.0
        kernel = lambda tau: (-n_col / alpha) * kernel_dx(d, tau, alpha)
    elif kind == "D":
        if singular_pair(mesh, row, col):
            raise ValueError(
                "hypersingular oracle requires temporally separated same-side pairs"
            )
        kernel = lambda tau: n_row * n_col * kernel_dt(d, tau, alpha)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")

    lo = max(0.0, p - s)
    hi = q - r
    if hi <= lo:
        return 0.0
    # split at the kinks of the overlap weight so each panel is smooth
    kinks = sorted({lo, hi, *(v for v in (p - r, q - s) if lo < v < hi)})
    total = 0.0
    for a, b in zip(kinks[:-1], kinks[1:]):
        if d == 0.0 and a == 0.0:
            # tau = u^2 removes the tau^{-1/2} endpoint singularity
            total += adaptive_quadrature(
                lambda u: kernel(u * u) * overlap_weight(p, q, r, s, u * u) * 2.0 * u,
                0.0,
                np.sqrt(b),
                tol=tol,
            )
        else:
            total += adaptive_quadrature(
                lambda tau: kernel(tau) * overlap_weight(p, q, r, s, tau),
                a,
                b,
                tol=tol,
            )
    return total


def rhs_moment_oracle(mesh: BoundaryMesh, index: int, problem, tol=1e-9) -> float:
    """Nested-quadrature value of the initial-datum moment of one element.

    Outer adaptive integral over the space interval, inner adaptive integral
    of the raw heat kernel over the element's time span; independent of the
    closed-form time primitives used in production.
    """
    (a, b), x_l = mesh.interval, mesh.x_all[index]
    t1, t2 = mesh.t_begin_all[index], mesh.t_end_all[index]
    # the kernel's layer at y = x_l is about sqrt(t2 / alpha) wide: cutting the
    # outer integral 1, 4 and 16 widths into the interval keeps its rule from
    # stepping over the layer (and reading 0) on short early elements
    inward = np.sqrt(t2 / problem.alpha) * (1.0 if x_l == a else -1.0)
    ys = np.unique(np.clip(np.r_[a, x_l + inward * np.array([1.0, 4.0, 16.0]), b], a, b))

    def outer(y):
        y = float(y)
        inner = adaptive_quadrature(
            lambda t: heat_kernel(x_l - y, t, problem.alpha), t1, t2, tol=tol * 1e-2
        )
        return float(np.asarray(problem.u0(y))) * inner

    pieces = zip(ys[:-1], ys[1:])
    return -sum(adaptive_quadrature(outer, lo, hi, tol=tol / (len(ys) - 1)) for lo, hi in pieces)


def best_approximation(mesh: BoundaryMesh, reference):
    """Element means of the reference flux: the L2(Sigma)-projection onto S_h^0."""
    return element_means(mesh, reference.flux, gauss_order=30)


# ---------------------------------------------------------------------------
# invariant checks


def partition_defect(mesh: BoundaryMesh) -> float:
    """Largest |sum of element sizes - T| over the two sides."""
    return max(
        abs(float(np.sum(np.diff(b))) - mesh.horizon)
        for b in (mesh.left_breaks, mesh.right_breaks)
    )


def zero_indicator_growth(mesh: BoundaryMesh) -> int:
    """Elements added by one adaptive step with every indicator zero (must be 1)."""
    return refine_adaptive(mesh, np.zeros(mesh.n_elements)).n_elements - mesh.n_elements


def heat_identity_defect(d, tau, alpha, floor=1e-30) -> float:
    """Worst defect of d2G/dd2 = alpha dG/dtau relative to max(|alpha dG/dtau|, floor).

    d2G/dd2 is the central difference of ``kernel_dx`` with step 1e-5.
    """
    h = 1e-5
    dd = (kernel_dx(d + h, tau, alpha) - kernel_dx(d - h, tau, alpha)) / (2 * h)
    ref = alpha * kernel_dt(d, tau, alpha)
    return float(np.max(np.abs(dd - ref) / np.maximum(np.abs(ref), floor)))


def primitive_quadrature_defect(d, tau, alpha, order, tol=1e-12) -> float:
    """Worst |closed form - quadrature| of I0 (order 0) or J0 (order 1).

    By Fubini on the triangle, J0(d, tau) = int_0^tau (tau - s) G(d, s) ds, so
    both oracles integrate the kernel itself and never touch the closed forms.
    """
    primitive = (primitive_I0, primitive_J0)[order]
    worst = 0.0
    for d_k, tau_k, alpha_k in np.broadcast(d, tau, alpha):
        q = adaptive_quadrature(
            lambda s: (tau_k - s) ** order * heat_kernel(d_k, s, alpha_k), 0.0, tau_k, tol=tol
        )
        worst = max(worst, abs(q - primitive(d_k, tau_k, alpha_k)))
    return worst


def entry_defect(mats: OperatorMatrices, entries) -> float:
    """Worst |assembled - entry_oracle| over (kind, row, col) triples.

    D entries of singular pairs have no oracle value and are skipped.
    """
    worst = 0.0
    for kind, i, j in entries:
        if kind == "D" and singular_pair(mats.mesh, i, j):
            continue
        ref = entry_oracle(kind, mats.mesh, i, j, mats.alpha)
        worst = max(worst, abs(getattr(mats, kind)[i, j] - ref))
    return worst


def min_ellipticity_margin(meshes, alpha: float) -> float:
    """Smallest eigenvalue of the symmetric parts of V and D over the meshes."""
    margins = []
    for mesh in meshes:
        mats = assemble_all(mesh, alpha)
        margins.append(min(ellipticity_margin(mats.V), ellipticity_margin(mats.D)))
    return min(margins)


def gmres_lu_deviation(A, b, report: SolveReport) -> float:
    """Largest |x_GMRES - x_LU| entry of a GMRES solution of A x = b."""
    return float(np.max(np.abs(direct_solve(A, b) - report.solution)))


# ---------------------------------------------------------------------------
# invariant battery (used by the check-invariants CLI command)


def run_invariant_battery(rng_seed: int = 1234) -> list[dict]:
    """Cheap cross-checks of the whole pipeline; returns one record per check.

    Every sample comes from one generator in a fixed order, so a seed always
    gives the same checks.
    """
    rng = np.random.default_rng(rng_seed)
    checks = []  # (name, ok, detail)

    mesh = uniform_mesh(1.0, 1)
    for _ in range(6):
        mesh = refine_adaptive(mesh, rng.random(mesh.n_elements), theta=0.6)
    dev = partition_defect(mesh)
    c_l = quasi_uniformity_constant(mesh)
    checks.append(("mesh partition exactness", dev <= 1e-12 * mesh.horizon,
                   f"max side defect {dev:.2e}, c_L={c_l:.2f}"))

    dev = heat_identity_defect(*np.transpose([
        (rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.05, 2.0),
         rng.uniform(0.5, 3.0))
        for _ in range(10)
    ]))
    checks.append(("heat identity (finite differences)", dev < 1e-6, f"rel {dev:.2e}"))

    samples = rng.uniform([0.1, 0.05, 0.5], [1.5, 2.0, 3.0], size=(8, 3))
    dev = primitive_quadrature_defect(*samples.T, order=1)
    checks.append(("primitive_J0 vs quadrature", dev < 1e-10, f"abs {dev:.2e}"))

    mats = assemble_all(uniform_mesh(1.0, 2), 1.0)
    n = mats.mesh.n_elements
    entries = []
    for _ in range(12):
        row, col = int(rng.integers(0, n)), int(rng.integers(0, n))
        entries.append((rng.choice(["V", "K", "D"]), row, col))
    dev = entry_defect(mats, entries)
    checks.append(("Galerkin entries vs oracle", dev < 1e-9, f"abs {dev:.2e}"))

    margin = min_ellipticity_margin([uniform_mesh(1.0, lvl) for lvl in range(4)], 1.0)
    checks.append(("ellipticity of V and D", margin > 0.0, f"min margin {margin:.3e}"))

    prob = Problem(u0=example1_initial_datum)
    mesh = uniform_mesh(1.0, 3)
    mats = assemble_all(mesh, prob.alpha)
    f = assemble_rhs(mesh, prob)
    rep = gmres(mats.V, f, tol=1e-10, preconditioner=Preconditioner.calderon(mats.mass, mats.D))
    dev = gmres_lu_deviation(mats.V, f, rep)
    checks.append(("GMRES vs LU", rep.converged and dev < 1e-7,
                   f"max dev {dev:.2e} in {rep.iterations} iterations"))

    growth = zero_indicator_growth(uniform_mesh(1.0, 0))
    checks.append(("adaptive progress guarantee", growth == 1, ""))

    return [{"name": name, "ok": bool(ok), "detail": detail} for name, ok, detail in checks]
