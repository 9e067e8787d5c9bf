"""Independent oracles for Galerkin entries and a runnable invariant battery.

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
from .galerkin import Problem, assemble_all, assemble_rhs
from .kernels import adaptive_quadrature, heat_kernel, kernel_dt, kernel_dx, primitive_J0
from .krylov import Preconditioner, direct_solve, gmres
from .mesh import BoundaryMesh, quasi_uniformity_constant, refine_adaptive, uniform_mesh
from .reference import example1_initial_datum

__all__ = [
    "overlap_weight",
    "entry_oracle",
    "rhs_moment_oracle",
    "best_approximation",
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


def entry_oracle(kind: str, mesh: BoundaryMesh, row: int, col: int, params, tol=1e-12) -> float:
    """Quadrature value of one Galerkin entry of V, K, or D.

    For D the kernel is hypersingular on temporally touching same-side pairs;
    those pairs have no brute-force value and raise ValueError.
    """
    alpha = params.alpha if hasattr(params, "alpha") else float(params)
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
        if d == 0.0 and q > r and s > p:
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
    x_l = mesh.x_all[index]
    t1 = mesh.t_begin_all[index]
    t2 = mesh.t_end_all[index]

    def outer(y):
        y = float(y)
        inner = adaptive_quadrature(
            lambda t: heat_kernel(x_l - y, t, problem.alpha), t1, t2, tol=tol * 1e-2
        )
        return float(np.asarray(problem.u0(y))) * inner

    return -adaptive_quadrature(outer, problem.a, problem.b, tol=tol)


def best_approximation(mesh: BoundaryMesh, reference):
    """Element means of the reference flux: the L2(Sigma)-projection onto S_h^0."""
    return element_means(
        mesh, lambda i, ts: reference.flux(mesh.side_of(i), ts), gauss_order=30
    )


# ---------------------------------------------------------------------------
# invariant battery (used by the check-invariants CLI command)


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def run_invariant_battery(rng_seed: int = 1234) -> list[dict]:
    """Cheap cross-checks of the whole pipeline; returns one record per check."""
    rng = np.random.default_rng(rng_seed)
    results = []

    # mesh partition exactness under random adaptive refinement
    mesh = uniform_mesh(1.0, 1)
    for _ in range(6):
        mesh = refine_adaptive(mesh, rng.random(mesh.n_elements), theta=0.6)
    gaps = [
        abs(float(np.sum(np.diff(b))) - mesh.horizon)
        for b in (mesh.left_breaks, mesh.right_breaks)
    ]
    results.append(
        _check(
            "mesh partition exactness",
            max(gaps) <= 1e-12 * mesh.horizon,
            f"max side defect {max(gaps):.2e}, c_L={quasi_uniformity_constant(mesh):.2f}",
        )
    )

    # kernel heat identity d2G/dd2 = alpha dG/dtau by central differences
    worst = 0.0
    for _ in range(10):
        d = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        tau = rng.uniform(0.05, 2.0)
        alpha = rng.uniform(0.5, 3.0)
        h = 1e-5
        dd = (kernel_dx(d + h, tau, alpha) - kernel_dx(d - h, tau, alpha)) / (2 * h)
        ref = alpha * kernel_dt(d, tau, alpha)
        worst = max(worst, abs(dd - ref) / max(abs(ref), 1e-30))
    results.append(_check("heat identity (finite differences)", worst < 1e-6, f"rel {worst:.2e}"))

    # closed-form primitives vs adaptive quadrature
    worst = 0.0
    for _ in range(8):
        d = rng.uniform(0.1, 1.5)
        tau = rng.uniform(0.05, 2.0)
        alpha = rng.uniform(0.5, 3.0)
        q = adaptive_quadrature(
            lambda s: (tau - s) * heat_kernel(d, s, alpha), 0.0, tau, tol=1e-12
        )
        worst = max(worst, abs(q - primitive_J0(d, tau, alpha)))
    results.append(_check("primitive_J0 vs quadrature", worst < 1e-10, f"abs {worst:.2e}"))

    # Galerkin entries vs the lag-reduced oracle
    mesh3 = uniform_mesh(1.0, 2)
    params = Problem().params
    mats = assemble_all(mesh3, params)
    worst = 0.0
    for _ in range(12):
        i = int(rng.integers(0, mesh3.n_elements))
        j = int(rng.integers(0, mesh3.n_elements))
        kind = rng.choice(["V", "K", "D"])
        try:
            ref = entry_oracle(kind, mesh3, i, j, params)
        except ValueError:
            continue
        got = {"V": mats.V, "K": mats.K, "D": mats.D}[kind][i, j]
        worst = max(worst, abs(got - ref))
    results.append(_check("Galerkin entries vs oracle", worst < 1e-9, f"abs {worst:.2e}"))

    # discrete ellipticity of V and D
    margins = []
    for lvl in range(0, 4):
        m = uniform_mesh(1.0, lvl)
        mm = assemble_all(m, params)
        margins.append(min(ellipticity_margin(mm.V), ellipticity_margin(mm.D)))
    results.append(
        _check("ellipticity of V and D", min(margins) > 0.0, f"min margin {min(margins):.3e}")
    )

    # GMRES vs direct solve on the smooth-datum problem
    prob = Problem(u0=example1_initial_datum)
    mesh4 = uniform_mesh(1.0, 3)
    mats4 = assemble_all(mesh4, prob.params)
    f = assemble_rhs(mesh4, prob)
    w_lu = direct_solve(mats4.V, f)
    rep = gmres(mats4.V, f, tol=1e-10, preconditioner=Preconditioner.calderon(mats4.mass, mats4.D))
    dev = float(np.max(np.abs(w_lu - rep.solution)))
    results.append(
        _check(
            "GMRES vs LU",
            rep.converged and dev < 1e-7,
            f"max dev {dev:.2e} in {rep.iterations} iterations",
        )
    )

    # adaptive refinement progress on zero indicators
    m0 = uniform_mesh(1.0, 0)
    m1 = refine_adaptive(m0, np.zeros(m0.n_elements))
    results.append(
        _check("adaptive progress guarantee", m1.n_elements == m0.n_elements + 1)
    )

    return results
