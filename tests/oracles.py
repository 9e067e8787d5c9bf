"""Independent oracles and the invariant checks the test suite shares.

Each invariant check returns the worst deviation over the inputs it is given;
each test calls it with its own samples and bound.

The entry oracles never touch the closed-form primitives used by the
assembly.  A double time integral of any convolution kernel over an element
pair reduces exactly (Fubini plus the lag substitution tau = t - s) to a
single integral of kernel(d, tau) against the trapezoidal overlap weight

    m(tau) = | [p, q] intersect [r + tau, s + tau] |,

which is then evaluated with adaptive Gauss quadrature on the kernel itself.

The second-kind equation (the Neumann-trace residual through K, which
criterion 9 reads) and the even/odd mirror halves of a formed matrix are
needed only by the tests, and live here too.
"""

from __future__ import annotations

import numpy as np

from heatbem.galerkin import (
    DiscreteFlux,
    OperatorMatrices,
    Problem,
    _spatial_moments,
    assemble_all,
)
from heatbem.kernels import (
    _causal,
    _g,
    adaptive_quadrature,
    heat_kernel,
    primitive_I0,
    primitive_I1,
    primitive_J0,
)
from heatbem.mesh import BoundaryMesh
from heatbem.reference import SineSeries


def kernel_dx(d, tau, alpha=1.0):
    """Spatial derivative dG/dd = -(alpha d / (2 tau)) G; odd in d."""
    def g_dx(d, t, alpha):  # keeps its own association, not -(...) * _g
        return -(alpha * d / (2.0 * t)) * np.sqrt(alpha / (4.0 * np.pi * t)) * np.exp(
            -alpha * d * d / (4.0 * t)
        )

    return _causal(g_dx, d, tau, alpha, flush=True)


def kernel_dt(d, tau, alpha=1.0):
    """Time derivative dG/dtau = G * (alpha d^2/(4 tau^2) - 1/(2 tau)).

    Satisfies the heat identity d2G/dd2 = alpha * dG/dtau for tau > 0.
    The point (d=0, tau -> 0+) is singular; callers must keep away from it.
    """
    def g_dt(d, t, alpha):
        return _g(d, t, alpha) * (alpha * d * d / (4.0 * t * t) - 1.0 / (2.0 * t))

    return _causal(g_dt, d, tau, alpha, flush=True)


def ellipticity_margin(A) -> float:
    """Smallest eigenvalue of the symmetric part (A + A^T)/2."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    return float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())


def flux_l2_norm(series: SineSeries, horizon: float) -> float:
    """Exact L2(Sigma) norm of the series' flux over both sides up to ``horizon``."""
    n, rates = series._modes()
    c = series.coefficients * n * np.pi
    lam = rates[:, None] + rates[None, :]
    decay = -np.expm1(-lam * horizon) / lam  # no cancellation at small lam * horizon
    sign = 1.0 + np.outer((-1.0) ** n, (-1.0) ** n)
    total = np.sum(np.outer(c, c) * sign * decay)
    return float(np.sqrt(total))


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


def single_layer_oracle(x: float, t: float, flux: DiscreteFlux, alpha: float) -> float:
    """The single layer of the representation formula at (x, t), element by element:
    (1/alpha) sum_l w_l [I0(x - x_l, t - t_l1) - I0(x - x_l, t - t_l2)], with I0 at
    both time ends of every element (0 at nonpositive lags) and one sum over all N."""
    mesh = flux.mesh
    d = x - mesh.x_all
    per_element = (primitive_I0(d, t - mesh.t_begin_all, alpha)
                   - primitive_I0(d, t - mesh.t_end_all, alpha))
    return float(np.sum(flux.coefficients * per_element)) / alpha


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


# ---------------------------------------------------------------------------
# invariant checks


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


def mirror_halves(A, n):
    """P + Q, then P - Q, of a mirror matrix A = [[P, Q], [Q, P]] with n x n blocks, each
    formed when read."""
    return (op(A[:n, :n], A[:n, n:]) for op in (np.add, np.subtract))


def initial_neumann_moments(mesh, problem) -> np.ndarray:
    """<M1 u0, phi_l>: moments of the normal derivative of the initial potential."""
    if problem.u0 is None:
        return np.zeros(mesh.n_elements)
    return mesh.normal_all * _spatial_moments(mesh, problem, primitive_I1)


def second_bie_residual(
    problem: Problem,
    flux: DiscreteFlux,
    matrices: OperatorMatrices | None = None,
) -> np.ndarray:
    """Galerkin residual of the Neumann-trace identity on the flux's mesh.

    r[l] = <w_h - M1 u0 - (I/2 + K') w_h, phi_l>, with K' realized as the
    transpose of the assembled K (identical trial and test spaces).  Its
    mass-weighted norm decays under refinement when w_h converges.
    """
    mesh = flux.mesh
    if matrices is None:
        matrices = assemble_all(mesh, problem.alpha)
    w = flux.coefficients
    mass = matrices.mass
    r = 0.5 * mass * w - matrices.K.T @ w
    r -= initial_neumann_moments(mesh, problem)
    return r


def mass_weighted_norm(mesh: BoundaryMesh, residual: np.ndarray) -> float:
    """sqrt(r^T M^{-1} r): the L2(Sigma)-equivalent norm of a moment vector."""
    return float(np.sqrt(np.sum(residual * residual / mesh.element_sizes)))
