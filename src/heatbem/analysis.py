"""Condition numbers, discretization errors, and convergence rates."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .galerkin import DiscreteFlux
from .kernels import gauss_legendre
from .krylov import NumericalError
from .mesh import BoundaryMesh, Side
from .reference import SineSeries

__all__ = [
    "StudyRecord",
    "condition_number",
    "element_means",
    "l2_error",
    "eoc",
]

L2_GAUSS_ORDER = 8  # Gauss points per element of the L2 flux error


@dataclass
class StudyRecord:
    """One refinement level of a convergence/conditioning study.

    The fields are the table columns, in order.  Condition numbers carry both
    conventions: ``*_sv`` is the singular-value ratio, ``*_eig`` the
    eigenvalue-modulus ratio of the same matrix, both reduced from the pieces
    that ``studies._spectral_pieces`` splits it into (see condition_number).
    Where diag(V) is constant (every uniform level), diag^-1 V is V over a
    scalar, so the kappa_diag_* entries are copied from kappa_V_*, and it_diag
    is the unpreconditioned count (GMRES's Givens residual estimates and
    breakdown tests do not see a scalar right preconditioner).  Entries are None
    when the stage was skipped (preconditioner not requested, N above the
    kappa cap).
    """

    L: int
    N: int
    l2_error: float
    eoc: float | None = None
    kappa_V_sv: float | None = None
    kappa_V_eig: float | None = None
    kappa_diag_sv: float | None = None
    kappa_diag_eig: float | None = None
    kappa_calderon_sv: float | None = None
    kappa_calderon_eig: float | None = None
    it_none: int | None = None
    it_diag: int | None = None
    it_calderon: int | None = None


def condition_number(pieces, method: str = "sv") -> float:
    """Condition number of a matrix, given whole or by pieces whose spectra together are its.

    ``pieces`` is one ndarray (the matrix), or an iterable of square arrays and
    (k, s, s) stacks, each reduced to its extremes before the next is read (a lazy
    iterable keeps one piece live).  method="sv": ratio of extreme singular values,
    |eigvalsh| of an exactly symmetric piece (half the flops) and svd of any other;
    method="eig": ratio of extreme eigenvalue moduli, one eigvals call per piece (a
    stack's is bitwise its blocks').  Raises NumericalError when the matrix is
    singular to working precision or LAPACK fails.  The studies split the mirror
    matrix [[P, Q], [Q, P]] of a Toeplitz mesh into P + Q and P - Q, and for eig a
    block lower triangular one (causality, over the mesh's slabs) into its diagonal
    blocks; elsewhere sv reads the formed matrix whole.
    """
    if method not in ("sv", "eig"):
        raise ValueError(f"unknown convention {method!r}")
    lo, hi = math.inf, 0.0
    for P in (pieces,) if isinstance(pieces, np.ndarray) else pieces:
        P = np.asarray(P, dtype=float)
        if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
            raise ValueError("need square pieces")
        try:
            if method == "eig":
                s = np.abs(np.linalg.eigvals(P))
            elif np.array_equal(P, np.swapaxes(P, -1, -2)):  # False with a NaN: svd reports it
                s = np.abs(np.linalg.eigvalsh(P))
            else:
                s = np.linalg.svd(P, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{method} condition number failed: {exc}") from exc
        lo, hi = np.minimum(lo, s.min()), np.maximum(hi, s.max())  # a NaN propagates
        del P  # before the loop reads the next piece
    if not lo > 1e-14 * hi:
        raise NumericalError(f"matrix is numerically singular ({method} ratio > 1e14 or NaN)")
    return float(hi / lo)


def element_means(mesh: BoundaryMesh, fn, gauss_order: int) -> np.ndarray:
    """Gauss-rule mean of fn over each element, one weight dot product per element.
    fn(side, ts) is called once per side, with one row of quadrature times per
    element of that side, and returns values of the same shape."""
    xi, wt = gauss_legendre(gauss_order)
    ts = mesh.t_begin_all[:, None] + 0.5 * (xi + 1.0) * mesh.element_sizes[:, None]
    vals = np.concatenate([fn(Side.LEFT, ts[: mesh.n_left]), fn(Side.RIGHT, ts[mesh.n_left :])])
    return np.array([0.5 * float(np.dot(wt, row)) for row in vals])


def l2_error(
    flux: DiscreteFlux, reference: SineSeries, gauss_order: int = L2_GAUSS_ORDER
) -> float:
    """Element-wise Gauss quadrature of ||w_ref - w_h||_{L2(Sigma)}."""
    mesh = flux.mesh
    own = dict(zip((Side.LEFT, Side.RIGHT), np.split(flux.coefficients[:, None], [mesh.n_left])))

    def squared_error(side, ts):
        diff = reference.flux(side, ts) - own[side]
        return diff * diff

    means = element_means(mesh, squared_error, gauss_order)
    total = 0.0
    for h, mean in zip(mesh.element_sizes, means):  # sequential: keeps table digits
        total += h * mean
    return math.sqrt(total)


def eoc(errors) -> list[float]:
    """Estimated orders of convergence log2(err_{k-1} / err_k).

    Nonpositive errors yield NaN entries (flagged with a warning) rather than
    aborting the study.
    """
    errors = [float(e) for e in errors]
    out = []
    for prev, cur in zip(errors[:-1], errors[1:]):
        if prev <= 0.0 or cur <= 0.0:
            warnings.warn("eoc undefined for nonpositive errors", stacklevel=2)
            out.append(float("nan"))
        else:
            out.append(math.log2(prev / cur))
    return out

