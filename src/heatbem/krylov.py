"""Non-restarted GMRES with pluggable preconditioners, plus a dense LU oracle.

Right preconditioning is used throughout: GMRES runs on A P^{-1} and maps the
Krylov solution back through P^{-1}.  This keeps the stopping criterion on the
relative residual of the *original* system, so iteration counts are comparable
across preconditioners.  Orthogonalization is classical Gram-Schmidt applied
twice (CGS2), each pass one product with the whole basis; two passes keep the
basis orthogonal to working precision ("twice is enough": Giraud, Langou &
Rozloznik, Comput. Math. Appl. 2005).  The basis and the Hessenberg matrix
grow in doubling chunks, so a solve that converges early never reserves the
full ``max_iter`` columns.  The least-squares problem is updated with Givens
rotations, whose running residual estimate is exact in exact arithmetic.  They
rotate each new Hessenberg column as Python floats, IEEE doubles like numpy's
float64 scalars in the same operation order: bitwise, without scalar overhead.
A: array or square operator with ``@``, e.g. a ``galerkin.MirrorToeplitz``
that is never formed densely.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "Preconditioner",
    "SolveReport",
    "gmres",
    "direct_solve",
]


class NumericalError(RuntimeError):
    """A linear-algebra stage failed (singular matrix, breakdown, ...)."""


@dataclass(frozen=True)
class Preconditioner:
    """Right preconditioner: ``apply`` maps r to P^{-1} r, ``kind`` names the flavour.

    identity:  P^{-1} r = r
    diagonal:  P^{-1} r = r / diag          (diag strictly positive)
    calderon:  P^{-1} r = M^{-1} D M^{-1} r (M the diagonal mass matrix; the
               mass matrix is symmetric so M^{-T} = M^{-1})
    """

    kind: str
    apply: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def identity(cls) -> "Preconditioner":
        return cls("identity", lambda r: np.asarray(r, dtype=float))

    @classmethod
    def diagonal(cls, diag) -> "Preconditioner":
        diag = np.asarray(diag, dtype=float)
        if np.any(diag <= 0.0):
            raise NumericalError("diagonal preconditioner needs strictly positive entries")
        return cls("diagonal", lambda r: r / diag)

    @classmethod
    def calderon(cls, mass_diag, hyper) -> "Preconditioner":
        """``hyper``: array or square operator with ``shape`` and ``@``."""
        mass_diag = np.asarray(mass_diag, dtype=float)
        n = len(mass_diag)
        if hyper.shape != (n, n):
            raise NumericalError("hypersingular matrix shape does not match the mass diagonal")
        if np.any(mass_diag == 0.0):
            raise NumericalError("mass diagonal must be invertible")
        return cls("calderon", lambda r: (hyper @ (r / mass_diag)) / mass_diag)


@dataclass
class SolveReport:
    """Outcome of one GMRES solve."""

    solution: np.ndarray
    iterations: int
    relative_residual_history: list[float]
    converged: bool
    breakdown: bool = False


_FIRST_CHUNK = 32  # Krylov columns reserved before the first doubling


def _rotate(col: list[float], cs: list[float], sn: list[float], j: int) -> None:
    """Apply the first j Givens rotations (cs[i], sn[i]) to the column ``col`` in place."""
    for i in range(j):
        hi, hj = col[i], col[i + 1]
        col[i] = cs[i] * hi + sn[i] * hj
        col[i + 1] = -sn[i] * hi + cs[i] * hj


def gmres(
    A,
    b,
    tol: float = 1e-8,
    max_iter: int | None = None,
    preconditioner: Preconditioner | None = None,
) -> SolveReport:
    """Full-memory GMRES on A x = b with right preconditioning.

    ``A``: array or square operator with ``shape`` and ``@``; the stopping
    test's true residual uses the same operator.  Stops when the relative
    residual ||b - A x|| / ||b|| drops below ``tol`` (the Givens estimate,
    which for right preconditioning is the true residual up to roundoff; the
    returned history ends with the explicitly recomputed true value).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = len(b)
    prec = preconditioner or Preconditioner.identity()
    if max_iter is None:
        max_iter = n

    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        if np.any(b):
            raise NumericalError("||b|| underflows to 0 for a nonzero right-hand side")
        return SolveReport(
            solution=np.zeros(n),
            iterations=0,
            relative_residual_history=[0.0],
            converged=True,
        )

    history = [1.0]  # x0 = 0 always
    if 1.0 <= tol:
        return SolveReport(np.zeros(n), 0, history, True)

    cap = min(max_iter, _FIRST_CHUNK)  # columns the storage has room for
    basis = np.zeros((cap + 1, n))
    basis[0] = b / norm_b
    H = np.zeros((cap + 1, cap))
    cs, sn = [], []  # Givens cosines and sines, Python floats
    rhs = np.zeros(max_iter + 1)
    rhs[0] = norm_b

    h_scale = 0.0
    breakdown = False
    m = 0
    for j in range(max_iter):
        if j == cap:  # double the storage, zero-padded
            grow = min(cap, max_iter - cap)
            basis = np.pad(basis, ((0, grow), (0, 0)))
            H = np.pad(H, ((0, grow), (0, grow)))
            cap += grow
        w = A @ prec.apply(basis[j])
        Q = basis[: j + 1]
        for _ in range(2):  # CGS2: the second pass reorthogonalizes
            h = Q @ w
            w -= h @ Q
            H[: j + 1, j] += h
        h_next = float(np.linalg.norm(w))
        H[j + 1, j] = h_next
        h_scale = max(h_scale, float(np.max(np.abs(H[: j + 2, j]))))

        col = H[: j + 2, j].tolist()
        _rotate(col, cs, sn, j)
        denom = float(np.hypot(col[j], col[j + 1]))
        if denom <= 1e-14 * max(h_scale, 1e-300):
            # column adds nothing solvable: discard it and stop
            breakdown = True
            break
        cs.append(col[j] / denom)
        sn.append(col[j + 1] / denom)
        col[j], col[j + 1] = denom, 0.0
        H[: j + 2, j] = col
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

    y = np.linalg.solve(
        np.triu(H[:m, :m]), rhs[:m]
    ) if m else np.zeros(0)
    x = prec.apply(basis[:m].T @ y) if m else np.zeros(n)

    true_rel = float(np.linalg.norm(b - A @ x) / norm_b)
    history[-1] = true_rel
    converged = true_rel <= tol
    return SolveReport(
        solution=x,
        iterations=m,
        relative_residual_history=history,
        converged=converged,
        breakdown=breakdown and not converged,
    )


def direct_solve(A, b) -> np.ndarray:
    """Dense LU with partial pivoting; raises NumericalError when singular."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError("direct solve produced non-finite entries")
    return x
