"""Non-restarted GMRES with pluggable preconditioners, plus the dense LU block solver.

Right preconditioning is used throughout: GMRES runs on A P^{-1} and maps the
Krylov solution back through P^{-1}.  This keeps the stopping criterion on the
relative residual of the *original* system, so iteration counts are comparable
across preconditioners.  Orthogonalization is classical Gram-Schmidt applied
twice (CGS2), each pass one product with the whole basis; two passes keep the
basis orthogonal to working precision ("twice is enough": Giraud, Langou &
Rozloznik, Comput. Math. Appl. 2005).  The basis and the Hessenberg matrix
grow in doubling chunks of uninitialized storage, into which only what is in
use is copied, so a solve that converges early never reserves the full
``max_iter`` columns.  The least-squares problem is solved with Givens
rotations (Saad & Schultz, SIAM J. Sci. Stat. Comput. 1986), whose running
residual estimate is exact in exact arithmetic.  The loop keeps omega, the last
row of the product of the rotations so far: the new column's rotated diagonal
entry is one dot product with it, and each rotation updates it with one scale
and one store, so a step costs a fixed number of array operations.  A solve
that is asked only for its iteration count (``count_only``, the studies'
tables) keeps only the current Hessenberg column and returns at the loop's
exit.  A full solve stores the Hessenberg matrix unrotated, one column per
row; after the loop one pass rotates it to R in place, row pair by row pair,
re-deriving each rotation in the loop's order so that R, its right-hand side
and the solution are those of a column-by-column Givens update, bitwise.  The
two share one loop, so their counts and residual estimates agree bitwise.
A: array or square operator with ``@``, e.g. a ``galerkin.MirrorToeplitz``
that is never formed densely.  ``direct_solve`` solves one diagonal block of the
causal march in ``galerkin.OperatorMatrices.solve``.
"""

from __future__ import annotations

import math
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

    solution: np.ndarray | None  # None for a count_only solve
    iterations: int
    relative_residual_history: list[float]
    converged: bool
    breakdown: bool = False


_FIRST_CHUNK = 32  # Krylov columns reserved before the first doubling


def _grow(storage: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Uninitialized storage of ``shape`` with a copy of ``storage`` in its corner.

    The copied rows are zero past their old width; the new rows are not touched.
    """
    grown = np.empty(shape)
    rows, cols = storage.shape
    grown[:rows, :cols] = storage
    grown[:rows, cols:] = 0.0
    return grown


def _cgs2(Q: np.ndarray, w: np.ndarray, h: np.ndarray) -> None:
    """Orthogonalize w against the rows of Q in place, twice; add the coefficients to h."""
    for _ in range(2):  # the second pass reorthogonalizes
        c = Q @ w
        w -= c @ Q
        h += c


def _triangularize(H: np.ndarray, m: int, norm_b: float) -> np.ndarray:
    """Rotate the first m Hessenberg columns to R in place; return R's right-hand side.

    Row j of ``H`` holds column j of the Hessenberg matrix: j + 2 entries, then
    zeros.  Rotation i is derived from entries i and i + 1 of column i once
    rotations 0..i-1 have reached them, and is applied to that row pair of
    every later column: each entry sees the operations of a column-by-column
    Givens update in the same order, so R is bitwise that update's.  On return
    ``H[:m, :m].T`` is R, zeros below its diagonal included, and the result is
    the first m entries of the rotated ``norm_b e_1``.
    """
    rhs = np.empty(m)
    g = norm_b  # the entry of the rotated norm_b e_1 that the next rotation splits
    for i in range(m):
        diag, sub = H[i, i : i + 2].tolist()
        denom = float(np.hypot(diag, sub))
        cs, sn = diag / denom, sub / denom
        H[i, i] = denom
        H[i, i + 1] = 0.0
        upper, lower = H[i + 1 : m, i], H[i + 1 : m, i + 1]  # rows i, i + 1 of later columns
        sn_upper, sn_lower = sn * upper, sn * lower
        upper *= cs
        upper += sn_lower  # cs * u + sn * l
        lower *= cs
        lower -= sn_upper  # cs * l - sn * u, bitwise -sn * u + cs * l
        rhs[i] = cs * g
        g = -sn * g
    return rhs


def gmres(
    A,
    b,
    tol: float = 1e-8,
    max_iter: int | None = None,
    preconditioner: Preconditioner | None = None,
    *,
    count_only: bool = False,
) -> SolveReport:
    """Full-memory GMRES on A x = b with right preconditioning.

    ``A``: array or square operator with ``shape`` and ``@``; the stopping
    test's true residual uses the same operator.  Stops when the relative
    residual ||b - A x|| / ||b|| drops below ``tol`` (the Givens estimate,
    which for right preconditioning is the true residual up to roundoff; the
    returned history ends with the explicitly recomputed true value).

    ``count_only``: run the same iterations but build no solution.  Only the
    current Hessenberg column is kept, and the loop's exit returns at once:
    ``solution`` is None, the history ends with the Givens estimate and
    ``converged`` says whether that estimate reached ``tol``.  ``iterations``,
    ``breakdown`` and the history before its last entry are bitwise those of
    the full solve.
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
            solution=None if count_only else np.zeros(n),
            iterations=0,
            relative_residual_history=[0.0],
            converged=True,
        )

    history = [1.0]  # x0 = 0 always
    if 1.0 <= tol:
        return SolveReport(None if count_only else np.zeros(n), 0, history, True)

    cap = min(max_iter, _FIRST_CHUNK)  # columns the storage has room for
    basis = np.empty((cap + 1, n))
    basis[0] = b / norm_b
    # row j: column j of the Hessenberg matrix, unrotated; a count keeps one row, the
    # current column
    H = np.empty((1 if count_only else cap, cap + 1))
    omega = np.empty(max_iter + 1)  # last row of the product of the rotations so far
    omega[0] = 1.0
    residual = norm_b  # last entry of the rotated norm_b e_1

    h_scale = 0.0
    breakdown = False
    m = 0
    for j in range(max_iter):
        if j == cap:  # double the storage, copying only what is in use
            # no view of the storage outlives a step, so this frees the old one; growing
            # H first left the adaptive study's peak RSS 0.3 MB lower than basis first
            cap += min(cap, max_iter - cap)
            H = _grow(H, (1 if count_only else cap, cap + 1))
            basis = _grow(basis, (cap + 1, n))
        w = A @ prec.apply(basis[j])
        r = 0 if count_only else j  # the row of H that holds column j
        H[r] = 0.0  # the passes' h add up from zero, and a stored row stays zero past j + 1
        _cgs2(basis[: j + 1], w, H[r, : j + 1])
        h_next = math.sqrt(w.dot(w))  # bitwise np.linalg.norm(w)
        H[r, j + 1] = h_next
        h_scale = max(h_scale, float(np.max(np.abs(H[r, : j + 2]))))

        # the new column's diagonal entry once the earlier rotations reach it; this
        # rotation feeds only the residual estimate: R is re-derived after the loop
        t = float(omega[: j + 1].dot(H[r, : j + 1]))
        denom = math.hypot(t, h_next)
        if denom <= 1e-14 * max(h_scale, 1e-300):
            # column adds nothing solvable: discard it and stop
            breakdown = True
            break
        cs, sn = t / denom, h_next / denom
        omega[: j + 1] *= -sn
        omega[j + 1] = cs
        residual *= -sn

        m = j + 1
        history.append(abs(residual) / norm_b)
        if history[-1] <= tol:
            break
        if h_next <= 1e-14 * max(h_scale, 1e-300):
            breakdown = True
            break
        basis[j + 1] = w / h_next

    if count_only:
        converged = history[-1] <= tol
        return SolveReport(None, m, history, converged, breakdown and not converged)

    if m:
        y = np.linalg.solve(H[:m, :m].T, _triangularize(H, m, norm_b))
        x = prec.apply(basis[:m].T @ y)
    else:
        x = np.zeros(n)

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
    """Dense LU with partial pivoting of one diagonal block of the causal march (or
    any square A); raises NumericalError when singular."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError("direct solve produced non-finite entries")
    return x
