"""Heat-kernel evaluation and exact time-integrated kernel primitives.

The free-space heat kernel for the operator ``alpha*du/dt - d2u/dx2`` is

    G(d, tau) = sqrt(alpha/(4 pi tau)) * exp(-alpha d^2 / (4 tau)),  tau > 0,

and 0 for tau <= 0 (causality).  Every function in this module honours the
causal branch exactly.  Galerkin assembly never touches numerical quadrature:
all double time integrals collapse to the closed-form primitives

    primitive_I0(d, tau) = int_0^tau G(d, s) ds
    primitive_J0(d, tau) = int_0^tau primitive_I0(d, s) ds

and their d-derivatives ``primitive_I1`` / ``primitive_J1``.  The adaptive
quadrature at the bottom of the file serves as an independent cross-check of
those closed forms and as the integrator for smooth moment integrals.

All functions broadcast over numpy arrays and return floats for scalar input.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np
from scipy.special import erfc  # complementary error function, ~1 ulp

__all__ = [
    "QuadratureError",
    "erfc",
    "heat_kernel",
    "primitive_I0",
    "primitive_I1",
    "primitive_J0",
    "primitive_J1",
    "adaptive_quadrature",
    "gauss_legendre",
]

SQRT_PI = float(np.sqrt(np.pi))

# exp() underflows around 1e-308; anything this small is noise in an assembly
# dominated by O(h^{1/2}) entries, flush it so masked branches stay exact zeros
_FLUSH = 1e-300


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""


def _causal(formula, d, tau, alpha, flush=False):
    """formula(d, t, alpha) at t = tau where tau > 0, exactly 0 elsewhere.

    The formula sees tau <= 0 clamped to 1.0, so every branch stays finite;
    flush sets values below _FLUSH to 0.  Scalar input gives a float.
    """
    d = np.asarray(d, dtype=float)
    tau = np.asarray(tau, dtype=float)
    pos = tau > 0.0
    val = formula(d, np.where(pos, tau, 1.0), alpha)
    if flush:
        val = np.where(np.abs(val) < _FLUSH, 0.0, val)
    out = np.where(pos, val, 0.0)
    return float(out) if d.ndim == 0 and tau.ndim == 0 else out


def _g(d, t, alpha):
    return np.sqrt(alpha / (4.0 * np.pi * t)) * np.exp(-alpha * d * d / (4.0 * t))


def heat_kernel(d, tau, alpha=1.0):
    """Free-space heat kernel G(d, tau); exactly 0 for tau <= 0."""
    return _causal(_g, d, tau, alpha, flush=True)


def _causal_terms(d, t, alpha):
    """sqrt(alpha t/pi), exp(-alpha d^2/(4t)), erfc(sqrt(alpha)|d|/(2 sqrt t)) at lags t > 0.

    The Galerkin assembler evaluates these once per distinct lag and derives I0,
    J0 and J1 with the same ``_i0``/``_j0``/``_j1`` as the primitives: both agree
    bitwise.
    """
    return (
        np.sqrt(alpha * t / np.pi),
        np.exp(-alpha * d * d / (4.0 * t)),
        erfc(np.sqrt(alpha) * np.abs(d) / (2.0 * np.sqrt(t))),
    )


def _i0(d, t, alpha, root, gauss, tail):
    return root * gauss - (alpha * np.abs(d) / 2.0) * tail


def _i1(d, t, alpha, root, gauss, tail):
    return -np.sign(d) * (alpha / 2.0) * tail


def _j0(d, t, alpha, root, gauss, tail):
    add2 = alpha * d * d
    near = root * (2.0 * t / 3.0 + add2 / 6.0) * gauss
    return near - (alpha * np.abs(d) / 2.0) * (t + add2 / 6.0) * tail


def _j1(d, t, alpha, root, gauss, tail):
    near = (alpha ** 1.5 * np.abs(d) / (2.0 * SQRT_PI)) * np.sqrt(t) * gauss
    return np.sign(d) * (near - (alpha / 2.0) * (t + alpha * d * d / 2.0) * tail)


def _with_terms(formula):
    """A primitive formula of (d, t, alpha) that computes its own causal terms."""
    return lambda d, t, alpha: formula(d, t, alpha, *_causal_terms(d, t, alpha))


def primitive_I0(d, tau, alpha=1.0):
    """First time primitive int_0^tau G(d, s) ds.

    Closed form:
        sqrt(alpha tau / pi) exp(-alpha d^2/(4 tau))
          - (alpha |d| / 2) erfc(sqrt(alpha) |d| / (2 sqrt(tau)))
    Nonnegative, increasing in tau, and 0 for tau <= 0.
    """
    return _causal(_with_terms(_i0), d, tau, alpha)


def primitive_J0(d, tau, alpha=1.0):
    """Second time primitive int_0^tau primitive_I0(d, s) ds.

    Closed form (validated against nested quadrature in the test suite):
        sqrt(alpha tau / pi) (2 tau/3 + alpha d^2/6) exp(-alpha d^2/(4 tau))
          - (alpha |d|/2) (tau + alpha d^2/6) erfc(sqrt(alpha)|d|/(2 sqrt(tau)))
    For d = 0 this reduces to (2/3) sqrt(alpha/pi) tau^{3/2}.
    """
    return _causal(_with_terms(_j0), d, tau, alpha)


def primitive_I1(d, tau, alpha=1.0):
    """d-derivative of primitive_I0: -sign(d) (alpha/2) erfc(sqrt(alpha)|d|/(2 sqrt(tau))).

    Odd in d and discontinuous at d = 0: the one-sided limits are -alpha/2 as
    d -> 0+ and +alpha/2 as d -> 0- (erfc(0) = 1 for every tau > 0).  At d = 0
    the symmetrized value 0 is returned; its one use, the initial Neumann
    moments, evaluates it at Gauss nodes inside the interval, where d != 0.
    """
    return _causal(_with_terms(_i1), d, tau, alpha)


def primitive_J1(d, tau, alpha=1.0):
    """d-derivative of primitive_J0; odd in d, symmetrized to 0 at d = 0.

    Closed form for d > 0:
        (alpha^{3/2} d / (2 sqrt(pi))) sqrt(tau) exp(-alpha d^2/(4 tau))
          - (alpha/2) (tau + alpha d^2/2) erfc(sqrt(alpha) d / (2 sqrt(tau)))
    """
    return _causal(_with_terms(_j1), d, tau, alpha)


# ---------------------------------------------------------------------------
# adaptive quadrature


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# panel rules of adaptive_quadrature: the error estimate compares the
# 10-point with the 20-point Gauss-Legendre rule; a panel evaluates both
# rules' nodes in one integrand call
_X1, _W1 = gauss_legendre(10)
_X2, _W2 = gauss_legendre(20)
_X12 = np.concatenate([_X1, _X2])


def _vectorize_integrand(f):
    def fv(xs: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(f(xs), dtype=float)
            if out.shape == xs.shape:
                return out
        except Exception:
            pass
        return np.array([float(f(x)) for x in xs], dtype=float)

    return fv


def adaptive_quadrature(f, a, b, tol=1e-10, max_panels=20000):
    """Globally adaptive Gauss quadrature of ``f`` over (a, b).

    Bisects the panel with the worst error estimate (difference between the
    10- and the 20-point Gauss rule) until the estimated total
    absolute error is below ``tol``.  Integrable endpoint singularities up to
    s^{-1/2} are handled by the geometric panel shrinkage.

    Raises QuadratureError if the tolerance is not met within ``max_panels``
    panels or before panels collapse to rounding width.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        return 0.0
    fv = _vectorize_integrand(f)

    def eval_panel(lo: float, hi: float):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        values = fv(c + h * _X12)
        coarse = h * float(np.dot(_W1, values[:len(_W1)]))
        fine = h * float(np.dot(_W2, values[len(_W1):]))
        if not (np.isfinite(fine) and np.isfinite(coarse)):
            raise QuadratureError(
                f"integrand not finite on panel [{lo:.17g}, {hi:.17g}]"
            )
        return fine, abs(fine - coarse)

    val, err = eval_panel(a, b)
    total, total_err = val, err
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    n_panels = 1
    while total_err > tol:
        if n_panels >= max_panels:
            raise QuadratureError(
                f"tolerance {tol:g} not reached within {max_panels} panels "
                f"(estimated error {total_err:g})"
            )
        neg_err, _, lo, hi, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # panel no longer splittable in floating point
            raise QuadratureError(
                f"panel at [{lo:.17g}, {hi:.17g}] collapsed before reaching "
                f"tolerance {tol:g} (estimated error {total_err:g})"
            )
        lval, lerr = eval_panel(lo, mid)
        rval, rerr = eval_panel(mid, hi)
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, lo, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, hi, rval, rerr))
        n_panels += 1
    return total
