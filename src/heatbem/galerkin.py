"""Galerkin assembly with piecewise constant basis functions.

Entries of all operator matrices reduce to closed-form kernel primitives via
inclusion-exclusion over the four corner time lags of an element pair.  With
elements l = (p, q) and k = (r, s) at spatial distance d = x_l - x_k and any
time antiderivative F of the kernel,

    int_l int_k kernel(d, t - sigma) dsigma dt
        = F2(d, q - r) - F2(d, q - s) - F2(d, p - r) + F2(d, p - s)

where F2 is the second antiderivative.  Causality makes every combination with
nonpositive lag vanish, so entries with q <= r (test element entirely before
the trial element) are exactly zero.

Assembly works on a breakpoint table: the two sides' breakpoints merge into
one sorted array B (at most N + 2 values), every corner lag is B_i - c_j for a
trial breakpoint c_j, causal exactly when positive, and d is 0 or +-(b - a).
The exp/erfc factors of each |d| are evaluated once per distinct causal lag
(lags repeat on uniform and dyadic meshes) and give T[i, j] = F2(d, B_i - c_j);
a side block is the second difference of T on its sides' breakpoints, and one T
is live at a time.  One corner-sum routine gives the rows of both sides, from a
given break of both sides on (earlier rows are zero), against the trial sides it
is passed.  ``OperatorMatrices`` assembles V, K and D, each on first read, from
it against every row, one column chunk of at most MARCH_BLOCK elements of one
side at a time: no array has an entry per pair of breaks.  The chunks look their
lags up (``searchsorted``) in the sorted distinct lags of B against itself, which
V, K and D share with their exp/erfc factors until V and D are each formed or
released; ``release`` forgets a block after its last reader.
When both sides share the grid B_i = i h with h a power of two, B_i - B_j is
(i - j) h bitwise and every side block is lower-triangular Toeplitz.  There
``operator`` gives V or D as a ``MirrorToeplitz`` instead, one per name, built
once from the same routine's rows against trial element 0 alone: the first
columns of P = block(left, left) and, V and D being even in d, of
Q = block(right, left) = block(left, right), so bitwise the dense matrix's
column 0, in O(N) memory.  It applies and (for V) inverts the matrix by FFT in
O(N log N); its ``columns`` are the first columns of the n x n even/odd halves
P + Q and P - Q, and ``solve`` solves V w = f by that inversion there.  Elsewhere
``solve`` marches forward in time (Costabel 2004): causality makes V block
lower triangular over the slabs between shared breakpoints, so each column
block of whole slabs solves its diagonal block and leaves the later right-hand
side.  A block's columns, in its own and later rows, are V's where V is formed,
else the same routine's rows against that block's trial sides, so the bisected
mesh of the adaptive indicator forms no N x N matrix.  This module alone decides
how V and D are held.

Sign conventions are fixed operationally: the hypersingular matrix is the one
whose symmetric part is positive definite, and the interior representation
formula test pins the remaining signs end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .kernels import (
    QuadratureError,
    _causal_terms,
    _i0,
    _j0,
    _j1,
    _vectorize_integrand,
    adaptive_quadrature,
    gauss_legendre,
    heat_kernel,
    primitive_I0,
)
from .krylov import NumericalError, direct_solve
from .mesh import BoundaryMesh

__all__ = [
    "Problem",
    "DiscreteFlux",
    "OperatorMatrices",
    "MirrorToeplitz",
    "assemble_all",
    "assemble_rhs",
    "initial_dirichlet_moments",
    "evaluate_interior",
    "write_matrix_text",
]

# accuracy of the right-hand-side and potential integrals
QUAD_TOL = 1e-10
QUAD_ORDER = 8  # first composite Gauss order of the initial-datum moments
QUAD_MAX_ORDER = 64
GRADING_DEPTH = 40  # geometric panels toward each interval endpoint, all kept at tiny t
LAYER_CUTOFF = 0.1  # a block keeps the breaks >= LAYER_CUTOFF sqrt(t_min / alpha) from an end
RHS_ROW_BLOCK = 64  # side breakpoints per primitive call and per panel set of the RHS moments
MARCH_BLOCK = 64  # least elements per column block of the march, most per side of a dense chunk


@dataclass(frozen=True)
class Problem:
    """Heat equation alpha u_t - u_xx = 0 with zero Dirichlet data.

    ``u0`` is the initial datum, a callable u0(y) on the mesh's interval; None
    means identically zero.  The space-time cylinder is the mesh's.
    """

    alpha: float = 1.0
    u0: object = None

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class DiscreteFlux:
    """Piecewise constant Neumann datum, one coefficient per element."""

    coefficients: np.ndarray
    mesh: BoundaryMesh

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=float)
        )
        if self.coefficients.shape != (self.mesh.n_elements,):
            raise ValueError("coefficient count must match the mesh")


class OperatorMatrices:
    """Dense V, K and D of one mesh, each assembled on first read, and the mass diagonal.

    Each is built one column chunk at a time, at most MARCH_BLOCK elements of one
    side against every row.  The three share the sorted distinct lags of the merged
    breaks against themselves and their exp/erfc factors; a block takes its formula
    at those lags before its chunks, and the last of V and D to be formed or
    released drops them, so that block is built beside the distinct lags and its
    own values alone, and K (test-only) read after that sorts the lags again.
    ``release`` forgets a block: a study level releases D after its last reader,
    formed or not.
    """

    def __init__(self, mesh: BoundaryMesh, alpha: float):
        if not alpha > 0.0:
            raise ValueError(f"heat capacity must be positive, got {alpha}")
        self.mesh = mesh
        self.alpha = float(alpha)
        self.mass = mesh.element_sizes.copy()  # mass diagonal; trace 2T
        self._unformed = {"V", "D"}  # the blocks the distinct lags are still kept for

    @property
    def toeplitz(self) -> bool:
        """True when both sides' breaks are arange(n + 1) * h with h a power of two:
        V, K and D are then [[P, Q], [Q, P]] with P, Q lower-triangular Toeplitz,
        ``operator`` holds V and D as FFT operators built once from their first
        columns, and the mass is h, one power of two, on every element."""
        return self._mirror_toeplitz is not None

    @cached_property
    def _mirror_toeplitz(self):
        """{"V": ..., "D": ...} as ``MirrorToeplitz`` if both sides' breaks are
        arange(n + 1) * h with h a power of two (then B_i - B_j == (i - j) h
        bitwise), else None.  P's and Q's first columns are column 0 of the
        dense matrix, the rows of both sides against trial element 0 alone."""
        mesh, h = self.mesh, self.mesh.left_breaks[1]
        if not (mesh.mirror and math.frexp(h)[0] == 0.5
                and np.array_equal(mesh.left_breaks, np.arange(mesh.n_left + 1) * h)):
            return None
        first = (slice(0, 1), mesh.left_breaks[:2], mesh.interval[0], -1.0)
        return {name: MirrorToeplitz(*self._corner_sums(name, 0.0, (first,)).reshape(2, -1))
                for name in "VD"}

    def _terms(self, tau):
        """The exp/erfc factors of both distances |d| at the lags tau."""
        (a, b) = self.mesh.interval
        return {dist: _causal_terms(dist, tau, self.alpha) for dist in (0.0, abs(b - a))}

    @cached_property
    def _distinct_lags(self):
        """(tau, terms) of the merged breaks B against themselves: the sorted distinct
        causal lags B_i - B_j, gathered MARCH_BLOCK columns at a time, and their exp/erfc
        factors, shared by dense V, K and D until ``_dense`` drops them."""
        breaks = self._breaks
        lags = (breaks[:, None] - breaks[None, k:k + MARCH_BLOCK]
                for k in range(0, len(breaks), MARCH_BLOCK))
        tau = np.unique(np.concatenate([np.unique(lag[lag > 0.0]) for lag in lags]))
        return tau, self._terms(tau)

    @cached_property
    def _breaks(self):
        """The merged breaks B of both sides, sorted."""
        return np.union1d(self.mesh.left_breaks, self.mesh.right_breaks)

    def _sides(self, t0=0.0, t1=math.inf):
        """The left and right sides' elements within [t0, t1] (all by default), each
        (their rows, breakpoints, x, outward normal)."""
        (a, b), mesh = self.mesh.interval, self.mesh
        left, right = (br[(t0 <= br) & (br <= t1)] for br in (mesh.left_breaks, mesh.right_breaks))
        n = len(left) - 1
        return ((slice(0, n), left, a, -1.0), (slice(n, None), right, b, 1.0))

    @staticmethod
    def _blocks(odd, rows, cols):
        """Table key -> the (row side, col side) blocks read from its table, for an odd
        (K) or even (V, D) primitive."""
        blocks = {}
        for row in rows:
            for col in cols:
                d = row[2] - col[2]
                if not (odd and d == 0.0):  # an odd primitive vanishes within a side
                    # an even primitive shares the table of d and -d
                    blocks.setdefault(d if odd else abs(d), []).append((row, col))
        return blocks

    def _corner_sums(self, name, start, cols, shared=None, out=None) -> np.ndarray:
        """The rows of V, K or D from the break ``start`` on against the trial sides
        ``cols`` (each: its columns, breakpoints, x, outward normal), in ``out`` if
        given, else new zeros: corner sums of every side block, then op(block, factor).
        ``start`` must be a break of both sides at or before the first trial break: no
        element then straddles it, and the rows before it, which meet no positive lag,
        are zero.  The causal lags are looked up in the distinct lags tau of ``shared``
        = (tau, {table key: the formula at tau}), or by default sorted here."""
        formula, op, factor, odd = self._form(name)
        mesh, first = self.mesh, min(col[1][0] for col in cols)
        if not (start <= first and start in mesh.left_breaks and start in mesh.right_breaks):
            raise ValueError(f"rows cannot start at t = {start!r}: no break of both sides "
                             f"at or before the first trial break {first!r}")
        breaks = self._breaks[self._breaks >= start]
        col_breaks = reduce(np.union1d, [col[1] for col in cols])
        lag = breaks[:, None] - col_breaks[None, :]
        causal = lag > 0.0
        lag = lag[causal]  # the causal lags alone: the |B| x |c| matrix goes before the sort
        if shared is None:
            # exact float equality only, no tolerance: lags that never repeat get no reuse
            tau, inv = np.unique(lag, return_inverse=True)  # causal lag -> distinct lag
            terms = self._terms(tau)
        else:
            tau, values = shared
            inv = np.searchsorted(tau, lag)  # every lag is one of tau, exactly
        del lag
        rows = self._sides(start)
        if out is None:
            out = np.zeros((sum(len(side[1]) - 1 for side in rows),
                            sum(len(col[1]) - 1 for col in cols)))
        table = np.zeros(causal.shape)  # its acausal zeros serve every key
        for key, pairs in self._blocks(odd, rows, cols).items():
            table[causal] = (values[key] if shared else
                             formula(key, tau, self.alpha, *terms[abs(key)]))[inv]
            for (rows_at, row_b, _, n_row), (col, col_b, _, n_col) in pairs:
                at = (_positions(breaks, row_b), _positions(col_breaks, col_b))
                g = table[at] if any(isinstance(i, slice) for i in at) else table[np.ix_(*at)]
                block = out[rows_at, col]
                np.subtract(g[1:, :-1], g[1:, 1:], out=block)
                block -= g[:-1, :-1]
                block += g[:-1, 1:]
                op(block, factor(n_row, n_col), out=block)
                del g  # one gathered block live at a time, if not a view
        return out

    def _form(self, name):
        """(formula, op, factor(n_row, n_col), odd): block = op(corner sums, factor)."""
        alpha = self.alpha
        return {
            "V": (_j0, np.divide, lambda nr, nc: alpha, False),
            "K": (_j1, np.multiply, lambda nr, nc: -nc / alpha, True),
            "D": (_i0, np.multiply, lambda nr, nc: nr * nc, False),
        }[name]

    def operator(self, name: str):
        """V or D as a square operator with ``shape``, ``@`` and ``diagonal``: on a
        Toeplitz mesh its one ``MirrorToeplitz``, built once with the other's and
        never formed densely; elsewhere the dense matrix."""
        return self._mirror_toeplitz[name] if self.toeplitz else getattr(self, name)

    def solve(self, f) -> np.ndarray:
        """Finite w with V w = f: fast Volterra inversion on a Toeplitz mesh, elsewhere
        the causal march."""
        w = self.operator("V").solve(f) if self.toeplitz else self._march(f)
        if not np.all(np.isfinite(w)):
            raise NumericalError("solve produced non-finite entries")
        return w

    def _march(self, f) -> np.ndarray:
        """w with V w = f by forward substitution over column blocks in time order,
        each a run of whole consecutive slabs of at least MARCH_BLOCK elements (the
        last may have fewer).  Causality makes V block lower triangular over the
        slabs, so block K solves V[K, K] w_K = f_K (``direct_solve``) and subtracts
        V[later, K] w_K from the later right-hand side.  Its columns are read only
        in the rows of K and later (earlier rows are zero): a slice of V where V is
        formed, else the corner sums against its own trial sides alone, bitwise the
        same, in O(N x block) memory."""
        mesh, w = self.mesh, np.array(f, dtype=float)
        begins, t0, count = mesh.t_begin_all, 0.0, 0
        for slab in mesh.slabs:
            count += len(slab)
            t1 = mesh.t_end_all[slab[-1]]
            if count < MARCH_BLOCK and t1 < mesh.horizon:
                continue
            rows = np.flatnonzero(begins >= t0)
            mine = begins[rows] < t1
            own, later = rows[mine], rows[~mine]
            if "V" in vars(self):
                cols = self.V[np.ix_(rows, own)]
            else:
                cols = self._corner_sums("V", t0, self._sides(t0, t1))
            w[own] = direct_solve(cols[mine], w[own])
            w[later] -= cols[~mine] @ w[own]
            t0, count = t1, 0
        return w

    def _dense(self, name) -> np.ndarray:
        """The dense V, K or D, one column chunk of at most MARCH_BLOCK elements of one
        side against every row at a time, from the shared distinct lags.  Their formula
        values are taken first: the last of V and D to be formed holds the distinct lags
        and those values alone, not the exp/erfc factors."""
        (formula, _, _, odd), sides = self._form(name), self._sides()
        tau, terms = self._distinct_lags
        self._drop_lags(name)
        values = {key: formula(key, tau, self.alpha, *terms[abs(key)])
                  for key in self._blocks(odd, sides, sides)}
        del terms
        out = np.zeros((self.mesh.n_elements,) * 2)
        for col, breaks, x, normal in sides:
            for k in range(0, len(breaks) - 1, MARCH_BLOCK):
                part = breaks[k:k + MARCH_BLOCK + 1]
                self._corner_sums(name, 0.0, ((slice(None), part, x, normal),), (tau, values),
                                  out[:, col][:, k:k + len(part) - 1])
        return out

    def _drop_lags(self, name) -> None:
        """``name`` is formed or released: drop the shared distinct lags once V and D
        both are.  K (test-only), or a released block, read later sorts them again."""
        self._unformed.discard(name)
        if not self._unformed:
            vars(self).pop("_distinct_lags", None)

    def release(self, name: str) -> None:
        """Forget the block ``name`` (V, K or D), formed or not: its memory goes with
        the last other reference to it, a later read assembles it again, and the
        distinct lags are not kept for it."""
        vars(self).pop(name, None)
        self._drop_lags(name)

    @cached_property
    def V(self) -> np.ndarray:
        """Single layer: (1/alpha) double integral of the heat kernel."""
        return self._dense("V")

    @cached_property
    def K(self) -> np.ndarray:
        """Double layer with kernel (1/alpha) d/dn_y G(x - y, t - s).

        The kernel is odd in d, so same-side entries vanish identically; only
        the cross-side blocks are populated.  d/dn_y G = -n_y dG/dd.
        """
        return self._dense("K")

    @cached_property
    def D(self) -> np.ndarray:
        """Hypersingular matrix via the exact temporal collapse.

        The kernel n_x n_y d2G/dd2 / alpha equals n_x n_y dG/dtau, whose double
        time integral telescopes to first-antiderivative differences; this
        realizes the finite-part value without any numerical regularization.
        The global sign makes the symmetric part positive definite.
        """
        return self._dense("D")


def _positions(sorted_breaks, part):
    """The positions of ``part`` in ``sorted_breaks``: a slice where they form a range
    (the table is then read as a view, not copied), else an index array."""
    at = np.searchsorted(sorted_breaks, part)
    return slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else at


def _causal_product(a, b, m):
    """The first m terms of the convolutions of the rows of a and b, by FFT."""
    size = 1 << (a.shape[-1] + b.shape[-1] - 2).bit_length()  # >= the full length
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[..., :m]


class MirrorToeplitz:
    """[[P, Q], [Q, P]] with P, Q lower-triangular Toeplitz, applied without forming it.

    Holds the rfft of P's and Q's first columns zero-padded to 2n.  Each half
    of a product is a sum of two causal convolutions, so a product takes two
    forward and two inverse FFTs of length 2n (the fast Volterra convolution of
    Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 1985).  ``solve``
    inverts it the same way: (u, v) -> (u + v, u - v) / 2 maps the system to
    the lower-triangular Toeplitz P + Q and P - Q, whose inverses are Toeplitz
    with first columns the power-series inverses of theirs.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray):
        n = len(p)
        self.shape = (2 * n, 2 * n)
        self._pq = np.fft.rfft(np.stack([p, q]), 2 * n)
        self.columns = np.stack([p + q, p - q])  # first columns of P + Q and P - Q
        self._diagonal = p[0]

    def diagonal(self) -> np.ndarray:
        """The main diagonal, P's lag-0 entry on both sides (as ``ndarray.diagonal``)."""
        return np.full(self.shape[0], self._diagonal)

    @cached_property
    def _inverses(self) -> np.ndarray:
        """First columns of (P + Q)^-1 and (P - Q)^-1: Newton's step g <- g (2 - c g)
        on the power series, which doubles the number of correct terms.  The k
        terms of g are kept; the next m - k are -g (c g)[k:m]."""
        c = self.columns
        g = 1.0 / c[:, :1]
        while (k := g.shape[1]) < c.shape[1]:
            m = min(2 * k, c.shape[1])
            cg = _causal_product(c[:, :m], g, m)  # 1, 0, ..., 0 up to rounding below k
            g = np.concatenate([g, -_causal_product(g, cg[:, k:], m - k)], axis=1)
        return g

    def solve(self, b) -> np.ndarray:
        """x with self @ x = b, in O(n log n): two lower-triangular Toeplitz solves."""
        n = self.shape[0] // 2
        b1, b2 = np.reshape(b, (2, n))
        u, v = _causal_product(self._inverses, np.stack([b1 + b2, b1 - b2]), n)
        return 0.5 * np.concatenate([u + v, u - v])

    def __matmul__(self, x):
        n = self.shape[0] // 2
        x1, x2 = np.fft.rfft(np.reshape(x, (2, n)), 2 * n)  # both halves, one call
        y = self._pq * x1  # (p x1, q x1)
        y += self._pq[::-1] * x2  # + (q x2, p x2)
        return np.fft.irfft(y, 2 * n)[:, :n].ravel()


def assemble_all(mesh: BoundaryMesh, alpha: float) -> OperatorMatrices:
    """V, K and D of the mesh, each assembled when first read."""
    return OperatorMatrices(mesh, alpha)


# ---------------------------------------------------------------------------
# right-hand side and potential evaluation


@lru_cache(maxsize=32)
def _graded_breaks(a: float, b: float) -> tuple[float, ...]:
    # geometric grading toward both endpoints: resolves kernel layers of
    # width down to (b - a) * 2^-GRADING_DEPTH
    steps = (b - a) * 2.0 ** -np.arange(GRADING_DEPTH, 0, -1.0)
    return tuple(np.unique(np.r_[a, a + steps, b - steps, b]).tolist())


def _composite_nodes(breaks: np.ndarray, order: int):
    xi, wt = gauss_legendre(order)
    lo, hi = breaks[:-1], breaks[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * xi).ravel(), (half[:, None] * wt).ravel()


def _spatial_moments(mesh, problem, primitive):
    """int_a^b u0(y) [F(x_l - y, t_l2) - F(x_l - y, t_l1)] dy for every element.

    The time integral is exact (F is the kernel's time antiderivative); the
    y-integral is a composite Gauss rule, its order doubled until the moments
    stabilize.  Each order evaluates F(x_side - y, t) once per breakpoint t of
    each side, RHS_ROW_BLOCK rows at a time, and reduces each block at once to
    its elements' moments (differences of consecutive rows); a block carries
    its last row into the next.  At lag t the integrand's layer at an end is
    about sqrt(t / alpha) wide, so a block keeps the graded breaks at least
    LAYER_CUTOFF sqrt(t_min / alpha) from the ends, and the ends (t_min: its
    smallest positive t, the carry's included); the carry is evaluated again
    when that panel set changes.
    """
    u0 = _vectorize_integrand(problem.u0)
    alpha = problem.alpha
    breaks = np.asarray(_graded_breaks(*mesh.interval))
    a, b = mesh.interval
    depth = np.r_[np.inf, np.minimum(breaks - a, b - breaks)[1:-1], np.inf]  # the ends stay
    sides = ((a, mesh.left_breaks), (b, mesh.right_breaks))  # x_all order

    def compute(order):
        out, at = np.empty(mesh.n_elements), 0
        for x, t in sides:
            kept = None
            for lo in range(0, len(t), RHS_ROW_BLOCK):
                ts = t[max(lo - 1, 0):lo + RHS_ROW_BLOCK]  # the carry's t and the block's
                keep = depth >= LAYER_CUTOFF * math.sqrt(ts[ts > 0.0][0] / alpha)
                if not np.array_equal(keep, kept):
                    kept, (ys, ws) = keep, _composite_nodes(breaks[keep], order)
                    d, wu = x - ys, ws * u0(ys)
                    carry = primitive(d, ts[:1, None], alpha) if lo else np.empty((0, len(ys)))
                rows = np.concatenate([carry, primitive(d, t[lo:lo + RHS_ROW_BLOCK, None], alpha)])
                out[at:at + len(rows) - 1] = (rows[1:] - rows[:-1]) @ wu
                at, carry = at + len(rows) - 1, rows[-1:]
        return out

    order = QUAD_ORDER
    prev = compute(order)
    while True:
        order *= 2
        cur = compute(order)
        diff = np.abs(cur - prev)
        if diff.max() <= QUAD_TOL:
            return cur
        if order >= QUAD_MAX_ORDER:
            worst = int(np.argmax(diff))
            raise QuadratureError(
                f"initial-datum moment for element {worst} did not stabilize "
                f"to {QUAD_TOL:g} (last change {diff[worst]:g})"
            )
        prev = cur


def initial_dirichlet_moments(mesh, problem) -> np.ndarray:
    """<M0 u0, phi_l>: time-integrated initial heat potential on the boundary."""
    if problem.u0 is None:
        return np.zeros(mesh.n_elements)
    return _spatial_moments(mesh, problem, primitive_I0)


def assemble_rhs(mesh: BoundaryMesh, problem: Problem) -> np.ndarray:
    """Right-hand side -<M0 u0, phi_l>.

    Warns, never enforces, when u0 does not vanish at an end of the interval,
    where it meets the zero Dirichlet datum.  Raises NumericalError when u0 is
    given but every moment is exactly 0 (GMRES would return w = 0 as solved).
    """
    if problem.u0 is not None:
        for xc in mesh.interval:
            u0c = float(np.asarray(problem.u0(xc)))
            if abs(u0c) > 1e-10:
                warnings.warn(
                    f"initial and boundary data are incompatible at x={xc}: "
                    f"u0={u0c:.3e} vs g=0",
                    stacklevel=2,
                )
    moments = initial_dirichlet_moments(mesh, problem)
    if problem.u0 is not None and not np.any(moments):
        raise NumericalError(f"right-hand side is exactly zero at alpha={problem.alpha:g}")
    # 0.0 - m rather than -m keeps exact zeros unsigned in the matrix dumps
    return 0.0 - moments


def evaluate_interior(x: float, t: float, flux: DiscreteFlux, problem: Problem) -> float:
    """Representation formula: initial potential + single layer."""
    mesh = flux.mesh
    a, b = mesh.interval
    if not a < x < b:
        raise ValueError(f"x={x} is not inside ({a}, {b})")
    if not 0.0 < t <= mesh.horizon:
        raise ValueError(f"t={t} is not inside (0, {mesh.horizon}]")
    alpha = problem.alpha

    # per element I0(x - x_l, t - t_l1) - I0(x - x_l, t - t_l2), in element order; I0
    # is evaluated once per breakpoint of each side, only at the positive lags
    # (breaks[:m] < t), and is exactly 0 from breaks[m] on
    layer, at = np.empty(mesh.n_elements), 0
    for xs, breaks in ((a, mesh.left_breaks), (b, mesh.right_breaks)):
        m = int(np.searchsorted(breaks, t))
        prim = np.zeros(len(breaks))
        prim[:m] = primitive_I0(x - xs, t - breaks[:m], alpha)
        np.subtract(prim[:-1], prim[1:], out=layer[at:at + len(breaks) - 1])
        at += len(breaks) - 1
    single = float(np.sum(flux.coefficients * layer)) / alpha

    initial = 0.0
    if problem.u0 is not None:
        u0 = _vectorize_integrand(problem.u0)

        def m0_integrand(y):
            return u0(y) * heat_kernel(x - np.asarray(y, dtype=float), t, alpha)

        # the kernel peaks at y = x; split there so each panel is one-sided
        initial = adaptive_quadrature(
            m0_integrand, a, x, tol=QUAD_TOL
        ) + adaptive_quadrature(m0_integrand, x, b, tol=QUAD_TOL)

    return initial + single


def write_matrix_text(path, array) -> None:
    """Row-major plain-text dump with 17 significant digits (debug contract)."""
    arr = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
