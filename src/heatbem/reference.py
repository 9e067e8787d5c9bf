"""Exact reference solutions on (0, 1) with zero Dirichlet data.

Separation of variables gives u(x, t) = sum_n b_n sin(n pi x) exp(-n^2 pi^2 t / alpha)
with b_n = 2 int_0^1 u0(x) sin(n pi x) dx.  The boundary flux w = du/dn is

    left  (x = 0, n = -1):  w(t) = -sum_n b_n n pi exp(-n^2 pi^2 t / alpha)
    right (x = 1, n = +1):  w(t) = +sum_n b_n n pi (-1)^n exp(-n^2 pi^2 t / alpha)

Two initial data ship with closed-form coefficients:

    smooth_mode:    u0(x) = sin(2 pi x)          -> b_2 = 1, all others 0
    boundary_layer: u0(x) = 5 exp(-10 x) sin(pi x)

For the second one, sin(pi x) sin(n pi x) = (cos((n-1) pi x) - cos((n+1) pi x))/2
and int_0^1 exp(-10 x) cos(m pi x) dx = 10 (1 - (-1)^m e^{-10}) / (100 + m^2 pi^2),
so with s_n = 1 + (-1)^n e^{-10}:

    b_n = 50 s_n [ 1/(100 + (n-1)^2 pi^2) - 1/(100 + (n+1)^2 pi^2) ].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Side

__all__ = [
    "SineSeries",
    "example1_initial_datum",
    "example2_initial_datum",
    "example1_series",
    "example2_series",
]


def example1_initial_datum(x):
    """u0(x) = sin(2 pi x); single-mode smooth datum."""
    return np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


def example2_initial_datum(x):
    """u0(x) = 5 exp(-10 x) sin(pi x); steep boundary-layer datum."""
    x = np.asarray(x, dtype=float)
    return 5.0 * np.exp(-10.0 * x) * np.sin(np.pi * x)


@dataclass(frozen=True)
class SineSeries:
    """Truncated sine expansion of a homogeneous-Dirichlet heat solution."""

    coefficients: np.ndarray  # b_1 .. b_{n_max}
    alpha: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=float)
        )
        if len(self.coefficients) < 1:
            raise ValueError("need at least one coefficient")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    @property
    def n_max(self) -> int:
        return len(self.coefficients)

    def _modes(self):
        n = np.arange(1, self.n_max + 1)
        return n, n * n * np.pi * np.pi / self.alpha

    def interior(self, x: float, t: float) -> float:
        """u(x, t) for 0 < x < 1, t >= 0."""
        n, rates = self._modes()
        return float(
            np.sum(self.coefficients * np.sin(n * np.pi * x) * np.exp(-rates * t))
        )

    def flux(self, side: Side, t):
        """Boundary flux du/dn at the given side; t >= 0 scalar, 1-D or 2-D array.
        Modes below machine noise at the earliest time of a batch are dropped.  A
        scalar or 1-D t is one batch; each row of a 2-D t is its own, bitwise."""
        n, rates = self._modes()
        if side is Side.LEFT:
            c = -self.coefficients * n * np.pi
        else:
            c = self.coefficients * n * np.pi * (-1.0) ** n
        t_arr = np.asarray(t, dtype=float)
        rows = t_arr if t_arr.ndim == 2 else t_arr.reshape(1, -1)
        t_min = rows.min(axis=1)
        # rates increase, so the alive modes (exp(-46) ~ 1e-20) are a prefix, counted in
        # blocks of 2^15 doubles, never as one rows x n_max array
        step = max(1, (1 << 15) // self.n_max)
        alive = np.concatenate([np.count_nonzero(rates * t_min[i:i + step, None] < 46.0, axis=1)
                                for i in range(0, len(t_min), step)])
        cutoffs = np.where(t_min > 0.0, np.maximum(alive, 1), self.n_max)
        vals = np.empty(rows.shape)
        for k in np.unique(cutoffs):  # one gemv per row, as the row's own call
            same = cutoffs == k
            vals[same] = np.exp(-(rows[same][:, :, None] * rates[:k])) @ c[:k]
        return float(vals[0, 0]) if t_arr.ndim == 0 else vals.reshape(t_arr.shape)


def example1_series(alpha: float = 1.0, n_max: int = 8) -> SineSeries:
    """Closed-form expansion of sin(2 pi x): b_2 = 1."""
    coeff = np.zeros(max(2, n_max))
    coeff[1] = 1.0
    return SineSeries(coefficients=coeff, alpha=alpha)


def example2_series(alpha: float = 1.0, n_max: int = 2048) -> SineSeries:
    """Closed-form expansion of 5 exp(-10 x) sin(pi x)."""
    n = np.arange(1, n_max + 1)
    s = 1.0 + (-1.0) ** n * np.exp(-10.0)
    coeff = 50.0 * s * (
        1.0 / (100.0 + (n - 1) ** 2 * np.pi ** 2)
        - 1.0 / (100.0 + (n + 1) ** 2 * np.pi ** 2)
    )
    return SineSeries(coefficients=coeff, alpha=alpha)
