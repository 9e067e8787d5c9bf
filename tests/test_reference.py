"""Sine-series reference solutions: coefficients, flux, interior values."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from oracles import flux_l2_norm

from heatbem.kernels import adaptive_quadrature
from heatbem.mesh import Side
from heatbem.reference import (
    SineSeries,
    example1_series,
    example2_initial_datum,
    example2_series,
)


class TestExpand:
    def test_example2_closed_form_vs_quadrature(self):
        closed = example2_series(n_max=10).coefficients
        # b_n = 2 int_0^1 u0 sin(n pi x) dx  with an independent quadrature
        for k in range(1, 11):
            b_q = 2.0 * adaptive_quadrature(
                lambda x, k=k: 5.0
                * np.exp(-10.0 * x)
                * np.sin(np.pi * x)
                * np.sin(k * np.pi * x),
                0.0,
                1.0,
                tol=1e-13,
            )
            assert closed[k - 1] == pytest.approx(b_q, abs=1e-12)

    def test_example2_first_coefficient_frozen(self):
        assert example2_series(n_max=4).coefficients[0] == pytest.approx(
            0.14151517476685865, rel=1e-13
        )


class TestFlux:
    def test_example1_left(self):
        series = example1_series()
        for t in (0.01, 0.1, 0.5):
            expected = -2.0 * np.pi * math.exp(-4.0 * np.pi ** 2 * t)
            assert series.flux(Side.LEFT, t) == pytest.approx(expected, rel=1e-13)

    def test_example1_right_sign(self):
        series = example1_series()
        t = 0.2
        # mode 2 carries (-1)^2 = +1 at the right endpoint
        assert series.flux(Side.RIGHT, t) == pytest.approx(
            2.0 * np.pi * math.exp(-4.0 * np.pi ** 2 * t), rel=1e-13
        )

    def test_long_time_decay(self):
        series = example2_series(n_max=64)
        assert abs(series.flux(Side.LEFT, 50.0)) < 1e-200

    def test_alpha_slows_decay(self):
        fast = example1_series(alpha=1.0)
        slow = example1_series(alpha=4.0)
        assert abs(slow.flux(Side.LEFT, 0.5)) > abs(fast.flux(Side.LEFT, 0.5))

    def test_vectorized_matches_scalar(self):
        series = example2_series(n_max=128)
        ts = np.array([0.01, 0.3, 0.9])
        vals = series.flux(Side.LEFT, ts)
        for t, v in zip(ts, vals):
            assert v == pytest.approx(series.flux(Side.LEFT, float(t)), rel=1e-13)

    @staticmethod
    def one_batch_flux(series, side, t):
        """The flux of a 1-D t as one outer product, cut at the modes alive at min(t)."""
        n, rates = series._modes()
        if side is Side.LEFT:
            c = -series.coefficients * n * np.pi
        else:
            c = series.coefficients * n * np.pi * (-1.0) ** n
        cutoff = series.n_max
        if t.min() > 0.0:
            alive = np.flatnonzero(rates * t.min() < 46.0)
            cutoff = max(1, int(alive[-1]) + 1) if len(alive) else 1
        return np.exp(-np.outer(t, rates[:cutoff])) @ c[:cutoff], cutoff

    @pytest.mark.parametrize("width", [8, 30])
    def test_rows_get_their_own_cutoff(self, width):
        # each row of a 2-D t is evaluated as the 1-D call on that row, bitwise
        series = example2_series()  # 2048 modes
        rows = np.array([
            np.geomspace(2.0 ** -20, 1.0, width),
            np.geomspace(1e-7, 1e-6, width),
            np.linspace(0.3, 0.9, width),
            np.linspace(49.0, 51.0, width),
            np.linspace(0.0, 0.5, width),
            np.geomspace(1e-3, 1e-2, width)[::-1],
        ])
        cutoffs = []
        for side in Side:
            got = series.flux(side, rows)
            for row, vals in zip(rows, got):
                assert np.array_equal(vals, series.flux(side, row))
                expected, cutoff = self.one_batch_flux(series, side, row)
                assert np.array_equal(vals, expected)
                cutoffs.append(cutoff)
        # the rows cover: all modes kept (small t, and t = 0), only mode 1 kept
        assert cutoffs[:6] == [2048, 2048, 3, 1, 2048, 68]

    def test_mode_count_takes_no_rows_by_modes_array(self):
        # 300 rows of 8 times against 2048 modes: one rows x n_max float array would be
        # 4.9 MB; the row blocks of the count keep the peak below 1 MB, bitwise
        series = example2_series()
        rows = np.geomspace(2.0 ** -19, 1.0, 2401)[:-1].reshape(300, 8)
        series.flux(Side.LEFT, rows[:2])  # warm caches
        tracemalloc.start()
        try:
            got = series.flux(Side.LEFT, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1e6
        for row, vals in zip(rows, got):
            assert np.array_equal(vals, series.flux(Side.LEFT, row))
            assert np.array_equal(vals, self.one_batch_flux(series, Side.LEFT, row)[0])

    def test_truncation_control(self):
        # doubling n_max moves the flux by less than 1e-10 at resolved times
        coarse = example2_series(n_max=256)
        fine = example2_series(n_max=512)
        for t in (0.002, 0.05, 0.7):
            assert coarse.flux(Side.LEFT, t) == pytest.approx(
                fine.flux(Side.LEFT, t), abs=1e-10
            )

    def test_l2_norm_example1(self):
        # ||w||^2 = 1 - exp(-8 pi^2) over both sides
        series = example1_series()
        assert flux_l2_norm(series, 1.0) == pytest.approx(
            math.sqrt(1.0 - math.exp(-8.0 * np.pi ** 2)), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [1.0, 1e16, 1e18, 1e20])
    @pytest.mark.parametrize("series", [example1_series, lambda alpha: example2_series(alpha, 64)],
                             ids=["example1", "example2_64"])
    def test_l2_norm_against_mpmath(self, series, alpha):
        # at large alpha lam T is tiny, and 1 - exp(-lam T) in doubles cancels (example 1
        # would read 8.878, 10.54 and 0 at alpha = 1e16, 1e18 and 1e20, not 8.886)
        s = series(alpha)
        with mpmath.workdps(40):
            n = range(1, s.n_max + 1)
            c = [mpmath.mpf(b) * k * mpmath.pi for b, k in zip(s.coefficients, n)]
            rate = [k * k * mpmath.pi ** 2 / mpmath.mpf(alpha) for k in n]
            total = mpmath.fsum(
                c[i] * c[j] * (1 + (-1) ** (i + j)) * -mpmath.expm1(-(rate[i] + rate[j]))
                / (rate[i] + rate[j])
                for i in range(s.n_max) for j in range(s.n_max)
            )
            expected = float(mpmath.sqrt(total))
        assert flux_l2_norm(s, 1.0) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestInterior:
    def test_reproduces_initial_datum(self):
        series = example2_series(n_max=4096)
        for x in (0.1, 0.37, 0.9):
            assert series.interior(x, 0.0) == pytest.approx(
                float(example2_initial_datum(x)), abs=1e-6
            )

    def test_example1_value(self):
        series = example1_series()
        expected = math.exp(-4.0 * np.pi ** 2 * 0.1)  # sin(pi/2) = 1
        assert series.interior(0.25, 0.1) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.0192963, abs=1e-7)

    def test_boundary_values_vanish(self):
        series = example2_series(n_max=512)
        assert series.interior(0.0, 0.3) == 0.0
        assert series.interior(1.0, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_pde_residual(self):
        # alpha du/dt - d2u/dx2 = 0, checked with central differences
        series = example2_series(alpha=1.7, n_max=8)
        for x, t in ((0.3, 0.2), (0.6, 0.5), (0.45, 0.08)):
            hx, ht = 1e-4, 1e-5
            dtt = (series.interior(x, t + ht) - series.interior(x, t - ht)) / (2 * ht)
            dxx = (
                series.interior(x + hx, t)
                - 2 * series.interior(x, t)
                + series.interior(x - hx, t)
            ) / hx ** 2
            resid = series.alpha * dtt - dxx
            scale = max(abs(dxx), abs(dtt), 1e-10)
            assert abs(resid) / scale < 1e-6


def test_series_validation():
    with pytest.raises(ValueError):
        SineSeries(coefficients=np.array([]))
    with pytest.raises(ValueError):
        SineSeries(coefficients=np.array([1.0]), alpha=0.0)
