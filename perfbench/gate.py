"""Correctness gate: each workload's outputs against independent references.

The references are the paper's iteration counts and bounds, the
best-approximation error of the exact Fourier-series flux, and the series
solution itself; never earlier digits of this program.  So a correct change
that moves late digits still passes.  Every operation (a table row, a solve,
an interior point) is one entry in the returned list, and it fails when any
check on it fails.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from heatbem import mesh as mesh_mod
from heatbem.analysis import l2_error
from heatbem.galerkin import DiscreteFlux
from heatbem.reference import example1_series, example2_series
from heatbem.verification import best_approximation

# Paper Table 1 (alpha = 1): unpreconditioned GMRES counts at L0..9 and the
# opposite-order preconditioned counts at L4..9.
PAPER_IT_NONE = (1, 2, 4, 8, 16, 31, 41, 50, 60, 71)
PAPER_IT_CALDERON = {4: 14, 5: 13, 6: 13, 7: 12, 8: 12, 9: 11}
KAPPA_CALDERON_UNIFORM_MAX = 1.8
# Paper Table 2 final row: V ill-conditioned, Calderon-preconditioned V not.
ADAPTIVE_MIN_N = 278
ADAPTIVE_KAPPA_V_MIN = 1e3
ADAPTIVE_KAPPA_C_MAX = 2.5
ADAPTIVE_IT_CALDERON_MAX = 15
# The Galerkin flux error can never beat the L2 projection of the exact flux.
# The seed sits 0.3-1% above it; a 1% error in the leading term of every V
# entry puts the uniform study 10% above it.
BEST_APPROX_FACTOR = 1.05
# Interior values of the example-1 solution are bounded by max|u0| = 1; the
# seed's errors at N = 4096 are below 5e-7 on the sampled region.
INTERIOR_ABS_ERROR_MAX = 1e-5


def _op(name: str, problems: list[str]) -> dict:
    return {"op": name, "ok": not problems, "detail": "; ".join(problems)}


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _num(row: dict, key: str) -> float | None:
    return float(row[key]) if row.get(key) else None


def _best_error(mesh, series) -> float:
    best = DiscreteFlux(coefficients=best_approximation(mesh, series), mesh=mesh)
    return l2_error(best, series)


def _error_problems(error: float, mesh, series) -> list[str]:
    best = _best_error(mesh, series)
    ratio = error / best
    if not 1.0 <= ratio <= BEST_APPROX_FACTOR:
        return [f"flux error {error:.6g} is {ratio:.6g} x best approximation {best:.6g}"]
    return []


def _study_ops(out: Path, table: str, series, final_checks) -> tuple[list[dict], float | None]:
    rows = _rows(out / f"{table}.csv")
    ops = []
    error = None
    for i, row in enumerate(rows):
        problems = []
        err = _num(row, "l2_error")
        if err is None or not np.isfinite(err) or err <= 0.0:
            problems.append(f"bad l2_error {row.get('l2_error')!r}")
        problems += final_checks(row, i == len(rows) - 1)
        if i == len(rows) - 1 and not problems:
            mesh = mesh_mod.loads((out / f"mesh_L{row['L']}.txt").read_text())
            problems += _error_problems(err, mesh, series)
            error = err
        ops.append(_op(f"{table} row L{row['L']}", problems))
    return ops, error


def _uniform_checks(row: dict, final: bool) -> list[str]:
    level = int(row["L"])
    problems = []
    it_none = int(row["it_none"])
    if level >= len(PAPER_IT_NONE) or it_none != PAPER_IT_NONE[level]:
        problems.append(f"it_none {it_none} differs from the paper")
    if level in PAPER_IT_CALDERON and int(row["it_calderon"]) != PAPER_IT_CALDERON[level]:
        problems.append(f"it_calderon {row['it_calderon']} differs from the paper")
    kc = _num(row, "kappa_calderon_sv")
    if kc is None or kc > KAPPA_CALDERON_UNIFORM_MAX:
        problems.append(f"kappa_calderon_sv {kc} above {KAPPA_CALDERON_UNIFORM_MAX}")
    if final and level != len(PAPER_IT_NONE) - 1:
        problems.append(f"study ended at L{level}")
    return problems


def _adaptive_checks(row: dict, final: bool) -> list[str]:
    if not final:
        return []
    problems = []
    if int(row["N"]) <= ADAPTIVE_MIN_N:
        problems.append(f"final N {row['N']} not above {ADAPTIVE_MIN_N}")
    kv, kc = _num(row, "kappa_V_sv"), _num(row, "kappa_calderon_sv")
    if kv is None or kv < ADAPTIVE_KAPPA_V_MIN:
        problems.append(f"kappa_V_sv {kv} below {ADAPTIVE_KAPPA_V_MIN:g}")
    if kc is None or kc > ADAPTIVE_KAPPA_C_MAX:
        problems.append(f"kappa_calderon_sv {kc} above {ADAPTIVE_KAPPA_C_MAX}")
    if int(row["it_calderon"]) > ADAPTIVE_IT_CALDERON_MAX:
        problems.append(f"it_calderon {row['it_calderon']} above {ADAPTIVE_IT_CALDERON_MAX}")
    return problems


def _solve_ops(out: Path, level: int, points, stdout: str) -> tuple[list[dict], float | None]:
    n = 2 ** (level + 1)  # 2**level elements per side
    problems = []
    if f"solved N={n} in " not in stdout:
        problems.append("no 'solved' line for the expected N")
    lines = [ln.split() for ln in (out / f"flux_L{level}.txt").read_text().splitlines()]
    mesh = mesh_mod.loads("".join(f"{s} {a} {b}\n" for s, a, b, _ in lines), level=level)
    flux = DiscreteFlux(coefficients=np.array([float(ln[3]) for ln in lines]), mesh=mesh)
    series = example1_series()
    error = l2_error(flux, series)
    ops = [_op(f"solve L{level}", problems + _error_problems(error, mesh, series))]

    rows = _rows(out / "interior.csv") if points else []
    for i, (x, t) in enumerate(points):
        point_problems = []
        if i >= len(rows):
            point_problems.append("missing from interior.csv")
        else:
            row = rows[i]
            ref = series.interior(x, t)
            err = abs(float(row["u_h"]) - ref)
            if not err <= INTERIOR_ABS_ERROR_MAX:
                point_problems.append(f"|u_h - u| = {err:.3g} above {INTERIOR_ABS_ERROR_MAX:g}")
        ops.append(_op(f"interior ({x:.6g}, {t:.6g})", point_problems))
    return ops, error


def check(workload: dict, out: Path, exit_code: int, stdout: str, points) -> tuple[list[dict], float | None]:
    """Gate one pass; returns (operations, final flux L2 error or None)."""
    kind = workload["kind"]
    if exit_code != 0:
        n_ops = workload["ops"] + len(points)
        return [_op(f"op {i}", [f"exit code {exit_code}"]) for i in range(n_ops)], None
    if kind == "uniform":
        return _study_ops(out, "table1", example1_series(), _uniform_checks)
    if kind == "adaptive":
        return _study_ops(out, "table2", example2_series(), _adaptive_checks)
    return _solve_ops(out, workload["level"], points, stdout)
