#!/usr/bin/env python3
"""Print the maximum resident set after each stage of one CLI command.

    PYTHONPATH=src python scripts/stage_rss.py study-adaptive --example 2 --target-n 278

The command runs in-process after the set-up of ``perfbench/worker.py``
(imports, both reference series, one small LAPACK call), with its tables
written to a temporary directory.  After each dense block (``_dense``), march
(``_march``), GMRES solve and kappa stage, one line gives the stage, the mesh
size N, ``ru_maxrss`` in MB and its growth since the line before; a step of the
adaptive loop's indicator, which solves on the bisected mesh, reads
``indicator``.  The first line is the set-up's.  ``ru_maxrss`` only grows, so
the stages that move it are the ones that set the process's high-water mark.
"""

import contextlib
import functools
import io
import resource
import sys
import tempfile
import warnings

import numpy
import scipy.special  # noqa: F401  (heatbem's erfc, imported in the benchmark's set-up)

import heatbem.cli
from heatbem import galerkin, studies
from heatbem.reference import example1_series, example2_series


def marked(owner, attr: str, label, mark) -> None:
    """Wrap ``owner.attr`` so that ``mark(*label(args, kwargs))``, the stage and N,
    follows each call."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        mark(*label(args, kwargs))
        return out

    setattr(owner, attr, wrapper)


def main(argv) -> int:
    out, last = sys.stdout, [0.0]

    def mark(stage: str, n: int) -> None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.write(f"{stage:<22} N={n:<6} {rss:9.2f} MB  {rss - last[0]:+7.2f}\n")
        last[0] = rss

    example1_series()
    example2_series()
    numpy.linalg.solve(numpy.eye(256) + 1.0, numpy.ones(256))
    mark("set-up", 0)
    where = ["level"]  # the level's stages, or the indicator's bisected solve
    real_indicator = studies.two_level_indicator

    def indicator(problem, flux):
        where[0] = "indicator"
        try:
            return real_indicator(problem, flux)
        finally:
            where[0] = "level"

    studies.two_level_indicator = indicator
    ops = galerkin.OperatorMatrices
    pre = {"identity": "none", "diagonal": "diag", "calderon": "calderon"}
    marked(ops, "_dense", lambda a, k: (f"{where[0]} _dense {a[1]}", a[0].mesh.n_elements), mark)
    marked(ops, "_march", lambda a, k: (f"{where[0]} _march", a[0].mesh.n_elements), mark)
    marked(studies, "gmres",
           lambda a, k: (f"gmres {pre[k['preconditioner'].kind]}", len(a[1])), mark)
    marked(studies, "_kappa_columns", lambda a, k: (f"kappa {a[3]}", a[1].mesh.n_elements), mark)
    with tempfile.TemporaryDirectory() as tables, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(io.StringIO()):
            return heatbem.cli.main(list(argv) + ["--out", tables])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
