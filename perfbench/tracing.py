"""Call-site tracing of heatbem from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper that
records a span (name, start, end, parent) and the work counts of the call.
``studies``, ``cli`` and ``galerkin`` import names directly, so a function is
replaced in every heatbem module that holds it, not only where it is defined;
``uninstall`` puts the originals back.  Spans stay in memory until the run
ends.  Nothing here changes the arguments or results the program sees, except
that ``assemble_all`` hands its callers a read-counting view of the matrices.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

GMRES_KIND = {"identity": "none", "diagonal": "diag", "calderon": "calderon"}
KAPPA_METHODS = ("sv", "eig")


class BlockReads:
    """Read-counting view of ``OperatorMatrices``: records which of V/K/D are read."""

    __slots__ = ("_mats", "_read")

    def __init__(self, mats, read: set):
        self._mats = mats
        self._read = read

    def __getattr__(self, name):
        if name in ("V", "K", "D"):
            self._read.add(name)
        return getattr(self._mats, name)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _gmres_span(args, kwargs):
    prec = _arg(args, kwargs, 4, "preconditioner")
    return "krylov.gmres." + GMRES_KIND[prec.kind if prec is not None else "identity"]


def _kappa_span(args, kwargs):
    return "analysis.kappa_" + _arg(args, kwargs, 1, "method", "sv")


class Tracer:
    """In-memory span recorder with call-site wrappers for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.blocks_read: list[set] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        """Wrapper of ``fn`` recording a span; ``name`` may be a callable of the args."""

        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return result if count is None else count(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def _count_evals(self, args, kwargs, result):
        d, tau = args[0], args[1]
        shape = np.broadcast_shapes(np.shape(d), np.shape(tau))
        self.counts["kernels.primitive.evals"] += math.prod(shape)
        return result

    def _count_assembly(self, args, kwargs, result):
        n = result.mesh.n_elements
        self.counts["galerkin.assemble.entries"] += 3 * n * n
        self.counts["galerkin.assemble.bytes_computed"] += (
            result.V.nbytes + result.K.nbytes + result.D.nbytes
        )
        read: set = set()
        self.blocks_read.append(read)
        return BlockReads(result, read)

    def _count_gmres(self, args, kwargs, report):
        kind = _gmres_span(args, kwargs).rsplit(".", 1)[1]
        self.counts[f"krylov.gmres.{kind}.iters"] += report.iterations
        self.counts["krylov.gmres.unconverged"] += 0 if report.converged else 1
        return report

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(defining module, attribute, span name, counter) of every traced function."""
        prim = [
            ("heatbem.kernels", f"primitive_{p}", "kernels.primitive", self._count_evals)
            for p in ("I0", "I1", "J0", "J1")
        ]
        return prim + [
            ("heatbem.kernels", "adaptive_quadrature", "kernels.quadrature", None),
            ("heatbem.galerkin", "assemble_all", "galerkin.assemble", self._count_assembly),
            ("heatbem.galerkin", "assemble_rhs", "galerkin.rhs", None),
            ("heatbem.galerkin", "evaluate_interior", "galerkin.interior", None),
            ("heatbem.krylov", "gmres", _gmres_span, self._count_gmres),
            ("heatbem.krylov", "direct_solve", "krylov.lu", None),
            ("heatbem.analysis", "condition_number", _kappa_span, None),
            ("heatbem.analysis", "l2_error", "analysis.l2_error", None),
            ("heatbem.studies", "two_level_indicator", "studies.indicator", None),
            ("heatbem.studies", "run_uniform_study", "studies.driver", None),
            ("heatbem.studies", "run_adaptive_study", "studies.driver", None),
            ("heatbem.studies", "run_single_solve", "studies.driver", None),
            ("heatbem.mesh", "refine_uniform", "mesh.refine", None),
            ("heatbem.mesh", "refine_adaptive", "mesh.refine", None),
        ]

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "heatbem" or key.startswith("heatbem."))
        ]
        for home, attr, name, count in self._targets():
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(original, name, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        series = sys.modules["heatbem.reference"].SineSeries
        self._restore.append((series, "flux", series.flux))
        series.flux = self.wrap(series.flux, "reference.flux")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "run_id": self.run_id,
                }) + "\n")

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls).

        Spans of one thread nest and do not overlap, so the part of a span its
        children cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            incl[name] += end - start
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        return incl, self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, except trace.overhead_frac."""
        incl, self_s, calls = self.totals()
        c = defaultdict(int, self.counts)
        assembled = 3 * calls["galerkin.assemble"]
        m = {
            "kernels.primitive.s": incl["kernels.primitive"],
            "kernels.primitive.evals": c["kernels.primitive.evals"],
            "kernels.quadrature.s": incl["kernels.quadrature"],
            "kernels.quadrature.calls": calls["kernels.quadrature"],
            "galerkin.assemble.s": incl["galerkin.assemble"],
            "galerkin.assemble.self_s": self_s["galerkin.assemble"],
            "galerkin.assemble.calls": calls["galerkin.assemble"],
            "galerkin.assemble.entries": c["galerkin.assemble.entries"],
            "galerkin.assemble.bytes_computed": c["galerkin.assemble.bytes_computed"],
            "galerkin.blocks_read_ratio": (
                sum(len(r) for r in self.blocks_read) / assembled if assembled else 0.0
            ),
            "galerkin.rhs.s": incl["galerkin.rhs"],
            "galerkin.rhs.calls": calls["galerkin.rhs"],
            "galerkin.interior.s": incl["galerkin.interior"],
            "galerkin.interior.calls": calls["galerkin.interior"],
        }
        for kind in GMRES_KIND.values():
            m[f"krylov.gmres.{kind}.s"] = incl[f"krylov.gmres.{kind}"]
            m[f"krylov.gmres.{kind}.iters"] = c[f"krylov.gmres.{kind}.iters"]
        m.update({
            "krylov.gmres.unconverged": c["krylov.gmres.unconverged"],
            "krylov.lu.s": incl["krylov.lu"],
            "krylov.lu.calls": calls["krylov.lu"],
        })
        for method in KAPPA_METHODS:
            m[f"analysis.kappa_{method}.s"] = incl[f"analysis.kappa_{method}"]
        m.update({
            "analysis.kappa.calls": sum(calls[f"analysis.kappa_{m}"] for m in KAPPA_METHODS),
            "analysis.l2_error.s": incl["analysis.l2_error"],
            "analysis.l2_error.calls": calls["analysis.l2_error"],
            "reference.flux.s": incl["reference.flux"],
            "studies.indicator.s": incl["studies.indicator"],
            "studies.indicator.self_s": self_s["studies.indicator"],
            "studies.indicator.calls": calls["studies.indicator"],
            "studies.driver.self_s": self_s["studies.driver"],
            "mesh.refine.s": incl["mesh.refine"],
            "mesh.refine.calls": calls["mesh.refine"],
            "cli.output.s": self_s["cli.main"],
        })
        return m

    def self_time_sum(self) -> float:
        return sum(self.totals()[1].values())
