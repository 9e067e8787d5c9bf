"""Package layout: every public name a module exports exists."""

import contextlib
import csv
import importlib
import pkgutil
import sys
import warnings
from pathlib import Path

import pytest

import heatbem

MODULES = [m.name for m in pkgutil.iter_modules(heatbem.__path__) if m.name != "__main__"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"heatbem.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@contextlib.contextmanager
def perfbench_modules(monkeypatch, *names):
    """perfbench's modules ``names``, loaded as the benchmark worker loads them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield [importlib.import_module(name) for name in names]
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_benchmark_names_resolve(monkeypatch):
    """perfbench's gate imports and traced functions exist in the package.

    Loads perfbench/gate.py and perfbench/tracing.py as the benchmark worker
    does, after ``import heatbem.cli``: a removed or renamed name fails the
    gate's import or ``Tracer.install``.
    """
    import heatbem.cli  # noqa: F401

    with perfbench_modules(monkeypatch, "gate", "tracing") as (_, tracing):
        tracer = tracing.Tracer("t")
        try:
            tracer.install()
        finally:
            tracer.uninstall()


def test_tracer_counts_the_study_gmres(monkeypatch, tmp_path):
    """The benchmark's tracer sees every GMRES solve of a study, count-only ones
    included: its unpreconditioned iterations are the table's ``it_none`` cells."""
    from heatbem.cli import main

    with perfbench_modules(monkeypatch, "tracing") as (tracing,):
        tracer = tracing.Tracer("t")
        tracer.install()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the study's stagnation warning
                argv = ["study-adaptive", "--example", "2", "--target-n", "40"]
                assert main([*argv, "--out", str(tmp_path)]) == 0
        finally:
            tracer.uninstall()
    with open(tmp_path / "table2.csv", newline="") as fh:
        it_none = [int(row["it_none"]) for row in csv.DictReader(fh)]
    metrics = tracer.layer_metrics()
    assert metrics["krylov.gmres.none.iters"] == sum(it_none) > 0
    assert metrics["krylov.gmres.unconverged"] == 0
