"""Package layout: every public name a module exports exists."""

import importlib
import pkgutil
import sys
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


def test_benchmark_names_resolve(monkeypatch):
    """perfbench's gate imports and traced functions exist in the package.

    Loads perfbench/gate.py and perfbench/tracing.py as the benchmark worker
    does, after ``import heatbem.cli``: a removed or renamed name fails the
    gate's import or ``Tracer.install``.
    """
    import heatbem.cli  # noqa: F401

    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        importlib.import_module("gate")
        tracer = importlib.import_module("tracing").Tracer("t")
        try:
            tracer.install()
        finally:
            tracer.uninstall()
    finally:
        for name in ("gate", "tracing"):
            sys.modules.pop(name, None)
