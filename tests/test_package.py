"""Package layout: every public name a module exports exists."""

import importlib
import pkgutil

import pytest

import heatbem

MODULES = [m.name for m in pkgutil.iter_modules(heatbem.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"heatbem.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
