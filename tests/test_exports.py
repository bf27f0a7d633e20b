"""Every module's public names resolve, so no export outlives the code it names."""

import importlib
import pkgutil

import pytest

import hadinv

MODULES = ["hadinv"] + [f"hadinv.{m.name}" for m in pkgutil.iter_modules(hadinv.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
    exec(f"from {name} import *", {})
