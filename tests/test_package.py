"""The public names of the package and of each of its modules resolve."""

import importlib
import pkgutil

import pytest

import backsec

MODULES = ["backsec"] + [f"backsec.{info.name}" for info in pkgutil.iter_modules(backsec.__path__)
                         if info.name != "__main__"]  # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
