"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import rdflux

MODULES = ["rdflux"] + sorted(
    f"rdflux.{info.name}" for info in pkgutil.iter_modules(rdflux.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
