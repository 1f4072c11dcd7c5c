"""Every name a geomeans module exports in `__all__` exists, so a deletion
that leaves its export behind fails here rather than at a star import."""

import importlib
import pkgutil

import pytest

import geomeans

MODULES = ["geomeans"] + [f"geomeans.{m.name}" for m in pkgutil.iter_modules(geomeans.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
