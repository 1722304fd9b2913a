import importlib
import pkgutil

import pytest

import fsilab


def test_package_exports_resolve():
    assert [name for name in fsilab.__all__ if not hasattr(fsilab, name)] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(fsilab.__path__)))
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"fsilab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
