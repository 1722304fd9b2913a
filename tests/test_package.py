import ast
import importlib
import inspect
import pkgutil

import pytest

import fsilab


def test_package_exports_resolve():
    assert [name for name in fsilab.__all__ if not hasattr(fsilab, name)] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(fsilab.__path__)))
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"fsilab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(fsilab.__path__)))
def test_sparse_lu_is_called_only_in_splu(module):
    # one ordering rule for every factor: nothing else calls SuperLU
    tree = ast.parse(inspect.getsource(importlib.import_module(f"fsilab.{module}")))
    owners = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(fn):
                owners.setdefault(node, fn.name)
    names = {node: getattr(node.func, "attr", getattr(node.func, "id", None)) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    calls = [(owners.get(node), name) for node, name in names.items() if name in ("splu", "spsolve")]
    allowed = [("_splu", "splu")] if module == "linear_subsystems" else []
    assert calls == allowed
