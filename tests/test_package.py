import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import fsilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(fsilab.__path__))
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_package_exports_resolve():
    assert [name for name in fsilab.__all__ if not hasattr(fsilab, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"fsilab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_every_bench_hook_resolves(monkeypatch):
    # bench/spans.py times the layers by rebinding these names, and a
    # method must sit in its own class body; a rename fails here rather
    # than as a benchmark run that cannot start
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    missing = []
    for module, attr, _, _ in spans._hooks(spans.Recorder()):
        owner = importlib.import_module(f"fsilab.{module}")
        cls_name, _, meth = attr.rpartition(".")
        found = meth in vars(getattr(owner, cls_name, object)) if cls_name else hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
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


@pytest.mark.parametrize("module", MODULES)
def test_stencils_are_built_in_two_places(module):
    # one source per stencil: the centered first difference of the grid
    # and the SBP first difference of the density rows; every other
    # operator is assembled from those and from the steppers' operators
    tree = ast.parse(inspect.getsource(importlib.import_module(f"fsilab.{module}")))
    owners = {}  # innermost enclosing definition: ast.walk visits outer ones first
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
            owners.update((node, fn.name) for node in ast.walk(fn))
    callers = [
        owners.get(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_stencil_matrix"
    ]
    allowed = {"core_grid": ["_d1_matrix"], "fs_operator": ["_sbp_first_diff"]}.get(module, [])
    assert callers == allowed


@pytest.mark.parametrize("module", MODULES)
def test_no_process_wide_caches(module):
    # stencils belong to their grid and factors to their stepper: nothing
    # is memoised by value for the life of the process
    tree = ast.parse(inspect.getsource(importlib.import_module(f"fsilab.{module}")))
    banned = {"lru_cache", "cache"}
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "functools" and banned & {a.name for a in node.names})
        or (isinstance(node, ast.Attribute) and node.attr in banned and getattr(node.value, "id", None) == "functools")
        or (isinstance(node, ast.Name) and node.id in banned)
    ]
    assert uses == []


LAYOUT_INDEX = {
    "sl_rho", "sl_vx", "sl_vy", "sl_v", "sl_theta", "sl_eta1", "sl_eta2",
    "v_inner", "v_trace", "interior_flat", "top_flat",
}


@pytest.mark.parametrize("module", MODULES)
def test_state_vector_layout_is_read_in_two_modules(module):
    # one owner of the state-vector format: fs_operator packs, unpacks and
    # mirrors it, and everything else goes through it
    tree = ast.parse(inspect.getsource(importlib.import_module(f"fsilab.{module}")))
    reads = sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in LAYOUT_INDEX})
    assert module in ("fs_operator",) or reads == []
