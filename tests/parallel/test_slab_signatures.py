"""Lint-style guard: the slab kernels stay engine-free.

The whole point of :mod:`repro.parallel.slabs` is that its kernels operate on
plain array slabs — no ``Graph``, no ``AlgorithmSpec``, no engine objects —
so each one can be tested on hand-built arrays, and a compiled kernel (numba,
C) can replace one without touching the engines.  These tests enforce that
boundary structurally: the module may import nothing from ``repro``, and no
public kernel may grow a parameter that smells like an engine-side object.
"""

from __future__ import annotations

import ast
import inspect
import pathlib

import repro.parallel.slabs as slabs

ALLOWED_IMPORT_ROOTS = {"__future__", "dataclasses", "math", "numpy", "typing"}

#: parameter names that would mean a kernel started taking engine objects
FORBIDDEN_PARAMETERS = {
    "adjacency",
    "csr",
    "delta",
    "engine",
    "graph",
    "layered",
    "spec",
    "subgraph",
}


def test_slabs_module_imports_no_engine_code():
    tree = ast.parse(pathlib.Path(slabs.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            root = module.split(".")[0]
            assert root in ALLOWED_IMPORT_ROOTS, (
                f"repro.parallel.slabs imports {module!r}; slab kernels must "
                f"not depend on engine-side code"
            )


def test_slab_kernels_accept_only_array_slabs():
    checked = 0
    for name, function in inspect.getmembers(slabs, inspect.isfunction):
        if name.startswith("_") or function.__module__ != slabs.__name__:
            continue
        parameters = set(inspect.signature(function).parameters)
        offending = parameters & FORBIDDEN_PARAMETERS
        assert not offending, f"{name} takes engine-side parameters {offending}"
        checked += 1
    # the suite is vacuous if the kernels moved elsewhere
    assert checked >= 8, f"only {checked} public kernels found in slabs"
