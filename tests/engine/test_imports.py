"""The engine does not import the experiments.

``repro.experiments`` builds on the engine (the context resolves its
runs through it, the runner prefetches through it); the engine reaches
an experiment context only through the object it is handed, and a pool
worker through the context class pickled into its spec.  An import
edge back from the engine would close an import cycle between the two
packages.
"""

import ast
import os
import subprocess
import sys

import pytest

import repro.engine

pytestmark = pytest.mark.engine

ENGINE_DIR = os.path.dirname(repro.engine.__file__)
SRC_DIR = os.path.dirname(os.path.dirname(ENGINE_DIR))


def _imported_modules(path):
    """Every module an ``import`` statement in the file names, at any
    depth (module level or inside a function)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_engine_file_imports_the_experiments():
    offenders = [
        (name, module)
        for name in sorted(os.listdir(ENGINE_DIR))
        if name.endswith(".py")
        for module in _imported_modules(os.path.join(ENGINE_DIR, name))
        if module == "repro.experiments"
        or module.startswith("repro.experiments.")
    ]
    assert offenders == []


def test_importing_the_engine_loads_no_experiment_module():
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro.engine\n"
        "for info in pkgutil.iter_modules(repro.engine.__path__):\n"
        "    importlib.import_module('repro.engine.' + info.name)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['repro', 'experiments']))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
