"""The package's modules import only the layers below them, and the CLI
imports no thread pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import crystalchain

# Lowest first; `__init__` re-exports them all and is no layer.
LAYERS = ("crystal", "hamiltonian", "dynamics", "analysis", "cli")
PACKAGE = Path(crystalchain.__file__).resolve().parent


def imported_layers(tree):
    """The layers a module's import statements name, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module]
            elif node.module is None:  # from . import name
                names = [f"crystalchain.{alias.name}" for alias in node.names]
            else:
                names = [f"crystalchain.{node.module}"]
        else:
            continue
        for name in names:
            package, _, layer = name.partition(".")
            if package == "crystalchain" and layer.split(".")[0] in LAYERS:
                yield layer.split(".")[0]


def test_every_module_is_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_no_module_imports_a_later_layer():
    for rank, layer in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text())
        later = [name for name in imported_layers(tree) if LAYERS.index(name) >= rank]
        assert later == [], f"{layer} imports {later}"


def test_cli_import_loads_no_thread_pool():
    # a sweep runs its points in one loop; BLAS already uses every core
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    probe = "import sys, crystalchain.cli; assert 'concurrent.futures' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
