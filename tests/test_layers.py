"""The package's modules import only the layers below them, define no
module-level name that nothing uses, and the CLI imports no thread pool."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import crystalchain

# Lowest first; `__init__` re-exports them all and is no layer.
LAYERS = ("crystal", "hamiltonian", "dynamics", "analysis", "cli")
PACKAGE = Path(crystalchain.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def used_names(tree):
    """How often each name is loaded, imported, or read as an attribute."""
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def module_definitions(tree):
    """(name, node) for each function, class and name assigned at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def dead_names(defining, using):
    """The module-level names of the `defining` trees (by file name) that
    no tree in `using` uses outside the name's own body."""
    used = sum(map(used_names, using.values()), collections.Counter())
    return [
        f"{module}: {name}"
        for module, tree in sorted(defining.items())
        for name, node in module_definitions(tree)
        if name != "__all__" and used[name] - used_names(node)[name] <= 0
    ]


def parsed(paths):
    return {path.name: ast.parse(path.read_text()) for path in paths}


def test_every_module_level_name_is_used():
    # a helper orphaned by a refactor fails here: each definition in the
    # package must be used somewhere in it, and each one of the test
    # helper modules somewhere under tests/, outside its own body
    package = parsed(PACKAGE.glob("*.py"))
    tests = parsed(TESTS.glob("*.py"))
    helpers = {name: tests[name] for name in ("oracles.py", "golden.py")}
    assert dead_names(package, package) == []
    assert dead_names(helpers, tests) == []


def test_cli_import_loads_no_thread_pool():
    # a sweep runs its points in one loop; BLAS already uses every core
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    probe = "import sys, crystalchain.cli; assert 'concurrent.futures' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
