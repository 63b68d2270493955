import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from crystalchain import CouplingValues, build_model, eigendecompose, find_stable_T
from crystalchain.dynamics import dense_peak_bytes

ROOT = Path(__file__).resolve().parent.parent
MEASURE_PROFILE = ROOT / "tools" / "measure_profile.py"
PERFBENCH_CHILD = ROOT / "perfbench" / "child.py"
README = ROOT / "README.md"


def test_measure_profile_reports_one_json_line():
    proc = subprocess.run(
        [sys.executable, str(MEASURE_PROFILE), "--n", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["n"] == 4 and report["initial"] == "RYRY"
    assert report["wall_s"] > 0 and report["maxrss_mb"] > 0
    assert report["estimate_mb"] == round(dense_peak_bytes(16) / 2**20, 1)
    sym = build_model(4)
    spec = eigendecompose(sym, CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5))
    assert report["resolved_T"] == find_stable_T(spec, 0).horizon
    pairs = (sym.rows, sym.cols, sym.family)
    assert report["structure_bytes"] == sum(array.nbytes for array in pairs)


def test_every_perfbench_trace_target_resolves():
    """perfbench times each layer by wrapping the (module, attribute) pairs of
    its TRACE_TARGETS; one that no longer resolves silently zeroes a metric."""
    tree = ast.parse(PERFBENCH_CHILD.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets)
    )
    assert targets
    for module_name, attr, _ in targets:
        owner = importlib.import_module(f"crystalchain.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"crystalchain.{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"crystalchain.{module_name}.{attr}"


def test_readme_library_example_runs(tmp_path):
    """The README's library example, run as written against this checkout's
    public API."""
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("FitResult(model='yule'")
