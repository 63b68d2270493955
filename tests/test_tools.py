import json
import subprocess
import sys
from pathlib import Path

from crystalchain import CouplingValues, build_model, eigendecompose, find_stable_T

MEASURE_PROFILE = Path(__file__).resolve().parent.parent / "tools" / "measure_profile.py"


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
    sym = build_model(4)
    spec = eigendecompose(
        sym.evaluate(CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5))
    )
    assert report["resolved_T"] == find_stable_T(spec, 0).horizon
