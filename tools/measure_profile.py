"""Wall time, peak memory and resolved horizon of one `profile --horizon auto` run.

    python3 tools/measure_profile.py --n 12

Runs ``crystalchain profile --n N --horizon auto`` from this checkout's
``src/`` in a child interpreter, at the baseline couplings (mu0=1,
eps=0.1, gamma=delta=eta=0.5) and from basis index 0, and prints one JSON
line: the child's wall time (spawn to exit, imports included), its peak
resident memory (``ru_maxrss``), the memory pre-flight's estimate of the
dense eigendecomposition (``dense_peak_bytes``, so that the two show the
estimate's margin), the stable horizon it resolved and the summed
``nbytes`` of the array fields of the ``SymbolicHamiltonian`` it builds
(``structure_bytes``).  Exits with the child's code, after printing its
stderr, when the run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
COUPLING_ARGS = ["--mu0", "1", "--eps", "0.1", "--gamma", "0.5", "--delta", "0.5", "--eta", "0.5"]


def from_checkout(n: int) -> tuple[str, int, int]:
    """The word of basis index 0, the pre-flight's estimate and the built
    structure's array bytes, from the checkout's own code."""
    sys.path.insert(0, str(SRC))
    from crystalchain import build_model
    from crystalchain.dynamics import dense_peak_bytes

    sym = build_model(n)
    arrays = [getattr(sym, field.name) for field in dataclasses.fields(sym)]
    structure = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return str(sym.basis.words[0]), dense_peak_bytes(2**n), structure


def measure(n: int) -> dict:
    word, estimate, structure = from_checkout(n)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "crystalchain.cli", "profile", "--n", str(n),
                "--initial", word, *COUPLING_ARGS, "--horizon", "auto", "--out", out]
        started = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode)
        manifest = json.loads((Path(out) / "manifest.json").read_text())
    # the only child this process has waited for, so its own high-water mark
    maxrss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "n": n,
        "initial": word,
        "wall_s": round(wall, 3),
        "maxrss_mb": round(maxrss_kib / 1024, 1),
        "estimate_mb": round(estimate / 2**20, 1),
        "resolved_T": manifest["resolved_T"],
        "structure_bytes": structure,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="chain length")
    print(json.dumps(measure(parser.parse_args().n)))


if __name__ == "__main__":
    main()
