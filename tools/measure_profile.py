"""Wall time, peak memory and resolved horizon of one `profile --horizon auto` run.

    python3 tools/measure_profile.py --n 12

Runs ``crystalchain profile --n N --horizon auto`` from this checkout's
``src/`` in a child interpreter, at the baseline couplings (mu0=1,
eps=0.1, gamma=delta=eta=0.5) and from basis index 0, and prints one JSON
line: the child's wall time (spawn to exit, imports included), its peak
resident memory (``ru_maxrss``), the memory pre-flight's estimate of the
dense eigendecomposition (``dense_peak_bytes``, so that the two show the
estimate's margin) and the stable horizon it resolved.  Exits with the
child's code, after printing its stderr, when the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COUPLING_ARGS = ["--mu0", "1", "--eps", "0.1", "--gamma", "0.5", "--delta", "0.5", "--eta", "0.5"]


def first_word_and_estimate(n: int) -> tuple[str, int]:
    """The word of basis index 0 and the pre-flight's estimate in bytes, from
    the checkout's own code."""
    sys.path.insert(0, str(SRC))
    from crystalchain import enumerate_basis
    from crystalchain.dynamics import dense_peak_bytes

    return str(enumerate_basis(n).words[0]), dense_peak_bytes(2**n)


def measure(n: int) -> dict:
    word, estimate = first_word_and_estimate(n)
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
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="chain length")
    print(json.dumps(measure(parser.parse_args().n)))


if __name__ == "__main__":
    main()
