"""Regenerate reference.npz, the outputs the gate compares against.

    python3 perfbench/make_reference.py

Run from the root of a checkout, only for a change that is meant to alter
results.  It runs every pool word of every workload through
``crystalchain.cli.main`` in this process (about 1.5 minutes on 2 cores),
and checks the pool properties workloads.py relies on: pool[0] is basis
index 0, and every profile pool word resolves the same horizon.
Profiles are stored as float32; check.py's tolerances allow for that.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import check  # noqa: E402
from crystalchain import cli, enumerate_basis  # noqa: E402
from workloads import FIGURES, WORKLOADS, figure_argv  # noqa: E402


def run(calls: list[list[str]]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            if cli.main(argv) != 0:
                raise SystemExit(f"{argv} failed")


def profile_arrays(d: Path) -> tuple[np.ndarray, np.ndarray]:
    p = check.read_profile(d / "profile.csv").astype(np.float32)
    return p, np.array(check.read_resolved_t(d / "manifest.json"))


def main() -> None:
    work = ROOT / ".perfbench_work" / "reference"
    arrays: dict[str, np.ndarray] = {}
    for wl in WORKLOADS.values():
        shutil.rmtree(work, ignore_errors=True)
        if wl.kind == "figs":
            run(figure_argv(FIGURES, str(work)))
            for fig in FIGURES:
                key = f"{wl.name}/{fig}"
                arrays[f"{key}/p"], arrays[f"{key}/T"] = profile_arrays(work / fig)
                arrays[f"{key}/fits"] = check.read_fits(work / fig / "fits.json")
            continue
        if str(enumerate_basis(wl.n).words[0]) != wl.pool[0]:
            raise SystemExit(f"{wl.name}: pool[0] is not basis index 0")
        for word in wl.pool:
            key = wl.reference_key(word)
            out = work / word
            run(wl.unit_argv(word, str(out)))
            if wl.kind == "profile":
                arrays[f"{key}/p"], arrays[f"{key}/T"] = profile_arrays(out)
                continue
            statuses, arrays[f"{key}/summary"] = check.read_summary(out / "summary.csv")
            if set(statuses) != {"ok"}:
                raise SystemExit(f"{key}: sweep statuses {statuses}")
            for i in range(len(statuses)):
                point = out / f"point_{i:03d}"
                arrays[f"{key}/{point.name}/p"] = profile_arrays(point)[0]
                arrays[f"{key}/{point.name}/fits"] = check.read_fits(point / "fits.json")
            print(f"{key}: {len(statuses)} points", flush=True)
        if wl.kind == "profile":
            horizons = {word: float(arrays[f"{wl.reference_key(word)}/T"]) for word in wl.pool}
            if len(set(horizons.values())) != 1:
                raise SystemExit(f"{wl.name}: pool horizons differ: {horizons}")
            print(f"{wl.name}: {len(wl.pool)} words, resolved T {horizons[wl.pool[0]]}", flush=True)
    shutil.rmtree(work.parent, ignore_errors=True)
    np.savez_compressed(check.REFERENCE_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {check.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
