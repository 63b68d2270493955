"""Benchmark of the crystalchain command line, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --informational [--seconds S]

Run from the root of a source checkout; the program is imported from
``src/`` by fresh child interpreters (child.py), one caller and one call
at a time (a closed loop).  Each run runs units of the workload for
``--seconds``, gating every unit's outputs (check.py), and spreads
SETUP_PROBES children that only import ``crystalchain.cli`` (set-up time)
between the unit children.
With ``--trace 1`` units alternate untraced and traced, and the traced
ones report per-layer self times and counts.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))
from workloads import GATED, SELFTEST, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
# figs_small runs its cycles in children of this many seconds each, so the
# set-up probes can be spread over the run.
FIG_CHUNK_S = 6.0
# Every child is killed (and the unit failed) past this point of the run,
# so a run ends within the 180 s allowed even if the program hangs.
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "run_p90_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "crystal.enumerate_basis_s": "s",
    "crystal.enumerate_basis_calls": "count",
    "hamiltonian.build_s": "s",
    "hamiltonian.build_calls": "count",
    "hamiltonian.structure_bytes": "bytes",
    "hamiltonian.evaluate_s": "s",
    "hamiltonian.evaluate_calls": "count",
    "dynamics.eigendecompose_s": "s",
    "dynamics.eigendecompose_calls": "count",
    "dynamics.find_stable_T_s": "s",
    "dynamics.horizon_probes": "count",
    "dynamics.profile_s": "s",
    "dynamics.profile_useful_ratio": "ratio",
    "dynamics.infinite_average_s": "s",
    "analysis.rank_s": "s",
    "analysis.fit_s": "s",
    "analysis.refine_s": "s",
    "analysis.plateaux_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a probe failed)."""


def child_env(blas_threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if blas_threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
    return env


def spawn(args: list[str], env: dict[str, str], deadline: float):
    """Run child.py to completion; returns (spawn time, process or None if killed)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(5.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return spawned, None
    return spawned, proc


def process_errors(proc) -> list[str]:
    if proc is None:
        return ["child killed at the run deadline"]
    errors = [] if proc.returncode == 0 else [f"child exited {proc.returncode}"]
    if proc.stderr:
        errors.append(f"child stderr: {proc.stderr[-2000:]}")
    return errors


def probe(env: dict[str, str], deadline: float) -> tuple[float, dict]:
    report_path = WORK / "probe.json"
    report_path.unlink(missing_ok=True)
    spawned, proc = spawn(["probe", str(report_path)], env, deadline)
    errors = process_errors(proc)
    if errors or not report_path.is_file():
        raise BenchError(f"set-up probe failed: {errors}")
    report = json.loads(report_path.read_text())
    if not Path(report["program"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"crystalchain imported from {report['program']}, not from src/")
    return report["imported_at"] - spawned, report


def machine_fingerprint(probe_report: dict, load: tuple[float, float, float]) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **probe_report["fingerprint"],
        "git_commit": commit or "unknown (not a git checkout)",
        "loadavg_at_start": load,
    }


def run_child(spec: dict, env: dict[str, str], deadline: float) -> list[dict]:
    """One ``child.py units`` process; returns its units, each with the
    child's peak RSS.  A failure of the process is charged to its first unit."""
    report_path = WORK / "unit.json"
    report_path.unlink(missing_ok=True)
    spec_path = WORK / "spec.json"
    spec_path.write_text(json.dumps({**spec, "out": str(WORK / "out"), "report": str(report_path)}))
    _, proc = spawn(["units", str(spec_path)], env, deadline)
    report = json.loads(report_path.read_text()) if report_path.is_file() else {}
    units = report.get("units") or [{"wall_s": None, "traced": False, "errors": []}]
    for unit in units:
        unit["peak_rss_kb"] = report.get("peak_rss_kb")
        unit["trace_missing"] = report.get("trace_missing", [])
    units[0]["errors"] += process_errors(proc) + report.get("warmup_errors", [])
    return units


def run_children(wl, seed: int, seconds: float, trace: bool, env, extra_args,
                 deadline) -> tuple[list[dict], list[float]]:
    """Unit children until `seconds` pass, with the set-up probes spread
    between them in proportion to the time elapsed; returns the units and
    the set-up times.

    A profile or sweep child runs one unit; with `trace`, children
    alternate untraced and traced.  A figs child runs cycles for
    FIG_CHUNK_S seconds, alternating untraced and traced ones itself.
    """
    units: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    for child in itertools.count():
        if time.monotonic() - start >= seconds and len(units) >= (2 if trace else 1):
            break
        due = 1 + int(SETUP_PROBES * (time.monotonic() - start) / seconds)
        while len(setups) < min(due, SETUP_PROBES):
            setups.append(probe(env, deadline)[0])
        if wl.kind == "figs":
            spec = {"workload": wl.name, "seed": 1000 * seed + child, "trace": trace,
                    "seconds": min(FIG_CHUNK_S, seconds)}
        else:
            spec = {"workload": wl.name, "seed": seed, "trace": trace and len(units) % 2 == 1,
                    "extra_args": extra_args}
        units += run_child(spec, env, deadline)
        if units[-1]["wall_s"] is None:  # the child crashed or was killed
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe(env, deadline)[0])
    return units, setups


def median_of(units: list[dict], key: str) -> float:
    return statistics.median(u[key] for u in units)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 blas_threads: int | None = None, extra_args: tuple[str, ...] = ()) -> dict:
    """The workload's units and set-up probes; returns the result, the
    lines that describe it, the units and the set-up times."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    load = os.getloadavg()
    env = child_env(blas_threads)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        _, first = probe(env, deadline)  # warm-up: writes bytecode caches
        units, setups = run_children(wl, seed, seconds, trace, env, list(extra_args), deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = [u for u in units if u["errors"] or u["wall_s"] is None]
    timed = [u for u in units if u["wall_s"] is not None]
    plain = [u for u in timed if not u["traced"]]
    traced = [u for u in timed if u["traced"]]
    lines = [
        "fingerprint " + json.dumps(machine_fingerprint(first, load)),
        f"workload {name} seed {seed} trace {int(trace)}"
        + (f" initial {wl.initial(seed)}" if wl.pool else ""),
        f"units attempted {len(units)} failed {len(failed)} "
        f"fail_ratio {len(failed) / len(units)!r}",
        f"samples: {len(setups)} set-up probes, {len(plain)} untraced units, "
        f"{len(traced)} traced units",
    ]
    for unit in failed:
        print(f"failed unit: {unit['errors']}", file=sys.stderr)
    missing = sorted({m for u in traced for m in u.get("trace_missing", [])})
    if missing:
        lines.append(f"trace targets not found (layer metrics read 0): {missing}")

    metrics: dict[str, float] = {}
    if not trace and plain:
        walls = [u["wall_s"] for u in plain]
        metrics = {
            "setup_s": statistics.median(setups),
            # A mean, not a median: the host's CPU throughput switches between
            # two states about 1.5x apart, and a median of unit times flips
            # between them from run to run (README.md, Steadiness).
            "run_s": statistics.mean(walls),
            # p90 has ten samples beyond it only from 100 units (figs_small);
            # with fewer it is an interpolated upper tail.
            "run_p90_s": (statistics.quantiles(walls, n=10, method="inclusive")[-1]
                          if len(walls) > 1 else walls[0]),
            "peak_rss_mb": median_of(plain, "peak_rss_kb") / 1024,
        }
    elif trace and plain and traced:
        metrics = {key: statistics.median(u["layers"][key] for u in traced)
                   for key in traced[0]["layers"]}
        metrics["cli.bytes_written"] = median_of(timed, "bytes_written")
        metrics["cli.files_written"] = median_of(timed, "files_written")
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    units_of = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failed and set(metrics) == set(units_of),
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of if k in metrics},
    }
    return {"lines": lines, "result": result, "units": units, "setups": setups}


def informational(seconds: float) -> None:
    """Not gated: profile_n11 on one BLAS thread against the default, and
    sweep_n10_inf with --workers 2 against the default (--workers 1)."""
    settings = (
        ("profile_n11", "default BLAS threads", {}),
        ("profile_n11", "OPENBLAS_NUM_THREADS=1", {"blas_threads": 1}),
        ("sweep_n10_inf", "--workers 1 (default)", {}),
        ("sweep_n10_inf", "--workers 2", {"extra_args": ("--workers", "2")}),
    )
    for name, label, kwargs in settings:
        out = run_workload(name, 0, seconds, False, **kwargs)
        walls = [round(u["wall_s"], 4) for u in out["units"] if u["wall_s"] is not None]
        print(json.dumps({"workload": name, "setting": label, "correct": out["result"]["correct"],
                          "run_s_samples": walls,
                          "metrics": {k: v["value"] for k, v in out["result"]["metrics"].items()}}),
              flush=True)


def selftest() -> int:
    """Every workload path at tiny N, untraced and traced, plus the gate."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != names:
            print(f"BENCHMARK.json {section} differs from run.py: {listed}", file=sys.stderr)
            return 1
    WORK.mkdir(exist_ok=True)
    try:
        gate = subprocess.run([sys.executable, str(CHILD), "gatetest", str(WORK)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(gate.stdout, end="")
    if gate.returncode != 0 or gate.stderr:
        print(f"gate self-test failed:\n{gate.stderr}", file=sys.stderr)
        return 1
    ok = True
    for name in SELFTEST:
        for trace in (False, True):
            result = run_workload(name, 1, 0.5, trace)["result"]
            print(f"{name} trace {int(trace)}: correct {result['correct']} "
                  f"attempted {result['attempted']} metrics {len(result['metrics'])}")
            ok = ok and result["correct"]
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    # SystemExit unwinds subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--informational", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "crystalchain" / "cli.py").is_file():
        print(f"error: no crystalchain source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.informational:
            informational(args.seconds)
            return 0
        if args.workload is None:
            parser.error(f"--workload is required (gated: {', '.join(GATED)})")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(line)
    for key, metric in out["result"]["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
