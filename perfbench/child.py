"""Child process of the benchmark; run.py starts one per probe or unit.

    child.py probe REPORT   import crystalchain.cli, report when it was done
    child.py units SPEC     run the units SPEC describes, gate and report them
    child.py gatetest DIR   show that the gate rejects broken outputs

run.py notes ``time.monotonic()`` (one system-wide clock on Linux) just
before it spawns a child; the child notes it once ``crystalchain.cli`` is
imported.  The difference is the set-up time: interpreter start plus the
program's imports.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections.abc import Mapping
from pathlib import Path

from crystalchain import cli

IMPORTED_AT = time.monotonic()

import check  # noqa: E402
from workloads import WORKLOADS, figure_argv, figure_cycles  # noqa: E402

# (module, attribute, span name).  "Class.method" patches a class attribute.
TRACE_TARGETS = (
    ("crystal", "enumerate_basis", "crystal.enumerate_basis"),
    ("hamiltonian", "build_model", "hamiltonian.build"),
    ("hamiltonian", "build_hamming", "hamiltonian.build"),
    ("hamiltonian", "SymbolicHamiltonian.evaluate", "hamiltonian.evaluate"),
    ("dynamics", "eigendecompose", "dynamics.eigendecompose"),
    ("dynamics", "find_stable_T", "dynamics.find_stable_T"),
    ("dynamics", "time_averaged_profile", "dynamics.time_averaged_profile"),
    ("dynamics", "infinite_time_average", "dynamics.infinite_time_average"),
    ("analysis", "rank_order", "analysis.rank"),
    ("analysis", "compare_models", "analysis.fit"),
    ("analysis", "fit_refine", "analysis.refine"),
    ("analysis", "plateaux_report", "analysis.plateaux"),
)
PROFILE_SPANS = ("dynamics.time_averaged_profile", "dynamics.infinite_time_average")
# figs_small cycles are untimed for this long in each child: the first
# cycles after the imports run up to 3x slower than the rest.
WARMUP_S = 1.0


def _nbytes(obj) -> int:
    """Bytes of every numpy array reachable through mappings, lists and tuples."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, Mapping):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    return 0


def _structure_bytes(sym) -> int:
    return _nbytes(getattr(sym, "coeffs", None))


class Tracer:
    """Spans around the public functions of each layer.

    Installing replaces every reference to a target function in the
    ``crystalchain`` modules (and the class attribute for methods) with a
    wrapper that records ``[name, start, end, parent span, extra]``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                record[4] = extra(result)
            return result
        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "crystalchain" or key.startswith("crystalchain."))]
        for module_name, attr, name in TRACE_TARGETS:
            module = sys.modules.get(f"crystalchain.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            extra = _structure_bytes if name == "hamiltonian.build" else None
            wrapper = self.wrap(name, original, extra)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts of one unit's spans.

    Self time is a span's duration minus that of its direct children.
    ``dynamics.find_stable_T_s`` is the exception: the whole search,
    probes included (the probes also count in ``dynamics.profile_s``).
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent, _ in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - (end - start)
    search_s = sum(e - s for n, s, e, _, _ in spans if n == "dynamics.find_stable_T")
    profiles = [sp for sp in spans if sp[0] in PROFILE_SPANS]
    probes = sum(1 for sp in profiles if sp[3] >= 0 and spans[sp[3]][0] == "dynamics.find_stable_T")
    build_bytes = [sp[4] for sp in spans if sp[0] == "hamiltonian.build"]
    return {
        "crystal.enumerate_basis_s": self_s.get("crystal.enumerate_basis", 0.0),
        "crystal.enumerate_basis_calls": calls.get("crystal.enumerate_basis", 0),
        "hamiltonian.build_s": self_s.get("hamiltonian.build", 0.0),
        "hamiltonian.build_calls": calls.get("hamiltonian.build", 0),
        "hamiltonian.structure_bytes": max(build_bytes, default=0),
        "hamiltonian.evaluate_s": self_s.get("hamiltonian.evaluate", 0.0),
        "hamiltonian.evaluate_calls": calls.get("hamiltonian.evaluate", 0),
        "dynamics.eigendecompose_s": self_s.get("dynamics.eigendecompose", 0.0),
        "dynamics.eigendecompose_calls": calls.get("dynamics.eigendecompose", 0),
        "dynamics.find_stable_T_s": search_s,
        "dynamics.horizon_probes": probes,
        "dynamics.profile_s": self_s.get("dynamics.time_averaged_profile", 0.0),
        "dynamics.profile_useful_ratio": (len(profiles) - probes) / len(profiles) if profiles else 0.0,
        "dynamics.infinite_average_s": self_s.get("dynamics.infinite_time_average", 0.0),
        "analysis.rank_s": self_s.get("analysis.rank", 0.0),
        "analysis.fit_s": self_s.get("analysis.fit", 0.0),
        "analysis.refine_s": self_s.get("analysis.refine", 0.0),
        "analysis.plateaux_s": self_s.get("analysis.plateaux", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def _output_size(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def run_unit(calls: list[list[str]], out: Path, tracer: Tracer | None, gate) -> dict:
    """One unit: its main() calls timed together, then gated.

    Output directories are removed after the gate, so each unit writes
    into a fresh directory as a new CLI run would.
    """
    shutil.rmtree(out, ignore_errors=True)
    main = cli.main
    if tracer is not None:
        tracer.spans = []
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    errors: list[str] = []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        for argv in calls:
            try:
                code = main(argv)
            except (Exception, SystemExit):
                errors.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
                break
            if code != 0:
                errors.append(f"{' '.join(argv)} exited {code}")
                break
        wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if stderr.getvalue():
        errors.append(f"stderr: {stderr.getvalue()[:2000]}")
    unit = {"wall_s": wall, "traced": tracer is not None}
    if tracer is not None:
        unit["layers"] = layer_metrics(tracer.spans)
    if not errors:
        try:
            gate()
        except Exception as exc:  # any malformed output fails the unit
            errors.append(f"gate: {type(exc).__name__}: {exc}")
    unit["bytes_written"], unit["files_written"] = _output_size(out)
    unit["errors"] = errors
    shutil.rmtree(out, ignore_errors=True)
    return unit


def run_units(spec: dict) -> dict:
    """Profile and sweep: one unit.  Figures: warm-up cycles for WARMUP_S,
    then cycles until ``seconds`` pass, alternating untraced and traced if
    ``trace``."""
    wl = WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    seed = spec["seed"]
    word = wl.initial(seed) if wl.pool else None
    ref = check.load_reference(wl.reference_key(word))
    tracer = Tracer() if spec["trace"] else None
    report: dict = {"units": []}
    if wl.kind != "figs":
        calls = wl.unit_argv(word, str(out))
        calls[0] += spec.get("extra_args", [])
        gate = check.check_profile if wl.kind == "profile" else check.check_sweep
        report["units"].append(run_unit(calls, out, tracer, lambda: gate(out, ref)))
    else:
        orders = figure_cycles(seed)

        def cycle(traced: Tracer | None) -> dict:
            order = next(orders)
            return run_unit(figure_argv(order, str(out)), out, traced,
                            lambda: check.check_figures(out, ref, order))

        warm_until = time.perf_counter() + WARMUP_S
        while True:
            warmup = cycle(None)
            if warmup["errors"]:
                report["warmup_errors"] = warmup["errors"]
            if warmup["errors"] or time.perf_counter() >= warm_until:
                break
        deadline = time.perf_counter() + spec["seconds"]
        while time.perf_counter() < deadline or len(report["units"]) < (2 if tracer else 1):
            traced = tracer if len(report["units"]) % 2 == 1 else None
            report["units"].append(cycle(traced))
    if tracer is not None:
        report["trace_missing"] = tracer.missing
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked through its C API."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
    }


def probe(report_path: Path) -> None:
    import crystalchain

    report = {"imported_at": IMPORTED_AT, "program": crystalchain.__file__,
              "fingerprint": fingerprint()}
    report_path.write_text(json.dumps(report))


def gatetest(work: Path) -> None:
    """A good unit passes; broken outputs and a failing call are caught."""
    wl = WORKLOADS["profile_n4"]
    word = wl.pool[0]
    ref = check.load_reference(wl.reference_key(word))
    out = work / "gate"

    def edited_profile(edit):
        def checker():
            check.check_profile(out, ref)  # the unedited output passes
            profile = out / "profile.csv"
            lines = profile.read_text().splitlines()
            rows = [line.rpartition(",") for line in lines[1:]]
            values = edit([float(value) for _, _, value in rows])
            lines[1:] = [f"{head},{value!r}" for (head, _, _), value in zip(rows, values)]
            profile.write_text("\n".join(lines) + "\n")
            check.check_profile(out, ref)
        return checker

    def scaled(p):
        return [p[0] * (1 + 1e-4), *p[1:]]

    def swapped(p):
        return [p[1], p[0], *p[2:]]

    good = run_unit(wl.unit_argv(word, str(out)), out, Tracer(), lambda: check.check_profile(out, ref))
    units = {
        "scaled p_avg": run_unit(wl.unit_argv(word, str(out)), out, None, edited_profile(scaled)),
        "swapped p_avg": run_unit(wl.unit_argv(word, str(out)), out, None, edited_profile(swapped)),
    }
    units["exit code 2"] = run_unit([wl.unit_argv(word, str(out))[0] + ["--horizon", "-1"]],
                                    out, None, lambda: check.check_profile(out, ref))
    fig_ref = check.load_reference("figs_small")
    fig_ref["fig3/fits"] = fig_ref["fig3/fits"] * (1 + 1e-4)
    units["perturbed fit"] = run_unit(figure_argv(["fig3"], str(out)), out, None,
                                      lambda: check.check_figures(out, fig_ref, ["fig3"]))
    assert not good["errors"], good["errors"]
    assert good["layers"]["hamiltonian.build_calls"] == 1, good["layers"]
    for name, unit in units.items():
        assert unit["errors"], f"gate missed {name}"
        print(f"gate rejects {name}: {unit['errors'][0].splitlines()[0]}")


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        probe(Path(sys.argv[2]))
    elif mode == "units":
        spec = json.loads(Path(sys.argv[2]).read_text())
        report = run_units(spec)
        Path(spec["report"]).write_text(json.dumps(report))
    elif mode == "gatetest":
        gatetest(Path(sys.argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
