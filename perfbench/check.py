"""Correctness gate applied to the output directory of every unit.

Invariants hold for any input: every ``p_avg`` is finite, nonnegative and
the profile sums to 1 within ``PROFILE_SUM_TOL``; ``ranked.csv`` is the
profile sorted descending without the initial state; every sweep row has
status ``ok``.  Outputs are also compared with ``reference.npz`` (written by
``make_reference.py``) within the tolerances below, not byte for byte, so
a kernel change that moves the last bits still passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Mirrors crystalchain.dynamics.PROFILE_SUM_TOL; fixed here so that the gate
# does not loosen if the program's constant does.
PROFILE_SUM_TOL = 1e-8
# |x - ref| <= ATOL + RTOL * |ref|, elementwise.  References store profiles
# as float32 (relative precision 6e-8), well inside P_RTOL.
P_RTOL, P_ATOL = 1e-6, 1e-12
FIT_RTOL, FIT_ATOL = 1e-6, 1e-9
# resolved_T takes discrete values t_start * growth**k, so it must match.
T_RTOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.npz")
SUMMARY_FIT_FIELDS = (
    "yule_a", "yule_k", "yule_b", "yule_r2", "zipf_a", "zipf_k", "zipf_r2", "sse_ratio",
)


class GateError(Exception):
    """An output fails the gate."""


def load_reference(key: str) -> dict[str, np.ndarray]:
    """The reference arrays stored under `key/`, keyed by the remainder."""
    prefix = key + "/"
    with np.load(REFERENCE_PATH) as data:
        ref = {name[len(prefix):]: data[name] for name in data.files if name.startswith(prefix)}
    if not ref:
        raise GateError(f"no reference stored for {key}")
    return ref


def read_profile(path: Path) -> np.ndarray:
    rows = _read_csv(path, ["index", "word", "two_j3", "two_jN", "p_avg"])
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        raise GateError(f"{path}: indices are not 1..{len(rows)}")
    return np.array([float(r[4]) for r in rows])


def read_resolved_t(path: Path) -> float:
    value = json.loads(path.read_text())["resolved_T"]
    return math.nan if value is None else float(value)


def read_fits(path: Path) -> np.ndarray:
    """a, k, b of the Yule, refined Yule and Zipf fits, then the SSE ratio."""
    payload = json.loads(path.read_text())
    values = [fit[name] for fit in payload["fits"] for name in ("a", "k", "b")]
    return np.array(values + [payload["sse_ratio_zipf_over_yule"]], dtype=float)


def read_summary(path: Path) -> tuple[list[str], np.ndarray]:
    """Sweep statuses and the fit columns of summary.csv."""
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    statuses = [row["status"] for row in rows]
    fits = np.array([[float(row[f] or "nan") for f in SUMMARY_FIT_FIELDS] for row in rows])
    return statuses, fits


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise GateError(f"{path}: header is not {','.join(header)}")
    return rows[1:]


def _close(name: str, got: np.ndarray, ref: np.ndarray, rtol: float, atol: float) -> None:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise GateError(f"{name}: shape {got.shape}, reference {ref.shape}")
    both_nan = np.isnan(got) & np.isnan(ref)
    bad = ~(both_nan | (np.abs(got - ref) <= atol + rtol * np.abs(ref)))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise GateError(
            f"{name}: {int(bad.sum())} value(s) off the reference, "
            f"first at {i}: {float(got.flat[i])!r} vs {float(ref.flat[i])!r}"
        )


def check_profile_dir(d: Path, ref_p: np.ndarray, ref_t: float) -> None:
    """profile.csv invariants and reference, ranked.csv, manifest resolved_T."""
    p = read_profile(d / "profile.csv")
    if not np.isfinite(p).all():
        raise GateError(f"{d}: p_avg has non-finite values")
    if (p < 0).any():
        raise GateError(f"{d}: p_avg has negative values")
    total = math.fsum(p)
    if abs(total - 1.0) > PROFILE_SUM_TOL:
        raise GateError(f"{d}: p_avg sums to {total!r}")
    _close(f"{d.name} p_avg", p, ref_p, P_RTOL, P_ATOL)
    ranked = _read_csv(d / "ranked.csv", ["rank", "index", "word", "value"])
    if len(ranked) != len(p) - 1:
        raise GateError(f"{d}: ranked.csv has {len(ranked)} rows for {len(p)} states")
    values = np.array([float(r[3]) for r in ranked])
    if [int(r[0]) for r in ranked] != list(range(1, len(ranked) + 1)):
        raise GateError(f"{d}: ranks are not 1..{len(ranked)}")
    if (np.diff(values) > 0).any():
        raise GateError(f"{d}: ranked values are not descending")
    if (p[[int(r[1]) - 1 for r in ranked]] != values).any():
        raise GateError(f"{d}: ranked values differ from the profile")
    _close(f"{d.name} resolved_T", read_resolved_t(d / "manifest.json"), ref_t, T_RTOL, 0.0)


def check_profile(out: Path, ref: dict) -> None:
    check_profile_dir(out, ref["p"], float(ref["T"]))


def check_sweep(out: Path, ref: dict) -> None:
    statuses, fits = read_summary(out / "summary.csv")
    if statuses != ["ok"] * len(ref["summary"]):
        raise GateError(f"sweep statuses {statuses}")
    _close("summary fits", fits, ref["summary"], FIT_RTOL, FIT_ATOL)
    for i in range(len(statuses)):
        point = f"point_{i:03d}"
        check_profile_dir(out / point, ref[f"{point}/p"], math.nan)
        _close(f"{point} fits", read_fits(out / point / "fits.json"),
               ref[f"{point}/fits"], FIT_RTOL, FIT_ATOL)


def check_figures(out: Path, ref: dict, order) -> None:
    for fig in order:
        d = out / fig
        check_profile_dir(d, ref[f"{fig}/p"], float(ref[f"{fig}/T"]))
        _close(f"{fig} fits", read_fits(d / "fits.json"), ref[f"{fig}/fits"],
               FIT_RTOL, FIT_ATOL)
        if not (d / "plot.dat").is_file():
            raise GateError(f"{d}: plot.dat missing")
