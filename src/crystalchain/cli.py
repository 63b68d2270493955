"""Command-line interface: basis and Hamiltonian dumps, transition
profiles, rank-size fits, figure presets, and coupling sweeps.

Run inputs are resolved once, here; from then on the library sees the
initial state as its basis index.  Every profile-producing command writes
a manifest that fully determines the run; feeding that manifest back
through ``--config`` reproduces the CSV artifacts byte for byte.  Exit
codes: 0 success, 2 argument error (a chain whose dense matrices would
not fit in physical memory, and a stdout closed by its reader, included),
3 dynamics failure (no stable horizon, or a failed numeric check), 4 fit
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .analysis import (
    FitError,
    FitResult,
    RankedDistribution,
    compare_models,
    fit_log_linear,
    fit_refine,
    plateaux_report,
    rank_order,
)
from .crystal import MAX_CHAIN_LENGTH, BasisMap, check_chain_length, enumerate_basis, parse_word
from .dynamics import (
    PhaseOverflowError,
    TransitionProfile,
    check_horizon,
    dense_peak_bytes,
    eigendecompose,
    find_stable_T,
    infinite_time_average,
    time_averaged_profile,
)
from .hamiltonian import (
    CouplingValues,
    SymbolicHamiltonian,
    build_hamming,
    build_model,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DYNAMICS = 3
EXIT_FIT = 4

COUPLING_NAMES = tuple(field.name for field in dataclasses.fields(CouplingValues))
GRID_NAMES = COUPLING_NAMES + ("all",)

# Looked up at each call, so that a builder wrapped later (a profiler's span, a test's stub) runs.
BUILDERS = {
    "crystal": lambda n: build_model(n),
    "hamming": lambda n: build_hamming(n),
}


class UsageError(ValueError):
    """Bad arguments or configuration (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run; serialized verbatim into the manifest."""

    n: int
    initial: str
    model: str
    couplings: CouplingValues
    horizon: "str | float" = "auto"
    include_self: bool = False


@dataclass(frozen=True)
class RunResult:
    """What one run computed.  ``profile.horizon`` is inf for the infinite
    average; ``fits`` is the fits.json payload, None when not fitted."""

    config: RunConfig
    sym: SymbolicHamiltonian
    profile: TransitionProfile
    ranked: RankedDistribution
    fits: "dict | None"


# mu0 is fixed to 1 and the horizon resolved by the stable-T search; both
# are recorded in the manifest and overridable by flags.
FIGURE_PRESETS = {
    "fig1": RunConfig(3, "RRY", "hamming", CouplingValues(mu0=1.0, beta=0.5)),
    "fig2": RunConfig(3, "RRY", "crystal", CouplingValues(mu0=1.0, eps=0.1, gamma=0.3, delta=0.3)),
    "fig3": RunConfig(4, "YYRY", "crystal", CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5)),
    "fig4": RunConfig(6, "RYRYRY", "crystal", CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5)),
}


def _number(what: str, value) -> float:
    """A config or flag number as a float; anything else exits 2."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"{what} is too large for a float") from None


def _parse_horizon(value: "str | float") -> "str | float":
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("auto", "infinite"):
            return text
        try:
            value = float(text)
        except ValueError:
            raise UsageError(
                f"horizon must be a positive number, 'auto' or 'infinite', got {value!r}"
            ) from None
    value = _number("horizon", value)
    check_horizon(value)
    return value


def _couplings(args: argparse.Namespace, base: dict) -> CouplingValues:
    """``base`` (a config's couplings object) with the coupling flags laid
    over it; mu0 defaults to 1."""
    data = dict(base)
    for name in COUPLING_NAMES:
        flag = getattr(args, name, None)
        if flag is not None:
            data[name] = flag
    data.setdefault("mu0", 1.0)
    return CouplingValues.from_dict({k: _number(f"coupling {k}", v) for k, v in data.items()})


# The top-level keys `_write_run` writes to manifest.json, the run config's
# fields and what the run adds: the only ones a --config file may hold.
_MANIFEST_KEYS = frozenset(field.name for field in dataclasses.fields(RunConfig)) | {
    "resolved_T", "fits", "version", "timestamp",
}


def _resolve_config(args: argparse.Namespace, base: "dict | None" = None) -> RunConfig:
    """Merge flags over ``base`` (a preset's fields) or over the JSON
    config/manifest named by ``--config``; flags win."""
    base = base or {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            base = json.loads(Path(config_path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(base, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")
        unknown = ", ".join(repr(key) for key in base if key not in _MANIFEST_KEYS)
        if unknown:
            raise UsageError(f"config {config_path} has unknown key(s) {unknown}")

    def pick(name, default=None):
        flag = getattr(args, name, None)
        return flag if flag is not None else base.get(name, default)

    n = pick("n")
    if n is None:
        raise UsageError("chain length is required (--n or config)")
    if isinstance(n, bool) or not isinstance(n, int):
        raise UsageError(f"chain length must be an integer, got {n!r}")
    initial = pick("initial")
    if initial is None:
        raise UsageError("initial word is required (--initial or config)")
    if not isinstance(initial, str):
        raise UsageError(f"initial word must be a string, got {initial!r}")
    model = pick("model", "crystal")
    if model not in BUILDERS:
        raise UsageError(f"model must be {' or '.join(map(repr, BUILDERS))}, got {model!r}")
    coupling_data = base.get("couplings", {})
    if not isinstance(coupling_data, dict):
        raise UsageError("config 'couplings' must be a JSON object")
    couplings = _couplings(args, coupling_data)
    horizon = _parse_horizon(pick("horizon", "auto"))
    include_self = pick("include_self", False)
    if not isinstance(include_self, bool):
        raise UsageError(f"include_self must be true or false, got {include_self!r}")
    word = parse_word(initial)
    if len(word) != n:
        raise UsageError(f"initial word length {len(word)} does not match n = {n}")
    return RunConfig(n, word, model, couplings, horizon, include_self)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(n: int, need: int, what: str) -> None:
    """Refuse (exit 2) a chain whose ``what`` needs 3/4 of physical memory
    or more.  The estimate counts only the dense arrays.  `profile` runs
    measured 45 MiB above it at N = 12, 63 MiB at N = 13 and 98 MiB at
    N = 14 (the interpreter, the structure and the blocked passes).  The
    rest of the quarter is not measured: it is room for the rest of the
    machine.  N = 14 (5 GiB in place) passes on 7.8 GiB, and ran there in
    5226 MiB."""
    have = _physical_memory_bytes()
    if need >= have * 3 / 4:
        raise UsageError(
            f"n = {n} needs about {need / 2**20:,.0f} MiB for {what}, "
            f"3/4 or more of the {have / 2**20:,.0f} MiB of physical memory"
        )


# The couplings the sweep axis `all` sets together.
_ALL_AXIS = ("eps", "gamma", "delta", "eta")


def _build(
    model: str, n: int, couplings: CouplingValues, axes: "Iterable[tuple[str, list[float]]]" = ()
) -> SymbolicHamiltonian:
    """``BUILDERS[model](n)``, refused (exit 2) if a nonzero coupling, then a
    sweep axis, sets no coupling it reads: the run would ignore it."""
    sym = BUILDERS[model](n)
    read = {"mu0"} | {field for _, field in sym.families}
    setters = [  # zeros pass: crystal manifests record beta = 0.0
        (f"{name} = {value!r}", (name,)) for name, value in couplings.as_dict().items() if value
    ]
    setters += [
        (f"sweep parameter {name!r}", _ALL_AXIS if name == "all" else (name,)) for name, _ in axes
    ]
    for what, names in setters:
        if read.isdisjoint(names):
            raise UsageError(
                f"{what} sets no coupling the {model} model reads ({', '.join(sorted(read))})"
            )
    return sym


def _fit_bundle(ranked: RankedDistribution, basis: BasisMap, initial: int) -> dict:
    """fits.json: log-linear Yule, its linear refinement, Zipf, ratio and plateaux."""
    comparison = compare_models(ranked)
    refined = fit_refine(ranked, comparison.yule)
    report = plateaux_report(ranked, basis, initial)
    return {
        "fits": [fit.to_json_dict() for fit in (comparison.yule, refined, comparison.zipf)],
        "sse_ratio_zipf_over_yule": comparison.sse_ratio,
        "plateaux": {
            "consistent": report.consistent,
            "exact": report.is_exact(),
            "group_spreads": {str(g.distance): g.spread for g in report.groups if g.size},
        },
    }


def run(config: RunConfig, sym: SymbolicHamiltonian | None = None, fit: bool = False) -> RunResult:
    """The pipeline behind profile, reproduce and sweep: evaluate, decompose,
    average at the configured horizon, rank, and add the fit bundle when
    ``fit``.  ``sym`` reuses a structure already built for ``config``'s n
    and model."""
    if sym is None:
        _check_memory(config.n, dense_peak_bytes(2**config.n), "the dense eigendecomposition")
        sym = _build(config.model, config.n, config.couplings)
    initial = sym.basis.index_of_word(config.initial)
    spec = eigendecompose(sym, config.couplings)
    if config.horizon == "auto":
        profile = find_stable_T(spec, initial)
    elif config.horizon == "infinite":
        profile = infinite_time_average(spec, initial)
    else:
        profile = time_averaged_profile(spec, initial, float(config.horizon))
    ranked = rank_order(profile, include_self=config.include_self)
    fits = _fit_bundle(ranked, sym.basis, profile.initial) if fit else None
    return RunResult(config, sym, profile, ranked, fits)


def _finite_horizon(result: RunResult) -> "float | None":
    """The horizon a run used, None for the infinite average."""
    return None if math.isinf(result.profile.horizon) else result.profile.horizon


def _report_written(what: str, out: Path, result: RunResult) -> None:
    print(f"{what} written to {out} (resolved T = {float(result.profile.horizon)!r})")


def _profile_csv(sym: SymbolicHamiltonian, profile) -> str:
    basis = sym.basis
    columns = zip(
        basis.words, basis.labels[0].tolist(), basis.labels[-1].tolist(), profile.p_avg.tolist()
    )
    lines = ["index,word,two_j3,two_jN,p_avg"]
    for idx, (word, two_j3, two_j_top, p) in enumerate(columns, start=1):
        lines.append(f"{idx},{word},{two_j3},{two_j_top},{p!r}")
    return "\n".join(lines) + "\n"


def _ranked_csv(sym: SymbolicHamiltonian, ranked: RankedDistribution) -> str:
    lines = ["rank,index,word,value"]
    pairs = zip(ranked.indices.tolist(), ranked.values.tolist())
    for rank, (idx, value) in enumerate(pairs, start=1):
        lines.append(f"{rank},{idx + 1},{sym.basis.words[idx]},{value!r}")
    return "\n".join(lines) + "\n"


def _plot_text(ranked: RankedDistribution) -> str:
    return "".join(f"{rank} {value!r}\n" for rank, value in enumerate(ranked.values.tolist(), 1))


def _write(path: Path, chunks: "str | Iterable[str]", echo: bool = False) -> None:
    """Write ``chunks`` (a string or an iterable of them, each also to stdout
    when ``echo``) to ``path``, opened before the first chunk is made."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as file:
            for chunk in [chunks] if isinstance(chunks, str) else chunks:
                file.write(chunk)
                if echo:
                    sys.stdout.write(chunk)
    except BrokenPipeError:
        raise  # stdout's reader is gone; no fault of the file
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


def _write_run(out: Path, result: RunResult) -> None:
    """profile.csv, ranked.csv, fits.json (fitted runs only) and manifest.json."""
    config, sym = result.config, result.sym
    _write(out / "profile.csv", _profile_csv(sym, result.profile))
    _write(out / "ranked.csv", _ranked_csv(sym, result.ranked))
    if result.fits is not None:
        _write_json(out / "fits.json", result.fits)
    _write_json(out / "manifest.json", {
        "n": config.n,
        "initial": config.initial,
        "model": config.model,
        "couplings": config.couplings.as_dict(),
        "horizon": config.horizon,
        "resolved_T": _finite_horizon(result),
        "include_self": config.include_self,
        "fits": [] if result.fits is None else result.fits["fits"],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


def cmd_basis(args: argparse.Namespace) -> int:
    basis = enumerate_basis(args.n)
    for idx, (word, (two_j3, *two_j)) in enumerate(zip(basis.words, basis.labels.T.tolist()), 1):
        body = ",".join(f"{q}/2" for q in two_j)
        print(f"{idx} {word} J3={two_j3}/2; J^2..J^N={body}")
    return EXIT_OK


def cmd_hamiltonian(args: argparse.Namespace) -> int:
    couplings = _couplings(args, {})  # checked even when --symbolic leaves them unused
    if args.symbolic:
        chunks = [BUILDERS[args.model](args.n).dump() + "\n"]
    else:
        check_chain_length(args.n)
        _check_memory(args.n, np.dtype(float).itemsize * 4**args.n, "the dense matrix")
        matrix = _build(args.model, args.n, couplings).evaluate(couplings)
        if not np.isfinite(matrix).all():
            raise RuntimeError("matrix has non-finite entries")
        chunks = (" ".join(map(repr, row.tolist())) + "\n" for row in matrix)
    if args.out:
        _write(Path(args.out) / "hamiltonian.txt", chunks, echo=True)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    result = run(_resolve_config(args))
    out = Path(args.out)
    _write_run(out, result)
    _report_written("profile", out, result)
    return EXIT_OK


# The largest basis index of any chain; ranked CSVs hold 1-based indices.
_MAX_INDEX = 2**MAX_CHAIN_LENGTH


def _read_ranked_csv(path: Path) -> RankedDistribution:
    try:
        lines = path.read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != "rank,index,word,value":
        raise UsageError(f"{path} is not a ranked CSV (header must be rank,index,word,value)")
    row_of_index: dict[int, int] = {}  # basis index -> the ranked row that holds it
    values = []
    for rank, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 4:
            raise UsageError(f"ranked row {rank} is not rank,index,word,value: {line!r}")
        rank_text, index_text, _, value_text = parts
        if _int_or_none(rank_text) != rank:
            raise UsageError(f"ranked row {rank} must have rank {rank} (ranks run 1..n): {line!r}")
        index = _int_or_none(index_text)
        if index is None or not 1 <= index <= _MAX_INDEX:
            raise UsageError(
                f"ranked row {rank} must have an integer index in 1..{_MAX_INDEX}: {line!r}"
            )
        if index in row_of_index:
            raise UsageError(
                f"ranked row {rank} repeats index {index} of row {row_of_index[index]}: {line!r}"
            )
        row_of_index[index] = rank
        try:
            value = float(value_text)
        except ValueError:
            raise UsageError(
                f"ranked row {rank} has a value that is not a number: {line!r}"
            ) from None
        if not math.isfinite(value):
            raise UsageError(f"non-finite value in ranked row: {line!r}")
        values.append(value)
    indices = np.array(list(row_of_index), dtype=np.int64) - 1
    return RankedDistribution(indices, np.array(values))


def _int_or_none(text: str) -> "int | None":
    try:
        return int(text)
    except ValueError:
        return None


def cmd_fit(args: argparse.Namespace) -> int:
    ranked = _read_ranked_csv(Path(args.input))
    if args.fit_model == "both":
        comparison = compare_models(ranked)
        seeds = [comparison.yule, comparison.zipf]
    else:
        seeds = [fit_log_linear(ranked, args.fit_model)]
    fits: list[FitResult] = []
    for fit in seeds:
        fits += [fit, fit_refine(ranked, fit)] if args.refine else [fit]
    payload: dict = {"fits": [fit.to_json_dict() for fit in fits]}
    if args.fit_model == "both":
        payload["sse_ratio_zipf_over_yule"] = comparison.sse_ratio
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write(Path(args.out) / "fits.json", text, echo=True)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    preset = dataclasses.asdict(FIGURE_PRESETS[args.figure])
    result = run(_resolve_config(args, base=preset), fit=True)
    out = Path(args.out or args.figure)
    _write_run(out, result)
    _write(out / "plot.dat", _plot_text(result.ranked))
    _report_written(args.figure, out, result)
    return EXIT_OK


def _parse_grid(params: list[str]) -> list[tuple[str, list[float]]]:
    axes: list[tuple[str, list[float]]] = []
    seen = set()
    for axis_text in params:
        name, _, values_text = axis_text.partition("=")
        name = name.strip().lower()
        if name not in GRID_NAMES:
            raise UsageError(f"unknown sweep parameter {name!r} (choose from {GRID_NAMES})")
        if name in seen:
            raise UsageError(f"duplicate sweep parameter {name!r}")
        seen.add(name)
        if "all" in seen and seen & set(_ALL_AXIS):
            raise UsageError(f"sweep parameter 'all' sets {', '.join(_ALL_AXIS)}; give it alone")
        try:
            values = [float(v) for v in values_text.split(",") if v.strip() != ""]
        except ValueError:
            raise UsageError(f"bad values in sweep parameter {axis_text!r}") from None
        if not values:
            raise UsageError(f"sweep parameter {axis_text!r} lists no values")
        if not all(-float("inf") < v < float("inf") for v in values):
            raise UsageError(f"sweep parameter {axis_text!r} lists a non-finite value")
        axes.append((name, values))
    return axes


def _apply_point(couplings: CouplingValues, point: dict[str, float]) -> CouplingValues:
    updates = {}
    for name, value in point.items():
        updates.update(dict.fromkeys(_ALL_AXIS, value) if name == "all" else {name: value})
    return dataclasses.replace(couplings, **updates)


_FIT_COLUMNS = (
    "resolved_T", "yule_a", "yule_k", "yule_b", "yule_r2",
    "zipf_a", "zipf_k", "zipf_r2", "sse_ratio",
)
_SUMMARY_HEADER = ",".join(("point", "status", *COUPLING_NAMES, *_FIT_COLUMNS))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    axes = _parse_grid(args.param or [])
    out = Path(args.out)
    points = [
        dict(zip([name for name, _ in axes], combo))
        for combo in itertools.product(*[values for _, values in axes])
    ] if axes else []
    _check_memory(config.n, dense_peak_bytes(2**config.n), "the dense eigendecomposition")
    sym = _build(config.model, config.n, config.couplings, axes)

    statuses, lines = [], [_SUMMARY_HEADER]
    for idx, point in enumerate(points):
        couplings = _apply_point(config.couplings, point)
        fit_cells = [""] * len(_FIT_COLUMNS)
        try:
            result = run(dataclasses.replace(config, couplings=couplings), sym, fit=True)
        except (RuntimeError, PhaseOverflowError):
            # StableHorizonError, a failed numeric check, or a horizon whose
            # phases overflow on this point's spectrum
            status = "dynamics_error"
        except FitError:
            status = "fit_error"
        else:
            status = "ok"
            _write_run(out / f"point_{idx:03d}", result)
            yule, _, zipf = result.fits["fits"]
            fit_cells = ["" if value is None else repr(float(value)) for value in (
                _finite_horizon(result), yule["a"], yule["k"], yule["b"], yule["r2"],
                zipf["a"], zipf["k"], zipf["r2"], result.fits["sse_ratio_zipf_over_yule"],
            )]
        statuses.append(status)
        coupling_cells = [repr(float(value)) for value in couplings.as_dict().values()]
        lines.append(",".join([str(idx), status, *coupling_cells, *fit_cells]))
    _write(out / "summary.csv", "\n".join(lines) + "\n")
    print(f"sweep of {len(points)} point(s) written to {out}")
    if points and "ok" not in statuses:
        return EXIT_DYNAMICS if "dynamics_error" in statuses else EXIT_FIT
    return EXIT_OK


def _add_coupling_flags(parser: argparse.ArgumentParser) -> None:
    for name in COUPLING_NAMES:
        parser.add_argument(f"--{name}", type=float, default=None)


def _add_horizon_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--horizon", default=None, help="positive number, 'auto' or 'infinite'")
    parser.add_argument(
        "--include-self", action=argparse.BooleanOptionalAction, default=None,
        dest="include_self", help="keep the self transition when ranking",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="chain length")
    parser.add_argument("--initial", default=None, help="initial word (R/Y, 1/0 or +/-)")
    parser.add_argument("--model", choices=BUILDERS, default=None)
    _add_coupling_flags(parser)
    _add_horizon_flags(parser)
    parser.add_argument("--config", default=None, help="JSON config or manifest; flags override")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Each `parse_args` returns a fresh Namespace and no flag has a mutable
    default, so calls in one process cannot see each other's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="crystalchain",
        description="Crystal-basis spin-chain mutation model: exact Hamiltonians, "
        "averaged transition profiles, and rank-size fits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="print the canonical basis with labels")
    p_basis.add_argument("--n", type=int, required=True, help="chain length")
    p_basis.set_defaults(func=cmd_basis)

    p_ham = sub.add_parser("hamiltonian", help="dump a Hamiltonian, symbolic or numeric")
    p_ham.add_argument("--n", type=int, required=True)
    p_ham.add_argument("--model", choices=BUILDERS, default="crystal")
    p_ham.add_argument("--symbolic", action="store_true", help="integer structure, no numbers")
    _add_coupling_flags(p_ham)
    p_ham.add_argument("--out", default=None)
    p_ham.set_defaults(func=cmd_hamiltonian)

    p_profile = sub.add_parser("profile", help="averaged transition profile from one state")
    _add_run_flags(p_profile)
    p_profile.add_argument("--out", default=".")
    p_profile.set_defaults(func=cmd_profile)

    p_fit = sub.add_parser("fit", help="rank-size fits of a ranked CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--fit-model", choices=("yule", "zipf", "both"), default="both")
    p_fit.add_argument("--refine", action="store_true", help="add linear-space refinement")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser("reproduce", help="run a figure preset end to end")
    p_rep.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    p_rep.add_argument("--mu0", type=float, default=None, help="override the preset mu0 = 1")
    _add_horizon_flags(p_rep)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="grid of runs over coupling values")
    _add_run_flags(p_sweep)
    p_sweep.add_argument(
        "--param", action="append", default=None, metavar="NAME=V1,V2,...",
        help="sweep axis; NAME may be 'all' to set eps=gamma=delta=eta together",
    )
    p_sweep.add_argument("--out", default="sweep")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _join_negative_values(argv: "list[str]") -> "list[str]":
    """argv with each negative number that follows a `--flag`, and each +/-
    word that follows `--initial`, joined onto it as `--flag=value`.
    argparse takes only -1 and -.5 forms for numbers, and reads -1e-3, -inf
    or -+- as a flag with its value missing."""
    joined: list[str] = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if arg.startswith("-") and flag.startswith("--") and len(flag) > 2 and "=" not in flag:
            if _is_value(flag, arg):
                joined[-1] = f"{flag}={arg}"
                continue
        joined.append(arg)
    return joined


def _is_value(flag: str, arg: str) -> bool:
    """Whether the dash-leading ``arg`` is ``flag``'s value: a number, or
    a +/- word after `--initial`."""
    if flag == "--initial" and not arg.strip("+-"):
        return True
    try:
        float(arg)
    except ValueError:
        return False
    return True


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone by now fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so that the final
        # flush of what is still buffered cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except RuntimeError as exc:  # StableHorizonError or a failed numeric check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
