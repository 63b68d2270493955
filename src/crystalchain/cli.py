"""Command-line interface: basis and Hamiltonian dumps, transition
profiles, rank-size fits, figure presets, and coupling sweeps.

Every profile-producing command writes a manifest that fully determines
the run; feeding that manifest back through ``--config`` reproduces the
CSV artifacts byte for byte.  Exit codes: 0 success, 2 argument error
(a chain whose dense eigendecomposition would not fit in physical memory
included), 3 dynamics failure (no stable horizon, or a failed numeric
check), 4 fit failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import (
    FitResult,
    RankedDistribution,
    RankedEntry,
    UnderdeterminedFitError,
    compare_models,
    fit_log_linear,
    fit_refine,
    plateaux_report,
    rank_order,
)
from .crystal import SpinWord, enumerate_basis
from .dynamics import (
    TransitionProfile,
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

COUPLING_NAMES = ("mu0", "eps", "gamma", "delta", "eta", "beta")
GRID_NAMES = COUPLING_NAMES + ("all",)


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
    """What one run computed.  ``resolved_t`` is None for the infinite
    average; ``fits`` is the fits.json payload, None when not fitted."""

    config: RunConfig
    sym: SymbolicHamiltonian
    resolved_t: "float | None"
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
    if not (value > 0 and math.isfinite(value)):
        raise UsageError(f"explicit horizon must be positive and finite, got {value!r}")
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


def _resolve_config(args: argparse.Namespace, base: "dict | None" = None) -> RunConfig:
    """Merge flags over ``base`` (a preset's fields) or over the JSON
    config/manifest named by ``--config``; flags win."""
    base = base or {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            base = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(base, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")

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
    if model not in ("crystal", "hamming"):
        raise UsageError(f"model must be 'crystal' or 'hamming', got {model!r}")
    coupling_data = base.get("couplings", {})
    if not isinstance(coupling_data, dict):
        raise UsageError("config 'couplings' must be a JSON object")
    couplings = _couplings(args, coupling_data)
    horizon = _parse_horizon(pick("horizon", "auto"))
    include_self = pick("include_self", False)
    if not isinstance(include_self, bool):
        raise UsageError(f"include_self must be true or false, got {include_self!r}")
    word = SpinWord.parse(initial)
    if len(word) != n:
        raise UsageError(f"initial word length {len(word)} does not match n = {n}")
    return RunConfig(n, word.spins, model, couplings, horizon, include_self)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _build(config: RunConfig) -> SymbolicHamiltonian:
    need = dense_peak_bytes(2**config.n)
    have = _physical_memory_bytes()
    if need > have:
        raise UsageError(
            f"n = {config.n} needs about {need / 2**20:,.0f} MiB for the dense "
            f"eigendecomposition, more than the {have / 2**20:,.0f} MiB of physical memory"
        )
    if config.model == "crystal":
        return build_model(config.n)
    return build_hamming(config.n)


def _fit_bundle(sym: SymbolicHamiltonian, config: RunConfig, ranked: RankedDistribution) -> dict:
    """fits.json: log-linear Yule, its linear refinement, Zipf, ratio and plateaux."""
    comparison = compare_models(ranked)
    refined = fit_refine(ranked, comparison.yule)
    report = plateaux_report(ranked, sym.basis, config.initial)
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
    sym = _build(config) if sym is None else sym
    initial_index = sym.basis.index_of_word(config.initial)
    spec = eigendecompose(sym.evaluate(config.couplings))
    if config.horizon == "auto":
        profile = find_stable_T(spec, initial_index)
        resolved = profile.horizon
    elif config.horizon == "infinite":
        resolved = None
        profile = infinite_time_average(spec, initial_index)
    else:
        resolved = float(config.horizon)
        profile = time_averaged_profile(spec, initial_index, resolved)
    ranked = rank_order(profile, include_self=config.include_self)
    fits = _fit_bundle(sym, config, ranked) if fit else None
    return RunResult(config, sym, resolved, profile, ranked, fits)


def _profile_csv(sym: SymbolicHamiltonian, profile) -> str:
    lines = ["index,word,two_j3,two_jN,p_avg"]
    for idx, (word, labels) in enumerate(sym.basis):
        lines.append(
            f"{idx + 1},{word},{labels.two_j3},{labels.two_j_top},{float(profile.p_avg[idx])!r}"
        )
    return "\n".join(lines) + "\n"


def _ranked_csv(sym: SymbolicHamiltonian, ranked: RankedDistribution) -> str:
    lines = ["rank,index,word,value"]
    for entry in ranked.entries:
        word = sym.basis.words[entry.index]
        lines.append(f"{entry.rank},{entry.index + 1},{word},{float(entry.value)!r}")
    return "\n".join(lines) + "\n"


def _plot_text(ranked: RankedDistribution) -> str:
    return "".join(f"{e.rank} {float(e.value)!r}\n" for e in ranked.entries)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


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
        "resolved_T": result.resolved_t,
        "include_self": config.include_self,
        "fits": [] if result.fits is None else result.fits["fits"],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


def cmd_basis(args: argparse.Namespace) -> int:
    basis = enumerate_basis(args.n)
    for idx, (word, labels) in enumerate(basis):
        print(f"{idx + 1} {word} {labels.text()}")
    return EXIT_OK


def cmd_hamiltonian(args: argparse.Namespace) -> int:
    if args.model == "crystal":
        if args.zero_diagonal:
            raise UsageError("--zero-diagonal applies to the hamming model only")
        sym = build_model(args.n)
    else:
        sym = build_hamming(args.n, include_diagonal=not args.zero_diagonal)
    if args.symbolic:
        text = sym.dump() + "\n"
    else:
        matrix = sym.evaluate(_couplings(args, {}))
        text = "\n".join(" ".join(repr(float(v)) for v in row) for row in matrix) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(Path(args.out) / "hamiltonian.txt", text)
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    result = run(_resolve_config(args))
    out = Path(args.out)
    _write_run(out, result)
    shown = "inf" if result.resolved_t is None else repr(float(result.resolved_t))
    print(f"profile written to {out} (resolved T = {shown})")
    return EXIT_OK


def _read_ranked_csv(path: Path) -> RankedDistribution:
    try:
        lines = path.read_text().strip().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != "rank,index,word,value":
        raise UsageError(f"{path} is not a ranked CSV (header must be rank,index,word,value)")
    entries = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise UsageError(f"malformed ranked row: {line!r}")
        entries.append(RankedEntry(int(parts[0]), int(parts[1]) - 1, float(parts[3])))
    return RankedDistribution(tuple(entries), include_self=None, initial=None)


def cmd_fit(args: argparse.Namespace) -> int:
    ranked = _read_ranked_csv(Path(args.input))
    models = ("yule", "zipf") if args.fit_model == "both" else (args.fit_model,)
    fits: list[FitResult] = []
    for model in models:
        fit = fit_log_linear(ranked, model)
        fits.append(fit)
        if args.refine:
            fits.append(fit_refine(ranked, fit))
    payload: dict = {"fits": [fit.to_json_dict() for fit in fits]}
    if args.fit_model == "both":
        payload["sse_ratio_zipf_over_yule"] = compare_models(ranked).sse_ratio
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(Path(args.out) / "fits.json", text)
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    preset = dataclasses.asdict(FIGURE_PRESETS[args.figure])
    result = run(_resolve_config(args, base=preset), fit=True)
    out = Path(args.out or args.figure)
    _write_run(out, result)
    _write(out / "plot.dat", _plot_text(result.ranked))
    shown = "inf" if result.resolved_t is None else repr(float(result.resolved_t))
    print(f"{args.figure} written to {out} (resolved T = {shown})")
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
        if name == "all":
            updates.update({"eps": value, "gamma": value, "delta": value, "eta": value})
        else:
            updates[name] = value
    return dataclasses.replace(couplings, **updates)


_SUMMARY_HEADER = (
    "point,status,mu0,eps,gamma,delta,eta,beta,resolved_T,"
    "yule_a,yule_k,yule_b,yule_r2,zipf_a,zipf_k,zipf_r2,sse_ratio"
)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    config = _resolve_config(args)
    axes = _parse_grid(args.param)
    out = Path(args.out)
    points = [
        dict(zip([name for name, _ in axes], combo))
        for combo in itertools.product(*[values for _, values in axes])
    ] if axes else []
    sym = _build(config)

    def run_point(item: tuple[int, dict[str, float]]) -> dict:
        idx, point = item
        point_config = dataclasses.replace(
            config, couplings=_apply_point(config.couplings, point)
        )
        row: dict = {"point": idx, "status": "ok", **point_config.couplings.as_dict()}
        try:
            result = run(point_config, sym, fit=True)
        except RuntimeError:  # StableHorizonError or a failed numeric check
            row["status"] = "dynamics_error"
        except UnderdeterminedFitError:
            row["status"] = "fit_error"
        else:
            _write_run(out / f"point_{idx:03d}", result)
            yule, _, zipf = result.fits["fits"]
            row.update(
                resolved_T=result.resolved_t,
                yule_a=yule["a"], yule_k=yule["k"], yule_b=yule["b"], yule_r2=yule["r2"],
                zipf_a=zipf["a"], zipf_k=zipf["k"], zipf_r2=zipf["r2"],
                sse_ratio=result.fits["sse_ratio_zipf_over_yule"],
            )
        return row

    workers = min(args.workers, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_point, enumerate(points)))
    else:
        rows = [run_point(item) for item in enumerate(points)]

    lines = [_SUMMARY_HEADER]
    fit_fields = (
        "resolved_T", "yule_a", "yule_k", "yule_b", "yule_r2",
        "zipf_a", "zipf_k", "zipf_r2", "sse_ratio",
    )
    for row in rows:
        cells = [str(row["point"]), row["status"]]
        cells += [repr(float(row[name])) for name in COUPLING_NAMES]
        for field in fit_fields:
            value = row.get(field)
            cells.append("" if value is None else repr(float(value)))
        lines.append(",".join(cells))
    _write(out / "summary.csv", "\n".join(lines) + "\n")
    print(f"sweep of {len(points)} point(s) written to {out}")
    if points and all(row["status"] != "ok" for row in rows):
        return EXIT_DYNAMICS if any(r["status"] == "dynamics_error" for r in rows) else EXIT_FIT
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
    parser.add_argument("--model", choices=("crystal", "hamming"), default=None)
    _add_coupling_flags(parser)
    _add_horizon_flags(parser)
    parser.add_argument("--config", default=None, help="JSON config or manifest; flags override")


def build_parser() -> argparse.ArgumentParser:
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
    p_ham.add_argument("--model", choices=("crystal", "hamming"), default="crystal")
    p_ham.add_argument("--symbolic", action="store_true", help="integer structure, no numbers")
    p_ham.add_argument(
        "--zero-diagonal", action="store_true", dest="zero_diagonal",
        help="drop the 2*J3 diagonal (hamming model only)",
    )
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
        "--param", action="append", default=[], metavar="NAME=V1,V2,...",
        help="sweep axis; NAME may be 'all' to set eps=gamma=delta=eta together",
    )
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default="sweep")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnderdeterminedFitError as exc:
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
