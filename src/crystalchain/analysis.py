"""Rank ordering of transition profiles and Yule/Zipf rank-size fits.

The rank-size law fitted here is f(R) = a * R^k * b^R; Zipf is the b = 1
special case.  The primary fit is linear least squares on log f (exact
linear algebra, deterministic); a damped Gauss-Newton refinement in linear
space is available on top.  Plateaux diagnostics group ranked values by
Hamming distance from the initial state's word, read from the basis bits
at the state's index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crystal import BasisMap
from .dynamics import TransitionProfile

_RATIO_FLOOR = 1e-18
# fit_refine stops after this many accepted steps, or at a step whose
# largest parameter change is at most _STEP_TOL.
_MAX_REFINE_STEPS = 500
_STEP_TOL = 1e-12
# Largest spread of a group PlateauxReport.is_exact calls flat.
_PLATEAU_TOL = 1e-9


class FitError(ValueError):
    """A fit that cannot be determined or whose residuals are not finite."""


class UnderdeterminedFitError(FitError):
    """Too few positive points remain to determine the fit parameters."""


@dataclass(frozen=True, eq=False)
class RankedDistribution:
    """Basis indices and their values, sorted descending with ties broken by
    canonical basis index; position i holds rank i + 1."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self.values) + 1, dtype=float)


def rank_order(profile: TransitionProfile, include_self: bool = False) -> RankedDistribution:
    """Sort the averaged probabilities descending (optionally keeping self)."""
    indices = np.arange(len(profile.p_avg), dtype=np.int64)
    if not include_self:
        indices = np.delete(indices, profile.initial)
    values = profile.p_avg[indices]
    order = np.argsort(-values, kind="stable")
    return RankedDistribution(indices[order], values[order])


@dataclass(frozen=True)
class FitResult:
    """Fitted rank-size parameters with residuals in both spaces."""

    model: str
    a: float
    k: float
    b: float
    sse_log: float
    sse_linear: float
    r2: float
    fit_space: str
    points_used: int
    points_excluded: int
    diverged: bool = False

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "a": self.a,
            "k": self.k,
            "b": self.b,
            "sse_log": self.sse_log,
            "sse_linear": self.sse_linear,
            "r2": self.r2,
            "points_used": self.points_used,
            "points_excluded": self.points_excluded,
            "fit_space": self.fit_space,
        }


def _positive_points(ranked: RankedDistribution) -> tuple[np.ndarray, np.ndarray, int]:
    values = ranked.values
    mask = values > 0.0
    return ranked.ranks[mask], values[mask], int((~mask).sum())


def _min_points(model: str) -> int:
    return 4 if model == "yule" else 3


def _rank_size(ranks: np.ndarray, a: float, k: float, b: float) -> np.ndarray:
    return a * ranks**k * b**ranks


def _exp(value: float) -> float:
    """math.exp with an overflow as inf instead of an exception."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _check_parameters(model: str, fit_space: str, a: float, b: float) -> None:
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise FitError(
            f"{model} fit in {fit_space} space puts a = {a!r}, b = {b!r} "
            "outside the positive floats"
        )


def _fit_result(
    model: str,
    fit_space: str,
    params: tuple[float, float, float],
    sse_log: float,
    ranks: np.ndarray,
    values: np.ndarray,
    excluded: int,
    diverged: bool = False,
) -> FitResult:
    """Add the linear-space residual summary; a non-finite fit, or an a or b
    that is not a positive float, is a failure."""
    a, k, b = params
    _check_parameters(model, fit_space, a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        sse_linear = float(((values - _rank_size(ranks, a, k, b)) ** 2).sum())
        sstot = float(((values - values.mean()) ** 2).sum())
    if sstot > 0.0:
        r2 = 1.0 - sse_linear / sstot
    else:
        r2 = 1.0 if sse_linear <= 1e-30 else 0.0
    if not all(map(math.isfinite, (sse_log, sse_linear, r2))):
        raise FitError(
            f"{model} fit in {fit_space} space is not finite "
            f"(sse_log {sse_log!r}, sse_linear {sse_linear!r}, r2 {r2!r})"
        )
    return FitResult(
        model=model,
        a=a,
        k=k,
        b=b,
        sse_log=sse_log,
        sse_linear=sse_linear,
        r2=r2,
        fit_space=fit_space,
        points_used=len(ranks),
        points_excluded=excluded,
        diverged=diverged,
    )


def fit_log_linear(ranked: RankedDistribution, model: str = "yule") -> FitResult:
    """Least squares for log f = log a + k log R (+ R log b for Yule).

    Zero values cannot enter the log and are excluded (count reported).
    """
    model = model.lower()
    if model not in ("yule", "zipf"):
        raise ValueError(f"model must be 'yule' or 'zipf', got {model!r}")
    ranks, values, excluded = _positive_points(ranked)
    if len(ranks) < _min_points(model):
        raise UnderdeterminedFitError(
            f"{model} fit needs at least {_min_points(model)} positive points, got {len(ranks)}"
        )
    y = np.log(values)
    columns = [np.ones_like(ranks), np.log(ranks)]
    if model == "yule":
        columns.append(ranks)
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    log_a, k = float(coef[0]), float(coef[1])
    log_b = float(coef[2]) if model == "yule" else 0.0
    sse_log = float(((y - design @ coef) ** 2).sum())
    params = (_exp(log_a), k, _exp(log_b))
    return _fit_result(model, "log", params, sse_log, ranks, values, excluded)


# a trial step, or the Gram matrix of a seed near the float range, may
# overflow; the inf or NaN steps and sse values are rejected in the loop
@np.errstate(over="ignore", invalid="ignore")
def fit_refine(ranked: RankedDistribution, initial: FitResult) -> FitResult:
    """Damped least squares on linear-space residuals, seeded by `initial`.

    Parameters move in (log a, k, log b) so a and b stay positive; steps
    are accepted only when they lower the linear-space sse, hence the
    result is never worse than the seed.  A refinement that cannot take a
    single step returns the seed flagged as diverged.  The prediction of an
    accepted candidate seeds the next Jacobian; a candidate whose a or b
    overflows predicts inf and is rejected.
    """
    yule = initial.model == "yule"
    ranks, values, excluded = _positive_points(ranked)
    if len(ranks) < _min_points(initial.model):
        raise UnderdeterminedFitError("too few positive points to refine")

    def unpack(theta: np.ndarray) -> tuple[float, float, float]:
        a = _exp(theta[0])
        k = float(theta[1])
        b = _exp(theta[2]) if yule else 1.0
        return a, k, b

    def predict(theta: np.ndarray) -> np.ndarray:
        return _rank_size(ranks, *unpack(theta))

    theta = np.array(
        [math.log(initial.a), initial.k] + ([math.log(initial.b)] if yule else [])
    )
    predicted = predict(theta)
    residual = values - predicted
    current_sse = float((residual**2).sum())
    damping = 1e-3
    accepted_any = False
    log_ranks = np.log(ranks)
    for _ in range(_MAX_REFINE_STEPS):
        columns = [predicted, predicted * log_ranks]
        if yule:
            columns.append(predicted * ranks)
        jac = np.column_stack(columns)
        gram = jac.T @ jac
        grad = jac.T @ residual
        scaling = np.diag(np.diag(gram))
        step = None
        while damping < 1e15:
            try:
                delta = np.linalg.solve(gram + damping * scaling, grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if not np.isfinite(delta).all():
                damping *= 10.0
                continue
            candidate = theta + delta
            candidate_predicted = predict(candidate)
            candidate_residual = values - candidate_predicted
            candidate_sse = float((candidate_residual**2).sum())
            if math.isfinite(candidate_sse) and candidate_sse <= current_sse:
                step = delta
                theta, predicted, residual = candidate, candidate_predicted, candidate_residual
                current_sse = candidate_sse
                damping = max(damping / 3.0, 1e-12)
                accepted_any = True
                break
            damping *= 10.0
        if step is None:
            break
        if float(np.abs(step).max()) <= _STEP_TOL:
            break
    diverged = not accepted_any  # theta is untouched when no step was accepted
    a, k, b = unpack(theta)
    _check_parameters(initial.model, "linear", a, b)
    y = np.log(values)
    model_log = math.log(a) + k * log_ranks + (math.log(b) * ranks if yule else 0.0)
    sse_log = float(((y - model_log) ** 2).sum())
    return _fit_result(
        initial.model, "linear", (a, k, b), sse_log, ranks, values, excluded, diverged
    )


@dataclass(frozen=True)
class PlateauxGroup:
    distance: int
    indices: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else math.nan

    @property
    def spread(self) -> float:
        return float(max(self.values) - min(self.values)) if self.values else 0.0


@dataclass(frozen=True)
class PlateauxReport:
    """Ranked values grouped by Hamming distance from the initial word."""

    groups: tuple[PlateauxGroup, ...]
    consistent: bool

    def is_exact(self) -> bool:
        """True when every group is flat within _PLATEAU_TOL (1e-9) and groups
        do not interleave."""
        return self.consistent and all(g.spread <= _PLATEAU_TOL for g in self.groups)


def plateaux_report(ranked: RankedDistribution, basis: BasisMap, initial: int) -> PlateauxReport:
    """Group ranked values by Hamming distance from the word of basis state
    `initial` and check whether that grouping alone explains the ranking
    (no interleaving between groups once ordered by group mean)."""
    if not 0 <= initial < basis.dim:
        raise ValueError(f"initial state {initial} is not a basis index (0..{basis.dim - 1})")
    inside = (ranked.indices >= 0) & (ranked.indices < basis.dim)
    order = np.argsort(ranked.indices[inside])
    indices, values = ranked.indices[inside][order], ranked.values[inside][order]
    differing = basis.bits[indices] ^ basis.bits[initial]
    distances = sum((differing >> site) & 1 for site in range(basis.n))
    groups = []
    for distance in range(basis.n + 1):
        members = np.flatnonzero(distances == distance)
        groups.append(
            PlateauxGroup(
                distance, tuple(indices[members].tolist()), tuple(values[members].tolist())
            )
        )
    ordered = sorted((g for g in groups if g.size), key=lambda g: -g.mean)
    consistent = all(
        min(hi.values) >= max(lo.values) for hi, lo in zip(ordered, ordered[1:])
    )
    return PlateauxReport(tuple(groups), consistent)


@dataclass(frozen=True)
class ModelComparison:
    """Yule and Zipf fits on identical points, with their sse ratio."""

    yule: FitResult
    zipf: FitResult
    sse_ratio: float


def compare_models(ranked: RankedDistribution) -> ModelComparison:
    """Fit both models and report sse(Zipf)/sse(Yule) in fit (log) space.

    A tiny floor keeps the ratio at 1 when both fits are exact to rounding.
    """
    yule = fit_log_linear(ranked, "yule")
    zipf = fit_log_linear(ranked, "zipf")
    ratio = (zipf.sse_log + _RATIO_FLOOR) / (yule.sse_log + _RATIO_FLOOR)
    return ModelComparison(yule, zipf, float(ratio))
