"""Rank ordering of transition profiles and Yule/Zipf rank-size fits.

The rank-size law fitted here is f(R) = a * R^k * b^R; Zipf is the b = 1
special case.  The primary fit is linear least squares on log f (exact
linear algebra, deterministic); a damped Gauss-Newton refinement in linear
space is available on top.  Plateaux diagnostics group ranked values by
Hamming distance from the initial word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crystal import BasisMap, SpinWord
from .dynamics import TransitionProfile

_RATIO_FLOOR = 1e-18


class UnderdeterminedFitError(ValueError):
    """Too few positive points remain to determine the fit parameters."""


@dataclass(frozen=True)
class RankedEntry:
    rank: int
    index: int
    value: float


@dataclass(frozen=True)
class RankedDistribution:
    """Values sorted descending; ties broken by canonical basis index."""

    entries: tuple[RankedEntry, ...]
    include_self: bool | None
    initial: int | None

    @property
    def ranks(self) -> np.ndarray:
        return np.array([e.rank for e in self.entries], dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=float)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.entries)


def rank_order(profile: TransitionProfile, include_self: bool = False) -> RankedDistribution:
    """Sort the averaged probabilities descending (optionally keeping self)."""
    items = [
        (float(v), idx)
        for idx, v in enumerate(profile.p_avg)
        if include_self or idx != profile.initial
    ]
    items.sort(key=lambda pair: (-pair[0], pair[1]))
    entries = tuple(
        RankedEntry(rank, idx, value) for rank, (value, idx) in enumerate(items, start=1)
    )
    return RankedDistribution(entries, include_self, profile.initial)


def ranked_from_values(
    values: Sequence[float], include_self: bool = False, initial: int | None = None
) -> RankedDistribution:
    """Build a ranked distribution from already-sorted values (CSV loads)."""
    entries = tuple(
        RankedEntry(rank, rank - 1, float(v)) for rank, v in enumerate(values, start=1)
    )
    return RankedDistribution(entries, include_self, initial)


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

    def predict(self, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=float)
        return self.a * ranks**self.k * self.b**ranks

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
    ranks = ranked.ranks
    values = ranked.values
    mask = values > 0.0
    excluded = int((~mask).sum())
    return ranks[mask], values[mask], excluded


def _min_points(model: str) -> int:
    return 4 if model == "yule" else 3


def _residual_summary(
    ranks: np.ndarray, values: np.ndarray, a: float, k: float, b: float
) -> tuple[float, float]:
    predicted = a * ranks**k * b**ranks
    sse_linear = float(((values - predicted) ** 2).sum())
    sstot = float(((values - values.mean()) ** 2).sum())
    if sstot > 0.0:
        r2 = 1.0 - sse_linear / sstot
    else:
        r2 = 1.0 if sse_linear <= 1e-30 else 0.0
    return sse_linear, r2


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
    a, b = math.exp(log_a), math.exp(log_b)
    sse_linear, r2 = _residual_summary(ranks, values, a, k, b)
    return FitResult(
        model=model,
        a=a,
        k=k,
        b=b,
        sse_log=sse_log,
        sse_linear=sse_linear,
        r2=r2,
        fit_space="log",
        points_used=len(ranks),
        points_excluded=excluded,
    )


def fit_refine(
    ranked: RankedDistribution,
    initial: FitResult,
    max_iter: int = 500,
    step_tol: float = 1e-12,
) -> FitResult:
    """Damped least squares on linear-space residuals, seeded by `initial`.

    Parameters move in (log a, k, log b) so a and b stay positive; steps
    are accepted only when they lower the linear-space sse, hence the
    result is never worse than the seed.  A refinement that cannot take a
    single step returns the seed flagged as diverged.
    """
    yule = initial.model == "yule"
    ranks, values, excluded = _positive_points(ranked)
    if len(ranks) < _min_points(initial.model):
        raise UnderdeterminedFitError("too few positive points to refine")

    def unpack(theta: np.ndarray) -> tuple[float, float, float]:
        a = math.exp(theta[0])
        k = float(theta[1])
        b = math.exp(theta[2]) if yule else 1.0
        return a, k, b

    def sse_of(theta: np.ndarray) -> float:
        a, k, b = unpack(theta)
        # a trial step may overflow; its inf or NaN sse is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            return float(((values - a * ranks**k * b**ranks) ** 2).sum())

    theta = np.array(
        [math.log(initial.a), initial.k] + ([math.log(initial.b)] if yule else [])
    )
    current_sse = sse_of(theta)
    damping = 1e-3
    accepted_any = False
    log_ranks = np.log(ranks)
    for _ in range(max_iter):
        a, k, b = unpack(theta)
        predicted = a * ranks**k * b**ranks
        residual = values - predicted
        columns = [predicted, predicted * log_ranks]
        if yule:
            columns.append(predicted * ranks)
        jac = np.column_stack(columns)
        gram = jac.T @ jac
        grad = jac.T @ residual
        step = None
        while damping < 1e15:
            try:
                delta = np.linalg.solve(gram + damping * np.diag(np.diag(gram)), grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if not np.isfinite(delta).all():
                damping *= 10.0
                continue
            candidate = theta + delta
            candidate_sse = sse_of(candidate)
            if math.isfinite(candidate_sse) and candidate_sse <= current_sse:
                step = delta
                theta = candidate
                current_sse = candidate_sse
                damping = max(damping / 3.0, 1e-12)
                accepted_any = True
                break
            damping *= 10.0
        if step is None:
            break
        if float(np.abs(step).max()) <= step_tol:
            break
    diverged = not accepted_any  # theta is untouched when no step was accepted
    a, k, b = unpack(theta)
    y = np.log(values)
    model_log = math.log(a) + k * log_ranks + (math.log(b) * ranks if yule else 0.0)
    sse_log = float(((y - model_log) ** 2).sum())
    sse_linear, r2 = _residual_summary(ranks, values, a, k, b)
    return FitResult(
        model=initial.model,
        a=a,
        k=k,
        b=b,
        sse_log=sse_log,
        sse_linear=sse_linear,
        r2=r2,
        fit_space="linear",
        points_used=len(ranks),
        points_excluded=excluded,
        diverged=diverged,
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

    def group(self, distance: int) -> PlateauxGroup:
        return self.groups[distance]

    def max_spread(self) -> float:
        return max(g.spread for g in self.groups)

    def is_exact(self, tol: float = 1e-9) -> bool:
        """True when every group is flat within `tol` and groups do not interleave."""
        return self.consistent and all(g.spread <= tol for g in self.groups)


def plateaux_report(
    ranked: RankedDistribution, basis: BasisMap, initial_word: "SpinWord | str"
) -> PlateauxReport:
    """Group ranked values by distance from `initial_word` and check whether
    that grouping alone explains the ranking (no interleaving between
    groups once ordered by group mean)."""
    word = initial_word if isinstance(initial_word, SpinWord) else SpinWord.parse(initial_word)
    if len(word) != basis.n:
        raise ValueError(f"length mismatch: {basis.n} vs {len(word)}")
    value_by_index = {e.index: e.value for e in ranked.entries}
    indices = np.array(sorted(i for i in value_by_index if 0 <= i < basis.dim), dtype=np.int64)
    values = np.array([value_by_index[i] for i in indices.tolist()], dtype=float)
    bits = np.array([w.bits for w in basis.words], dtype=np.int64)
    differing = bits[indices] ^ word.bits
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
