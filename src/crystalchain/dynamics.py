"""Exact diagonalization and horizon-averaged transition probabilities.

Evolution under a real symmetric Hamiltonian (hbar = 1) is evaluated in
the eigenbasis; the average of |<f|exp(-iHt)|i>|^2 over a finite horizon
has a closed form in the eigenvalue gaps, which makes stable-horizon
searches and the infinite-horizon limit cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DECOMP_TOL = 1e-10
PROFILE_SUM_TOL = 1e-8
# Rows of the horizon-average kernel built at a time: peak memory of
# time_averaged_profile is O(_KERNEL_BLOCK * dim) instead of O(dim^2).
_KERNEL_BLOCK = 256


class StableHorizonError(RuntimeError):
    """Stable-horizon search exceeded its cap (nearly degenerate spectrum)."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def eigendecompose(h: np.ndarray, tol: float = DEFAULT_DECOMP_TOL) -> SpectralDecomposition:
    """Diagonalize a dense symmetric matrix with checked residuals.

    Deterministic up to the sign convention: the largest-magnitude
    component of every eigenvector is made nonnegative.  Non-finite
    entries (e.g. couplings large enough to overflow) raise RuntimeError,
    as do failed residual or orthonormality checks.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise RuntimeError("matrix has non-finite entries")
    scale = float(np.abs(h).max()) if h.size else 0.0
    scale = max(scale, 1.0)
    if float(np.abs(h - h.T).max()) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        eigenvalues, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    if not (np.isfinite(eigenvalues).all() and np.isfinite(vectors).all()):
        raise RuntimeError("eigensolver returned non-finite values")
    anchor = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    residual = float(np.abs(h @ vectors - vectors * eigenvalues).max())
    ortho = float(np.abs(vectors.T @ vectors - np.eye(len(eigenvalues))).max())
    if not (residual <= tol * scale and ortho <= tol):
        raise RuntimeError(
            f"decomposition failed checks: residual {residual:.3e}, orthonormality {ortho:.3e}"
        )
    return SpectralDecomposition(eigenvalues, vectors)


@dataclass(frozen=True)
class TransitionProfile:
    """Horizon-averaged transition probabilities out of one basis state."""

    initial: int
    horizon: float
    p_avg: np.ndarray


def _as_profile(initial: int, horizon: float, values: np.ndarray) -> TransitionProfile:
    if not np.isfinite(values).all():
        raise RuntimeError("averaged profile has non-finite entries")
    low = float(values.min())
    if low < -1e-10:
        raise RuntimeError(f"negative probability {low:.3e} in averaged profile")
    values = np.clip(values, 0.0, 1.0)
    total = float(values.sum())
    if abs(total - 1.0) > PROFILE_SUM_TOL:
        raise RuntimeError(f"averaged profile sums to {total!r}, not 1")
    return TransitionProfile(initial, horizon, values)


def transition_probability(
    spec: SpectralDecomposition, initial: int, final: int, t: float
) -> float:
    """|<final| exp(-iHt) |initial>|^2 from the spectral data."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    c = spec.eigenvectors[final] * spec.eigenvectors[initial]
    phase = spec.eigenvalues * t
    re = float(c @ np.cos(phase))
    im = float(c @ np.sin(phase))
    return re * re + im * im


def time_averaged_profile(
    spec: SpectralDecomposition, initial: int, horizon: float
) -> TransitionProfile:
    """Average of the transition probabilities over [0, horizon].

    Closed form: p_f = sum_ab V_fa c_a K_ab c_b V_fb with c = V[initial]
    and K_ab = sin(x)/x at x = (e_a - e_b) * horizon; no time
    discretization enters.  K is built in place over blocks of rows a,
    with the series 1 - x^2/6 + x^4/120 for |x| < 1e-4.  K is symmetric,
    so each block takes only the columns b from its own first row on and
    counts the columns past the block twice.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    e = spec.eigenvalues
    v = spec.eigenvectors
    c = v[initial]
    p_avg = np.zeros(spec.dim)
    for start in range(0, spec.dim, _KERNEL_BLOCK):
        blk = slice(start, start + _KERNEL_BLOCK)
        x = np.subtract.outer(e[blk], e[start:])
        x *= horizon
        small = np.abs(x) < 1e-4
        with np.errstate(invalid="ignore"):  # 0/0 on the series entries
            k = np.sin(x)
            k /= x
        xs = x[small]
        k[small] = 1.0 - xs * xs / 6.0 + xs**4 / 120.0
        k *= c[blk, None]
        k *= c[start:]
        k[:, _KERNEL_BLOCK:] *= 2.0
        p_avg += np.einsum("af,fa->f", k @ v[:, start:].T, v[:, blk])
    return _as_profile(initial, horizon, p_avg)


def infinite_time_average(
    spec: SpectralDecomposition, initial: int, degeneracy_tol: float | None = None
) -> TransitionProfile:
    """Infinite-horizon limit: only (near-)degenerate eigenpairs survive.

    Eigenvalues are clustered by consecutive gaps <= `degeneracy_tol`
    (default 1e-9 * max|eigenvalue|) so exact degeneracies keep their
    cross terms.
    """
    eigenvalues = spec.eigenvalues
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * float(np.abs(eigenvalues).max())
    if degeneracy_tol < 0:
        raise ValueError("degeneracy tolerance must be nonnegative")
    weights = spec.eigenvectors * spec.eigenvectors[initial]
    p_avg = np.zeros(spec.dim)
    start = 0
    for stop in range(1, spec.dim + 1):
        if stop == spec.dim or eigenvalues[stop] - eigenvalues[stop - 1] > degeneracy_tol:
            block = weights[:, start:stop].sum(axis=1)
            p_avg += block * block
            start = stop
    return _as_profile(initial, math.inf, p_avg)


def find_stable_T(
    spec: SpectralDecomposition,
    initial: int,
    rel_tol: float = 1e-3,
    growth: float = 2.0,
    t_start: float = 10.0,
    t_cap: float = 1e9,
) -> TransitionProfile:
    """Profile at the smallest tested horizon that agrees with the next longer one.

    Horizons grow geometrically from `t_start`; the profile at the first T
    that differs from the profile at growth*T by at most `rel_tol` in max
    norm is returned, with T as its `horizon`.  Exceeding `t_cap` raises
    StableHorizonError; callers should fall back to the infinite-horizon
    average.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if growth <= 1:
        raise ValueError("growth must exceed 1")
    if t_start <= 0:
        raise ValueError("t_start must be positive")
    horizon = t_start
    current = time_averaged_profile(spec, initial, horizon)
    while horizon <= t_cap:
        longer = time_averaged_profile(spec, initial, horizon * growth)
        if float(np.abs(current.p_avg - longer.p_avg).max()) <= rel_tol:
            return current
        horizon *= growth
        current = longer
    raise StableHorizonError(
        f"no stable horizon below {t_cap:g}; spectrum may be nearly degenerate"
    )
