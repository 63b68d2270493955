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
# Slack of find_stable_T's initial-row screen over rounding; see its docstring.
_SCREEN_MARGIN = 1e-9


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


def dense_peak_bytes(dim: int) -> int:
    """Estimated peak memory of `eigendecompose` on a dim x dim matrix.

    Five dim x dim float64 arrays, set by eigh itself: H, LAPACK's copy of
    it, the dsyevd workspace (2 dim^2) and the output vectors.  The checks
    that follow, done in place, hold at most four (H, the vectors, the
    residual and one temporary).
    """
    return 5 * np.dtype(float).itemsize * dim * dim


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
    vectors *= signs
    r = h @ vectors
    r -= vectors * eigenvalues
    residual = float(np.abs(r, out=r).max())
    del r
    g = vectors.T @ vectors
    g[np.diag_indices_from(g)] -= 1.0
    ortho = float(np.abs(g, out=g).max())
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


def _kernel_blocks(eigenvalues: np.ndarray, horizon: float, weights: np.ndarray):
    """Yield (start, block) over _KERNEL_BLOCK-row blocks of the weighted kernel.

    Block rows are a in start:start+_KERNEL_BLOCK, columns b >= start, and
    entries weights_a K_ab weights_b with K_ab = sin(x)/x at
    x = (e_a - e_b) * horizon, from the series 1 - x^2/6 + x^4/120 for
    |x| < 1e-4.  K is symmetric, so the columns past the block are doubled:
    summing the blocks over rows and columns gives the whole weighted sum.
    """
    for start in range(0, len(eigenvalues), _KERNEL_BLOCK):
        blk = slice(start, start + _KERNEL_BLOCK)
        x = np.subtract.outer(eigenvalues[blk], eigenvalues[start:])
        x *= horizon
        small = np.abs(x) < 1e-4
        with np.errstate(invalid="ignore"):  # 0/0 on the series entries
            k = np.sin(x)
            k /= x
        xs = x[small]
        k[small] = 1.0 - xs * xs / 6.0 + xs**4 / 120.0
        k *= weights[blk, None]
        k *= weights[start:]
        k[:, _KERNEL_BLOCK:] *= 2.0
        yield start, k


def time_averaged_profile(
    spec: SpectralDecomposition, initial: int, horizon: float
) -> TransitionProfile:
    """Average of the transition probabilities over [0, horizon].

    Closed form: p_f = sum_ab V_fa c_a K_ab c_b V_fb with c = V[initial]
    and K_ab = sin(x)/x at x = (e_a - e_b) * horizon; no time
    discretization enters.  K is built in place over blocks of rows a
    (see `_kernel_blocks`), so memory is O(_KERNEL_BLOCK * dim), and each block
    takes only the columns b from its own first row on.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    v = spec.eigenvectors
    p_avg = np.zeros(spec.dim)
    for start, k in _kernel_blocks(spec.eigenvalues, horizon, v[initial]):
        p_avg += np.einsum(
            "af,fa->f", k @ v[:, start:].T, v[:, start : start + _KERNEL_BLOCK]
        )
    return _as_profile(initial, horizon, p_avg)


def _return_probability(spec: SpectralDecomposition, initial: int, horizon: float) -> float:
    """Horizon-averaged return probability p_initial, clipped to [0, 1].

    p_initial = w K w with w = V[initial]**2: the same kernel as
    `time_averaged_profile`, but O(dim^2) with no GEMM.  NaN stays NaN.
    """
    w = spec.eigenvectors[initial] ** 2
    total = sum(float(k.sum()) for _, k in _kernel_blocks(spec.eigenvalues, horizon, w))
    return 0.0 if total < 0.0 else 1.0 if total > 1.0 else total


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
    starts = np.flatnonzero(np.diff(eigenvalues) > degeneracy_tol) + 1
    clusters = np.add.reduceat(weights, np.concatenate(([0], starts)), axis=1)
    clusters *= clusters
    p_avg = clusters.sum(axis=1)
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

    Each pair (T, growth*T) is screened first on the initial state alone:
    the max norm is at least |p_i(T) - p_i(growth*T)|, and the return
    probability p_i costs O(dim^2) without a GEMM.  A pair whose screened
    difference exceeds rel_tol + _SCREEN_MARGIN cannot pass and gets no
    full probe.  The margin covers rounding: sum_ab w_a w_b |K_ab| <= 1
    for w = V[i]**2, so the screen and the full probe each carry an error
    of about dim * eps (5e-13 at dim 2048), far below 1e-9.  A NaN screen
    fails the comparison, so that pair gets the full, checked probes.  The
    result is the exhaustive search's, bit for bit.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if growth <= 1:
        raise ValueError("growth must exceed 1")
    if t_start <= 0:
        raise ValueError("t_start must be positive")
    horizon = t_start
    current = None  # full profile at `horizon` once probed
    screen = _return_probability(spec, initial, horizon)
    last = ""  # the last pair tested and its difference, for the error
    while horizon <= t_cap:
        longer_horizon = horizon * growth
        longer_screen = _return_probability(spec, initial, longer_horizon)
        screen_diff = abs(screen - longer_screen)
        if screen_diff > rel_tol + _SCREEN_MARGIN:
            current = None
            diff, kind = screen_diff, "initial-row screen, a lower bound"
        else:
            if current is None:
                current = time_averaged_profile(spec, initial, horizon)
            longer = time_averaged_profile(spec, initial, longer_horizon)
            diff = float(np.abs(current.p_avg - longer.p_avg).max())
            if diff <= rel_tol:
                return current
            current = longer
            kind = "full max norm"
        last = (
            f"; last pair T={horizon:g} vs {longer_horizon:g} differs by {diff:.3e} ({kind})"
        )
        horizon = longer_horizon
        screen = longer_screen
    raise StableHorizonError(
        f"no stable horizon below {t_cap:g} at rel_tol {rel_tol:g}{last}; "
        "spectrum may be nearly degenerate"
    )
