"""Exact diagonalization and horizon-averaged transition probabilities.

Evolution under a real symmetric Hamiltonian (hbar = 1) is evaluated in
the eigenbasis; the average of |<f|exp(-iHt)|i>|^2 over a finite horizon
has a closed form in the eigenvalue gaps, which makes stable-horizon
searches and the infinite-horizon limit cheap.
"""

from __future__ import annotations

import itertools
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
# Eigenvalue pairs whose gap is at most this fraction of the spectral radius
# about the mean take the direct kernel in `_ladder_screens`; this caps the
# T-independent part of the screens' rounding bound at 3 eps / _NEAR_GAP.
_NEAR_GAP = 1e-4
# Horizons per blocked pass of `_ladder_screens`, which bounds its memory
# for any t_cap; the default ladder (10 to past 1e9, growth 2) has 28.
_LADDER_CHUNK = 64


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


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, from the series 1 - x^2/6 + x^4/120 for |x| < 1e-4."""
    small = np.abs(x) < 1e-4
    with np.errstate(invalid="ignore"):  # 0/0 on the series entries
        k = np.sin(x)
        k /= x
    xs = x[small]
    k[small] = 1.0 - xs * xs / 6.0 + xs**4 / 120.0
    return k


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
        k = _sinc(x)
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


def _ladder(t_start: float, growth: float, t_cap: float):
    """Horizons t_start, t_start*growth, ... up to the first one past t_cap.

    Each is the previous one times growth, as the exhaustive search grows
    them, so the probes see the same floats.
    """
    horizon = t_start
    while True:
        yield horizon
        if horizon > t_cap:
            return
        horizon *= growth


def _ladder_screens(
    spec: SpectralDecomposition, initial: int, t_start: float, growth: float, t_cap: float
):
    """Yield (T, p_initial(T), bound) at every horizon of the search's ladder.

    p_initial = sum_ab w_a w_b K_ab(T), w = V[initial]**2, is the return
    probability `time_averaged_profile` gives the initial state, clipped
    to [0, 1]; `bound` caps its rounding error (derived in `find_stable_T`).
    The sine addition formula splits it into a T-independent matrix and
    two transcendentals per eigenvalue and horizon.  With e shifted by its
    mean, s = sin(e T), c = cos(e T) and G_ab = 1/(e_a - e_b):

        p_initial(T) = sum_a w_a^2 + 2 sum_{near a<b} w_a w_b K_ab(T)
                       + (2/T) sum_{far a<b} G_ab [(ws)_a (wc)_b - (wc)_a (ws)_b]

    A pair is near when its gap is at most _NEAR_GAP times the spectral
    radius about the mean; near pairs take the direct sin(x)/x kernel.
    G is built in _KERNEL_BLOCK-row blocks over the pairs b > a only, from
    the unshifted eigenvalues, and each block multiplies the stacked [w*c | w*s] columns of a chunk of up to
    _LADDER_CHUNK horizons in one GEMM, so memory is O(_KERNEL_BLOCK * dim)
    plus O(_LADDER_CHUNK * dim) whatever t_cap is.  Chunks are computed
    as the caller walks into them.
    """
    eigenvalues = spec.eigenvalues
    dim = spec.dim
    w = spec.eigenvectors[initial] ** 2
    shifted = eigenvalues - eigenvalues.mean()
    gap = _NEAR_GAP * float(np.abs(shifted).max())
    diagonal = float(w @ w)
    bound_weights = np.stack((w, w * np.abs(shifted)), axis=1)
    eps = np.finfo(float).eps
    ladder = _ladder(t_start, growth, t_cap)
    while chunk := list(itertools.islice(ladder, _LADDER_CHUNK)):
        t = np.array(chunk)
        size = len(chunk)
        phase = np.multiply.outer(shifted, t)
        cols = np.concatenate((np.cos(phase), np.sin(phase)), axis=1)
        cols *= w[:, None]
        far = np.zeros(size)
        near = np.zeros(size)
        s1 = s2 = 0.0  # S1 and S2 of the bound derived in find_stable_T
        n_near = 0
        for start in range(0, dim, _KERNEL_BLOCK):
            stop = min(start + _KERNEL_BLOCK, dim)
            d = np.subtract.outer(eigenvalues[start:stop], eigenvalues[start:])
            d[:, : stop - start][np.tri(stop - start, dtype=bool)] = np.inf  # keep b > a
            rows, others = np.nonzero(np.abs(d) <= gap)
            if len(rows):
                pair_gaps = d[rows, others]
                pair_weights = w[start + rows] * w[start + others]
                for lo in range(0, len(rows), dim):  # dim x chunk entries at a time
                    x = np.multiply.outer(pair_gaps[lo : lo + dim], t)
                    near += pair_weights[lo : lo + dim] @ _sinc(x)
                d[rows, others] = np.inf
                n_near += len(rows)
            g = np.reciprocal(d, out=d)  # G_ab on far pairs b > a, 0 elsewhere
            y = g @ cols[start:]
            y[:, :size] *= cols[start:stop, size:]
            y[:, size:] *= cols[start:stop, :size]
            far += y[:, :size].sum(axis=0)
            far -= y[:, size:].sum(axis=0)
            r = np.abs(g, out=g) @ bound_weights[start:]
            s1 += float(w[start:stop] @ r[:, 0])
            s2 += float(bound_weights[start:stop, 1] @ r[:, 0] + w[start:stop] @ r[:, 1])
        screens = np.clip(diagonal + 2.0 * near + 2.0 * far / t, 0.0, 1.0)
        bounds = eps * (3.0 * s2 + (5 * dim + 32) * s1 / t + dim + n_near + 16)
        yield from zip(chunk, screens.tolist(), bounds.tolist())


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
    average.  `t_cap` must be finite: past T of about 1e16 / max|eigenvalue|
    the phase e T keeps no significant digit.

    Each pair (T, growth*T) is screened first on the initial state alone:
    the max norm is at least |p_i(T) - p_i(growth*T)|.  `_ladder_screens`
    gives the return probability p_i at every horizon of the ladder in one
    blocked pass, with a bound b(T) on its rounding error.  A pair whose
    screened difference exceeds rel_tol + _SCREEN_MARGIN + b(T) +
    b(growth*T) cannot pass and gets no full probe.  The margin covers the
    full probes: sum_ab |V_fa c_a K_ab c_b V_fb| <= 1 for every f, so each
    carries an error of about dim * eps (5e-13 at dim 2048), far below
    1e-9.  A NaN screen or bound fails the comparison, so that pair gets
    the full, checked probes.  The result is the exhaustive search's, bit
    for bit.

    The bound, with u = eps/2, e' = fl(e - mean(e)), G_ab = 1/(e_a - e_b),
    sums over the far pairs a < b S1 = sum w_a w_b |G_ab| and
    S2 = sum w_a w_b (|e'_a| + |e'_b|) |G_ab|, and sin and cos taken to be
    within 4 ulp.  Each far pair contributes
    (2/T) G_ab w_a w_b sin(theta_a - theta_b), theta = fl(e' T), against the
    exact 2 w_a w_b sin(d T) / (d T), d = e_a - e_b:

    - the phases: the shift and the product each round once, so
      |theta_a - (e_a - mean) T| <= 2.01 u |e'_a| T; through the sine this
      costs 2.01 eps w_a w_b (|e'_a| + |e'_b|) |G_ab|, T cancels, and the
      sum is below 3 eps S2;
    - G itself: fl(1/fl(e_a - e_b)) has relative error 2.01 u, so
      2.01 eps w_a w_b |G_ab| / T;
    - sin, cos and the products with w: (ws)_a (wc)_b - (wc)_a (ws)_b is
      w_a w_b sin(theta_a - theta_b) within 4 (4 + 1) u w_a w_b, so
      20 eps w_a w_b |G_ab| / T;
    - the GEMM and the sums over rows and blocks: each of the two products
      accumulates at most dim + block + blocks + 3 <= 2 dim + 4 terms of
      absolute sum <= S1, so with the factor 2/T at most
      2.02 (2 dim + 4) eps S1 / T.

    Together the 1/T terms stay below (5 dim + 32) eps S1 / T.  A near pair
    and the diagonal have |K| <= 1, and sum_{near a<b} 2 w_a w_b +
    sum_a w_a^2 <= (sum_a w_a)^2 = 1.  Each kernel value is good to
    (4 + 6) u, and its sums run over dim + n_near + blocks terms, where
    n_near counts the near pairs a < b; with the three final additions this
    stays below (dim + n_near + 16) eps.  So

        b(T) = eps (3 S2 + (5 dim + 32) S1 / T + dim + n_near + 16),

    and clipping to [0, 1] moves no screen further from the exact value.
    At N = 11 and 12 b(T) stays below 3e-11.  Far pairs have
    |e'_a| + |e'_b| <= 2 |e_a - e_b| / _NEAR_GAP, so 3 eps S2 <= 3 eps /
    _NEAR_GAP whatever the spectrum.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if not growth > 1:
        raise ValueError("growth must exceed 1")
    if not t_start > 0:
        raise ValueError("t_start must be positive")
    if not math.isfinite(t_cap):
        raise ValueError("t_cap must be finite")
    screens = _ladder_screens(spec, initial, t_start, growth, t_cap)
    horizon, screen, bound = next(screens)
    current = None  # full profile at `horizon` once probed
    last = ""  # the last pair tested and its difference, for the error
    for longer_horizon, longer_screen, longer_bound in screens:
        screen_diff = abs(screen - longer_screen)
        if screen_diff > rel_tol + _SCREEN_MARGIN + bound + longer_bound:
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
        horizon, screen, bound = longer_horizon, longer_screen, longer_bound
    raise StableHorizonError(
        f"no stable horizon below {t_cap:g} at rel_tol {rel_tol:g}{last}; "
        "spectrum may be nearly degenerate"
    )
