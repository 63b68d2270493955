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
# Rows (and square tiles) of the blocked passes: the horizon-average kernel,
# the ladder screens and eigendecompose's checks hold O(_KERNEL_BLOCK * dim)
# memory instead of O(dim^2).
_KERNEL_BLOCK = 256
# Slack of find_stable_T's initial-row screen over rounding; see its docstring.
_SCREEN_MARGIN = 1e-9
# Eigenvalue pairs whose gap is at most this fraction of the spectral radius
# about the mean take the direct kernel in `time_averaged_profile`; far pairs
# take the sine addition formula, whose rounding error is at most
# 27.02 eps / _NEAR_GAP (derived there): 6e-13 at 1e-2.
_NEAR_GAP = 1e-2
# The same fraction for `_ladder_screens`, whose rounding bound is computed
# per horizon, so it only trades the bound's T-independent part (at most
# 3 eps / _SCREEN_NEAR_GAP) against direct kernel evaluations: one per near
# pair and horizon.
_SCREEN_NEAR_GAP = 1e-4
# Longest ladder find_stable_T screens in one pass; the default ladder (10
# to past 1e9, growth 2) has 28 horizons.
_MAX_LADDER = 256


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
    hold only two of them (H and the vectors) plus O(_KERNEL_BLOCK * dim)
    of blocks.
    """
    return 5 * np.dtype(float).itemsize * dim * dim


def _asymmetry(h: np.ndarray) -> np.floating:
    """max |h - h.T|, taken over the pairs of _KERNEL_BLOCK-square tiles
    (I, J) with I <= J: the value np.abs(h - h.T).max() gives, with no
    dim x dim temporary and no strided pass over the whole matrix."""
    dim = len(h)
    tile = np.empty((min(_KERNEL_BLOCK, dim),) * 2)
    worst = np.float64(0.0)
    for i in range(0, dim, _KERNEL_BLOCK):
        for j in range(i, dim, _KERNEL_BLOCK):
            upper = h[i : i + _KERNEL_BLOCK, j : j + _KERNEL_BLOCK]
            diff = tile[: upper.shape[0], : upper.shape[1]]
            np.subtract(upper, h[j : j + _KERNEL_BLOCK, i : i + _KERNEL_BLOCK].T, out=diff)
            worst = np.maximum(worst, np.abs(diff, out=diff).max())
    return worst


def _anchor_signs(vectors: np.ndarray, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The sign of each column's first largest-magnitude entry (argmax's
    first-occurrence rule), 1 for a zero column.

    `high` and `low` are the column maxima and minima; only a column whose
    maximum is minus its minimum looks for which of the two comes first.
    """
    signs = np.where(high >= -low, 1.0, -1.0)
    ties = np.flatnonzero((high == -low) & (high > 0.0))
    if len(ties):
        columns = vectors[:, ties]
        first = np.argmax(np.abs(columns), axis=0)
        signs[ties] = np.sign(columns[first, np.arange(len(ties))])
    return signs


def _decomposition_errors(
    h: np.ndarray, eigenvalues: np.ndarray, vectors: np.ndarray
) -> tuple[float, float]:
    """max |h V - V diag(e)| and max |V.T V - I|, one _KERNEL_BLOCK-row block
    at a time into reused buffers.  V.T V is symmetric, so each block of its
    rows takes only the columns from the block's first row on.  A NaN in
    either stays NaN."""
    dim = len(eigenvalues)
    block = min(_KERNEL_BLOCK, dim)
    out = np.empty((block, dim))
    scaled = np.empty((block, dim))
    diagonal = np.arange(block)
    residual = ortho = np.float64(0.0)
    for start in range(0, dim, block):
        rows = slice(start, start + block)
        n = min(block, dim - start)
        r = np.matmul(h[rows], vectors, out=out[:n])
        r -= np.multiply(vectors[rows], eigenvalues, out=scaled[:n])
        residual = np.maximum(residual, np.abs(r, out=r).max())
        g = np.matmul(vectors[:, rows].T, vectors[:, start:], out=out[:n, : dim - start])
        g[diagonal[:n], diagonal[:n]] -= 1.0
        ortho = np.maximum(ortho, np.abs(g, out=g).max())
    return float(residual), float(ortho)


def eigendecompose(h: np.ndarray, tol: float = DEFAULT_DECOMP_TOL) -> SpectralDecomposition:
    """Diagonalize a dense symmetric matrix with checked residuals.

    Deterministic up to the sign convention: the largest-magnitude
    component of every eigenvector (the first one, on a tie) is made
    nonnegative.  Non-finite entries (e.g. couplings large enough to
    overflow) raise RuntimeError before anything else is checked; an
    asymmetry above tol * max(max|h|, 1) raises ValueError; a failed
    residual (max |h V - V diag(e)| above tol * max(max|h|, 1)) or
    orthonormality (max |V.T V - I| above tol) check raises RuntimeError,
    as does a NaN in either.  The checks run in blocks of _KERNEL_BLOCK
    rows or square tiles, so they hold no dim x dim temporary.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    high, low = float(h.max()), float(h.min())  # NaN and +-inf reach one of them
    if not (math.isfinite(high) and math.isfinite(low)):
        raise RuntimeError("matrix has non-finite entries")
    scale = max(high, -low, 1.0)
    if _asymmetry(h) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        eigenvalues, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    column_max, column_min = vectors.max(axis=0), vectors.min(axis=0)  # NaN and +-inf reach one
    if not (
        np.isfinite(eigenvalues).all()
        and np.isfinite(column_max).all()
        and np.isfinite(column_min).all()
    ):
        raise RuntimeError("eigensolver returned non-finite values")
    vectors *= _anchor_signs(vectors, column_max, column_min)
    residual, ortho = _decomposition_errors(h, eigenvalues, vectors)
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


def _shifted(eigenvalues: np.ndarray) -> tuple[np.ndarray, float]:
    """(e - mean(e), max |e - mean(e)|): the eigenvalues the phases are
    taken from, and the spectral radius about the mean."""
    shifted = eigenvalues - eigenvalues.mean()
    return shifted, float(np.abs(shifted).max())


def _pair_blocks(eigenvalues: np.ndarray, gap: float):
    """Yield (start, g, rows, others, gaps) over _KERNEL_BLOCK-row blocks of the pairs b > a.

    A block covers rows a in start:start+_KERNEL_BLOCK and columns b >= start.
    g holds G_ab = 1/(e_a - e_b) on its far pairs b > a and 0 everywhere
    else (the diagonal, b < a and the near pairs); (rows, others) index its
    near pairs b > a, |e_a - e_b| <= gap, in g, and gaps holds their
    e_a - e_b.
    """
    dim = len(eigenvalues)
    for start in range(0, dim, _KERNEL_BLOCK):
        stop = min(start + _KERNEL_BLOCK, dim)
        d = np.subtract.outer(eigenvalues[start:stop], eigenvalues[start:])
        d[:, : stop - start][np.tri(stop - start, dtype=bool)] = np.inf  # keep b > a
        rows, others = np.nonzero(np.abs(d) <= gap)
        gaps = d[rows, others]
        d[rows, others] = np.inf
        yield start, np.reciprocal(d, out=d), rows, others, gaps


def time_averaged_profile(
    spec: SpectralDecomposition, initial: int, horizon: float
) -> TransitionProfile:
    """Average of the transition probabilities over [0, horizon].

    Closed form: p_f = sum_ab V_fa w_a K_ab w_b V_fb with w = V[initial]
    and K_ab = sin(x)/x at x = (e_a - e_b) * horizon; no time
    discretization enters.  K is symmetric with K_aa = 1, so the sum is
    taken over a <= b with the pairs a < b doubled, in the row blocks of
    `_pair_blocks`: memory is O(_KERNEL_BLOCK * dim).  Near pairs take the
    direct sin(x)/x.  Far pairs take the sine addition formula with the
    phases theta = fl(e' T), e' = fl(e - mean(e)), s = sin(theta) and
    c = cos(theta):

        K_ab = (s_a c_b - c_a s_b) G_ab / T,    G_ab = 1 / (e_a - e_b),

    so the transcendentals are O(dim) per horizon, not O(dim^2).

    Rounding, with u = eps/2, d = e_a - e_b, sin and cos within 4 ulp (8u
    relative) and S, C the exact sine and cosine of theta.  The doubled far
    entry is (2/T) [(w_a s_a)(w_b c_b) - (w_a c_a)(w_b s_b)] G_ab: each
    product carries 21u of relative rounding, the difference 1u more, and
    G_ab (two roundings) and the product with it 3.01u more.  As
    |S_a C_b| + |C_a S_b| <= |theta_a| + |theta_b|, the entry errs by at
    most 50.02u |w_a w_b| (|e'_a| + |e'_b|) / |d|.  The phases err by
    2.01u (|e'_a| + |e'_b|) T, which costs 4.02u |w_a w_b| (|e'_a| + |e'_b|)
    / |d| through the sine.  A far pair has |e'_a| + |e'_b| <= 2 max|e'|
    < 2 |d| / _NEAR_GAP, and sum_{a<b} |V_fa w_a w_b V_fb| <= 1/2 for every
    f, so the far pairs move p_f by less than 27.02 eps / _NEAR_GAP
    (6.0e-13 at 1e-2), whatever the horizon.  The near pairs and the
    diagonal (|K| <= 1, each within 10u) add at most 5 eps, and the sums,
    of at most dim + 300 terms of absolute sum <= 1, (dim + 300) u, as
    for the direct kernel: in all 27.02 eps / _NEAR_GAP + (dim + 310) eps / 2.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    v = spec.eigenvectors
    w = v[initial]
    shifted, radius = _shifted(spec.eigenvalues)
    phase = shifted * horizon
    wc = w * np.cos(phase)
    ws = w * np.sin(phase)
    scale = 2.0 / horizon
    row_wc, row_ws = wc * scale, ws * scale
    p_avg = np.zeros(spec.dim)
    for start, g, rows, others, gaps in _pair_blocks(spec.eigenvalues, _NEAR_GAP * radius):
        stop = start + len(g)
        k = np.multiply.outer(row_ws[start:stop], wc[start:])
        k -= np.multiply.outer(row_wc[start:stop], ws[start:])
        k *= g
        if len(rows):
            k[rows, others] = 2.0 * w[start + rows] * w[start + others] * _sinc(gaps * horizon)
        np.fill_diagonal(k, w[start:stop] ** 2)  # K_aa = 1
        p_avg += np.einsum("fa,fa->f", v[:, start:] @ k.T, v[:, start:stop])
    return _as_profile(initial, horizon, p_avg)


def _ladder(t_start: float, growth: float, t_cap: float) -> list[float]:
    """Horizons t_start, t_start*growth, ... up to the first one past t_cap.

    Each is the previous one times growth, as the exhaustive search grows
    them, so the probes see the same floats.  A ladder longer than
    _MAX_LADDER horizons raises ValueError.
    """
    ladder = [t_start]
    while ladder[-1] <= t_cap:
        if len(ladder) == _MAX_LADDER:
            raise ValueError(
                f"more than {_MAX_LADDER} horizons from t_start {t_start:g} past "
                f"t_cap {t_cap:g} at growth {growth!r}"
            )
        ladder.append(ladder[-1] * growth)
    return ladder


def _ladder_screens(
    spec: SpectralDecomposition, initial: int, t_start: float, growth: float, t_cap: float
) -> list[tuple[float, float, float]]:
    """(T, p_initial(T), bound) at every horizon of the search's ladder.

    p_initial = sum_ab w_a w_b K_ab(T), w = V[initial]**2, is the return
    probability `time_averaged_profile` gives the initial state, clipped
    to [0, 1]; `bound` caps its rounding error (derived in `find_stable_T`).
    The sine addition formula splits it into a T-independent matrix and
    two transcendentals per eigenvalue and horizon.  With e shifted by its
    mean, s = sin(e T), c = cos(e T) and G_ab = 1/(e_a - e_b):

        p_initial(T) = sum_a w_a^2 + 2 sum_{near a<b} w_a w_b K_ab(T)
                       + (2/T) sum_{far a<b} G_ab [(ws)_a (wc)_b - (wc)_a (ws)_b]

    Near pairs (see `_pair_blocks`), here with a gap of at most
    _SCREEN_NEAR_GAP times the spectral radius about the mean, take the
    direct sin(x)/x kernel.  Each
    block of G multiplies the stacked [w*c | w*s] columns of the whole
    ladder in one GEMM, so G, the near pairs and the bound's sums are built
    once per search; memory is O(_KERNEL_BLOCK * dim) plus
    O(_MAX_LADDER * dim).
    """
    ladder = _ladder(t_start, growth, t_cap)
    t = np.array(ladder)
    size = len(ladder)
    dim = spec.dim
    w = spec.eigenvectors[initial] ** 2
    shifted, radius = _shifted(spec.eigenvalues)
    diagonal = float(w @ w)
    bound_weights = np.stack((w, w * np.abs(shifted)), axis=1)
    phase = np.multiply.outer(shifted, t)
    cols = np.concatenate((np.cos(phase), np.sin(phase)), axis=1)
    cols *= w[:, None]
    far = np.zeros(size)
    near = np.zeros(size)
    s1 = s2 = 0.0  # S1 and S2 of the bound derived in find_stable_T
    n_near = 0
    for start, g, rows, others, gaps in _pair_blocks(spec.eigenvalues, _SCREEN_NEAR_GAP * radius):
        stop = start + len(g)
        if len(rows):
            pair_weights = w[start + rows] * w[start + others]
            for lo in range(0, len(rows), dim):  # dim x size entries at a time
                x = np.multiply.outer(gaps[lo : lo + dim], t)
                near += pair_weights[lo : lo + dim] @ _sinc(x)
            n_near += len(rows)
        y = g @ cols[start:]
        y[:, :size] *= cols[start:stop, size:]
        y[:, size:] *= cols[start:stop, :size]
        far += y[:, :size].sum(axis=0)
        far -= y[:, size:].sum(axis=0)
        r = np.abs(g, out=g) @ bound_weights[start:]
        s1 += float(w[start:stop] @ r[:, 0])
        s2 += float(bound_weights[start:stop, 1] @ r[:, 0] + w[start:stop] @ r[:, 1])
    screens = np.clip(diagonal + 2.0 * near + 2.0 * far / t, 0.0, 1.0)
    eps = np.finfo(float).eps
    bounds = eps * (3.0 * s2 + (5 * dim + 32) * s1 / t + dim + n_near + 16)
    return list(zip(ladder, screens.tolist(), bounds.tolist()))


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
    full probes: each entry of one is within 27.02 eps / _NEAR_GAP +
    (dim + 310) eps / 2 of the exact average (see `time_averaged_profile`),
    under 9e-13 at dim 2048 and 2.5e-12 at dim 16384, far below
    _SCREEN_MARGIN / 2.  A NaN screen or bound fails the comparison, so that pair gets
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
    |e'_a| + |e'_b| <= 2 |e_a - e_b| / _SCREEN_NEAR_GAP, so 3 eps S2 <=
    3 eps / _SCREEN_NEAR_GAP whatever the spectrum.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if not growth > 1:
        raise ValueError("growth must exceed 1")
    if not t_start > 0:
        raise ValueError("t_start must be positive")
    if not math.isfinite(t_cap):
        raise ValueError("t_cap must be finite")
    screens = iter(_ladder_screens(spec, initial, t_start, growth, t_cap))
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
