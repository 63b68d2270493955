"""Exact diagonalization and horizon-averaged transition probabilities.

Evolution under a real symmetric Hamiltonian (hbar = 1) is evaluated in
the eigenbasis; the average of |<f|exp(-iHt)|i>|^2 over a finite horizon
has a closed form in the eigenvalue gaps, which makes stable-horizon
searches and the infinite-horizon limit cheap.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .hamiltonian import CouplingValues, SymbolicHamiltonian

DEFAULT_DECOMP_TOL = 1e-10
PROFILE_SUM_TOL = 1e-8
# Rows (and square tiles) of the blocked passes: the horizon-average kernel,
# the ladder screens and eigendecompose's checks hold O(_KERNEL_BLOCK * dim)
# memory instead of O(dim^2).
_KERNEL_BLOCK = 256
# Square tiles of the in-place transpose of the eigenvectors, and rows of
# the orthonormality band, whose diagonal blocks it always computes.
_TILE = 64
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
# find_stable_T's policy: horizons 10, 20, 40, ... up to the first one past
# _T_CAP (28 of them), each twice the last; a pair passes when its profiles
# agree within _REL_TOL in max norm.
_REL_TOL = 1e-3
_T_CAP = 1e9
_LADDER = (10.0,)
while _LADDER[-1] <= _T_CAP:
    _LADDER += (_LADDER[-1] * 2.0,)


class StableHorizonError(RuntimeError):
    """Stable-horizon search exceeded its cap (nearly degenerate spectrum)."""


class PhaseOverflowError(ValueError):
    """A horizon or time whose phases e*T overflow the float range."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


# The LAPACK routines `_solve` calls, with their Fortran arguments: c a
# character, i an int64, d a double, a an array (each by reference), then
# info, an int64 `_call` adds, and one length per character argument.
_ROUTINES = {
    "dsyevd": "cciaiaaiai",  # jobz uplo n a lda w work lwork iwork liwork
    "dsytrd": "ciaiaaaai",  # uplo n a lda d e tau work lwork
    "dtrttp": "ciaia",  # uplo n a lda ap
    "dstedc": "ciaaaiaiai",  # compz n d e z ldz work lwork iwork liwork
    "dtpttr": "ciaai",  # uplo n ap a lda
    "dormtr": "ccciiaiaaiai",  # side uplo trans m n a lda tau c ldc work lwork
    "dlascl": "ciiddiiai",  # type kl ku cfrom cto m n a lda
}
# (argtype, conversion of the Python value) by kind; an array's pointer
# comes from the buffer protocol, faster than ndarray.ctypes
_KINDS = {
    "c": (ctypes.c_char_p, bytes),
    "i": (ctypes.POINTER(ctypes.c_int64), ctypes.c_int64),
    "d": (ctypes.POINTER(ctypes.c_double), ctypes.c_double),
    "a": (ctypes.c_void_p, lambda array: ctypes.byref(ctypes.c_char.from_buffer(array))),
}
# dsyevd's scaling range (RMIN, RMAX): sqrt(SMLNUM) and sqrt(1/SMLNUM) with
# SMLNUM = DLAMCH('S') / DLAMCH('P') = 2^-970, both exact powers of two
_RMIN, _RMAX = 2.0**-485, 2.0**485


@functools.cache
def _lapack() -> "dict[str, Callable] | None":
    """The `_ROUTINES` (ILP64) of the scipy-openblas library bundled with
    numpy, the one np.linalg.eigh calls, by name; None when no such
    library carries them all.  numpy has loaded that library already; it
    is looked up on the first solve, not at import."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            library = ctypes.CDLL(str(path))
            routines = {name: getattr(library, f"scipy_{name}_64_") for name in _ROUTINES}
        except (OSError, AttributeError):
            continue
        for name, kinds in _ROUTINES.items():
            routines[name].argtypes = [_KINDS[kind][0] for kind in kinds + "i"]
            routines[name].argtypes += [ctypes.c_size_t] * kinds.count("c")
            routines[name].restype = None
        return routines
    return None


def _call(name: str, *args) -> int:
    """Run the LAPACK routine `name` on Python values (bytes, ints, floats
    and arrays, as `_ROUTINES` lists them) and return its info."""
    kinds = _ROUTINES[name]
    info = ctypes.c_int64()
    values = [_KINDS[kind][1](value) for kind, value in zip(kinds, args)]
    _lapack()[name](*values, info, *(1,) * kinds.count("c"))
    return info.value


@functools.cache
def _workspace(n: int) -> tuple[int, int]:
    """(dsytrd's lwork, dormtr's lwork) for an n x n solve.

    dsytrd's is its own query's.  dsyevd hands dormtr what is left of its
    queried workspace past the tridiagonal and Z.  Below 64 n + 4160 (64
    columns and their 65 x 64 triangular factor), dormqr derives its block
    size from that length, which changes its rounding; from there up the
    block size is its largest, so capping the length there changes only
    the allocation.
    """
    size, isize = np.empty(1), np.empty(1, dtype=np.int64)
    _call("dsyevd", b"V", b"L", n, size, n, size, size, -1, isize, -1)
    leftover = int(size[0]) - 2 * n - n * n
    _call("dsytrd", b"L", n, size, n, size, size, size, size, -1)
    return int(size[0]), min(leftover, 64 * n + 4160)


def dense_peak_bytes(dim: int) -> int:
    """Estimated peak memory of `eigendecompose` on a dim x dim H.

    Counted in float64 values: the solve's peak, or the checks' where that
    is larger, plus 64 dim for the length-dim vectors, the pair-sized
    arrays and small workspaces, plus 2048 (16 KiB) for the objects of one
    call whose size does not grow with dim: array headers of 112 bytes and
    more, each LAPACK call's ctypes arguments, the sector blocks' views.
    The in-place solve peaks while dstedc runs, holding the packed
    reflectors (half of H), Z and dstedc's workspace: 2.5 dim^2.  The
    np.linalg.eigh fallback holds five: H, eigh's copy of it, the output
    vectors and dsyevd's 2 dim^2 workspace.  The checks hold no H: the
    vectors, the sector blocks of `_residuals` (under dim^2 / 4), two
    slabs of dim x min(_KERNEL_BLOCK, dim), the rows of V in sector order
    (scaled in place to V diag(e)) and the product, and one sector's
    product, at most half a slab as no sector holds more than half the
    states.  From dim 1024 (N = 10) up that is less than the in-place
    solve; at dim 512 the two are equal; below, the checks set the peak.
    """
    solve = 5 * dim * dim // 2 if _lapack() is not None else 5 * dim * dim
    checks = dim * dim + dim * dim // 4 + 5 * min(_KERNEL_BLOCK, dim) * dim // 2
    return np.dtype(float).itemsize * (max(solve, checks) + 64 * dim + 2048)


def _transpose(z: np.ndarray) -> None:
    """Transpose the square C-ordered z in place: swap each pair of
    _TILE-square tiles (I, J) and (J, I), I < J, transposed, through one
    tile buffer, and transpose each diagonal tile through it."""
    n = len(z)
    tile = np.empty((min(_TILE, n),) * 2)
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = z[i : i + _TILE, j : j + _TILE]
            lower = z[j : j + _TILE, i : i + _TILE]
            saved = tile[: upper.shape[0], : upper.shape[1]]
            saved[...] = upper
            if i != j:
                upper[...] = lower.T
            lower[...] = saved.T


def _solve(held: list[np.ndarray], norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and C-ordered eigenvectors of the symmetric h
    from its lower triangle: np.linalg.eigh(h), bit for bit.

    `held` is a one-item list with the only reference to h, a C-ordered
    float64 array; the solve takes it out, so that it can free H while
    dstedc runs.  `norm` is max |h|, which dsyevd's scaling reads from the
    lower triangle.  With numpy's LAPACK it runs the steps of dsyevd, the
    routine np.linalg.eigh calls, with the same workspace sizes
    (`_workspace`), on h's own buffer.  Read column-major, that buffer is
    h.T, whose lower triangle is h's upper one: the same values, as h is
    symmetric.

    1. When 0 < norm < _RMIN or norm > _RMAX, dlascl scales the
       triangle by sigma into that range; the eigenvalues are scaled back
       by 1/sigma last.
    2. dsytrd reduces it to tridiagonal form in place, leaving the
       Householder reflectors below the subdiagonal.
    3. dtrttp packs that triangle, reflectors included, into
       n (n + 1) / 2 values, and H is freed.
    4. dstedc finds the tridiagonal's eigenvalues and eigenvectors Z with a
       dim^2 + 4 dim + 1 workspace: the peak, 2.5 dim^2.
    5. With that workspace freed, dtpttr unpacks the reflectors into a
       fresh dim x dim array, of which it writes half, and dormtr applies
       them to Z.  That leaves V.T in Z's C buffer, which `_transpose`
       turns into the C-ordered V that np.linalg.eigh returns in place.

    n <= 1 and a numpy without these routines take np.linalg.eigh itself.
    """
    h = held.pop()
    n = len(h)
    if _lapack() is None or n <= 1:
        try:
            return np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    tridiagonal_lwork, dormtr_lwork = _workspace(n)
    sigma = None
    if 0.0 < norm < _RMIN:
        sigma = _RMIN / norm
    elif norm > _RMAX:
        sigma = _RMAX / norm
    if sigma is not None:
        _call("dlascl", b"L", 0, 0, 1.0, sigma, n, n, h, n)
    eigenvalues, off_diagonal, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    work = np.empty(tridiagonal_lwork)
    _call("dsytrd", b"L", n, h, n, eigenvalues, off_diagonal, tau, work, tridiagonal_lwork)
    packed = np.empty(n * (n + 1) // 2)
    _call("dtrttp", b"L", n, h, n, packed)
    del h, work
    z = np.empty((n, n))
    work, iwork = np.empty(n * n + 4 * n + 1), np.empty(5 * n + 3, dtype=np.int64)
    info = _call(
        "dstedc", b"I", n, eigenvalues, off_diagonal, z, n, work, len(work), iwork, len(iwork)
    )
    del work, iwork
    if info:
        # np.linalg.eigh's message for dsyevd's info > 0, which this is
        raise RuntimeError("eigensolver did not converge: Eigenvalues did not converge")
    reflectors = np.empty((n, n))
    _call("dtpttr", b"L", n, packed, reflectors, n)
    del packed
    work = np.empty(dormtr_lwork)
    _call("dormtr", b"L", b"L", b"N", n, n, reflectors, n, tau, z, n, work, dormtr_lwork)
    del reflectors, work
    if sigma is not None:
        eigenvalues *= 1.0 / sigma
    _transpose(z)
    return eigenvalues, z


def _sector_layout(
    n: int, two_j3: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, bounds, offsets): the sector layout `_residuals` multiplies by,
    for the pairs (rows, cols), each row in the sector just below its col's.

    Sector k holds the states with 2J3 = 2k - n: positions
    bounds[k]:bounds[k + 1] of `order`, the states stably sorted by 2J3.
    offsets[j] is the entry of pair j in one flat buffer of the blocks
    B_k = H[S_k, S_k+1] (s_k x s_k+1, row-major, in k order), so the
    offsets are int32 unless that buffer has 2^31 entries or more.  The
    pair-sized temporaries are kept few and narrow: `_residuals` runs
    after the solve, far beneath its peak.
    """
    dim = len(two_j3)
    sector = (two_j3 + n) // 2
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector, minlength=n + 1)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = np.concatenate(([0], np.cumsum(sizes[:-1] * sizes[1:])))
    index = np.int32 if starts[-1] <= np.iinfo(np.int32).max else np.int64
    local = np.empty(dim, dtype=np.int64)  # each state's position within its sector
    local[order] = np.arange(dim) - bounds[sector[order]]
    # B_k's entry (i in S_k, j in S_k+1) sits at first[i] + local[j]
    first = (starts[sector] + local * np.append(sizes[1:], 0)[sector]).astype(index)
    local = local.astype(index)
    offsets = first[rows]
    offsets += local[cols]
    return order.astype(np.int32), bounds.astype(np.int32), offsets


def _sector_product(blocks, bounds, diagonal, w, out):
    """H W into `out` for one slab W of V's rows, all in sector order: W
    scaled by H's diagonal (`diagonal`, a column), then B_k W_k+1 added to
    the rows of sector k and B_k^T W_k (the mirrored half) to those of
    sector k + 1, each product one BLAS call."""
    p = np.multiply(w, diagonal, out=out)
    for k, block in enumerate(blocks):
        lo, mid, hi = bounds[k : k + 3]
        p[lo:mid] += block @ w[mid:hi]
        p[mid:hi] += block.T @ w[lo:mid]
    return p


def _residuals(sym: SymbolicHamiltonian, values: CouplingValues, eigenvalues, vectors):
    """max |r| for r = H V - V diag(e), H = sym.evaluate(values), without
    H, and the computed sums over rows of r^2 and of V^2 per column.  A
    NaN in r stays NaN in max |r|.

    One scatter of the stored half fills every block B_k = H[S_k, S_k+1]
    of `_sector_layout`.  Then each slab of _KERNEL_BLOCK columns gathers
    V's rows into sector order once as W, and `_sector_product` writes
    H W, then r, into one reused buffer; W is scaled in place to
    V diag(e) after its column sums of squares are taken.  W is released
    before the next slab is gathered, so besides the blocks (under
    dim^2 / 4) the loop holds two slabs, W and that buffer, and one
    sector's product.
    """
    order, bounds, offsets = _sector_layout(sym.basis.n, sym.basis.labels[0], sym.rows, sym.cols)
    couplings = np.array([getattr(values, field) for _, field in sym.families])
    bounds = bounds.tolist()
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    ends = list(itertools.accumulate(s * t for s, t in zip(sizes, sizes[1:])))
    flat = np.zeros(ends[-1])
    flat[offsets] = couplings[sym.family]
    blocks = [
        flat[lo:hi].reshape(s, t) for lo, hi, s, t in zip([0, *ends], ends, sizes, sizes[1:])
    ]
    diagonal = values.mu0 * sym.basis.labels[0][order, None].astype(float)  # in sector order
    dim, count = vectors.shape
    width = min(_KERNEL_BLOCK, count)
    out = np.empty(dim * width)
    residual = np.float64(0.0)
    r_squares, v_squares = np.zeros(count), np.zeros(count)
    with np.errstate(over="ignore"):  # an inf widens the band to everything
        for start in range(0, count, width):
            cols = slice(start, start + width)
            v = vectors[order, cols]
            r = _sector_product(blocks, bounds, diagonal, v, out[: v.size].reshape(v.shape))
            v_squares[cols] += np.einsum("ij,ij->j", v, v)
            v *= eigenvalues[cols]
            r -= v
            r_squares[cols] += np.einsum("ij,ij->j", r, r)
            residual = np.maximum(residual, np.abs(r, out=r).max())
            del v  # before the next slab is gathered
    return float(residual), r_squares, v_squares


def _row_bounds(
    sym: SymbolicHamiltonian, values: CouplingValues, diagonal: np.ndarray
) -> tuple[float, int]:
    """(spread, terms) of H = sym.evaluate(values), whose diagonal is
    `diagonal`, for `_gap_band`, from the pair list: the largest computed
    row sum of |H|, and one more than the most pairs a row takes part in.
    A stored pair is an entry of its row and, mirrored, of its col's."""
    dim = len(diagonal)
    weights = np.abs([getattr(values, field) for _, field in sym.families])[sym.family]
    with np.errstate(over="ignore"):  # an inf widens the band to everything
        sums = np.abs(diagonal) + np.bincount(sym.rows, weights, dim)
        sums += np.bincount(sym.cols, weights, dim)
    counts = np.bincount(sym.rows, minlength=dim) + np.bincount(sym.cols, minlength=dim)
    return float(sums.max()), 1 + int(counts.max())


def _gap_band(
    eigenvalues: np.ndarray, r_squares: np.ndarray, v_squares: np.ndarray,
    spread: float, terms: int,
) -> float:
    """The gap delta past which no pair of eigenvectors can fail the
    orthonormality check; inf when nothing is certified.

    For the exact residuals r_a = H v_a - e_a v_a of the computed pairs
    (e_a, v_a) of the symmetric H and a != b,

        (e_a - e_b) v_a^T v_b = v_a^T r_b - r_a^T v_b,

    so |v_a^T v_b| <= 2 rho (1 + nu) / |e_a - e_b| with rho >= every
    ||r_a|| and 1 + nu >= every ||v_a||.  The computed Gram entry errs by
    at most tau' = gamma_dim (1 + nu)^2 + dim eta, so a pair with
    |e_a - e_b| >= delta = 2 rho (1 + nu) / tau, tau = tol - tau', passes
    the check whatever it computes.

    Rounding, with u = eps/2, eta = 2^-1074 the absolute error of an
    underflowing operation, gamma_n = n u / (1 - n u) <= n eps / 2 * 1.01
    and c = 1 + 2 (dim + 2) eps:

    - the sums of squares: each term passes at most dim + 2 roundings (its
      square, the sum over a block's rows, the sum over blocks), so an
      exact sum is at most (s + (dim + 2) eta) (1 + 1.02 gamma_dim+2); its
      square root, with the three operations that form the bound, stays
      below sqrt(s + 2 (dim + 2) eta) c.  That bounds ||v_a|| by 1 + nu
      from the largest sum over V's columns (the diagonal of V^T V), and
      the computed ||r_a||;
    - the products: an entry of r_a sums the products of a row of H with
      v_a, and e_a v_a.  Adding an exact zero rounds nothing, so whatever
      the summation order (the sector blocks' BLAS calls and partial
      sums) each term passes one product and at most terms + 1 roundings,
      with `terms` at least the most nonzero entries in a row of H.  So the
      computed r_a is within gamma_terms+3 (|H| |v_a| + |e_a| |v_a|) +
      (terms + 3) eta of the exact one in every entry, and in 2-norm
      within (terms + 3) eps (||H||_abs + max|e|) (1 + nu)
      + sqrt(dim) (terms + 3) eta, with ||H||_abs = spread * c >= || |H| ||_2;
    - `spread` and `terms`, which `eigendecompose` takes from the pair
      list: || |H| ||_2^2 <= || |H| ||_1 || |H| ||_inf, and for the
      symmetric H both are its largest row sum of |H|.  A row's sum is
      |H_ii| plus |coupling| once for each stored pair the row is the row
      or the col of, each an exact entry of H, summed by np.bincount.  A
      sum of at most dim nonnegative terms, in any order, is at least
      (1 - gamma_dim) times the exact one, so spread * c, rounded once
      more, stays above the exact sum; an overflowing sum gives inf.  `terms`
      is one (the diagonal) plus the most pairs a row takes part in,
      those with a zero coupling included, which over-counts its nonzero
      entries, and rho grows with terms;
    - the Gram entry: dim products summed in one GEMM, gamma_dim <= dim eps.

    delta itself and the cut e + delta are rounded on the safe side by the
    caller's margin.  A NaN or inf anywhere, or tau <= 0, gives inf.
    """
    dim = len(eigenvalues)
    eps = float(np.finfo(float).eps)
    eta = float(np.finfo(float).smallest_subnormal)
    c = 1.0 + 2 * (dim + 2) * eps
    floor = 2 * (dim + 2) * eta
    length = math.sqrt(float(v_squares.max()) + floor) * c  # 1 + nu
    rho = (
        math.sqrt(float(r_squares.max()) + floor) * c
        + (terms + 3) * eps * (spread * c + float(np.abs(eigenvalues).max())) * length
        + math.sqrt(dim) * (terms + 3) * eta
    )
    tau = DEFAULT_DECOMP_TOL - (dim * eps * length * length + dim * eta)
    delta = 2 * rho * length / tau if tau > 0 else math.inf
    return delta if delta < math.inf else math.inf  # NaN too


def _orthonormality(eigenvalues: np.ndarray, vectors: np.ndarray, delta: float) -> float:
    """max |V.T V - I| over the pairs a <= b whose gap is below delta, one
    _TILE-row block at a time into a reused buffer: each block's columns
    run from its first row to the last eigenvalue within delta of its
    largest one.  The eigenvalues are ascending; delta = inf takes the
    whole upper triangle.  A NaN stays NaN."""
    dim = len(eigenvalues)
    block = min(_TILE, dim)
    out = np.empty((block, dim))
    diagonal = np.arange(block)
    eps = float(np.finfo(float).eps)
    ortho = np.float64(0.0)
    for start in range(0, dim, block):
        stop = min(start + block, dim)
        end = dim
        if delta < math.inf:
            top = float(eigenvalues[stop - 1])
            # the margin keeps the rounded cut above the exact top + delta
            cut = top + delta * (1.0 + 16 * eps) + 4 * eps * abs(top)
            end = max(stop, int(np.searchsorted(eigenvalues, cut, side="right")))
        n = stop - start
        g = np.matmul(vectors[:, start:stop].T, vectors[:, start:end], out=out[:n, : end - start])
        g[diagonal[:n], diagonal[:n]] -= 1.0
        ortho = np.maximum(ortho, np.abs(g, out=g).max())
    return float(ortho)


def eigendecompose(sym: SymbolicHamiltonian, values: CouplingValues) -> SpectralDecomposition:
    """Diagonalize H = sym.evaluate(values), with checked residuals.

    H is evaluated once, exactly symmetric, and `_solve` runs in place on
    that array, so H is gone when the checks run: `_residuals` takes H V
    from the pair list's sector blocks, in slabs of at most _KERNEL_BLOCK
    columns, with no dim x dim temporary.  So the peak is the solve's or
    the checks', whichever is larger (`dense_peak_bytes`).

    Non-finite entries (e.g. couplings large enough to overflow) raise
    RuntimeError before the solve.  With tol = DEFAULT_DECOMP_TOL, a
    failed residual (max |H V - V diag(e)| above tol * max(max|H|, 1)) or
    orthonormality (max |V.T V - I| above tol) check raises RuntimeError,
    as does a NaN in either.

    The orthonormality check computes V.T V only on the band of pairs
    whose eigenvalue gap is below `_gap_band`'s delta: outside it, the
    residuals and the norms of the vectors certify that every entry
    passes.  So it fails exactly where the whole triangle would, and with
    the same maximum.  The band's bound on || |H| ||_2 and its count of
    entries per row come from the pair list.  Where the residual check
    fails, or the eigenvalues are not ascending, or a bound is not
    finite, it takes the whole triangle.
    """
    h = sym.evaluate(values)
    high, low = float(h.max()), float(h.min())  # NaN and +-inf reach one of them
    if not (math.isfinite(high) and math.isfinite(low)):
        raise RuntimeError("matrix has non-finite entries")
    norm = max(high, -low)
    scale = max(norm, 1.0)
    spread, terms = _row_bounds(sym, values, h.diagonal())
    held = [h]
    del h  # the solve holds the only reference
    eigenvalues, vectors = _solve(held, norm)
    column_max, column_min = vectors.max(axis=0), vectors.min(axis=0)  # NaN and +-inf reach one
    if not (
        np.isfinite(eigenvalues).all()
        and np.isfinite(column_max).all()
        and np.isfinite(column_min).all()
    ):
        raise RuntimeError("eigensolver returned non-finite values")
    residual, r_squares, v_squares = _residuals(sym, values, eigenvalues, vectors)
    delta = math.inf
    if residual <= DEFAULT_DECOMP_TOL * scale and (np.diff(eigenvalues) >= 0).all():
        delta = _gap_band(eigenvalues, r_squares, v_squares, spread, terms)
    ortho = _orthonormality(eigenvalues, vectors, delta)
    if not (residual <= DEFAULT_DECOMP_TOL * scale and ortho <= DEFAULT_DECOMP_TOL):
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
    taken from, and the spectral radius about the mean.

    Where the sum in mean() overflows, the mean is summed from e / dim
    instead; an e - mean(e) that overflows gives an infinite radius.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = eigenvalues.mean()
        if not math.isfinite(mean):
            mean = (eigenvalues / len(eigenvalues)).sum()
        shifted = eigenvalues - mean
    return shifted, float(np.abs(shifted).max())


def _pair_blocks(eigenvalues: np.ndarray, gap: float):
    """Yield (start, g, rows, others, gaps) over _KERNEL_BLOCK-row blocks of the pairs b > a.

    A block covers rows a in start:start+_KERNEL_BLOCK and columns b >= start.
    g holds G_ab = 1/(e_a - e_b) on its far pairs b > a and 0 everywhere
    else (the diagonal, b < a and the near pairs); (rows, others) index its
    near pairs b > a, |e_a - e_b| <= gap, in g, and gaps holds their
    e_a - e_b.  A gap of at most 1/DBL_MAX, whose G would overflow, is
    always near; one that overflows is far, with G = 0.
    """
    dim = len(eigenvalues)
    gap = max(gap, 1.0 / np.finfo(float).max)
    for start in range(0, dim, _KERNEL_BLOCK):
        stop = min(start + _KERNEL_BLOCK, dim)
        with np.errstate(over="ignore"):
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
    if not (horizon > 0 and math.isfinite(horizon) and math.isfinite(2.0 / float(horizon))):
        raise ValueError(
            f"horizon must be positive and finite, with 2/horizon finite, got {horizon!r}"
        )
    v = spec.eigenvectors
    w = v[initial]
    shifted, radius = _shifted(spec.eigenvalues)
    # rounding is monotone, so no phase overflows when the largest does not
    if not math.isfinite(radius * horizon):
        raise PhaseOverflowError(f"horizon {horizon!r} overflows the phases e*T of this spectrum")
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


def _ladder_screens(spec: SpectralDecomposition, initial: int) -> list[tuple[float, float, float]]:
    """(T, p_initial(T), bound) at every horizon of _LADDER.

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
    once per search; memory is O((_KERNEL_BLOCK + 28) * dim).
    """
    t = np.array(_LADDER)
    size = len(_LADDER)
    dim = spec.dim
    w = spec.eigenvectors[initial] ** 2
    shifted, radius = _shifted(spec.eigenvalues)
    diagonal = float(w @ w)
    bound_weights = np.stack((w, w * np.abs(shifted)), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN screens get full probes
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
    return list(zip(_LADDER, screens.tolist(), bounds.tolist()))


def infinite_time_average(spec: SpectralDecomposition, initial: int) -> TransitionProfile:
    """Infinite-horizon limit: only (near-)degenerate eigenpairs survive.

    Eigenvalues are clustered by consecutive gaps <= 1e-9 * max|eigenvalue|
    so exact degeneracies keep their cross terms.  A NaN or infinite
    eigenvalue raises ValueError: it would merge the whole spectrum into one
    cluster and return the initial state's delta profile.
    """
    eigenvalues = spec.eigenvalues
    degeneracy_tol = 1e-9 * float(np.abs(eigenvalues).max())
    if not math.isfinite(degeneracy_tol):
        raise ValueError("spectrum has non-finite eigenvalues")
    weights = spec.eigenvectors * spec.eigenvectors[initial]
    starts = np.flatnonzero(np.diff(eigenvalues) > degeneracy_tol) + 1
    if len(starts) < len(eigenvalues) - 1:  # some cluster holds several eigenvalues
        weights = np.add.reduceat(weights, np.concatenate(([0], starts)), axis=1)
    weights *= weights
    p_avg = weights.sum(axis=1)
    return _as_profile(initial, math.inf, p_avg)


def find_stable_T(spec: SpectralDecomposition, initial: int) -> TransitionProfile:
    """Profile at the smallest tested horizon that agrees with the next longer one.

    Horizons run through _LADDER (10, 20, 40, ...); the profile at the first
    T that differs from the profile at 2T by at most _REL_TOL = 1e-3 in max
    norm is returned, with T as its `horizon`.  No such T up to
    _T_CAP = 1e9 raises StableHorizonError; callers should fall back to the
    infinite-horizon average.  So does a full probe whose phases e*T
    overflow, naming the pair it probed.

    Each pair (T, 2T) is screened first on the initial state alone:
    the max norm is at least |p_i(T) - p_i(2T)|.  `_ladder_screens`
    gives the return probability p_i at every horizon of the ladder in one
    blocked pass, with a bound b(T) on its rounding error.  A pair whose
    screened difference exceeds _REL_TOL + _SCREEN_MARGIN + b(T) + b(2T)
    cannot pass and gets no full probe.  The margin covers the
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
    screens = iter(_ladder_screens(spec, initial))
    horizon, screen, bound = next(screens)
    current = None  # full profile at `horizon` once probed
    last = ""  # the last pair tested and its difference, for the error
    for longer_horizon, longer_screen, longer_bound in screens:
        screen_diff = abs(screen - longer_screen)
        if screen_diff > _REL_TOL + _SCREEN_MARGIN + bound + longer_bound:
            current = None
            diff, kind = screen_diff, "initial-row screen, a lower bound"
        else:
            try:
                if current is None:
                    current = time_averaged_profile(spec, initial, horizon)
                longer = time_averaged_profile(spec, initial, longer_horizon)
            except PhaseOverflowError:
                raise StableHorizonError(
                    f"no stable horizon: the pair T={horizon:g} vs {longer_horizon:g} "
                    "overflows the phases e*T of this spectrum"
                ) from None
            diff = float(np.abs(current.p_avg - longer.p_avg).max())
            if diff <= _REL_TOL:
                return current
            current = longer
            kind = "full max norm"
        last = (
            f"; last pair T={horizon:g} vs {longer_horizon:g} differs by {diff:.3e} ({kind})"
        )
        horizon, screen, bound = longer_horizon, longer_screen, longer_bound
    raise StableHorizonError(
        f"no stable horizon below {_T_CAP:g} at rel_tol {_REL_TOL:g}{last}; "
        "spectrum may be nearly degenerate"
    )
