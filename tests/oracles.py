"""Independent oracles for the tests.

- The per-state reference layer: the word <-> label bijection and the
  admissibility test on one label tuple, Hamming distance, the six scalar
  ladder operators, and |<f|exp(-iHt)|i>|^2 at one time.  The library holds
  the states only as the basis arrays; these definitions, one state at a
  time, are what the arrays and the vectorized builders are checked
  against.  `ranked_from_values` ranks values given already sorted.
- The per-word basis enumeration that the array enumeration must
  reproduce, and per-state scalar builders of the Hamiltonian structure.
- The op-by-op walk of a ladder chain over copied label arrays that the
  builder's per-state walk features must reproduce, with the whole-array
  admissibility test that the walk's block-edge test must match.
- Numerical oracles that deliberately avoid the closed-form paths they are
  used to check: the matrix exponential and trapezoid averages, the plain
  loops that the screened horizon search and the vectorized plateaux
  grouping must reproduce exactly, the (-value, index) Python sort that the
  argsort ranking must reproduce byte for byte, the one-horizon-at-a-time
  return probability that bounds the batched ladder screens, the
  whole-matrix eigendecomposition checks that the blocked ones must match
  bit for bit, the direct sin(x)/x kernel that the sine-addition probe is
  bounded against, and the refinement loop that recomputes every
  prediction, which `fit_refine` must match bit for bit.
"""

import math
from collections import Counter
from functools import partial
from typing import NamedTuple

import numpy as np

from crystalchain import (
    PlateauxGroup,
    PlateauxReport,
    RankedDistribution,
    StableHorizonError,
    enumerate_basis,
    time_averaged_profile,
)
from crystalchain.analysis import (
    _MAX_REFINE_STEPS,
    _STEP_TOL,
    UnderdeterminedFitError,
    _fit_result,
    _min_points,
    _positive_points,
    _rank_size,
)
from crystalchain.dynamics import (
    _KERNEL_BLOCK,
    DEFAULT_DECOMP_TOL,
    PhaseOverflowError,
    SpectralDecomposition,
    _as_profile,
    _sinc,
)
from crystalchain.hamiltonian import _walk_keys


class Labels(NamedTuple):
    """Doubled labels (2*J3; 2*J^2 .. 2*J^N) of one chain state.

    ``two_j[i - 2]`` holds 2*J^i, so the tuple runs from the two-letter
    prefix up to the full chain; its last entry is the doubled total spin.
    """

    two_j3: int
    two_j: tuple[int, ...]


def validate_labels(two_j3, two_j):
    """True iff the doubled tuple is the label set of some R/Y word.

    Admissibility: first entry 0 or 2, successive entries differ by
    exactly 1, all entries nonnegative, and |2J3| <= 2J^N with matching
    parity.
    """
    if len(two_j) < 1:
        return False
    if two_j[0] not in (0, 2):
        return False
    prev = two_j[0]
    for q in two_j[1:]:
        if q < 0 or abs(q - prev) != 1:
            return False
        prev = q
    top = two_j[-1]
    if abs(two_j3) > top:
        return False
    if (top - two_j3) % 2 != 0:
        return False
    return True


def labels_from_word(word):
    """Label an R/Y word by stack reduction of every prefix.

    On R the unmatched-R count grows; on Y one unmatched R is cancelled if
    available, otherwise the unmatched-Y count grows.  After each prefix of
    length i >= 2 the doubled prefix spin a + b is recorded.
    """
    a = b = 0
    prefix_spins = []
    for pos, ch in enumerate(word, start=1):
        if ch == "R":
            b += 1
        elif b > 0:
            b -= 1
        else:
            a += 1
        if pos >= 2:
            prefix_spins.append(a + b)
    n_r = word.count("R")
    return Labels(n_r - (len(word) - n_r), tuple(prefix_spins))


def word_from_labels(labels):
    """The unique R/Y word with the given labels, rebuilt right to left.

    The terminal stack is fixed by (2J^N, 2J3); each step back compares
    successive prefix spins: an increase going backwards marks a
    cancelling Y, a decrease marks an R while unmatched R's remain and an
    unmatched Y once they run out.
    """
    two_j3, two_j = labels
    if not validate_labels(two_j3, two_j):
        raise ValueError(f"inadmissible labels: {labels}")
    b = (two_j[-1] + two_j3) // 2
    a = (two_j[-1] - two_j3) // 2
    # path[i - 1] = doubled prefix spin at length i; one letter carries spin 1
    path = (1, *two_j)
    letters = []
    for i in range(len(path), 1, -1):
        prev, cur = path[i - 2], path[i - 1]
        if prev == cur + 1:
            letters.append("Y")
            b += 1
        elif b >= 1:
            letters.append("R")
            b -= 1
        else:
            letters.append("Y")
            a -= 1
    letters.append("R" if b == 1 else "Y")
    return "".join(reversed(letters))


def hamming_distance(first, second):
    """Number of sites at which two equal-length words differ."""
    return sum(c1 != c2 for c1, c2 in zip(str(first), str(second), strict=True))


def apply_j_plus(labels):
    """Raise 2J3 by 2 inside the irrep; annihilate (None) past the top rung."""
    two_j3 = labels.two_j3 + 2
    return Labels(two_j3, labels.two_j) if abs(two_j3) <= labels.two_j[-1] else None


def apply_j_minus(labels):
    """Lower 2J3 by 2 inside the irrep; annihilate (None) past the bottom rung."""
    two_j3 = labels.two_j3 - 2
    return Labels(two_j3, labels.two_j) if abs(two_j3) <= labels.two_j[-1] else None


def _shifted(labels, lo, hi, delta):
    """`labels` with `delta` added to every 2J^l, lo <= l <= hi; None if
    the result is inadmissible."""
    two_j = tuple(q + delta if lo <= l <= hi else q for l, q in enumerate(labels.two_j, 2))
    return Labels(labels.two_j3, two_j) if validate_labels(labels.two_j3, two_j) else None


def apply_a(i, labels):
    """A_i: lower every 2J^l for i <= l <= N by 2."""
    return _shifted(labels, i, len(labels.two_j) + 1, -2)


def apply_a_dagger(i, labels):
    """A_i†: raise every 2J^l for i <= l <= N by 2."""
    return _shifted(labels, i, len(labels.two_j) + 1, 2)


def apply_a_ik(i, k, labels):
    """A_{i,k}: lower 2J^l for i <= l <= k-1 by 2, leaving l >= k untouched."""
    return _shifted(labels, i, k - 1, -2)


def apply_a_ik_dagger(i, k, labels):
    """A_{i,k}†: raise 2J^l for i <= l <= k-1 by 2, leaving l >= k untouched."""
    return _shifted(labels, i, k - 1, 2)


def transition_probability(spec, initial, final, t):
    """|<final| exp(-iHt) |initial>|^2 from the spectral data."""
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"time must be nonnegative and finite, got {t!r}")
    c = spec.eigenvectors[final] * spec.eigenvectors[initial]
    with np.errstate(over="ignore"):
        phase = spec.eigenvalues * t
    if not np.isfinite(phase).all():
        raise PhaseOverflowError(f"time {t!r} overflows the phases e*t of this spectrum")
    re = float(c @ np.cos(phase))
    im = float(c @ np.sin(phase))
    return re * re + im * im


def ranked_from_values(values):
    """Rank already-sorted values 1..n, their indices taken as 0..n-1."""
    values = np.array(values, dtype=float)
    return RankedDistribution(np.arange(len(values), dtype=np.int64), values)


def reference_enumeration(n):
    """(bits, int16 label array) of the n-site basis, one word at a time.

    Every word is labelled by `labels_from_word` and the words are sorted
    ascending by (2J^N, ..., 2J^2, 2J3).  Bits put site 1 in the most
    significant place (R = 1); label row 0 is 2J3, row l-1 is 2J^l.
    """
    keyed = []
    for bits in range(2**n):
        word = "".join("R" if (bits >> (n - 1 - site)) & 1 else "Y" for site in range(n))
        labels = labels_from_word(word)
        keyed.append(((*reversed(labels.two_j), labels.two_j3), bits, labels))
    keyed.sort()
    bits = np.array([b for _, b, _ in keyed], dtype=np.int64)
    rows = [(labels.two_j3, *labels.two_j) for _, _, labels in keyed]
    return bits, np.array(rows, dtype=np.int16).T


def expm_unitary(h, t, terms=30):
    """exp(-i*h*t) by scaling-and-squaring of a Taylor series."""
    a = -1j * t * np.asarray(h, dtype=complex)
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 1)
    a = a / (2**squarings)
    dim = a.shape[0]
    u = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        u = u + term
    for _ in range(squarings):
        u = u @ u
    return u


def trapezoid_profile(eigenvalues, eigenvectors, initial, horizon, samples=100_000, chunk=20_000):
    """Composite-trapezoid average of |<f|U(t)|initial>|^2 over [0, horizon]."""
    dim = len(eigenvalues)
    weights = eigenvectors * eigenvectors[initial]
    ts = np.linspace(0.0, horizon, samples)
    trap = np.ones(samples)
    trap[0] = trap[-1] = 0.5
    acc = np.zeros(dim)
    for start in range(0, samples, chunk):
        tt = ts[start : start + chunk]
        ww = trap[start : start + chunk]
        phases = np.exp(-1j * np.outer(tt, eigenvalues))
        amps = phases @ weights.T
        acc += ww @ (amps.real**2 + amps.imag**2)
    return acc / (samples - 1)


def unblocked_profile(eigenvalues, eigenvectors, initial, horizon):
    """Closed-form horizon average over the whole gap matrix at once, with
    sin(x)/x from np.sinc rather than a series branch."""
    kernel = np.sinc(np.subtract.outer(eigenvalues, eigenvalues) * horizon / np.pi)
    weights = eigenvectors * eigenvectors[initial]
    return ((weights @ kernel) * weights).sum(axis=1)


def site_product_average(n_sites, distance, mu0, beta, horizon, samples=2_000_001):
    """Average transition probability between words `distance` flips apart
    under the per-site field (mu0, beta): the evolution factorizes, so the
    whole-chain probability is q^d (1-q)^(N-d) with the one-site flip
    probability q(t)."""
    omega = float(np.hypot(mu0, beta))
    ts = np.linspace(0.0, horizon, samples)
    q = (beta / omega) ** 2 * np.sin(omega * ts) ** 2
    values = q**distance * (1.0 - q) ** (n_sites - distance)
    trap = np.ones(samples)
    trap[0] = trap[-1] = 0.5
    return float((trap @ values) / (samples - 1))


def admissible_columns(labels):
    """`validate_labels` for every column of a builder label array at once:
    row 0 is 2J3, row l-1 is 2J^l."""
    two_j3, two_j = labels[0], labels[1:]
    top = two_j[-1]
    return (
        ((two_j[0] == 0) | (two_j[0] == 2))
        & (np.abs(two_j[1:] - two_j[:-1]) == 1).all(axis=0)
        & (two_j >= 0).all(axis=0)
        & (np.abs(two_j3) <= top)
        & ((top - two_j3) % 2 == 0)
    )


def moved_admissible(labels, lo, hi):
    """Which columns are admissible (`validate_labels`) after rows lo:hi of
    an array of admissible columns were shifted by +-2.

    A +-2 shift keeps every parity and every unit step inside the block,
    so only what the block touches is tested: its two edge steps (the
    2J^2 in {0, 2} rule when it starts at row 1), the sign of the moved
    2J^l rows, and |2J3| <= 2J^N when row 0 or the top row moved.
    """
    n = labels.shape[0]
    if lo == 0:  # J+ or J-: only 2J3 moved
        return np.abs(labels[0]) <= labels[n - 1]
    keep = (labels[lo:hi] >= 0).all(axis=0)
    if lo == 1:
        keep &= (labels[1] == 0) | (labels[1] == 2)
    else:
        keep &= np.abs(labels[lo] - labels[lo - 1]) == 1
    if hi < n:
        keep &= np.abs(labels[hi] - labels[hi - 1]) == 1
    else:
        keep &= np.abs(labels[0]) <= labels[n - 1]
    return keep


def adjoint(ops):
    """The adjoint of a chain of (lo, hi, delta) ops: the ops reversed, each
    delta negated."""
    return tuple((lo, hi, -delta) for lo, hi, delta in reversed(ops))


def walk_chain(labels, row_table, ops):
    """(final row, initial col) of every state the chain does not annihilate.

    Ops act in order on all states at once; after each one the states
    whose labels turned inadmissible are dropped, as the scalar operators
    return None for them.  `labels` must be admissible.
    """
    state, cols = labels, np.arange(labels.shape[1])
    for lo, hi, delta in ops:
        state = state.copy()
        state[lo:hi] += delta
        keep = moved_admissible(state, lo, hi)
        state, cols = state[:, keep], cols[keep]
    rows = row_table[_walk_keys(state)]
    if (rows < 0).any():
        raise ValueError(f"labels not in basis: {state[:, np.argmax(rows < 0)].tolist()}")
    return rows, cols


def scalar_model_terms(n):
    """The interaction chains of the mutation model as tuples of scalar
    ladder operators, each in application order (first op first)."""
    terms = [
        ("H2", "delta", (apply_j_minus,)),
        ("H2", "delta", (apply_j_plus,)),
    ]
    for i in range(2, n):
        for k in range(i + 1, n + 1):
            terms.append(("H1", "gamma", (apply_j_minus, partial(apply_a_ik, i, k))))
            terms.append(("H1", "gamma", (partial(apply_a_ik_dagger, i, k), apply_j_plus)))
    for i in range(2, n + 1):
        terms.append(("H3", "eps", (apply_j_minus, partial(apply_a, i))))
        terms.append(("H3", "eps", (partial(apply_a_dagger, i), apply_j_plus)))
    for m in range(2, n + 1):
        terms.append(("H5", "eps", (partial(apply_a_dagger, m), apply_j_minus)))
        terms.append(("H5", "eps", (apply_j_plus, partial(apply_a, m))))
    for i in range(2, n - 1):
        for k in range(i + 1, n):
            terms.append(("H6", "eta", (
                partial(apply_a_dagger, k + 1), apply_j_minus, partial(apply_a_ik, i, k)
            )))
            terms.append(("H6", "eta", (
                apply_j_plus, partial(apply_a, k + 1), partial(apply_a_ik_dagger, i, k)
            )))
    return terms


def scalar_model_build(n):
    """Reference mutation-model structure, one basis state at a time.

    Applies every scalar chain to the labels of every state's word and
    finds the result's row by the word of its labels.  Returns (dense int64
    matrix per coupling, {(row, col): Counter of term families}).
    """
    basis = enumerate_basis(n)
    dim = len(basis)
    coeffs = {
        field: np.zeros((dim, dim), dtype=np.int64) for field in ("eps", "gamma", "delta", "eta")
    }
    provenance = {}
    terms = scalar_model_terms(n)
    for col, word in enumerate(basis.words):
        start = labels_from_word(word)
        for term_id, field, chain in terms:
            labels = start
            for op in chain:
                labels = op(labels)
                if labels is None:
                    break
            if labels is None:
                continue
            row = basis.index_of_word(word_from_labels(labels))
            coeffs[field][row, col] += 1
            provenance.setdefault((row, col), Counter())[term_id] += 1
    return coeffs, provenance


def scalar_hamming_build(n):
    """Reference Hamming structure: unit entries between words one flip apart."""
    basis = enumerate_basis(n)
    dim = len(basis)
    beta = np.zeros((dim, dim), dtype=np.int64)
    for col, word in enumerate(basis.words):
        for site in range(n):
            flipped = word[:site] + ("Y" if word[site] == "R" else "R") + word[site + 1 :]
            beta[basis.index_of_word(flipped), col] = 1
    return beta


def dense_evaluate(diag, coeffs, values):
    """mu0*diag(2J3) plus v * matrix for every nonzero coupling, summed as
    whole dense arrays in the order of `coeffs`."""
    h = np.diag(values.mu0 * np.asarray(diag).astype(float))
    for field, matrix in coeffs.items():
        v = getattr(values, field)
        if v != 0.0:
            h = h + v * matrix
    return h


def dense_row_bounds(h):
    """(largest sum of |h| over a row, most nonzero entries in a row) by
    whole-matrix reductions: the dense counterparts of the bounds
    `eigendecompose` takes from the pair list."""
    return float(np.abs(h).sum(axis=1).max()), int(np.count_nonzero(h, axis=1).max())


def dense_residuals(h, eigenvalues, vectors):
    """(max |r|, sums over rows of r^2 per column, sums over rows of V^2
    per column) for r = h V - V diag(e), from the dense h: the outputs of
    `dynamics._residuals`, which takes H V from the sector blocks."""
    r = h @ vectors - vectors * eigenvalues
    return float(np.abs(r).max()), (r * r).sum(axis=0), (vectors * vectors).sum(axis=0)


def reference_eigendecompose(h):
    """Checked eigendecomposition of any dense matrix h, with whole-matrix
    checks: finiteness by np.isfinite, symmetry by np.abs(h - h.T).max(),
    and the residual h V - V diag(e) and V.T V - I as dense products.
    `eigendecompose(sym, values)` must match it on sym.evaluate(values) bit
    for bit and raise where it raises; the tests decompose every other
    matrix with it."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise RuntimeError("matrix has non-finite entries")
    scale = float(np.abs(h).max()) if h.size else 0.0
    scale = max(scale, 1.0)
    if float(np.abs(h - h.T).max()) > DEFAULT_DECOMP_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        eigenvalues, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    if not (np.isfinite(eigenvalues).all() and np.isfinite(vectors).all()):
        raise RuntimeError("eigensolver returned non-finite values")
    r = h @ vectors
    r -= vectors * eigenvalues
    residual = float(np.abs(r, out=r).max())
    del r
    g = vectors.T @ vectors
    g[np.diag_indices_from(g)] -= 1.0
    ortho = float(np.abs(g, out=g).max())
    if not (residual <= DEFAULT_DECOMP_TOL * scale and ortho <= DEFAULT_DECOMP_TOL):
        raise RuntimeError(
            f"decomposition failed checks: residual {residual:.3e}, orthonormality {ortho:.3e}"
        )
    return SpectralDecomposition(eigenvalues, vectors)


def _kernel_blocks(eigenvalues, horizon, weights):
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


def direct_profile(spec, initial, horizon):
    """Horizon-averaged profile on the direct sin(x)/x kernel at every pair,
    built in blocks by `_kernel_blocks`: the reference for the sine addition
    formula of `time_averaged_profile`."""
    v = spec.eigenvectors
    p_avg = np.zeros(spec.dim)
    for start, k in _kernel_blocks(spec.eigenvalues, horizon, v[initial]):
        p_avg += np.einsum(
            "af,fa->f", k @ v[:, start:].T, v[:, start : start + _KERNEL_BLOCK]
        )
    return _as_profile(initial, horizon, p_avg)


def direct_return_probability(spec, initial, horizon):
    """Horizon-averaged return probability p_initial, clipped to [0, 1].

    p_initial = w K w with w = V[initial]**2: the same kernel as
    `time_averaged_profile`, but O(dim^2) with no GEMM.  NaN stays NaN.
    """
    w = spec.eigenvectors[initial] ** 2
    total = sum(float(k.sum()) for _, k in _kernel_blocks(spec.eigenvalues, horizon, w))
    return 0.0 if total < 0.0 else 1.0 if total > 1.0 else total


def exhaustive_find_stable_T(spec, initial):
    """Reference stable-horizon search: a full profile at every horizon
    10, 20, 40, ... up to the first past 1e9, accepting the first T within
    1e-3 of 2T in max norm."""
    horizon = 10.0
    current = time_averaged_profile(spec, initial, horizon)
    while horizon <= 1e9:
        longer = time_averaged_profile(spec, initial, horizon * 2.0)
        if float(np.abs(current.p_avg - longer.p_avg).max()) <= 1e-3:
            return current
        horizon *= 2.0
        current = longer
    raise StableHorizonError("no stable horizon below 1e+09; spectrum may be nearly degenerate")


def sorted_ranking(profile, include_self):
    """Reference ranking: the profile's (index, value) pairs, the initial
    state dropped unless `include_self`, sorted by (-value, index).  Returns
    the indices and the values as arrays."""
    items = [
        (float(v), idx)
        for idx, v in enumerate(profile.p_avg)
        if include_self or idx != profile.initial
    ]
    items.sort(key=lambda pair: (-pair[0], pair[1]))
    indices = np.array([idx for _, idx in items], dtype=np.int64)
    return indices, np.array([v for v, _ in items], dtype=float)


def loop_plateaux_report(ranked, basis, initial):
    """Reference plateaux grouping: one hamming_distance call per word and
    distance, from the word of basis state `initial`."""
    word = basis.words[initial]
    value_by_index = dict(zip(ranked.indices.tolist(), ranked.values.tolist()))
    groups = []
    for distance in range(basis.n + 1):
        members = [
            (idx, value_by_index[idx])
            for idx, w in enumerate(basis.words)
            if idx in value_by_index and hamming_distance(w, word) == distance
        ]
        groups.append(
            PlateauxGroup(
                distance,
                tuple(idx for idx, _ in members),
                tuple(v for _, v in members),
            )
        )
    ordered = sorted((g for g in groups if g.size), key=lambda g: -g.mean)
    consistent = all(
        min(hi.values) >= max(lo.values) for hi, lo in zip(ordered, ordered[1:])
    )
    return PlateauxReport(tuple(groups), consistent)


# a trial step, or the Gram matrix of a seed near the float range, may
# overflow; the inf or NaN steps and sse values are rejected in the loop
@np.errstate(over="ignore", invalid="ignore")
def reference_fit_refine(ranked, initial):
    """`fit_refine` as a loop that recomputes the prediction at every
    accepted point and rebuilds the damping diagonal at every try.

    Damped least squares on linear-space residuals, seeded by `initial`.

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
        return float(((values - _rank_size(ranks, a, k, b)) ** 2).sum())

    theta = np.array(
        [math.log(initial.a), initial.k] + ([math.log(initial.b)] if yule else [])
    )
    current_sse = sse_of(theta)
    damping = 1e-3
    accepted_any = False
    log_ranks = np.log(ranks)
    for _ in range(_MAX_REFINE_STEPS):
        a, k, b = unpack(theta)
        predicted = _rank_size(ranks, a, k, b)
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
        if float(np.abs(step).max()) <= _STEP_TOL:
            break
    diverged = not accepted_any  # theta is untouched when no step was accepted
    a, k, b = unpack(theta)
    y = np.log(values)
    model_log = math.log(a) + k * log_ranks + (math.log(b) * ranks if yule else 0.0)
    sse_log = float(((y - model_log) ** 2).sum())
    return _fit_result(
        initial.model, "linear", (a, k, b), sse_log, ranks, values, excluded, diverged
    )
