"""Independent oracles: numerical ones that deliberately avoid the
closed-form paths they are used to check, per-state scalar builders of the
Hamiltonian structure that the vectorized builders are checked against, and
the plain loops that the screened horizon search and the vectorized
plateaux grouping must reproduce exactly, the one-horizon-at-a-time
return probability that bounds the batched ladder screens, the
whole-matrix eigendecomposition checks that the blocked ones must match
bit for bit, and the direct sin(x)/x kernel that the sine-addition probe
is bounded against."""

from collections import Counter

import numpy as np

from crystalchain import (
    CouplingSymbol,
    PlateauxGroup,
    PlateauxReport,
    SpinWord,
    StableHorizonError,
    apply_a,
    apply_a_dagger,
    apply_a_ik,
    apply_a_ik_dagger,
    apply_j_minus,
    apply_j_plus,
    enumerate_basis,
    hamming_distance,
    time_averaged_profile,
)
from crystalchain.dynamics import (
    _KERNEL_BLOCK,
    DEFAULT_DECOMP_TOL,
    SpectralDecomposition,
    _as_profile,
    _sinc,
)


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


def _scalar_a(i):
    return lambda labels: apply_a(i, labels)


def _scalar_a_dag(i):
    return lambda labels: apply_a_dagger(i, labels)


def _scalar_a_ik(i, k):
    return lambda labels: apply_a_ik(i, k, labels)


def _scalar_a_ik_dag(i, k):
    return lambda labels: apply_a_ik_dagger(i, k, labels)


def scalar_model_terms(n):
    """The interaction chains of the mutation model as tuples of scalar
    ladder operators, each in application order (first op first)."""
    S = CouplingSymbol
    terms = [
        ("H2", S.DELTA, (apply_j_minus,)),
        ("H2", S.DELTA, (apply_j_plus,)),
    ]
    for i in range(2, n):
        for k in range(i + 1, n + 1):
            terms.append(("H1", S.GAMMA, (apply_j_minus, _scalar_a_ik(i, k))))
            terms.append(("H1", S.GAMMA, (_scalar_a_ik_dag(i, k), apply_j_plus)))
    for i in range(2, n + 1):
        terms.append(("H3", S.EPS, (apply_j_minus, _scalar_a(i))))
        terms.append(("H3", S.EPS, (_scalar_a_dag(i), apply_j_plus)))
    for m in range(2, n + 1):
        terms.append(("H5", S.EPS, (_scalar_a_dag(m), apply_j_minus)))
        terms.append(("H5", S.EPS, (apply_j_plus, _scalar_a(m))))
    for i in range(2, n - 1):
        for k in range(i + 1, n):
            terms.append(
                ("H6", S.ETA, (_scalar_a_dag(k + 1), apply_j_minus, _scalar_a_ik(i, k)))
            )
            terms.append(
                ("H6", S.ETA, (apply_j_plus, _scalar_a(k + 1), _scalar_a_ik_dag(i, k)))
            )
    return terms


def scalar_model_build(n):
    """Reference mutation-model structure, one basis state at a time.

    Applies every scalar chain to every state's CrystalLabels and finds the
    result with basis.index_of.  Returns (dense int64 matrix per coupling,
    {(row, col): Counter of term families}).
    """
    basis = enumerate_basis(n)
    dim = len(basis)
    coeffs = {
        symbol: np.zeros((dim, dim), dtype=np.int64)
        for symbol in (
            CouplingSymbol.EPS,
            CouplingSymbol.GAMMA,
            CouplingSymbol.DELTA,
            CouplingSymbol.ETA,
        )
    }
    provenance = {}
    terms = scalar_model_terms(n)
    for col in range(dim):
        start = basis.labels[col]
        for term_id, symbol, chain in terms:
            labels = start
            for op in chain:
                labels = op(labels)
                if labels is None:
                    break
            if labels is None:
                continue
            row = basis.index_of(labels)
            coeffs[symbol][row, col] += 1
            provenance.setdefault((row, col), Counter())[term_id] += 1
    return coeffs, provenance


def scalar_hamming_build(n):
    """Reference Hamming structure: unit entries between words one flip apart."""
    basis = enumerate_basis(n)
    dim = len(basis)
    beta = np.zeros((dim, dim), dtype=np.int64)
    for col, word in enumerate(basis.words):
        for position in range(1, n + 1):
            beta[basis.index_of_word(word.flip(position)), col] = 1
    return beta


def dense_evaluate(diag, coeffs, values):
    """mu0*diag(2J3) plus v * matrix for every nonzero coupling, summed as
    whole dense arrays in the order of `coeffs`."""
    h = np.diag(values.mu0 * np.asarray(diag).astype(float))
    for symbol, matrix in coeffs.items():
        v = values.value(symbol)
        if v != 0.0:
            h = h + v * matrix
    return h


def reference_eigendecompose(h, tol=DEFAULT_DECOMP_TOL):
    """Checked eigendecomposition with whole-matrix checks: finiteness by
    np.isfinite, symmetry by np.abs(h - h.T).max(), the sign anchor by a
    column argmax, and the residual h V - V diag(e) and V.T V - I as dense
    products.  `eigendecompose` must match it bit for bit and raise where
    it raises."""
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


def exhaustive_find_stable_T(
    spec, initial, rel_tol=1e-3, growth=2.0, t_start=10.0, t_cap=1e9
):
    """Reference stable-horizon search: a full profile at every horizon."""
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


def loop_plateaux_report(ranked, basis, initial_word):
    """Reference plateaux grouping: one hamming_distance call per word and
    distance."""
    word = initial_word if isinstance(initial_word, SpinWord) else SpinWord.parse(initial_word)
    value_by_index = {e.index: e.value for e in ranked.entries}
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
