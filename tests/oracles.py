"""Independent oracles: numerical ones that deliberately avoid the
closed-form paths they are used to check, per-state scalar builders of the
Hamiltonian structure that the vectorized builders are checked against, and
the plain loops that the screened horizon search and the vectorized
plateaux grouping must reproduce exactly, and the one-horizon-at-a-time
return probability that bounds the batched ladder screens."""

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
from crystalchain.dynamics import _kernel_blocks


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
