"""Independent numerical oracles: these deliberately avoid the closed-form
paths they are used to check."""

import numpy as np


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
