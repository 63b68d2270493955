"""Ladder operators on crystal labels and symbolic Hamiltonian assembly.

The mutation model couples basis states through short chains of ladder
operators: the spin-flip steps J+/J- and the label shifts A_i / A_{i,k}
with their adjoints.  Chains act right to left, and an intermediate result
outside the admissible label set annihilates the whole chain.  Every
surviving chain adds exactly +1 to the integer coefficient matrix of one
coupling constant, so the Hamiltonian structure stays exact and parameter
free until `evaluate` substitutes numbers.  The builders apply each chain
to every basis state at once with numpy and keep each matrix as sparse
(row, col, count) triplets; the scalar `apply_*` operators define the
same moves on one state.

The baseline builder instead couples words at Hamming distance one with a
single coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .crystal import (
    BasisMap,
    CrystalLabels,
    Spin,
    SpinWord,
    enumerate_basis,
    labels_valid,
    reduce_word,
)

# A ladder operator either annihilates (None) or yields admissible labels.
LadderResult = Optional[CrystalLabels]


class CouplingSymbol(Enum):
    """The six coupling constants, keyed by their manifest/CLI names."""

    MU0 = "mu0"
    EPS = "eps"
    GAMMA = "gamma"
    DELTA = "delta"
    ETA = "eta"
    BETA = "beta"


OFFDIAG_SYMBOLS = (
    CouplingSymbol.EPS,
    CouplingSymbol.GAMMA,
    CouplingSymbol.DELTA,
    CouplingSymbol.ETA,
    CouplingSymbol.BETA,
)


@dataclass(frozen=True)
class CouplingValues:
    """Numeric coupling values, in units of the diagonal scale mu0."""

    mu0: float = 1.0
    eps: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    eta: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"coupling {name} must be finite, got {value!r}")

    def value(self, symbol: CouplingSymbol) -> float:
        return getattr(self, symbol.value)

    def as_dict(self) -> dict[str, float]:
        return {
            "mu0": self.mu0,
            "eps": self.eps,
            "gamma": self.gamma,
            "delta": self.delta,
            "eta": self.eta,
            "beta": self.beta,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "CouplingValues":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown coupling names: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})


def apply_j_plus(labels: CrystalLabels) -> LadderResult:
    """Raise 2J3 by 2 inside the irrep; annihilate past the top rung."""
    out = labels.with_two_j3(labels.two_j3 + 2)
    return out if abs(out.two_j3) <= out.two_j_top else None


def apply_j_minus(labels: CrystalLabels) -> LadderResult:
    """Lower 2J3 by 2 inside the irrep; annihilate past the bottom rung."""
    out = labels.with_two_j3(labels.two_j3 - 2)
    return out if abs(out.two_j3) <= out.two_j_top else None


def _check_a_index(i: int, n: int) -> None:
    if not 2 <= i <= n:
        raise ValueError(f"index i must satisfy 2 <= i <= {n}, got {i}")


def _check_a_ik_indices(i: int, k: int, n: int) -> None:
    if not 2 <= i <= n - 1:
        raise ValueError(f"index i must satisfy 2 <= i <= {n - 1}, got {i}")
    if not i + 1 <= k <= n:
        raise ValueError(f"index k must satisfy {i + 1} <= k <= {n}, got {k}")


def apply_a(i: int, labels: CrystalLabels) -> LadderResult:
    """Lower every 2J^l for i <= l <= N by 2; annihilate if inadmissible."""
    _check_a_index(i, labels.n)
    out = labels.with_shift(i, labels.n, -2)
    return out if labels_valid(out) else None


def apply_a_dagger(i: int, labels: CrystalLabels) -> LadderResult:
    """Raise every 2J^l for i <= l <= N by 2; annihilate if inadmissible."""
    _check_a_index(i, labels.n)
    out = labels.with_shift(i, labels.n, 2)
    return out if labels_valid(out) else None


def apply_a_ik(i: int, k: int, labels: CrystalLabels) -> LadderResult:
    """Lower 2J^l for i <= l <= k-1 by 2, leaving l >= k untouched."""
    _check_a_ik_indices(i, k, labels.n)
    out = labels.with_shift(i, k - 1, -2)
    return out if labels_valid(out) else None


def apply_a_ik_dagger(i: int, k: int, labels: CrystalLabels) -> LadderResult:
    """Raise 2J^l for i <= l <= k-1 by 2, leaving l >= k untouched."""
    _check_a_ik_indices(i, k, labels.n)
    out = labels.with_shift(i, k - 1, 2)
    return out if labels_valid(out) else None


@dataclass(frozen=True)
class MutationContext:
    """Free-letter counts around one site, before and after its flip.

    `r_l` counts unmatched R's strictly left of the site, `y_r` unmatched
    Y's strictly right of it (each side reduced on its own).  The in/fi
    fields include the flipping site itself in the matched-pair bookkeeping
    before and after the flip.
    """

    position: int
    initial: Spin
    r_l: int
    y_r: int
    r_in: int
    y_in: int
    r_fi: int
    y_fi: int


def mutation_context(word: "SpinWord | str", position: int) -> MutationContext:
    """Diagnostic context for a single-site flip at 1-based `position`."""
    word = word if isinstance(word, SpinWord) else SpinWord.parse(word)
    if not 1 <= position <= len(word):
        raise ValueError(f"position {position} outside 1..{len(word)}")
    r_l = reduce_word(word.spins[: position - 1]).b
    y_r = reduce_word(word.spins[position:]).a
    initial = word.spin_at(position)
    if initial is Spin.R:
        r_in, y_in = r_l + 1, y_r
        r_fi, y_fi = r_l, y_r + 1
    else:
        r_in, y_in = r_l, y_r + 1
        r_fi, y_fi = r_l + 1, y_r
    return MutationContext(position, initial, r_l, y_r, r_in, y_in, r_fi, y_fi)


class Triplets(NamedTuple):
    """Sparse integer matrix as unique (row, col) entries sorted row-major.

    `counts[j]` is the multiplicity at (`rows[j]`, `cols[j]`); every count
    is positive, so absent entries are exactly the zeros.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray

    def dense(self, dim: int) -> np.ndarray:
        matrix = np.zeros((dim, dim), dtype=np.int64)
        matrix[self.rows, self.cols] = self.counts
        return matrix


@dataclass(frozen=True)
class SymbolicHamiltonian:
    """Exact Hamiltonian structure: one integer COO matrix per coupling.

    `diag` holds 2*J3 per state (the mu0 multiplier); `coeffs` maps each
    interaction symbol to the triplets of a symmetric positive integer
    matrix with zero diagonal.  `provenance` maps each term family (H1,
    H2, H3, H5, H6 or HAMMING) to the triplets of the chains it produced;
    the families of one symbol sum to its coefficients.
    """

    n: int
    basis: BasisMap
    diag: np.ndarray
    coeffs: Mapping[CouplingSymbol, Triplets]
    provenance: Mapping[str, Triplets]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coefficient(self, symbol: CouplingSymbol) -> np.ndarray:
        """Dense integer matrix of one coupling (zeros if absent); small N only."""
        entries = self.coeffs.get(symbol)
        if entries is None:
            return np.zeros((self.dim, self.dim), dtype=np.int64)
        return entries.dense(self.dim)

    def evaluate(self, values: CouplingValues) -> np.ndarray:
        applied = [
            (values.value(symbol), entries)
            for symbol, entries in self.coeffs.items()
            if values.value(symbol) != 0.0
        ]
        diag = values.mu0 * self.diag.astype(float)
        # H equals the dense sum mu0*diag(2J3) + sum_v v*C_v bit for bit.  In
        # that sum each diagonal entry gains v*0.0 per coupling; a positive v
        # turns a -0.0 entry (as mu0 < 0 gives at 2J3 = 0) into +0.0, and
        # nothing else moves.
        if any(v > 0 for v, _ in applied):
            diag += 0.0
        h = np.diag(diag)
        for v, entries in applied:
            h[entries.rows, entries.cols] += v * entries.counts
        return h

    def allowed_transitions(self, state: int) -> set[int]:
        connected: set[int] = set()
        for entries in self.coeffs.values():
            connected.update(entries.rows[entries.cols == state].tolist())
        connected.discard(state)
        return connected

    def dump(self) -> str:
        """One line per entry: `row col SYMBOL multiplicity`, 1-based.

        The diagonal is emitted as `row row MU0 <2J3>`; lines are sorted by
        (row, col, symbol).  This text is the exact comparison surface.
        """
        entries = [
            (r + 1, r + 1, CouplingSymbol.MU0.name, d)
            for r, d in enumerate(self.diag.tolist())
        ]
        for symbol, t in self.coeffs.items():
            for r, c, m in zip(t.rows.tolist(), t.cols.tolist(), t.counts.tolist()):
                entries.append((r + 1, c + 1, symbol.name, m))
        entries.sort()
        return "\n".join(f"{r} {c} {s} {m}" for r, c, s, m in entries)


# The builders hold all states at once as one small-int label array with
# one column per state: row 0 is 2J3, row l-1 is 2J^l (l = 2..N).  Every
# ladder operator adds `delta` to the rows lo:hi of that array.
_Op = tuple[int, int, int]
_J_PLUS: _Op = (0, 1, 2)
_J_MINUS: _Op = (0, 1, -2)


def _a(i: int, n: int, delta: int) -> _Op:
    """A_i (delta -2) or A_i† (delta +2): shift 2J^l for i <= l <= N."""
    return (i - 1, n, delta)


def _a_ik(i: int, k: int, delta: int) -> _Op:
    """A_{i,k} (delta -2) or A_{i,k}† (delta +2): shift 2J^l for i <= l <= k-1."""
    return (i - 1, k - 1, delta)


def _model_terms(n: int) -> list[tuple[str, CouplingSymbol, tuple[_Op, ...]]]:
    """Interaction chains, each listed in application order (first op first).

    Term families and ranges:
      H2 (delta): plain spin flips J- and J+.
      H1 (gamma): interior-label shifts, i = 2..N-1, k = i+1..N.
      H3 (eps):   irrep-lowering flips, i = 2..N.
      H5 (eps):   irrep-raising flips, m = 2..N.
      H6 (eta):   raise-then-shift flips, i = 2..N-2, k = i+1..N-1.
    Within every product the spin flip and the label shifts keep the
    written order: lower J3 before shrinking the irrep, and enlarge the
    irrep before raising J3, otherwise admissible moves would annihilate.
    """
    terms: list[tuple[str, CouplingSymbol, tuple[_Op, ...]]] = [
        ("H2", CouplingSymbol.DELTA, (_J_MINUS,)),
        ("H2", CouplingSymbol.DELTA, (_J_PLUS,)),
    ]
    for i in range(2, n):
        for k in range(i + 1, n + 1):
            terms.append(("H1", CouplingSymbol.GAMMA, (_J_MINUS, _a_ik(i, k, -2))))
            terms.append(("H1", CouplingSymbol.GAMMA, (_a_ik(i, k, 2), _J_PLUS)))
    for i in range(2, n + 1):
        terms.append(("H3", CouplingSymbol.EPS, (_J_MINUS, _a(i, n, -2))))
        terms.append(("H3", CouplingSymbol.EPS, (_a(i, n, 2), _J_PLUS)))
    for m in range(2, n + 1):
        terms.append(("H5", CouplingSymbol.EPS, (_a(m, n, 2), _J_MINUS)))
        terms.append(("H5", CouplingSymbol.EPS, (_J_PLUS, _a(m, n, -2))))
    for i in range(2, n - 1):
        for k in range(i + 1, n):
            terms.append(
                ("H6", CouplingSymbol.ETA, (_a(k + 1, n, 2), _J_MINUS, _a_ik(i, k, -2)))
            )
            terms.append(
                ("H6", CouplingSymbol.ETA, (_J_PLUS, _a(k + 1, n, -2), _a_ik(i, k, 2)))
            )
    return terms


def _label_array(basis: BasisMap) -> np.ndarray:
    rows = [(l.two_j3, *l.two_j) for l in basis.labels]
    return np.array(rows, dtype=np.int16).T.copy()


def _admissible(labels: np.ndarray) -> np.ndarray:
    """`validate_labels` for every column of a label array at once."""
    two_j3, two_j = labels[0], labels[1:]
    top = two_j[-1]
    return (
        ((two_j[0] == 0) | (two_j[0] == 2))
        & (np.abs(two_j[1:] - two_j[:-1]) == 1).all(axis=0)
        & (two_j >= 0).all(axis=0)
        & (np.abs(two_j3) <= top)
        & ((top - two_j3) % 2 == 0)
    )


def _walk_keys(labels: np.ndarray) -> np.ndarray:
    """Distinct key of each admissible column, below 2^(N-1) * (N+1).

    The prefix spins 1, 2J^2, ..., 2J^N form a +-1 walk; its N-1 step bits
    and (2J3 + N) / 2 in 0..N fix the state.
    """
    n = labels.shape[0]
    up = np.diff(labels[1:], axis=0, prepend=1) > 0
    bits = (up << np.arange(n - 1)[:, None]).sum(axis=0)
    return bits * (n + 1) + (labels[0] + n) // 2


def _row_table(labels: np.ndarray) -> np.ndarray:
    """Basis index of every walk key; -1 marks keys of no basis state."""
    n, dim = labels.shape
    table = np.full((1 << (n - 1)) * (n + 1), -1, dtype=np.int64)
    table[_walk_keys(labels)] = np.arange(dim)
    return table


def _apply_chain(
    labels: np.ndarray, row_table: np.ndarray, ops: tuple[_Op, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(final row, initial col) of every state the chain does not annihilate.

    Ops act in order on all states at once; after each one the states
    whose labels turned inadmissible are dropped, as the scalar operators
    return None for them.
    """
    state, cols = labels, np.arange(labels.shape[1])
    for lo, hi, delta in ops:
        state = state.copy()
        state[lo:hi] += delta
        keep = _admissible(state)
        state, cols = state[:, keep], cols[keep]
    rows = row_table[_walk_keys(state)]
    if (rows < 0).any():
        raise ValueError(f"labels not in basis: {state[:, np.argmax(rows < 0)].tolist()}")
    return rows, cols


def _triplets(pairs: list[tuple[np.ndarray, np.ndarray]], dim: int) -> Triplets:
    """Sum +1 per (row, col) over every pair of index arrays."""
    keys = np.concatenate([rows * dim + cols for rows, cols in pairs] + [np.empty(0, np.int64)])
    flat, counts = np.unique(keys, return_counts=True)
    return Triplets(flat // dim, flat % dim, counts)


def _check_structure(coeffs: Mapping[CouplingSymbol, Triplets], n: int) -> None:
    for symbol, t in coeffs.items():
        # (cols, rows) sorted row-major is the transpose's triplet list
        order = np.lexsort((t.rows, t.cols))
        if not (
            np.array_equal(t.rows, t.cols[order])
            and np.array_equal(t.cols, t.rows[order])
            and np.array_equal(t.counts, t.counts[order])
        ):
            raise AssertionError(f"{symbol.name} coefficient matrix not symmetric")
        if (t.rows == t.cols).any():
            raise AssertionError(f"{symbol.name} coefficient matrix has diagonal entries")
        if not (t.counts > 0).all():
            raise AssertionError(f"{symbol.name} coefficient matrix has nonpositive entries")
    eta = coeffs.get(CouplingSymbol.ETA)
    if n == 3 and eta is not None and len(eta.rows):
        raise AssertionError("eta coefficients must vanish for three-site chains")


def build_model(n: int) -> SymbolicHamiltonian:
    """Assemble the mutation-model Hamiltonian structure for n sites.

    Every chain is applied to every basis state; surviving chains add +1
    at (final, initial).  Adjoint halves make each coefficient matrix
    symmetric by construction (verified).
    """
    basis = enumerate_basis(n)
    dim = len(basis)
    labels = _label_array(basis)
    row_table = _row_table(labels)
    by_symbol: dict[CouplingSymbol, list] = {
        symbol: []
        for symbol in (
            CouplingSymbol.EPS,
            CouplingSymbol.GAMMA,
            CouplingSymbol.DELTA,
            CouplingSymbol.ETA,
        )
    }
    by_family: dict[str, list] = {}
    for family, symbol, ops in _model_terms(n):
        entries = _apply_chain(labels, row_table, ops)
        by_symbol[symbol].append(entries)
        by_family.setdefault(family, []).append(entries)
    coeffs = {symbol: _triplets(pairs, dim) for symbol, pairs in by_symbol.items()}
    provenance = {family: _triplets(pairs, dim) for family, pairs in by_family.items()}
    _check_structure(coeffs, n)
    diag = labels[0].astype(np.int64)
    return SymbolicHamiltonian(n, basis, diag, coeffs, provenance)


def build_hamming(n: int, include_diagonal: bool = True) -> SymbolicHamiltonian:
    """Baseline structure: unit coupling between words one flip apart.

    Not a parameter choice of the mutation model; the connectivity pattern
    itself differs.  `include_diagonal=False` zeroes the 2*J3 diagonal for
    the factorized, exactly-plateaued variant.
    """
    basis = enumerate_basis(n)
    dim = len(basis)
    bits = np.array([w.bits for w in basis.words])
    row_of = np.empty(1 << n, dtype=np.int64)
    row_of[bits] = np.arange(dim)
    cols = np.arange(dim)
    flips = [(row_of[bits ^ (1 << (n - position))], cols) for position in range(1, n + 1)]
    beta = _triplets(flips, dim)
    coeffs = {CouplingSymbol.BETA: beta}
    _check_structure(coeffs, n)
    if include_diagonal:
        diag = np.array([labels.two_j3 for labels in basis.labels], dtype=np.int64)
    else:
        diag = np.zeros(dim, dtype=np.int64)
    return SymbolicHamiltonian(n, basis, diag, coeffs, {"HAMMING": beta})


def evaluate(sym: SymbolicHamiltonian, values: CouplingValues) -> np.ndarray:
    """Dense symmetric matrix mu0*diag(2J3) + sum of coupling * structure."""
    return sym.evaluate(values)


def allowed_transitions(sym: SymbolicHamiltonian, state: int) -> set[int]:
    """Basis indices reachable from `state` by any nonzero coefficient."""
    return sym.allowed_transitions(state)
