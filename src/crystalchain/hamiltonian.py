"""Symbolic Hamiltonian assembly from ladder-operator chains.

The mutation model couples basis states through short chains of ladder
operators: the spin-flip steps J+/J- and the label shifts A_i / A_{i,k}
with their adjoints.  Chains act right to left, and an intermediate result
outside the admissible label set annihilates the whole chain.  Every
surviving chain couples one (final, initial) pair of states through one
coupling constant, and no two chains couple the same pair, so the
Hamiltonian structure is one exact, parameter-free list of pairs, each
tagged with the term family that made it, until `evaluate` substitutes
numbers.  Each operator is one (lo, hi, delta) shift of the basis label
array's rows, applied to all states at once; the same operators on one
state at a time are the reference the tests build against
(`tests/oracles.py`).

The builder decides each chain from its net label shift m, the sum of
its ops: the "variation of the labels" that sets a flip's intensity.
Every product is written in the order that keeps each intermediate state
admissible whenever the end state is (lower J3 before shrinking the irrep,
enlarge the irrep before lowering J3), so a chain keeps exactly the states
whose labels + m are admissible.  Each state has a walk key: the N-1 step
bits of its prefix-spin walk 1, 2J^2, ..., 2J^N, and 2J3.  Two boolean
tests of the initial state, its step bits where m bends the walk and
|2J3 + m_0| <= N, let the key move by one constant per chain; a row
table, built once per build, then reads the final row at key + shift,
or -1 where labels + m is not admissible.

The baseline builder instead couples words at Hamming distance one with a
single coupling.

H is a sum of chains and their adjoints.  The adjoint of a chain (its
ops reversed, their deltas negated) couples exactly the transposed pairs,
so only the chain holding the spin flip J- is built, as only the R -> Y
Hamming flips are, and the structure stores that lowering half alone:
`evaluate` and `dump` write each pair and its transpose.  Every stored
pair lowers 2J3 by exactly 2 (verified), so ordered by 2J3, H is block
tridiagonal with multiples of the identity on the diagonal, a layout
that `dynamics` derives from the pair list to multiply by H's blocks
when it checks a decomposition, without H.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .crystal import BasisMap, enumerate_basis


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

    def as_dict(self) -> dict[str, float]:
        """The couplings by name, in field order (the manifest's key order)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "CouplingValues":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown coupling names: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})


# (term family, coupling field of `CouplingValues`), e.g. ("H2", "delta")
Family = tuple[str, str]


@dataclass(frozen=True)
class SymbolicHamiltonian:
    """Exact Hamiltonian structure: the lowering half of one tagged pair list.

    The diagonal's mu0 multiplier is 2*J3, `basis.labels[0]`.  (`rows`,
    `cols`) lists once, sorted row-major, every coupled pair whose row has
    2J3 two below its col's, and `family[j]` indexes `families`, the (term
    family, coupling field) of the chain that coupled pair j: H1, H2, H3,
    H5, H6 or HAMMING.  Its adjoint couples the unstored transpose with
    the same family.  Each pair comes from exactly one chain, so every
    coefficient is 0 or 1.
    """

    basis: BasisMap
    rows: np.ndarray
    cols: np.ndarray
    family: np.ndarray
    families: tuple[Family, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def evaluate(self, values: CouplingValues) -> np.ndarray:
        """Dense symmetric matrix mu0*diag(2J3) + sum of coupling * both halves."""
        couplings = [getattr(values, field) for _, field in self.families]
        with np.errstate(over="ignore"):  # an inf is the caller's to refuse
            diag = values.mu0 * self.basis.labels[0].astype(float)
        # H equals the dense sum mu0*diag(2J3) + sum_v v*C_v bit for bit.  In
        # that sum each entry gains v*0.0 per coupling it lacks; a positive v
        # turns a -0.0 diagonal entry (as mu0 < 0 gives at 2J3 = 0) into
        # +0.0, and a coupling of -0.0 leaves its pairs at +0.0.
        if any(v > 0 for v in couplings):
            diag += 0.0
        h = np.diag(diag)
        h[self.rows, self.cols] = h[self.cols, self.rows] = np.array(couplings)[self.family] + 0.0
        return h

    def dump(self) -> str:
        """One line per entry: `row col SYMBOL multiplicity`, 1-based.

        The diagonal is emitted as `row row MU0 <2J3>`, each stored pair
        and its transpose once each; lines are sorted by (row, col, symbol).
        Every off-diagonal multiplicity is 1.  This text is the exact
        comparison surface.
        """
        names = [field.upper() for _, field in self.families]
        entries = [(r + 1, r + 1, "MU0", d) for r, d in enumerate(self.basis.labels[0].tolist())]
        for r, c, f in zip(self.rows.tolist(), self.cols.tolist(), self.family.tolist()):
            entries += [(r + 1, c + 1, names[f], 1), (c + 1, r + 1, names[f], 1)]
        entries.sort()
        return "\n".join(f"{r} {c} {s} {m}" for r, c, s, m in entries)


# The builders hold all states at once as the basis label array, one column
# per state: row 0 is 2J3, row l-1 is 2J^l (l = 2..N).  Every ladder
# operator adds `delta` to the rows lo:hi of that array.
_Op = tuple[int, int, int]
_J_MINUS: _Op = (0, 1, -2)


def _a(i: int, n: int, delta: int) -> _Op:
    """A_i (delta -2) or A_i† (delta +2): shift 2J^l for i <= l <= N."""
    return (i - 1, n, delta)


def _a_ik(i: int, k: int, delta: int) -> _Op:
    """A_{i,k} (delta -2) or A_{i,k}† (delta +2): shift 2J^l for i <= l <= k-1."""
    return (i - 1, k - 1, delta)


def _model_terms(n: int) -> list[tuple[str, str, tuple[_Op, ...]]]:
    """The J- chain of every adjoint pair of interaction chains, each in
    application order (first op first); the adjoints couple the transposes.

    Term families and ranges:
      H2 (delta): the plain spin flip.
      H1 (gamma): interior-label shifts, i = 2..N-1, k = i+1..N.
      H3 (eps):   irrep-lowering flips, i = 2..N.
      H5 (eps):   irrep-raising flips, m = 2..N.
      H6 (eta):   raise-then-shift flips, i = 2..N-2, k = i+1..N-1.
    Within every product the spin flip and the label shifts keep the
    written order: lower J3 before shrinking the irrep, and enlarge the
    irrep before lowering J3, otherwise admissible moves would annihilate.
    """
    terms: list[tuple[str, str, tuple[_Op, ...]]] = [("H2", "delta", (_J_MINUS,))]
    for i in range(2, n):
        for k in range(i + 1, n + 1):
            terms.append(("H1", "gamma", (_J_MINUS, _a_ik(i, k, -2))))
    terms += [("H3", "eps", (_J_MINUS, _a(i, n, -2))) for i in range(2, n + 1)]
    terms += [("H5", "eps", (_a(m, n, 2), _J_MINUS)) for m in range(2, n + 1)]
    for i in range(2, n - 1):
        for k in range(i + 1, n):
            terms.append(("H6", "eta", (_a(k + 1, n, 2), _J_MINUS, _a_ik(i, k, -2))))
    return terms


def _walk_keys(labels: np.ndarray) -> np.ndarray:
    """Distinct key of each admissible column, below 2^(N-1) * (N+1).

    The prefix spins 1, 2J^2, ..., 2J^N form a +-1 walk; its N-1 step bits
    and (2J3 + N) / 2 in 0..N fix the state.
    """
    n = labels.shape[0]
    up = np.diff(labels[1:], axis=0, prepend=1) > 0
    bits = (up << np.arange(n - 1)[:, None]).sum(axis=0)
    return bits * (n + 1) + (labels[0] + n) // 2


class _Walks:
    """Per-state features of the basis, computed once per build.

    `labels` is the label array, `keys` the walk keys, `bits` the walk's
    N-1 step bits (1 where it rises) and `row_table` the basis index of
    every walk key, -1 for a key of no basis state: the lookup that
    decides whether a chain's end state is admissible.
    """

    def __init__(self, labels: np.ndarray):
        n, dim = labels.shape
        self.n, self.labels = n, labels
        self.keys = _walk_keys(labels)
        self.bits = self.keys // (n + 1)
        self.row_table = np.full((1 << (n - 1)) * (n + 1), -1, dtype=np.int64)
        self.row_table[self.keys] = np.arange(dim)


def _apply_chain(walks: _Walks, ops: tuple[_Op, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(final row, initial col) of every state whose labels plus the chain's
    net shift m, the sum of its ops, are admissible.

    For a chain of `_model_terms` these are the states that survive its ops
    one at a time, as the per-state ladder operators apply them: each
    product is written so that no intermediate result is inadmissible
    unless the end state is.  Walk step s runs from prefix spin s to s+1
    (spin 0 is the fixed 1, with m = 0).  A step whose m changes by +2
    must fall and one by -2 must rise; by 4 or more nothing survives.  A
    state whose steps pass and with |2J3 + m_0| <= N moves its key by one
    shift, without a carry: each flipped step moves its bit by half the
    change, and 2J3 moves by m_0.  key + shift is then the walk key of
    labels + m, and the row table holds a basis row there exactly when
    labels + m is admissible.
    """
    n = walks.n
    moved = [0] * n
    for lo, hi, delta in ops:
        for row in range(lo, hi):
            moved[row] += delta
    walk = [0, *moved[1:]]  # the shift of each prefix spin 1, 2J^2, ..., 2J^N
    changes = [b - a for a, b in zip(walk, walk[1:])]
    if any(abs(change) > 2 for change in changes):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    mask = sum(1 << step for step, change in enumerate(changes) if change)
    rising = sum(1 << step for step, change in enumerate(changes) if change < 0)
    shift = moved[0] // 2 + (n + 1) * sum(
        change // 2 * (1 << step) for step, change in enumerate(changes)
    )
    keep = np.abs(walks.labels[0] + moved[0]) <= n
    keep &= (walks.bits & mask) == rising
    cols = keep.nonzero()[0]
    rows = walks.row_table[walks.keys[cols] + shift]
    admissible = rows >= 0
    return rows[admissible], cols[admissible]


def _assemble(
    basis: BasisMap, families: tuple[Family, ...], chains: list
) -> SymbolicHamiltonian:
    """The lowering half of one tagged pair list from the (family, rows,
    cols) chains, verified and sorted row-major.

    Every listed pair must lower 2J3 by exactly 2, so none couples a state
    to itself or is another's transpose, and no two chains may couple the
    same pair.
    """
    rows = np.concatenate([rows for _, rows, _ in chains])
    cols = np.concatenate([cols for _, _, cols in chains])
    codes = np.concatenate([np.full(len(rows), families.index(f), np.int8) for f, rows, _ in chains])
    two_j3 = basis.labels[0]  # int16, so the pair-sized step is too
    if (two_j3[cols] - two_j3[rows] != 2).any():
        raise AssertionError("a listed pair does not lower 2J3 by exactly 2")
    eta = [code for code, (_, field) in enumerate(families) if field == "eta"]
    if basis.n == 3 and np.isin(codes, eta).any():
        raise AssertionError("eta coefficients must vanish for three-site chains")
    dim = len(basis)
    keys = rows * dim + cols
    del rows, cols
    sort = np.argsort(keys)
    keys = keys[sort]
    if (keys[1:] == keys[:-1]).any():
        raise AssertionError("two chains couple the same pair")
    return SymbolicHamiltonian(basis, keys // dim, keys % dim, codes[sort], families)


# The term families of the mutation model, in the order `_model_terms` lists them.
_MODEL_FAMILIES: tuple[Family, ...] = (
    ("H2", "delta"), ("H1", "gamma"), ("H3", "eps"), ("H5", "eps"), ("H6", "eta"),
)


def build_model(n: int) -> SymbolicHamiltonian:
    """Assemble the mutation-model Hamiltonian structure for n sites.

    Every listed chain is applied to every basis state; each surviving
    chain couples (final, initial), and its adjoint the transpose.
    """
    basis = enumerate_basis(n)
    walks = _Walks(basis.labels)
    chains = [((f, s), *_apply_chain(walks, ops)) for f, s, ops in _model_terms(n)]
    return _assemble(basis, _MODEL_FAMILIES, chains)


def build_hamming(n: int) -> SymbolicHamiltonian:
    """Baseline structure: unit coupling between words one flip apart.

    Not a parameter choice of the mutation model; the connectivity pattern
    itself differs.  The R -> Y flips are listed, the Y -> R flips are
    their transposes.  mu0 = 0 drops the 2*J3 diagonal for the factorized,
    exactly-plateaued variant.
    """
    basis = enumerate_basis(n)
    bits = basis.bits
    family = ("HAMMING", "beta")
    flips = []
    for mask in (1 << site for site in range(n)):
        cols = np.flatnonzero(bits & mask)
        flips.append((family, basis.index_by_bits[bits[cols] ^ mask], cols))
    return _assemble(basis, (family,), flips)
