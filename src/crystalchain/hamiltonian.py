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
|2J3 + m_0| <= N, let the key move by one constant per chain.  One pass
makes both tests for all chains and all states at once, and a row table
then reads each final row at key + shift, or -1 where labels + m is not
admissible.

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

    def pair_couplings(self, values: CouplingValues) -> np.ndarray:
        """The coupling of each stored pair: its family's field of `values`."""
        return np.array([getattr(values, field) for _, field in self.families])[self.family]

    def evaluate(self, values: CouplingValues) -> np.ndarray:
        """Dense symmetric matrix mu0*diag(2J3) + sum of coupling * both halves."""
        with np.errstate(over="ignore"):  # an inf is the caller's to refuse
            diag = values.mu0 * self.basis.labels[0].astype(float)
        # H equals the dense sum mu0*diag(2J3) + sum_v v*C_v bit for bit.  In
        # that sum each entry gains v*0.0 per coupling it lacks; a positive v
        # turns a -0.0 diagonal entry (as mu0 < 0 gives at 2J3 = 0) into
        # +0.0, and a coupling of -0.0 leaves its pairs at +0.0.
        if any(getattr(values, field) > 0 for _, field in self.families):
            diag += 0.0
        h = np.diag(diag)
        h[self.rows, self.cols] = h[self.cols, self.rows] = self.pair_couplings(values) + 0.0
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


def _chain_step(n: int, ops: tuple[_Op, ...]) -> tuple[int, int, int, int]:
    """(m_0, step mask, rising bits, key shift) of a chain whose net label
    shift m is the sum of its ops.

    Walk step s runs from prefix spin s to s+1 (spin 0 is the fixed 1,
    with m = 0).  A step whose m changes by +2 must fall and one by -2
    must rise, so a state survives when its step bits under the mask equal
    the rising bits; a change of 4 or more leaves none (mask 0, rising 1).
    A surviving state with |2J3 + m_0| <= N moves its walk key by the
    shift, without a carry: each flipped step moves its bit by half the
    change, and 2J3 moves by m_0.
    """
    moved = [0] * n
    for lo, hi, delta in ops:
        for row in range(lo, hi):
            moved[row] += delta
    walk = [0, *moved[1:]]  # the shift of each prefix spin 1, 2J^2, ..., 2J^N
    changes = [b - a for a, b in zip(walk, walk[1:])]
    if any(abs(change) > 2 for change in changes):
        return moved[0], 0, 1, 0
    mask = sum(1 << step for step, change in enumerate(changes) if change)
    rising = sum(1 << step for step, change in enumerate(changes) if change < 0)
    shift = moved[0] // 2 + (n + 1) * sum(
        change // 2 * (1 << step) for step, change in enumerate(changes)
    )
    return moved[0], mask, rising, shift


def _apply_chains(
    labels: np.ndarray, chains: list[tuple[_Op, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(final row, initial col, chain index) of every (chain, state) whose
    labels plus the chain's net shift m are admissible, chain-major.

    For a chain of `_model_terms` these are the states that survive its ops
    one at a time, as the per-state ladder operators apply them: each
    product is written so that no intermediate result is inadmissible
    unless the end state is.  One test over all chains and states at once
    keeps the states that pass `_chain_step`'s step test and
    |2J3 + m_0| <= N; key + shift is then the walk key of labels + m, and
    the row table, the basis index of every walk key (-1 for a key of no
    basis state), holds a basis row there exactly when labels + m is
    admissible.
    """
    n, dim = labels.shape
    keys = _walk_keys(labels)
    row_table = np.full((1 << (n - 1)) * (n + 1), -1, dtype=np.int64)
    row_table[keys] = np.arange(dim)
    steps = np.array([_chain_step(n, ops) for ops in chains], np.int64).reshape(-1, 4)
    m0, mask, rising = steps[:, :3].T.astype(np.int16)  # the chains x states tests run in int16
    shifts, chain_shift = np.unique(m0, return_inverse=True)  # the J3 test, per distinct m_0
    keep = (np.abs(labels[0] + shifts[:, None]) <= n)[chain_shift]
    bits = (keys // (n + 1)).astype(np.int16)
    keep &= (bits & mask[:, None]) == rising[:, None]
    chain, cols = np.divmod(np.flatnonzero(keep), dim)
    rows = row_table[keys[cols] + steps[:, 3][chain]]
    admissible = rows >= 0
    return rows[admissible], cols[admissible], chain[admissible]


def _assemble(
    basis: BasisMap, families: tuple[Family, ...], rows, cols, codes
) -> SymbolicHamiltonian:
    """The lowering half of one tagged pair list: pair j couples (`rows[j]`,
    `cols[j]`) through family `codes[j]` of `families`, verified and sorted
    row-major.

    Every listed pair must lower 2J3 by exactly 2, so none couples a state
    to itself or is another's transpose, and no two chains may couple the
    same pair.
    """
    two_j3 = basis.labels[0]  # int16, so the pair-sized step is too
    if (two_j3[cols] - two_j3[rows] != 2).any():
        raise AssertionError("a listed pair does not lower 2J3 by exactly 2")
    eta = [code for code, (_, field) in enumerate(families) if field == "eta"]
    if basis.n == 3 and np.isin(codes, eta).any():
        raise AssertionError("eta coefficients must vanish for three-site chains")
    dim = len(basis)
    keys = rows * dim + cols
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

    Every listed chain is applied to every basis state at once; each
    surviving chain couples (final, initial), and its adjoint the transpose.
    """
    basis = enumerate_basis(n)
    terms = _model_terms(n)
    rows, cols, chain = _apply_chains(basis.labels, [ops for _, _, ops in terms])
    codes = np.array([_MODEL_FAMILIES.index((f, s)) for f, s, _ in terms], np.int8)
    return _assemble(basis, _MODEL_FAMILIES, rows, cols, codes[chain])


def build_hamming(n: int) -> SymbolicHamiltonian:
    """Baseline structure: unit coupling between words one flip apart.

    Not a parameter choice of the mutation model; the connectivity pattern
    itself differs.  The R -> Y flips are listed, the Y -> R flips are
    their transposes.  mu0 = 0 drops the 2*J3 diagonal for the factorized,
    exactly-plateaued variant.
    """
    basis = enumerate_basis(n)
    masks = 1 << np.arange(n)
    site, cols = np.divmod(np.flatnonzero(basis.bits & masks[:, None]), len(basis))  # every R
    rows = basis.index_by_bits[basis.bits[cols] ^ masks[site]]
    return _assemble(basis, (("HAMMING", "beta"),), rows, cols, np.zeros(len(rows), np.int8))
