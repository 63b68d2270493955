"""Binary spin words and the canonical crystal basis, held as arrays.

A length-N chain over the two-letter alphabet {R, Y} (purine spin +1/2,
pyrimidine spin -1/2) can equivalently be labelled by doubled integers:
2J3 = #R - #Y, and 2J^i = twice the total spin of the length-i prefix,
for i = 2..N.  The prefix spins follow from a stack reduction: scanning
left to right, each Y cancels one unmatched R if any is available,
otherwise it stays unmatched itself; the doubled prefix spin is the
number of unmatched letters.  Words and admissible label tuples are in
bijection.

`enumerate_basis` labels all 2^N words at once and fixes the canonical
state ordering used by the Hamiltonian builders and by every index in
CSV/JSON artifacts.  Its two arrays, the word bits and the int16 labels,
are the library's one representation of the states.  A word given on
input is checked once, by `parse_word`, and from then on a state travels
as its basis index.  The per-state bijection, one word at a time, is the
reference the tests check the arrays against (`tests/oracles.py`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

MIN_CHAIN_LENGTH = 2
MAX_CHAIN_LENGTH = 14

_CANONICAL_SPIN = {"R": "R", "Y": "Y", "1": "R", "0": "Y", "+": "R", "-": "Y"}
_BIT_LETTERS = str.maketrans("10", "RY")
_LETTER_BITS = str.maketrans("RY", "10")


def check_chain_length(n: int) -> None:
    if not MIN_CHAIN_LENGTH <= n <= MAX_CHAIN_LENGTH:
        raise ValueError(
            f"chain length must be in [{MIN_CHAIN_LENGTH}, {MAX_CHAIN_LENGTH}], got {n}"
        )


def parse_word(text: str) -> str:
    """The canonical R/Y spelling of a word given as R/Y, 1/0 or +/-, in either case."""
    try:
        word = "".join(_CANONICAL_SPIN[ch] for ch in text.strip().upper())
    except KeyError as exc:
        raise ValueError(f"unknown spin symbol {exc.args[0]!r} in {text!r}") from None
    check_chain_length(len(word))
    return word


class BasisMap:
    """Canonically ordered basis as arrays, with word lookup.

    `bits[i]` is state i's word as an integer (site 1 the most significant
    bit, R = 1), and column i of the int16 `labels` array its labels: row
    0 is 2J3, row l-1 is 2J^l.  `index_by_bits` maps every word's bits to
    its basis index.  All three are read-only.  `words` spells the bits as
    R/Y strings on first use.
    """

    def __init__(self, n: int, bits: np.ndarray, labels: np.ndarray):
        self.n, self.bits, self.labels = n, bits, labels
        self.index_by_bits = np.empty(1 << n, dtype=np.int64)
        self.index_by_bits[bits] = np.arange(len(bits))
        for array in (bits, labels, self.index_by_bits):
            array.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def words(self) -> tuple[str, ...]:
        """The R/Y string of every state, in basis order."""
        return tuple(format(b, f"0{self.n}b").translate(_BIT_LETTERS) for b in self.bits.tolist())

    def index_of_word(self, text: str) -> int:
        """The basis index of a word in any spelling `parse_word` accepts."""
        word = parse_word(text)
        if len(word) != self.n:
            raise ValueError(f"word not in basis: {word}")
        return int(self.index_by_bits[int(word.translate(_LETTER_BITS), 2)])


def enumerate_basis(n: int) -> BasisMap:
    """All 2^n words, sorted ascending by (2J^N, ..., 2J^2, 2J3).

    Every word is stack-reduced at once, one site per step: bit n-1-s of
    the word is site s+1 (R = 1), and after each prefix of length l >= 2
    its doubled spin a + b is row l-1 of the label array.
    """
    check_chain_length(n)
    bits = np.arange(1 << n, dtype=np.int64)
    labels = np.empty((n, 1 << n), dtype=np.int16)
    a = np.zeros(1 << n, dtype=np.int16)  # unmatched Y's
    b = np.zeros(1 << n, dtype=np.int16)  # unmatched R's
    for site in range(n):
        r = ((bits >> (n - 1 - site)) & 1).astype(bool)
        cancels = ~r & (b > 0)
        b += r
        b -= cancels
        a += ~r & ~cancels
        if site:
            labels[site] = a + b
    labels[0] = b - a  # matched pairs cancel in #R - #Y
    # lexsort's primary key is the last row, 2J^N
    order = np.lexsort(labels)
    return BasisMap(n, bits[order], labels[:, order])

