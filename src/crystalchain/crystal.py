"""Binary spin words and their crystal-basis labels.

A length-N chain over the two-letter alphabet {R, Y} (purine spin +1/2,
pyrimidine spin -1/2) can equivalently be labelled by doubled integers:
``two_j3`` = #R - #Y, and ``two_j[i]`` = twice the total spin of the
length-i prefix, for i = 2..N.  The prefix spins follow from a stack
reduction: scanning left to right, each Y cancels one unmatched R if any
is available, otherwise it stays unmatched itself; the doubled prefix spin
is the number of unmatched letters.  Words and admissible label tuples are
in bijection.

All label arithmetic is exact (doubled integers, no fractions).
`enumerate_basis` fixes the canonical state ordering used by the
Hamiltonian builders and by every index in CSV/JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

MIN_CHAIN_LENGTH = 2
MAX_CHAIN_LENGTH = 14

_CANONICAL_SPIN = {"R": "R", "Y": "Y", "1": "R", "0": "Y", "+": "R", "-": "Y"}
_BIT_LETTERS = str.maketrans("10", "RY")


class Spin(Enum):
    """One site: R (purine, spin up) or Y (pyrimidine, spin down)."""

    R = "R"
    Y = "Y"

    @property
    def sign(self) -> int:
        """Doubled spin projection: +1 for R, -1 for Y."""
        return 1 if self is Spin.R else -1

    def flipped(self) -> "Spin":
        return Spin.Y if self is Spin.R else Spin.R


@dataclass(frozen=True)
class SpinWord:
    """Ordered R/Y sequence, length MIN_CHAIN_LENGTH..MAX_CHAIN_LENGTH."""

    spins: str

    def __post_init__(self) -> None:
        n = len(self.spins)
        if not (MIN_CHAIN_LENGTH <= n <= MAX_CHAIN_LENGTH):
            raise ValueError(
                f"chain length must be in [{MIN_CHAIN_LENGTH}, {MAX_CHAIN_LENGTH}], got {n}"
            )
        bad = set(self.spins) - {"R", "Y"}
        if bad:
            raise ValueError(f"word may contain only R/Y, got {sorted(bad)!r}")

    @classmethod
    def parse(cls, text: str) -> "SpinWord":
        """Accept R/Y, 1/0 or +/- spellings; canonical storage is R/Y."""
        try:
            canonical = "".join(_CANONICAL_SPIN[ch] for ch in text.strip().upper())
        except KeyError as exc:
            raise ValueError(f"unknown spin symbol {exc.args[0]!r} in {text!r}") from None
        return cls(canonical)

    def __len__(self) -> int:
        return len(self.spins)

    def __str__(self) -> str:
        return self.spins

    def __iter__(self) -> Iterator[Spin]:
        return (Spin(ch) for ch in self.spins)

    @property
    def bits(self) -> int:
        """The word as an integer: site 1 is the most significant bit, R = 1."""
        return int(self.spins.replace("R", "1").replace("Y", "0"), 2)

    def spin_at(self, position: int) -> Spin:
        """Site letter at 1-based `position`."""
        if not 1 <= position <= len(self.spins):
            raise ValueError(f"position {position} outside 1..{len(self.spins)}")
        return Spin(self.spins[position - 1])

    def flip(self, position: int) -> "SpinWord":
        """Word with the letter at 1-based `position` exchanged R <-> Y."""
        old = self.spin_at(position)
        new = old.flipped().value
        return SpinWord(self.spins[: position - 1] + new + self.spins[position:])


@dataclass(frozen=True)
class CrystalLabels:
    """Doubled labels (2*J3; 2*J^2 .. 2*J^N) identifying one chain state.

    ``two_j[i - 2]`` holds 2*J^i, so the tuple runs from the two-letter
    prefix up to the full chain.  The last entry is the doubled total spin
    of the whole word; ``two_j3`` is the doubled spin projection.
    """

    two_j3: int
    two_j: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.two_j) + 1

    @property
    def two_j_top(self) -> int:
        """2*J^N, the doubled total spin of the full chain."""
        return self.two_j[-1]

    def with_two_j3(self, value: int) -> "CrystalLabels":
        return CrystalLabels(value, self.two_j)

    def with_shift(self, i_lo: int, i_hi: int, delta: int) -> "CrystalLabels":
        """Add `delta` to every 2*J^l with i_lo <= l <= i_hi (label indices)."""
        shifted = tuple(
            q + delta if i_lo <= idx + 2 <= i_hi else q
            for idx, q in enumerate(self.two_j)
        )
        return CrystalLabels(self.two_j3, shifted)

    def text(self) -> str:
        body = ",".join(f"{q}/2" for q in self.two_j)
        return f"J3={self.two_j3}/2; J^2..J^N={body}"


def validate_labels(two_j3: int, two_j: Sequence[int]) -> bool:
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


def labels_valid(labels: CrystalLabels) -> bool:
    return validate_labels(labels.two_j3, labels.two_j)


def _as_word(word: "SpinWord | str") -> SpinWord:
    return word if isinstance(word, SpinWord) else SpinWord.parse(word)


def labels_from_word(word: "SpinWord | str") -> CrystalLabels:
    """Label a word by stack reduction of every prefix.

    On R the unmatched-R count grows; on Y one unmatched R is cancelled if
    available, otherwise the unmatched-Y count grows.  After each prefix of
    length i >= 2 the doubled prefix spin a + b is recorded.
    """
    word = _as_word(word)
    a = b = 0
    prefix_spins: list[int] = []
    for pos, ch in enumerate(word.spins, start=1):
        if ch == "R":
            b += 1
        elif b > 0:
            b -= 1
        else:
            a += 1
        if pos >= 2:
            prefix_spins.append(a + b)
    n_r = word.spins.count("R")
    two_j3 = n_r - (len(word) - n_r)
    return CrystalLabels(two_j3, tuple(prefix_spins))


def word_from_labels(labels: CrystalLabels) -> SpinWord:
    """Reconstruct the unique word with the given labels (right to left).

    The terminal stack is fixed by (2J^N, 2J3); each step back compares
    successive prefix spins: an increase going backwards marks a
    cancelling Y, a decrease marks an R while unmatched R's remain and an
    unmatched Y once they run out.
    """
    if not labels_valid(labels):
        raise ValueError(f"inadmissible labels: {labels}")
    n = labels.n
    b = (labels.two_j_top + labels.two_j3) // 2
    a = (labels.two_j_top - labels.two_j3) // 2
    # path[i - 1] = doubled prefix spin at length i; one letter carries spin 1
    path = (1,) + labels.two_j
    letters: list[str] = []
    for i in range(n, 1, -1):
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
    return SpinWord("".join(reversed(letters)))


class BasisMap:
    """Canonically ordered basis as arrays, with word and label lookup.

    `bits[i]` is state i's word as `SpinWord.bits`, and column i of the
    int16 `labels` array its labels: row 0 is 2J3, row l-1 is 2J^l.
    `index_by_bits` maps every word's bits to its basis index.  All three
    are read-only.  Word and label objects are built on demand.
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

    def __iter__(self) -> Iterator[tuple[SpinWord, CrystalLabels]]:
        return (self[index] for index in range(len(self)))

    def __getitem__(self, index: int) -> tuple[SpinWord, CrystalLabels]:
        two_j3, *two_j = self.labels[:, index].tolist()
        return SpinWord(self.words[index]), CrystalLabels(two_j3, tuple(two_j))

    def index_of(self, labels: CrystalLabels) -> int:
        try:
            return self.index_of_word(word_from_labels(labels))
        except ValueError:
            raise ValueError(f"labels not in basis: {labels}") from None

    def index_of_word(self, word: "SpinWord | str") -> int:
        word = _as_word(word)
        if len(word) != self.n:
            raise ValueError(f"word not in basis: {word}")
        return int(self.index_by_bits[word.bits])


def enumerate_basis(n: int) -> BasisMap:
    """All 2^n words, sorted ascending by (2J^N, ..., 2J^2, 2J3).

    Every word is stack-reduced at once, one site per step, as in
    `labels_from_word`: bit n-1-s of the word is site s+1 (R = 1), and
    after each prefix of length l >= 2 its doubled spin a + b is row l-1
    of the label array.
    """
    if not MIN_CHAIN_LENGTH <= n <= MAX_CHAIN_LENGTH:
        raise ValueError(
            f"chain length must be in [{MIN_CHAIN_LENGTH}, {MAX_CHAIN_LENGTH}], got {n}"
        )
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


def hamming_distance(first: "SpinWord | str", second: "SpinWord | str") -> int:
    """Number of sites at which two equal-length words differ."""
    first, second = _as_word(first), _as_word(second)
    if len(first) != len(second):
        raise ValueError(
            f"length mismatch: {len(first)} vs {len(second)}"
        )
    return sum(c1 != c2 for c1, c2 in zip(first.spins, second.spins))
