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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

MIN_CHAIN_LENGTH = 2
MAX_CHAIN_LENGTH = 14

_CANONICAL_SPIN = {"R": "R", "Y": "Y", "1": "R", "0": "Y", "+": "R", "-": "Y"}


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


class ReductionState(NamedTuple):
    """Stack content after a scan: `a` unmatched Y's, `b` unmatched R's."""

    a: int
    b: int

    @property
    def total(self) -> int:
        """Doubled total spin of the scanned letters (= a + b)."""
        return self.a + self.b


def reduce_word(spins: str) -> ReductionState:
    """Stack-reduce an R/Y string; each Y cancels one earlier unmatched R."""
    a = b = 0
    for ch in spins:
        if ch == "R":
            b += 1
        elif b > 0:
            b -= 1
        else:
            a += 1
    return ReductionState(a, b)


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

    def sort_key(self) -> tuple[int, ...]:
        """Canonical ordering key: (2J^N, ..., 2J^2, 2J3) ascending."""
        return tuple(reversed(self.two_j)) + (self.two_j3,)

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
    """Canonically ordered basis with label->index and word->index lookup.

    `bits` holds each word's `SpinWord.bits` in basis order, as a read-only
    int64 array.
    """

    def __init__(self, n: int, pairs: Sequence[tuple[SpinWord, CrystalLabels]]):
        self.n = n
        self.words: tuple[SpinWord, ...] = tuple(w for w, _ in pairs)
        self.labels: tuple[CrystalLabels, ...] = tuple(l for _, l in pairs)
        self.bits = np.array([w.bits for w in self.words], dtype=np.int64)
        self.bits.flags.writeable = False
        self._by_labels = {
            (l.two_j3, l.two_j): idx for idx, l in enumerate(self.labels)
        }
        self._by_word = {w.spins: idx for idx, w in enumerate(self.words)}
        if len(self._by_labels) != len(pairs) or len(self._by_word) != len(pairs):
            raise ValueError("basis contains duplicate states")

    @property
    def dim(self) -> int:
        return len(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[tuple[SpinWord, CrystalLabels]]:
        return iter(zip(self.words, self.labels))

    def __getitem__(self, index: int) -> tuple[SpinWord, CrystalLabels]:
        return self.words[index], self.labels[index]

    def index_of(self, labels: CrystalLabels) -> int:
        try:
            return self._by_labels[(labels.two_j3, labels.two_j)]
        except KeyError:
            raise ValueError(f"labels not in basis: {labels}") from None

    def index_of_word(self, word: "SpinWord | str") -> int:
        word = _as_word(word)
        try:
            return self._by_word[word.spins]
        except KeyError:
            raise ValueError(f"word not in basis: {word}") from None


def enumerate_basis(n: int) -> BasisMap:
    """All 2^n words, sorted ascending by (2J^N, ..., 2J^2, 2J3)."""
    if not MIN_CHAIN_LENGTH <= n <= MAX_CHAIN_LENGTH:
        raise ValueError(
            f"chain length must be in [{MIN_CHAIN_LENGTH}, {MAX_CHAIN_LENGTH}], got {n}"
        )
    pairs = []
    for bits in range(2**n):
        spins = "".join(
            "R" if (bits >> (n - 1 - site)) & 1 else "Y" for site in range(n)
        )
        word = SpinWord(spins)
        pairs.append((word, labels_from_word(word)))
    pairs.sort(key=lambda pair: pair[1].sort_key())
    return BasisMap(n, pairs)


def hamming_distance(first: "SpinWord | str", second: "SpinWord | str") -> int:
    """Number of sites at which two equal-length words differ."""
    first, second = _as_word(first), _as_word(second)
    if len(first) != len(second):
        raise ValueError(
            f"length mismatch: {len(first)} vs {len(second)}"
        )
    return sum(c1 != c2 for c1, c2 in zip(first.spins, second.spins))
