import itertools

import numpy as np
import pytest

from crystalchain import enumerate_basis
from crystalchain.cli import main
from crystalchain.crystal import parse_word
from golden import THREE_SITE_CATALOGUE, THREE_SITE_ORDER, TWO_SITE_ORDER
from oracles import (
    Labels,
    hamming_distance,
    labels_from_word,
    reference_enumeration,
    validate_labels,
    word_from_labels,
)


def labels(two_j3, two_j):
    return Labels(two_j3, tuple(two_j))


def basis_labels(basis, word):
    """(2J3, (2J^2, ..., 2J^N)) of `word`, read from the basis label array."""
    two_j3, *two_j = basis.labels[:, basis.index_of_word(word)].tolist()
    return two_j3, tuple(two_j)


class TestSpinWord:
    """`parse_word`, the one check of a word given on input."""

    def test_parse_aliases(self):
        assert parse_word("110") == "RRY"
        assert parse_word("+-+") == "RYR"
        assert parse_word("ryy") == "RYY"

    def test_parse_rejects_unknown_symbols(self):
        with pytest.raises(ValueError, match="unknown spin symbol 'X' in 'RXY'"):
            parse_word("RXY")

    def test_length_bounds(self):
        with pytest.raises(ValueError, match=r"chain length must be in \[2, 14\], got 1$"):
            parse_word("R")
        with pytest.raises(ValueError, match=r"chain length must be in \[2, 14\], got 15$"):
            parse_word("R" * 15)


class TestLabelsFromWord:
    """The paper's values read from the basis label array; the reference
    labelling's own properties."""

    def test_three_site_catalogue(self):
        basis = enumerate_basis(3)
        for word, expected in THREE_SITE_CATALOGUE.items():
            assert basis_labels(basis, word) == expected, word

    def test_all_purine_is_highest_weight(self):
        for n in range(2, 10):
            assert basis_labels(enumerate_basis(n), "R" * n) == (n, tuple(range(2, n + 1)))

    def test_alternating_six_sites(self):
        assert basis_labels(enumerate_basis(6), "RYRYRY") == (0, (0, 1, 0, 1, 0))

    def test_prefix_consistency(self):
        for bits in range(2**6):
            word = "".join("R" if (bits >> s) & 1 else "Y" for s in range(6))
            full = labels_from_word(word)
            for i in range(2, 7):
                prefix = labels_from_word(word[:i])
                assert prefix.two_j[i - 2] == full.two_j[i - 2]

    def test_contracted_couple_count_is_integral(self):
        for n in (2, 5, 8):
            for bits in range(2**n):
                word = "".join("R" if (bits >> s) & 1 else "Y" for s in range(n))
                got = labels_from_word(word)
                top = got.two_j[-1]
                assert top - abs(got.two_j3) >= 0
                assert (top - got.two_j3) % 2 == 0
                couples = n - top
                assert couples >= 0
                assert couples % 2 == 0


class TestWordFromLabels:
    def test_catalogue_inverse(self):
        assert word_from_labels(labels(-1, [0, 1])) == "RYY"
        assert word_from_labels(labels(3, [2, 3])) == "RRR"
        assert word_from_labels(labels(1, [2, 1])) == "RRY"

    def test_rejects_inadmissible_labels(self):
        with pytest.raises(ValueError):
            word_from_labels(labels(-3, [0, 1]))
        with pytest.raises(ValueError):
            word_from_labels(labels(0, [0, 3]))

    def test_round_trip_exhaustive(self):
        for n in range(2, 9):
            for bits in range(2**n):
                word = "".join("R" if (bits >> s) & 1 else "Y" for s in range(n))
                assert word_from_labels(labels_from_word(word)) == word


class TestValidateLabels:
    def test_adjacency_violation(self):
        assert not validate_labels(-1, (0, 3))

    def test_projection_exceeds_total_spin(self):
        assert not validate_labels(-3, (0, 1))

    def test_admissible_tuple(self):
        assert validate_labels(1, (2, 1))

    def test_first_entry_must_be_zero_or_two(self):
        assert not validate_labels(0, (1, 2))
        assert not validate_labels(-1, (4, 3))

    def test_negative_entries_rejected(self):
        assert not validate_labels(0, (0, -1))

    def test_parity_mismatch_rejected(self):
        assert not validate_labels(0, (2, 3))

    def test_count_matches_dimension(self):
        # prune-free box enumeration for small n, walk enumeration beyond
        for n in range(2, 6):
            box = 0
            ranges = [range(-1, i + 2) for i in range(2, n + 1)]
            for two_j in itertools.product(*ranges):
                for two_j3 in range(-n - 1, n + 2):
                    if validate_labels(two_j3, two_j):
                        box += 1
            assert box == 2**n
        for n in range(2, 11):
            assert _count_by_walks(n) == 2**n


def _count_by_walks(n):
    count = 0

    def extend(path):
        nonlocal count
        if len(path) == n - 1:
            top = path[-1]
            for two_j3 in range(-top, top + 1):
                if validate_labels(two_j3, tuple(path)):
                    count += 1
            return
        for nxt in (path[-1] - 1, path[-1] + 1):
            if nxt >= 0:
                extend(path + [nxt])

    for first in (0, 2):
        extend([first])
    return count


class TestEnumerateBasis:
    def test_three_site_order(self):
        basis = enumerate_basis(3)
        assert list(basis.words) == THREE_SITE_ORDER

    def test_two_site_order(self):
        basis = enumerate_basis(2)
        assert list(basis.words) == TWO_SITE_ORDER

    def test_counts_and_lookup(self):
        for n in (2, 4, 7):
            basis = enumerate_basis(n)
            assert len(basis) == 2**n
            for idx, (word, (two_j3, *two_j)) in enumerate(
                zip(basis.words, basis.labels.T.tolist())
            ):
                assert word_from_labels(labels(two_j3, two_j)) == word
                assert basis.index_of_word(word) == idx

    def test_order_is_deterministic(self):
        first = enumerate_basis(5)
        second = enumerate_basis(5)
        assert first.words == second.words

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_basis(1)
        with pytest.raises(ValueError):
            enumerate_basis(15)

    def test_bits_are_the_words_bits_read_only(self):
        for n in range(2, 13):
            basis = enumerate_basis(n)
            assert basis.bits.dtype == np.int64
            bits = [int(w.replace("R", "1").replace("Y", "0"), 2) for w in basis.words]
            assert basis.bits.tolist() == bits
            assert not basis.bits.flags.writeable
            with pytest.raises(ValueError):
                basis.bits[0] = 0

    @pytest.mark.parametrize("n", range(2, 15))
    def test_arrays_match_per_word_enumeration(self, n):
        basis = enumerate_basis(n)
        bits, label_rows = reference_enumeration(n)
        assert basis.bits.tobytes() == bits.tobytes()
        assert basis.labels.dtype == np.int16
        assert basis.labels.shape == label_rows.shape
        assert basis.labels.tobytes() == label_rows.tobytes()
        for array in (basis.bits, basis.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 0

    def test_lookup_accepts_every_spelling(self):
        basis = enumerate_basis(4)
        for spelling in ("RRYR", "rryr", "1101", "++-+"):
            assert basis.index_of_word(spelling) == basis.words.index("RRYR")

    def test_unknown_lookups_raise(self):
        basis = enumerate_basis(3)
        for word in ("RRRR", "RY", "RXY"):
            with pytest.raises(ValueError):
                basis.index_of_word(word)


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance("RYY", "RYY") == 0

    def test_maximal(self):
        assert hamming_distance("RYY", "YRR") == 3

    def test_single_flip(self):
        assert hamming_distance("RRYR", "RRRR") == 1

    def test_symmetry(self):
        assert hamming_distance("RYRY", "YYRR") == hamming_distance("YYRR", "RYRY")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance("RY", "RYY")


class TestLabelText:
    def test_format(self, capsys):
        assert main(["basis", "--n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1 RYY J3=-1/2; J^2..J^N=0/2,1/2"
        assert lines[-1] == "8 RRR J3=3/2; J^2..J^N=2/2,3/2"
