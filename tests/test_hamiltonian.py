import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalchain import CouplingValues, build_hamming, build_model, enumerate_basis
from crystalchain import hamiltonian
from crystalchain.hamiltonian import (
    _J_MINUS,
    _MODEL_FAMILIES,
    _Walks,
    _a,
    _a_ik,
    _apply_chain,
    _model_terms,
)
from golden import (
    THREE_SITE_DELTA_PAIRS,
    THREE_SITE_DIAG,
    THREE_SITE_EPS_PAIRS,
    THREE_SITE_GAMMA_PAIRS,
    TWO_SITE_DELTA_PAIRS,
    TWO_SITE_DIAG,
    TWO_SITE_EPS_PAIRS,
    coupling_matrices,
    family_matrices,
    pairs_matrix,
)
from oracles import (
    Labels,
    adjoint,
    admissible_columns,
    apply_a,
    apply_a_dagger,
    apply_a_ik,
    apply_a_ik_dagger,
    apply_j_minus,
    apply_j_plus,
    dense_evaluate,
    hamming_distance,
    labels_from_word,
    moved_admissible,
    scalar_hamming_build,
    scalar_model_build,
    walk_chain,
)


def labels(two_j3, two_j):
    return Labels(two_j3, tuple(two_j))


def reference_labels(n):
    """The reference labels of every n-site word."""
    return [labels_from_word(word) for word in enumerate_basis(n).words]


class TestStepOperators:
    def test_raise_within_irrep(self):
        assert apply_j_plus(labels(-1, [0, 1])) == labels(1, [0, 1])

    def test_raise_annihilates_at_highest_weight(self):
        assert apply_j_plus(labels(3, [2, 3])) is None
        assert apply_j_minus(labels(-3, [2, 3])) is None

    def test_round_trip_on_interior_states(self):
        for lab in reference_labels(4):
            if abs(lab.two_j3) < lab.two_j[-1]:
                down = apply_j_minus(lab)
                if abs(lab.two_j3 - 2) <= lab.two_j[-1]:
                    assert down is not None
                    assert apply_j_plus(down) == lab

    def test_labels_other_than_projection_unchanged(self):
        out = apply_j_minus(labels(0, [0, 1, 2]))
        assert out is not None and out.two_j == (0, 1, 2)


class TestShiftOperators:
    def test_lower_full_tail(self):
        # YRR after one lowering step reaches RYR by shrinking the irrep
        assert apply_a(2, labels(1, [2, 3])) == labels(1, [0, 1])

    def test_raise_full_tail(self):
        assert apply_a_dagger(2, labels(-1, [0, 1])) == labels(-1, [2, 3])

    def test_raise_tail_annihilates_on_adjacency(self):
        assert apply_a_dagger(3, labels(1, [0, 1])) is None

    def test_partial_shift(self):
        assert apply_a_ik(2, 3, labels(-1, [2, 1])) == labels(-1, [0, 1])
        assert apply_a_ik_dagger(2, 3, labels(-1, [0, 1])) == labels(-1, [2, 1])

    def test_partial_shift_annihilates_below_zero(self):
        assert apply_a_ik(2, 3, labels(-1, [0, 1])) is None

    def test_adjoints_invert_each_other(self):
        for lab in reference_labels(5):
            for i in range(2, 6):
                down = apply_a(i, lab)
                if down is not None:
                    assert apply_a_dagger(i, down) == lab
                up = apply_a_dagger(i, lab)
                if up is not None:
                    assert apply_a(i, up) == lab


class TestModelStructure:
    def test_three_site_matches_catalogue(self):
        sym = build_model(3)
        assert sym.basis.labels[0].tolist() == THREE_SITE_DIAG
        matrices = coupling_matrices(sym)
        assert (matrices["delta"] == pairs_matrix(8, THREE_SITE_DELTA_PAIRS)).all()
        assert (matrices["gamma"] == pairs_matrix(8, THREE_SITE_GAMMA_PAIRS)).all()
        assert (matrices["eps"] == pairs_matrix(8, THREE_SITE_EPS_PAIRS)).all()
        assert not matrices["eta"].any()

    def test_two_site_matches_derivation(self):
        sym = build_model(2)
        assert sym.basis.labels[0].tolist() == TWO_SITE_DIAG
        matrices = coupling_matrices(sym)
        assert (matrices["delta"] == pairs_matrix(4, TWO_SITE_DELTA_PAIRS)).all()
        assert (matrices["eps"] == pairs_matrix(4, TWO_SITE_EPS_PAIRS)).all()
        assert not matrices["gamma"].any()
        assert not matrices["eta"].any()

    def test_eta_appears_from_four_sites(self):
        assert not coupling_matrices(build_model(3))["eta"].any()
        assert coupling_matrices(build_model(4))["eta"].any()
        assert coupling_matrices(build_model(5))["eta"].any()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_symmetry_and_selection_rule(self, n):
        sym = build_model(n)
        two_j3 = sym.basis.labels[0]
        for field, matrix in coupling_matrices(sym).items():
            assert (matrix == matrix.T).all()
            assert not np.diag(matrix).any()
            rows, cols = np.nonzero(matrix)
            assert (np.abs(two_j3[rows] - two_j3[cols]) == 2).all(), field

    def test_symmetry_at_ten_sites(self):
        for matrix in coupling_matrices(build_model(10)).values():
            assert (matrix == matrix.T).all()

    def test_three_site_coefficients_are_boolean(self):
        for matrix in coupling_matrices(build_model(3)).values():
            assert set(np.unique(matrix)) <= {0, 1}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_forward_half_transposes_to_adjoint_half(self, n):
        # the adjoint of each listed chain, walked op by op, couples exactly
        # the transposes of the chain's pairs: the ones the builder mirrors
        walks, labels, table = reference_walk(n)
        for _, _, ops in _model_terms(n):
            rows, cols = _apply_chain(walks, ops)
            back_rows, back_cols = walk_chain(labels, table, adjoint(ops))
            forward = np.lexsort((rows, cols))
            backward = np.lexsort((back_cols, back_rows))
            assert cols[forward].tobytes() == back_rows[backward].tobytes(), ops
            assert rows[forward].tobytes() == back_cols[backward].tobytes(), ops

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_provenance_multiplicities_sum_to_coefficients(self, n):
        sym = build_model(n)
        term_field = {"H1": "gamma", "H2": "delta", "H3": "eps", "H5": "eps", "H6": "eta"}
        matrices = coupling_matrices(sym)
        rebuilt = {field: np.zeros((sym.dim, sym.dim), dtype=np.int64) for field in matrices}
        for term, matrix in family_matrices(sym).items():
            rebuilt[term_field[term]] += matrix
        for field, matrix in matrices.items():
            assert (rebuilt[field] == matrix).all(), field

    @pytest.mark.parametrize("n", range(2, 13))
    def test_three_site_terms_are_disjoint(self, n):
        # each pair is listed once with one family code: the families are
        # disjoint and every coefficient is 1
        for sym in (build_model(n), build_hamming(n)):
            keys = sym.rows * sym.dim + sym.cols
            assert len(np.unique(keys)) == len(keys)
            assert ((sym.family >= 0) & (sym.family < len(sym.families))).all()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda terms: terms + terms[:1], "two chains couple the same pair"),
            (
                lambda terms: terms + [("H2", "delta", adjoint(terms[0][2]))],
                "does not lower 2J3 by exactly 2",
            ),
            (lambda terms: terms + [("H2", "delta", ())], "does not lower 2J3 by exactly 2"),
            (
                lambda terms: terms
                + [("H1", "gamma", (_a_ik(2, 4, -2),)), ("H1", "gamma", (_a_ik(2, 4, 2),))],
                "does not lower 2J3 by exactly 2",
            ),
        ],
        ids=["chain_listed_twice", "raising_chain_listed", "identity_chain", "no_spin_flip"],
    )
    def test_constructor_refuses_broken_terms(self, monkeypatch, edit, message):
        terms = _model_terms(4)
        monkeypatch.setattr(hamiltonian, "_model_terms", lambda n: edit(terms))
        with pytest.raises(AssertionError, match=message):
            build_model(4)

    def test_triplets_are_unique_and_row_major(self):
        sym = build_model(6)
        keys = sym.rows * sym.dim + sym.cols
        assert (np.diff(keys) > 0).all()
        for code in range(len(sym.families)):
            assert (np.diff(keys[sym.family == code]) > 0).all()

    def test_build_allocates_no_dense_integer_matrix(self):
        dim = 2**10
        tracemalloc.start()
        try:
            build_model(10)
            build_hamming(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * np.dtype(np.int64).itemsize


class TestScalarOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_model_matches_per_state_chains(self, n):
        sym = build_model(n)
        coeffs, provenance = scalar_model_build(n)
        matrices = coupling_matrices(sym)
        assert set(matrices) == set(coeffs)
        for field, matrix in coeffs.items():
            assert (matrices[field] == matrix).all(), field
        expected = {}
        for (row, col), counts in provenance.items():
            for term, multiplicity in counts.items():
                matrix = expected.setdefault(term, np.zeros((sym.dim, sym.dim), dtype=np.int64))
                matrix[row, col] = multiplicity
        families = family_matrices(sym)
        assert set(families) >= set(expected)
        for term, got in families.items():
            assert (got == expected.get(term, 0)).all(), term

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hamming_matches_word_flips(self, n):
        sym = build_hamming(n)
        beta = scalar_hamming_build(n)
        matrices = coupling_matrices(sym)
        assert list(matrices) == ["beta"]
        assert (matrices["beta"] == beta).all()
        assert (family_matrices(sym)["HAMMING"] == beta).all()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_moved_check_keeps_what_full_check_keeps(self, n):
        """After every op of every chain, and after every op on the whole
        basis, the block-edge check keeps exactly the admissible columns."""

        def shifted(state, op):
            lo, hi, delta = op
            state = state.copy()
            state[lo:hi] += delta
            keep = moved_admissible(state, lo, hi)
            assert (keep == admissible_columns(state)).all(), op
            return state[:, keep]

        labels = enumerate_basis(n).labels
        chains = [ops for _, _, ops in _model_terms(n)]
        chains += [adjoint(ops) for ops in chains]
        for op in {op for ops in chains for op in ops}:
            shifted(labels, op)
        for ops in chains:
            state = labels
            for op in ops:
                state = shifted(state, op)


def reference_walk(n):
    """(walk features, label array, row table) of the n-site basis, the
    table built from the walk keys independently of `_Walks`."""
    labels = enumerate_basis(n).labels
    walks = _Walks(labels)
    table = np.full(len(walks.row_table), -1, dtype=np.int64)
    table[hamiltonian._walk_keys(labels)] = np.arange(labels.shape[1])
    return walks, labels, table


def sorted_pairs(reference):
    """(rows, cols, family codes) of the (rows, cols, code) parts of
    `reference`, sorted row-major by numpy alone."""
    rows = np.concatenate([rows for rows, _, _ in reference])
    cols = np.concatenate([cols for _, cols, _ in reference])
    codes = np.concatenate([np.full(len(rows), code, np.int8) for rows, _, code in reference])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], codes[order]


def assert_pairs_are(sym, half, adjoints, families):
    """`sym` has the 2J3 diagonal and stores exactly the pairs of `half`,
    and those with their transposes are exactly the pairs of `half` and
    `adjoints`."""
    words = sym.basis.words
    two_j3 = np.array([word.count("R") - word.count("Y") for word in words], dtype=np.int16)
    assert sym.basis.labels[0].tobytes() == two_j3.tobytes()  # the diagonal H reads
    want = dict(zip(("rows", "cols", "family"), sorted_pairs(half)))
    for field, want_array in want.items():
        got_array = getattr(sym, field)
        assert got_array.dtype == want_array.dtype, field
        assert got_array.tobytes() == want_array.tobytes(), field
    mirrored = sorted_pairs([(sym.rows, sym.cols, sym.family), (sym.cols, sym.rows, sym.family)])
    for got_array, want_array in zip(mirrored, sorted_pairs(half + adjoints)):
        assert got_array.tobytes() == want_array.tobytes()
    assert sym.families == families


@st.composite
def chains(draw):
    """(n, ops): 0-3 ops drawn from J+-, A_i and A_ik with delta = +-2."""
    n = draw(st.integers(min_value=2, max_value=9))
    alphabet = [_J_MINUS, *adjoint((_J_MINUS,))]
    alphabet += [_a(i, n, delta) for i in range(2, n + 1) for delta in (-2, 2)]
    alphabet += [
        _a_ik(i, k, delta) for i in range(2, n) for k in range(i + 1, n + 1) for delta in (-2, 2)
    ]
    return n, tuple(draw(st.lists(st.sampled_from(alphabet), max_size=3)))


_WALKS = {n: reference_walk(n) for n in range(2, 10)}


class TestWalkFeatures:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_builder_equals_reference_walk(self, n):
        # the reference walks every listed chain and its adjoint op by op
        walks, labels, table = reference_walk(n)
        half, adjoints = [], []
        for family, field, ops in _model_terms(n):
            rows, cols = _apply_chain(walks, ops)
            want_rows, want_cols = walk_chain(labels, table, ops)
            assert rows.tobytes() == want_rows.tobytes(), ops
            assert cols.tobytes() == want_cols.tobytes(), ops
            code = _MODEL_FAMILIES.index((family, field))
            back_rows, back_cols = walk_chain(labels, table, adjoint(ops))
            half.append((want_rows, want_cols, code))
            adjoints.append((back_rows, back_cols, code))
        assert_pairs_are(build_model(n), half, adjoints, _MODEL_FAMILIES)

    @settings(max_examples=400, deadline=None)
    @given(chain=chains())
    @example(chain=(3, (_J_MINUS, _J_MINUS)))
    def test_drawn_chain_equals_reference_walk(self, chain):
        """A drawn chain keeps the states whose labels plus its net shift are
        admissible, and sends each to the reference table's row there."""
        n, ops = chain
        walks, labels, table = _WALKS[n]
        moved = np.zeros((n, 1), dtype=labels.dtype)
        for lo, hi, delta in ops:
            moved[lo:hi] += delta
        want_cols = admissible_columns(labels + moved).nonzero()[0]
        want_rows = table[hamiltonian._walk_keys(labels[:, want_cols] + moved)]
        rows, cols = _apply_chain(walks, ops)
        assert cols.tobytes() == want_cols.tobytes()
        assert rows.tobytes() == want_rows.tobytes()


class TestHammingStructure:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_builder_equals_every_flip(self, n):
        # each of the n flips from every state: R -> Y stored, Y -> R mirrored
        basis = enumerate_basis(n)
        cols = np.arange(len(basis))
        letters = np.array([list(word) for word in basis.words])
        half, adjoints = [], []
        for site in range(n):  # bit `site` is letter n - 1 - site
            rows = basis.index_by_bits[basis.bits ^ (1 << site)]
            r_to_y = letters[:, n - 1 - site] == "R"
            half.append((rows[r_to_y], cols[r_to_y], 0))
            adjoints.append((rows[~r_to_y], cols[~r_to_y], 0))
        assert_pairs_are(build_hamming(n), half, adjoints, (("HAMMING", "beta"),))

    def test_two_site_edges(self):
        beta = coupling_matrices(build_hamming(2))["beta"]
        assert int(beta.sum()) == 8
        assert (beta == beta.T).all()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_row_degree_equals_length(self, n):
        beta = coupling_matrices(build_hamming(n))["beta"]
        assert (beta.sum(axis=0) == n).all()

    def test_edges_are_single_flips(self):
        sym = build_hamming(4)
        beta = coupling_matrices(sym)["beta"]
        for r, c in zip(*np.nonzero(beta)):
            assert hamming_distance(sym.basis.words[r], sym.basis.words[c]) == 1

    def test_pattern_differs_from_model(self):
        model = coupling_matrices(build_model(3))
        combined = model["eps"] + model["gamma"] + model["delta"]
        assert ((combined != 0) != (coupling_matrices(build_hamming(3))["beta"] != 0)).any()


class TestEvaluate:
    def test_zero_couplings_leave_diagonal(self):
        sym = build_model(4)
        h = sym.evaluate(CouplingValues(mu0=1.0))
        assert (h == np.diag(sym.basis.labels[0].astype(float))).all()

    def test_numeric_three_site_instance(self):
        sym = build_model(3)
        h = sym.evaluate(CouplingValues(mu0=1.0, eps=0.1, gamma=0.3, delta=0.3))
        expected = (
            np.diag(np.array(THREE_SITE_DIAG, dtype=float))
            + 0.1 * pairs_matrix(8, THREE_SITE_EPS_PAIRS)
            + 0.3 * pairs_matrix(8, THREE_SITE_GAMMA_PAIRS)
            + 0.3 * pairs_matrix(8, THREE_SITE_DELTA_PAIRS)
        )
        assert np.allclose(h, expected, atol=0)

    def test_linearity_in_interaction_couplings(self):
        rng = np.random.default_rng(7)
        sym = build_model(4)
        mu0 = 1.0
        first = CouplingValues(mu0, *rng.uniform(0, 1, 5))
        second = CouplingValues(mu0, *rng.uniform(0, 1, 5))
        fields = ("eps", "gamma", "delta", "eta", "beta")
        summed = CouplingValues(mu0, *(getattr(first, f) + getattr(second, f) for f in fields))
        lhs = sym.evaluate(summed)
        diagonal = mu0 * np.diag(sym.basis.labels[0].astype(float))
        rhs = sym.evaluate(first) + sym.evaluate(second) - diagonal
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_couplings_must_be_finite(self):
        with pytest.raises(ValueError):
            CouplingValues(mu0=float("nan"))

    def test_coupling_dict_round_trip(self):
        values = CouplingValues(1.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        assert CouplingValues.from_dict(values.as_dict()) == values
        with pytest.raises(ValueError):
            CouplingValues.from_dict({"mu1": 1.0})


_COUPLING = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@pytest.fixture(scope="module")
def structures():
    """(builder, n) -> (symbolic structure, scalar diag and coefficient matrices)."""
    built = {}
    for n in range(2, 8):
        model = build_model(n)
        built["crystal", n] = (model, model.basis.labels[0], scalar_model_build(n)[0])
        hamming = build_hamming(n)
        built["hamming", n] = (hamming, hamming.basis.labels[0], {"beta": scalar_hamming_build(n)})
    return built


_EXTREME_COUPLING = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1e300, -1e300])


class TestEvaluateBitwise:
    @settings(max_examples=150, deadline=2000)
    @given(
        model=st.sampled_from(["crystal", "hamming"]),
        n=st.integers(min_value=2, max_value=8),
        couplings=st.tuples(*[_EXTREME_COUPLING] * 6),
    )
    @example(model="crystal", n=8, couplings=(-1e300, -0.0, 1e-300, -0.5, 1e300, 0.0))
    def test_evaluate_is_exactly_symmetric(self, model, n, couplings):
        # each stored pair and its mirror get the same value: H is symmetric
        # by construction, bit for bit, for signed zeros, subnormal-range
        # and huge couplings and a negative mu0
        h = built(model, n).evaluate(CouplingValues(*couplings))
        assert h.tobytes() == h.T.copy().tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(["crystal", "hamming"]),
        n=st.integers(min_value=2, max_value=7),
        couplings=st.tuples(*[_COUPLING] * 6),
    )
    def test_scatter_equals_dense_sum(self, structures, model, n, couplings):
        sym, diag, matrices = structures[model, n]
        values = CouplingValues(*couplings)
        expected = dense_evaluate(diag, matrices, values)
        assert sym.evaluate(values).tobytes() == expected.tobytes()

    def test_negative_zero_diagonal_follows_dense_sum(self, structures):
        sym, diag, matrices = structures["crystal", 4]
        zero_j3 = np.nonzero(diag == 0)[0]
        for eps, sign in ((0.2, 1.0), (-0.2, -1.0)):
            values = CouplingValues(mu0=-1.0, eps=eps)
            h = sym.evaluate(values)
            assert h.tobytes() == dense_evaluate(diag, matrices, values).tobytes()
            assert (np.copysign(1.0, h[zero_j3, zero_j3]) == sign).all()


@functools.cache
def built(model, n):
    return (build_model if model == "crystal" else build_hamming)(n)


def reachable(sym, state):
    """Basis indices of the pairs, in either half, whose initial state is `state`."""
    return [*sym.rows[sym.cols == state].tolist(), *sym.cols[sym.rows == state].tolist()]


class TestAllowedTransitions:
    def test_from_rank_two_state(self):
        sym = build_model(3)
        got = {sym.basis.words[f] for f in reachable(sym, sym.basis.index_of_word("RYR"))}
        assert got == {"RRR", "YYR", "RYY"}

    def test_from_lowest_interior_state(self):
        sym = build_model(3)
        got = {sym.basis.words[f] for f in reachable(sym, sym.basis.index_of_word("RYY"))}
        assert got == {"YRR", "YYY", "RRY", "RYR"}

    def test_hamming_neighbours(self):
        sym = build_hamming(4)
        for idx, word in enumerate(sym.basis.words):
            got = reachable(sym, idx)
            assert len(got) == 4
            assert all(hamming_distance(word, sym.basis.words[f]) == 1 for f in got)


class TestDumpFormat:
    def test_lines_sorted_and_parseable(self):
        sym = build_model(4)
        lines = sym.dump().splitlines()
        keys = []
        seen_diag = 0
        for line in lines:
            row, col, symbol, mult = line.split()
            keys.append((int(row), int(col), symbol))
            if row == col:
                assert symbol == "MU0"
                seen_diag += 1
            else:
                assert int(mult) > 0
        assert keys == sorted(keys)
        assert seen_diag == 16

    @pytest.mark.parametrize("build", [build_model, build_hamming])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_dump_rebuilds_evaluate(self, build, n):
        # dump and evaluate each write the stored half's transposes: one
        # value per coupling, the dense sum of the dump's lines is H bit for bit
        sym = build(n)
        values = CouplingValues(mu0=1.0, eps=0.1, gamma=0.2, delta=0.3, eta=0.4, beta=0.5)
        h = np.zeros((sym.dim, sym.dim))
        for line in sym.dump().splitlines():
            row, col, symbol, mult = line.split()
            h[int(row) - 1, int(col) - 1] += getattr(values, symbol.lower()) * int(mult)
        assert h.tobytes() == sym.evaluate(values).tobytes()
