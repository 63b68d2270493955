import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalchain import (
    CouplingValues,
    StableHorizonError,
    build_hamming,
    build_model,
    eigendecompose,
    find_stable_T,
    infinite_time_average,
    time_averaged_profile,
    transition_probability,
)
from crystalchain import dynamics
from crystalchain.cli import FIGURE_PRESETS
from crystalchain.dynamics import _KERNEL_BLOCK, _NEAR_GAP, SpectralDecomposition
from oracles import (
    direct_profile,
    direct_return_probability,
    exhaustive_find_stable_T,
    expm_unitary,
    reference_eigendecompose,
    trapezoid_profile,
    unblocked_profile,
)

FIG2_COUPLINGS = CouplingValues(mu0=1.0, eps=0.1, gamma=0.3, delta=0.3)


def fig2_spec():
    sym = build_model(3)
    return sym, eigendecompose(sym.evaluate(FIG2_COUPLINGS))


def preset_spec(name):
    """(spectrum, initial index) of a figure preset."""
    preset = FIGURE_PRESETS[name]
    sym = build_model(preset.n) if preset.model == "crystal" else build_hamming(preset.n)
    spec = eigendecompose(sym.evaluate(preset.couplings))
    return spec, sym.basis.index_of_word(preset.initial)


def probe_bound(dim):
    """Largest |time_averaged_profile - direct_profile| rounding allows: the
    probe's 27.02 eps / _NEAR_GAP + (dim + 310) eps / 2 (derived in
    time_averaged_profile) plus the direct kernel's own (dim + 314) eps / 2
    (sin(x)/x within 14u per entry, and the same sums)."""
    return np.finfo(float).eps * (27.02 / _NEAR_GAP + dim + 312)


def assert_probe_matches_direct_kernel(spec, initial, horizons):
    for horizon in horizons:
        probe = time_averaged_profile(spec, initial, horizon).p_avg
        direct = direct_profile(spec, initial, horizon).p_avg
        assert np.abs(probe - direct).max() <= probe_bound(spec.dim), horizon


def hadamard_blocks(dim, rng):
    """An orthogonal matrix whose every column has entries of one magnitude
    with both signs: block-diagonal Sylvester-Hadamard blocks, one per
    binary digit of dim, with rows flipped and columns permuted at random."""
    blocks, size = [], 1
    while size <= dim:
        if dim & size:
            h = np.ones((1, 1))
            while len(h) < size:
                h = np.block([[h, h], [h, -h]])
            blocks.append(h / math.sqrt(size))
        size *= 2
    q = np.zeros((dim, dim))
    at = 0
    for block in blocks[::-1]:
        q[at : at + len(block), at : at + len(block)] = block
        at += len(block)
    return (q * rng.choice([-1.0, 1.0], size=(dim, 1)))[:, rng.permutation(dim)]


def assert_matches_reference(h):
    """eigendecompose equals the whole-matrix reference bit for bit, or both
    raise the same exception with the same message."""
    try:
        expected = reference_eigendecompose(h)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)) as info:
            eigendecompose(h)
        assert str(info.value) == str(exc)
        return
    found = eigendecompose(h)
    assert found.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert found.eigenvectors.tobytes() == expected.eigenvectors.tobytes()


def patch_eigh(monkeypatch, eigenvalues, vectors):
    """Make np.linalg.eigh return copies of the given decomposition."""
    monkeypatch.setattr(
        np.linalg, "eigh", lambda m: (np.array(eigenvalues), np.array(vectors))
    )


def assert_search_matches_oracle(spec, initial, **kwargs):
    """find_stable_T gives the exhaustive search's horizon and profile bytes,
    or both raise StableHorizonError."""
    try:
        expected = exhaustive_find_stable_T(spec, initial, **kwargs)
    except StableHorizonError:
        with pytest.raises(StableHorizonError):
            find_stable_T(spec, initial, **kwargs)
        return
    found = find_stable_T(spec, initial, **kwargs)
    assert found.horizon == expected.horizon
    assert found.p_avg.tobytes() == expected.p_avg.tobytes()


def assert_screens_within_bound(spec, initial, t_cap=1e9):
    """Every batched ladder screen is within its own bound of the direct,
    one-horizon-at-a-time return probability."""
    ladder = list(dynamics._ladder_screens(spec, initial, 10.0, 2.0, t_cap))
    assert ladder[-1][0] > t_cap >= ladder[-2][0]
    for horizon, screen, bound in ladder:
        assert abs(screen - direct_return_probability(spec, initial, horizon)) <= bound


def nan_screens(monkeypatch, entries=None):
    """Make the ladder screens NaN at the ladder indices in `entries`, or
    everywhere when it is None."""
    screens = dynamics._ladder_screens

    def patched(*args):
        for k, (horizon, screen, bound) in enumerate(screens(*args)):
            yield horizon, math.nan if entries is None or k in entries else screen, bound

    monkeypatch.setattr(dynamics, "_ladder_screens", patched)


def count_full_probes(monkeypatch):
    """Record the horizon of every time_averaged_profile call made through
    the module global, as find_stable_T makes them."""
    horizons = []
    probe = dynamics.time_averaged_profile

    def counted(spec, initial, horizon):
        horizons.append(horizon)
        return probe(spec, initial, horizon)

    monkeypatch.setattr(dynamics, "time_averaged_profile", counted)
    return horizons


class TestEigendecompose:
    def test_diagonal_matrix(self):
        spec = eigendecompose(np.diag([3.0, -1.0, 2.0]))
        assert spec.eigenvalues.tolist() == [-1.0, 2.0, 3.0]
        # permutation columns with the sign convention applied
        assert np.allclose(np.abs(spec.eigenvectors).sum(axis=0), 1.0)
        assert spec.eigenvectors.max() == 1.0

    def test_two_level_mixer(self):
        beta = 0.7
        spec = eigendecompose(np.array([[0.0, beta], [beta, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-beta, beta])
        assert np.allclose(np.abs(spec.eigenvectors), 1 / math.sqrt(2))
        assert (spec.eigenvectors[0] > 0).all()

    def test_random_symmetric_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(64, 64))
        h = (a + a.T) / 2
        spec = eigendecompose(h)
        scale = np.abs(h).max()
        assert np.abs(h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max() <= 1e-10 * scale
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(64)).max() <= 1e-10
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert np.abs(rebuilt - h).max() <= 1e-9 * scale
        assert (np.diff(spec.eigenvalues) >= 0).all()

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_failed_checks_raise(self, monkeypatch):
        h = np.diag([1.0, 2.0, 3.0])
        eigh = np.linalg.eigh
        for shift, scale in ((1e-6, 1.0), (0.0, 1.0 + 1e-6)):
            monkeypatch.setattr(
                np.linalg, "eigh", lambda m, s=shift, c=scale: (eigh(m)[0] + s, eigh(m)[1] * c)
            )
            with pytest.raises(RuntimeError, match="decomposition failed checks"):
                eigendecompose(h)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 300),
        kind=st.sampled_from(["normal", "integer", "sparse"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=256, kind="normal", seed=1)
    @example(dim=257, kind="integer", seed=2)
    @example(dim=300, kind="sparse", seed=3)
    def test_bitwise_equal_to_whole_matrix_reference(self, dim, kind, seed):
        # integer and sparse entries give degenerate spectra; equal-magnitude
        # column maxima are forced in the next test
        rng = np.random.default_rng(seed)
        if kind == "normal":
            a = rng.normal(size=(dim, dim))
        elif kind == "integer":
            a = rng.integers(-2, 3, size=(dim, dim)).astype(float)
        else:
            a = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0], size=(dim, dim))
        assert_matches_reference((a + a.T) / 2)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(dim=256, seed=0)
    @example(dim=257, seed=0)
    @example(dim=300, seed=0)
    def test_sign_anchor_takes_first_of_equal_magnitude_entries(self, dim, seed):
        # every column of size > 1 holds +m and -m: argmax's first occurrence decides
        rng = np.random.default_rng(seed)
        q = hadamard_blocks(dim, rng)
        eigenvalues = np.sort(rng.normal(size=dim))
        h = (q * eigenvalues) @ q.T
        h = (h + h.T) / 2
        with pytest.MonkeyPatch.context() as monkeypatch:
            patch_eigh(monkeypatch, eigenvalues, q)
            assert_matches_reference(h)
            anchored = eigendecompose(h).eigenvectors
        first = np.argmax(np.abs(anchored), axis=0)
        assert (anchored[first, np.arange(dim)] > 0).all()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dim", [3, 300])
    def test_non_finite_entries_raise_before_symmetry(self, value, dim):
        h = np.zeros((dim, dim))
        h[dim - 1, dim - 2] = value  # also an asymmetric entry
        with pytest.raises(RuntimeError, match="matrix has non-finite entries"):
            eigendecompose(h)
        assert_matches_reference(h)

    @pytest.mark.parametrize("row, col", [(290, 299), (299, 290), (10, 290), (290, 10)])
    def test_asymmetry_in_any_tile_raises(self, row, col):
        # dim 300: the tile pair (1, 1) is the last, partial one
        rng = np.random.default_rng(37)
        a = rng.normal(size=(300, 300))
        h = a + a.T
        scale = np.abs(h).max()
        h[row, col] += 2e-10 * scale
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose(h)
        assert_matches_reference(h)
        h[row, col] -= 1.5e-10 * scale  # within tol * scale again
        eigendecompose(h)
        assert_matches_reference(h)

    @pytest.mark.parametrize("where", ["eigenvalues", "vectors", "vectors_inf"])
    def test_non_finite_eigensolver_output_raises(self, monkeypatch, where):
        h = np.diag(np.arange(300.0))
        eigenvalues, vectors = np.arange(300.0), np.eye(300)
        if where == "eigenvalues":
            eigenvalues[299] = math.nan
        else:
            vectors[299, 299] = math.nan if where == "vectors" else -math.inf
        patch_eigh(monkeypatch, eigenvalues, vectors)
        with pytest.raises(RuntimeError, match="eigensolver returned non-finite values"):
            eigendecompose(h)
        assert_matches_reference(h)

    @pytest.mark.parametrize("column", [0, 299])
    @pytest.mark.parametrize("shift, scale", [(1e-6, 1.0), (0.0, 1.0 + 1e-6)])
    def test_failed_checks_raise_in_every_block(self, monkeypatch, column, shift, scale):
        # a shifted eigenvalue fails the residual, a scaled vector both
        # checks; column 299 sits in the last, partial block
        rng = np.random.default_rng(41)
        a = rng.normal(size=(300, 300))
        h = (a + a.T) / 2
        eigenvalues, vectors = np.linalg.eigh(h)
        eigenvalues[column] += shift
        vectors[:, column] *= scale
        patch_eigh(monkeypatch, eigenvalues, vectors)
        with pytest.raises(RuntimeError, match="decomposition failed checks"):
            eigendecompose(h)
        assert_matches_reference(h)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_residual_is_nan_and_raises(self, monkeypatch):
        # h V overflows to inf and V diag(e) too: their difference is NaN
        h = np.diag([1e300, 1e300])
        patch_eigh(monkeypatch, [1e300, 1e300], [[1e10, 0.0], [0.0, 1e10]])
        with pytest.raises(RuntimeError, match="residual nan"):
            eigendecompose(h)
        assert_matches_reference(h)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(16, 16))
        h = a + a.T
        first = eigendecompose(h)
        second = eigendecompose(h)
        assert (first.eigenvectors == second.eigenvectors).all()


class TestTransitionProbability:
    def test_zero_time_is_identity(self):
        _, spec = fig2_spec()
        for i in range(8):
            for f in range(8):
                expected = 1.0 if i == f else 0.0
                assert transition_probability(spec, i, f, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_unitarity_at_random_times(self):
        _, spec = fig2_spec()
        rng = np.random.default_rng(11)
        for t in rng.uniform(0, 50, 10):
            total = sum(transition_probability(spec, 2, f, float(t)) for f in range(8))
            assert abs(total - 1.0) <= 1e-12

    def test_matches_matrix_exponential_oracle(self):
        sym, spec = fig2_spec()
        h = sym.evaluate(FIG2_COUPLINGS)
        rng = np.random.default_rng(13)
        for t in rng.uniform(0.0, 20.0, 6):
            u = expm_unitary(h, float(t))
            for i, f in [(3, 0), (3, 1), (0, 7), (5, 5), (2, 6)]:
                assert transition_probability(spec, i, f, float(t)) == pytest.approx(
                    abs(u[f, i]) ** 2, abs=1e-8
                )

    def test_rejects_negative_time(self):
        _, spec = fig2_spec()
        with pytest.raises(ValueError):
            transition_probability(spec, 0, 1, -1.0)


class TestTimeAveragedProfile:
    def test_short_horizon_is_delta_row(self):
        _, spec = fig2_spec()
        profile = time_averaged_profile(spec, 3, 1e-9)
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.abs(profile.p_avg - expected).max() <= 1e-12

    def test_matches_quadrature_oracle(self):
        sym, spec = fig2_spec()
        for horizon in (5.0, 40.0):
            closed = time_averaged_profile(spec, 3, horizon).p_avg
            quad = trapezoid_profile(spec.eigenvalues, spec.eigenvectors, 3, horizon)
            assert np.abs(closed - quad).max() <= 1e-6

    def test_random_couplings_match_quadrature(self):
        rng = np.random.default_rng(17)
        sym = build_model(4)
        values = CouplingValues(1.0, *rng.uniform(0, 1, 4))
        spec = eigendecompose(sym.evaluate(values))
        initial = int(rng.integers(0, 16))
        closed = time_averaged_profile(spec, initial, 9.0).p_avg
        quad = trapezoid_profile(spec.eigenvalues, spec.eigenvectors, initial, 9.0)
        assert np.abs(closed - quad).max() <= 1e-6

    def test_normalization_any_horizon(self):
        _, spec = fig2_spec()
        for horizon in (0.3, 7.0, 1234.5):
            assert abs(time_averaged_profile(spec, 1, horizon).p_avg.sum() - 1.0) <= 1e-8

    def test_average_is_symmetric_in_states(self):
        _, spec = fig2_spec()
        for i in range(8):
            pi = time_averaged_profile(spec, i, 61.8).p_avg
            for f in range(i + 1, 8):
                pf = time_averaged_profile(spec, f, 61.8).p_avg
                assert abs(pi[f] - pf[i]) <= 1e-12

    def test_entries_within_unit_interval(self):
        _, spec = fig2_spec()
        profile = time_averaged_profile(spec, 0, 500.0)
        assert profile.p_avg.min() >= 0.0
        assert profile.p_avg.max() <= 1.0

    def test_partial_last_block_matches_unblocked_reference(self):
        rng = np.random.default_rng(29)
        dim = 300
        assert dim > _KERNEL_BLOCK and dim % _KERNEL_BLOCK != 0
        a = rng.normal(size=(dim, dim))
        spec = eigendecompose((a + a.T) / 2)
        for initial, horizon in ((0, 3.0), (123, 40.0), (dim - 1, 1e4)):
            blocked = time_averaged_profile(spec, initial, horizon).p_avg
            reference = unblocked_profile(spec.eigenvalues, spec.eigenvectors, initial, horizon)
            assert np.abs(blocked - reference).max() <= 1e-12

    def test_gaps_on_both_sides_of_series_branch(self):
        # at T = 100 the 1e-7 gap gives |x| = 1e-5 (series branch); the
        # others give |x| >= 50, all inside one block
        eigenvalues = np.array([0.0, 1e-7, 0.5, 1.0])
        q, _ = np.linalg.qr(np.random.default_rng(31).normal(size=(4, 4)))
        spec = SpectralDecomposition(eigenvalues, q)
        for initial in range(4):
            closed = time_averaged_profile(spec, initial, 100.0).p_avg
            quad = trapezoid_profile(eigenvalues, q, initial, 100.0)
            assert np.abs(closed - quad).max() <= 1e-6

    def test_rejects_nonpositive_horizon(self):
        _, spec = fig2_spec()
        with pytest.raises(ValueError):
            time_averaged_profile(spec, 0, 0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, horizon):
        _, spec = fig2_spec()
        with pytest.raises(ValueError, match="positive and finite"):
            time_averaged_profile(spec, 0, horizon)

    HORIZONS = (1e-3, 0.7, 10.0, 320.0, 5120.0, 81920.0, 1e6, 1e8)

    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_figure_presets_match_direct_kernel(self, name):
        spec, _ = preset_spec(name)
        for initial in range(spec.dim):
            assert_probe_matches_direct_kernel(spec, initial, self.HORIZONS)

    @pytest.mark.parametrize(
        "n, words", [(8, ("RYRYRYRY", "RRRYYRYY", "YYYYYYYY")), (10, ("RRYYRYRYYR",))]
    )
    def test_model_words_match_direct_kernel(self, n, words):
        sym = build_model(n)
        spec = eigendecompose(
            sym.evaluate(CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5))
        )
        for word in words:
            assert_probe_matches_direct_kernel(
                spec, sym.basis.index_of_word(word), (10.0, 320.0, 40960.0, 1e8)
            )

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(2, 300),
        ratios=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=20),
        offset=st.floats(-1e3, 1e3),
        log_horizon=st.floats(-3.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=300, ratios=[0.999, 1.0, 1.001], offset=0.0, log_horizon=8.0, seed=0)
    def test_random_spectra_match_direct_kernel(self, dim, ratios, offset, log_horizon, seed):
        # eigenvalues spread over [-1, 1], so max|e - mean| is a little over
        # 1, with pairs `ratios` times _NEAR_GAP apart: on both sides of the
        # near-pair threshold _NEAR_GAP * max|e - mean|
        rng = np.random.default_rng(seed)
        eigenvalues = rng.uniform(-1.0, 1.0, dim)
        eigenvalues[0], eigenvalues[-1] = -1.0, 1.0
        for at, ratio in zip(range(1, dim - 1, 2), ratios):
            eigenvalues[at + 1] = eigenvalues[at] + ratio * _NEAR_GAP
        eigenvalues = np.sort(eigenvalues + offset)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        spec = SpectralDecomposition(eigenvalues, q)
        initial = int(rng.integers(0, dim))
        assert_probe_matches_direct_kernel(spec, initial, (10.0**log_horizon,))


class TestInfiniteTimeAverage:
    def test_zero_hamiltonian_freezes(self):
        spec = eigendecompose(np.zeros((4, 4)))
        profile = infinite_time_average(spec, 2)
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(profile.p_avg, expected)
        assert profile.horizon == math.inf

    def test_nondegenerate_spectrum_keeps_diagonal_terms(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(12, 12))
        spec = eigendecompose(a + a.T)
        gaps = np.diff(spec.eigenvalues)
        assert gaps.min() > 1e-6  # generic draw: spectrum is simple
        manual = ((spec.eigenvectors * spec.eigenvectors[4]) ** 2).sum(axis=1)
        assert np.abs(infinite_time_average(spec, 4).p_avg - manual).max() <= 1e-12

    def test_matches_long_horizon_closed_form(self):
        _, spec = fig2_spec()
        limit = infinite_time_average(spec, 3)
        long_avg = time_averaged_profile(spec, 3, 1e6)
        assert np.abs(limit.p_avg - long_avg.p_avg).max() <= 1e-4

    def test_degenerate_cluster_keeps_cross_terms(self):
        sym = build_hamming(3)
        spec = eigendecompose(sym.evaluate(CouplingValues(mu0=0.0, beta=0.5)))
        limit = infinite_time_average(spec, 0)
        long_avg = time_averaged_profile(spec, 0, 1e7)
        assert np.abs(limit.p_avg - long_avg.p_avg).max() <= 1e-4


class TestFindStableT:
    def test_diagonal_returns_start(self):
        spec = eigendecompose(np.diag([1.0, -1.0, 3.0]))
        assert find_stable_T(spec, 1).horizon == 10.0

    def test_profile_near_infinite_limit(self):
        _, spec = fig2_spec()
        profile = find_stable_T(spec, 3)
        limit = infinite_time_average(spec, 3)
        assert np.abs(profile.p_avg - limit.p_avg).max() <= 1e-2

    def test_returns_profile_at_resolved_horizon(self):
        _, spec = fig2_spec()
        profile = find_stable_T(spec, 3)
        again = time_averaged_profile(spec, 3, profile.horizon)
        assert profile.initial == 3
        assert (profile.p_avg == again.p_avg).all()

    def test_loosening_tolerance_never_lengthens(self):
        _, spec = fig2_spec()
        tight = find_stable_T(spec, 3, rel_tol=1e-3)
        loose = find_stable_T(spec, 3, rel_tol=2e-3)
        assert loose.horizon <= tight.horizon

    def test_cap_exceeded_raises(self):
        _, spec = fig2_spec()
        with pytest.raises(StableHorizonError):
            find_stable_T(spec, 3, rel_tol=1e-15, t_cap=100.0)

    def test_cap_error_names_last_pair(self):
        _, spec = fig2_spec()
        with pytest.raises(StableHorizonError) as info:
            find_stable_T(spec, 3, t_cap=1000.0)
        message = str(info.value)
        assert message.startswith("no stable horizon below 1000")
        assert "last pair T=640 vs 1280 differs by" in message
        assert "(initial-row screen, a lower bound)" in message

    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_figure_presets_match_exhaustive_search(self, name):
        spec, initial = preset_spec(name)
        assert_screens_within_bound(spec, initial)
        assert_search_matches_oracle(spec, initial)

    def test_cap_raises_like_exhaustive_search(self):
        _, spec = fig2_spec()
        with pytest.raises(StableHorizonError):
            exhaustive_find_stable_T(spec, 3, t_cap=1000.0)
        assert_search_matches_oracle(spec, 3, t_cap=1000.0)

    @pytest.mark.parametrize(
        "n, words", [(8, ("RYRYRYRY", "RRRYYRYY", "YYYYYYYY")), (10, ("RRYYRYRYYR",))]
    )
    def test_model_words_match_exhaustive_search(self, n, words):
        sym = build_model(n)
        spec = eigendecompose(
            sym.evaluate(CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5))
        )
        for word in words:
            assert_screens_within_bound(spec, sym.basis.index_of_word(word))
            assert_search_matches_oracle(spec, sym.basis.index_of_word(word))

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        integer_entries=st.booleans(),
        growth=st.sampled_from([1.5, 2.0, 3.0]),
        rel_tol=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-5]),
        t_cap=st.sampled_from([20.0, 1e3, 1e9]),
    )
    def test_random_matrices_match_exhaustive_search(
        self, dim, seed, integer_entries, growth, rel_tol, t_cap
    ):
        # integer entries give (near-)degenerate spectra and long searches
        rng = np.random.default_rng(seed)
        a = rng.integers(-2, 3, size=(dim, dim)) if integer_entries else rng.normal(size=(dim, dim))
        spec = eigendecompose((a + a.T) / 2)
        initial = int(rng.integers(0, dim))
        assert_search_matches_oracle(spec, initial, rel_tol=rel_tol, growth=growth, t_cap=t_cap)

    def test_only_the_passing_pair_gets_full_probes(self, monkeypatch):
        # fig3's initial row alone rules out every pair before (5120, 10240)
        spec, initial = preset_spec("fig3")
        horizons = count_full_probes(monkeypatch)
        profile = find_stable_T(spec, initial)
        assert horizons == [5120.0, 10240.0]
        assert profile.horizon == 5120.0

    def test_nan_screen_falls_back_to_full_probes(self, monkeypatch):
        _, spec = fig2_spec()
        expected = exhaustive_find_stable_T(spec, 3)
        nan_screens(monkeypatch)
        horizons = count_full_probes(monkeypatch)
        profile = find_stable_T(spec, 3)
        assert profile.horizon == expected.horizon
        assert profile.p_avg.tobytes() == expected.p_avg.tobytes()
        ladder = [10.0]
        while ladder[-1] < 2 * expected.horizon:
            ladder.append(ladder[-1] * 2.0)
        assert horizons == ladder
        with pytest.raises(StableHorizonError, match=r"differs by .* \(full max norm\)"):
            find_stable_T(spec, 3, t_cap=1000.0)

    def test_one_nan_screen_sends_its_two_pairs_to_full_probes(self, monkeypatch):
        # fig3's screens rule out every pair before (5120, 10240); a NaN at
        # ladder entry 3 (T = 80) leaves (40, 80) and (80, 160) unscreened
        spec, initial = preset_spec("fig3")
        expected = exhaustive_find_stable_T(spec, initial)
        nan_screens(monkeypatch, entries={3})
        horizons = count_full_probes(monkeypatch)
        profile = find_stable_T(spec, initial)
        assert profile.horizon == expected.horizon == 5120.0
        assert profile.p_avg.tobytes() == expected.p_avg.tobytes()
        assert horizons == [40.0, 80.0, 160.0, 5120.0, 10240.0]

    @settings(max_examples=120, deadline=None)
    @given(
        dim=st.integers(2, 64),
        clusters=st.integers(1, 5),
        split=st.sampled_from([1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12]),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        t_cap=st.sampled_from([1e3, 1e9]),
    )
    def test_clustered_spectra_match_exhaustive_search(
        self, dim, clusters, split, offset, seed, t_cap
    ):
        # clusters of eigenvalues a few `split`s apart (exact ties included)
        # around centers O(1) apart, all moved by a common offset
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-2.0, 2.0, clusters)
        eigenvalues = np.sort(
            offset + centers[rng.integers(0, clusters, dim)] + split * rng.integers(-2, 3, dim)
        )
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        spec = SpectralDecomposition(eigenvalues, q)
        initial = int(rng.integers(0, dim))
        assert_screens_within_bound(spec, initial, t_cap=t_cap)
        assert_search_matches_oracle(spec, initial, t_cap=t_cap)

    def test_overlong_ladder_raises_at_once(self):
        _, spec = fig2_spec()
        started = time.perf_counter()
        with pytest.raises(ValueError, match="more than 256 horizons"):
            find_stable_T(spec, 3, rel_tol=1e-15, growth=1 + 1e-9)
        assert time.perf_counter() - started < 1.0

    def test_ladder_holds_at_most_256_horizons(self):
        ladder = dynamics._ladder(1.0, 2.0, 2.0**254)
        assert len(ladder) == 256 and ladder[-1] == 2.0**255
        with pytest.raises(ValueError):
            dynamics._ladder(1.0, 2.0, 2.0**255)

    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_fine_ladder_matches_exhaustive_search(self, name):
        # growth 1.1 gives 195 horizons below the default cap, in one pass
        spec, initial = preset_spec(name)
        assert len(dynamics._ladder(10.0, 1.1, 1e9)) == 195
        assert_search_matches_oracle(spec, initial, growth=1.1)

    def test_parameter_validation(self):
        _, spec = fig2_spec()
        with pytest.raises(ValueError):
            find_stable_T(spec, 0, rel_tol=0.0)
        with pytest.raises(ValueError):
            find_stable_T(spec, 0, growth=1.0)
        with pytest.raises(ValueError):
            find_stable_T(spec, 0, t_start=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rel_tol", math.nan),
            ("growth", math.nan),
            ("t_start", math.nan),
            ("t_cap", math.nan),
            ("t_cap", math.inf),
        ],
    )
    def test_rejects_nan_parameters_and_infinite_cap(self, name, value):
        _, spec = fig2_spec()
        with pytest.raises(ValueError, match=name):
            find_stable_T(spec, 0, **{name: value})
