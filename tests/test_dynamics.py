import math

import numpy as np
import pytest

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
from crystalchain.dynamics import _KERNEL_BLOCK, SpectralDecomposition
from oracles import expm_unitary, trapezoid_profile, unblocked_profile

FIG2_COUPLINGS = CouplingValues(mu0=1.0, eps=0.1, gamma=0.3, delta=0.3)


def fig2_spec():
    sym = build_model(3)
    return sym, eigendecompose(sym.evaluate(FIG2_COUPLINGS))


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

    def test_parameter_validation(self):
        _, spec = fig2_spec()
        with pytest.raises(ValueError):
            find_stable_T(spec, 0, rel_tol=0.0)
        with pytest.raises(ValueError):
            find_stable_T(spec, 0, growth=1.0)
        with pytest.raises(ValueError):
            find_stable_T(spec, 0, t_start=0.0)
