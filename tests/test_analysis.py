import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalchain import (
    CouplingValues,
    FitError,
    TransitionProfile,
    UnderdeterminedFitError,
    build_hamming,
    build_model,
    compare_models,
    eigendecompose,
    find_stable_T,
    fit_log_linear,
    fit_refine,
    infinite_time_average,
    plateaux_report,
    rank_order,
    time_averaged_profile,
)
from crystalchain.cli import FIGURE_PRESETS, run
from oracles import (
    loop_plateaux_report,
    ranked_from_values,
    reference_fit_refine,
    site_product_average,
    sorted_ranking,
)


def yule_values(a, k, b, count):
    ranks = np.arange(1, count + 1, dtype=float)
    return a * ranks**k * b**ranks


class TestRankOrder:
    def test_delta_row_without_self(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(mu0=1.0))
        profile = time_averaged_profile(spec, 3, 5.0)
        ranked = rank_order(profile, include_self=False)
        assert all(v == 0.0 for v in ranked.values.tolist())
        assert list(ranked.indices) == [0, 1, 2, 4, 5, 6, 7]  # ties broken by index

    def test_delta_row_with_self(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(mu0=1.0))
        ranked = rank_order(time_averaged_profile(spec, 3, 5.0), include_self=True)
        assert ranked.indices[0] == 3
        assert ranked.values[0] == pytest.approx(1.0)

    def test_sorting_is_permutation(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(1.0, 0.1, 0.3, 0.3))
        profile = time_averaged_profile(spec, 3, 77.0)
        ranked = rank_order(profile, include_self=True)
        assert sorted(ranked.values.tolist()) == sorted(profile.p_avg.tolist())
        assert ranked.ranks.tolist() == list(range(1, 9))
        values = ranked.values
        assert (values[:-1] >= values[1:]).all()

    @staticmethod
    def assert_matches_sort_oracle(profile):
        for include_self in (False, True):
            ranked = rank_order(profile, include_self=include_self)
            indices, values = sorted_ranking(profile, include_self)
            assert ranked.indices.dtype == np.int64
            assert ranked.indices.tolist() == indices.tolist()
            assert ranked.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("figure", sorted(FIGURE_PRESETS))
    def test_figures_match_sort_oracle(self, figure):
        preset = FIGURE_PRESETS[figure]
        sym = build_model(preset.n) if preset.model == "crystal" else build_hamming(preset.n)
        spec = eigendecompose(sym, preset.couplings)
        initial = sym.basis.index_of_word(preset.initial)
        self.assert_matches_sort_oracle(find_stable_T(spec, initial))
        self.assert_matches_sort_oracle(infinite_time_average(spec, initial))

    def test_delta_row_matches_sort_oracle(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(mu0=1.0))
        self.assert_matches_sort_oracle(time_averaged_profile(spec, 3, 5.0))

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.125, 0.25, 1 / 3, 0.5]), min_size=1, max_size=40
        ),
        data=st.data(),
    )
    def test_repeated_values_match_sort_oracle(self, values, data):
        # exact ties, -0.0 against 0.0 included, must keep basis-index order
        initial = data.draw(st.integers(0, len(values) - 1))
        self.assert_matches_sort_oracle(TransitionProfile(initial, 1.0, np.array(values)))


class TestFitLogLinear:
    def test_recovers_exact_parameters(self):
        ranked = ranked_from_values(yule_values(1.96, -1.49, 0.24, 8))
        fit = fit_log_linear(ranked, "yule")
        assert abs(fit.a - 1.96) <= 1e-6
        assert abs(fit.k + 1.49) <= 1e-6
        assert abs(fit.b - 0.24) <= 1e-6
        assert fit.sse_log <= 1e-18

    def test_constant_data_is_flat(self):
        fit = fit_log_linear(ranked_from_values([0.125] * 8), "yule")
        assert fit.a == pytest.approx(0.125, abs=1e-12)
        assert abs(fit.k) <= 1e-9
        assert abs(fit.b - 1.0) <= 1e-9
        assert fit.r2 == 1.0

    def test_pure_power_law_keeps_unit_base(self):
        ranked = ranked_from_values(yule_values(0.7, -1.2, 1.0, 12))
        fit = fit_log_linear(ranked, "yule")
        assert abs(fit.b - 1.0) <= 1e-9

    def test_scale_equivariance(self):
        base = yule_values(0.9, -0.8, 0.6, 10) * (1 + 0.02 * np.sin(np.arange(10)))
        plain = fit_log_linear(ranked_from_values(base), "yule")
        scaled = fit_log_linear(ranked_from_values(7.5 * base), "yule")
        assert scaled.a == pytest.approx(7.5 * plain.a, rel=1e-9)
        assert scaled.k == pytest.approx(plain.k, abs=1e-9)
        assert scaled.b == pytest.approx(plain.b, abs=1e-9)

    def test_zipf_nested_in_yule(self):
        rng = np.random.default_rng(31)
        values = yule_values(1.2, -1.0, 0.7, 15) * np.exp(rng.normal(0, 0.1, 15))
        ranked = ranked_from_values(values)
        yule = fit_log_linear(ranked, "yule")
        zipf = fit_log_linear(ranked, "zipf")
        assert zipf.sse_log >= yule.sse_log
        assert zipf.b == 1.0

    def test_zero_values_excluded_and_counted(self):
        values = list(yule_values(1.0, -1.0, 0.5, 6)) + [0.0, 0.0]
        fit = fit_log_linear(ranked_from_values(values), "yule")
        assert fit.points_used == 6
        assert fit.points_excluded == 2

    def test_underdetermined_raises(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_log_linear(ranked_from_values([1.0, 0.5, 0.25]), "yule")
        with pytest.raises(UnderdeterminedFitError):
            fit_log_linear(ranked_from_values([1.0, 0.5]), "zipf")

    def test_non_finite_residuals_raise(self):
        ranked = ranked_from_values(1e300 * 0.5 ** np.arange(8))
        with pytest.raises(FitError, match="not finite"):
            fit_log_linear(ranked, "yule")
        assert issubclass(UnderdeterminedFitError, FitError)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_log_linear(ranked_from_values([1.0, 0.5, 0.25, 0.1]), "pareto")


class TestFitRefine:
    def test_exact_data_is_fixed_point(self):
        ranked = ranked_from_values(yule_values(1.96, -1.49, 0.24, 8))
        seed = fit_log_linear(ranked, "yule")
        refined = fit_refine(ranked, seed)
        assert abs(refined.a - seed.a) <= 1e-9
        assert abs(refined.k - seed.k) <= 1e-9
        assert abs(refined.b - seed.b) <= 1e-9
        assert not refined.diverged

    def test_never_worse_than_seed_on_noisy_data(self):
        rng = np.random.default_rng(37)
        values = yule_values(1.5, -1.1, 0.55, 12) * (1 + rng.normal(0, 0.05, 12))
        ranked = ranked_from_values(values)
        seed = fit_log_linear(ranked, "yule")
        refined = fit_refine(ranked, seed)
        assert refined.sse_linear <= seed.sse_linear
        assert refined.fit_space == "linear"

    def test_zipf_refinement_keeps_unit_base(self):
        rng = np.random.default_rng(41)
        values = yule_values(1.5, -1.3, 1.0, 10) * (1 + rng.normal(0, 0.05, 10))
        ranked = ranked_from_values(values)
        refined = fit_refine(ranked, fit_log_linear(ranked, "zipf"))
        assert refined.b == 1.0
        assert refined.model == "zipf"

    def test_four_site_profile_refines_to_finite_parameters(self):
        sym = build_model(4)
        spec = eigendecompose(sym, CouplingValues(1.0, 0.1, 0.5, 0.5, 0.5))
        profile = infinite_time_average(spec, sym.basis.index_of_word("YYRY"))
        ranked = rank_order(profile, include_self=False)
        seed = fit_log_linear(ranked, "yule")
        refined = fit_refine(ranked, seed)
        assert math.isfinite(refined.a) and math.isfinite(refined.k) and math.isfinite(refined.b)
        assert refined.a > 0 and refined.b > 0
        assert refined.sse_linear <= seed.sse_linear

    @staticmethod
    def assert_matches_reference_loop(ranked):
        for model in ("yule", "zipf"):
            seed = fit_log_linear(ranked, model)
            got, want = fit_refine(ranked, seed), reference_fit_refine(ranked, seed)
            assert got.to_json_dict() == want.to_json_dict()
            assert got.diverged == want.diverged

    @pytest.mark.parametrize("figure", sorted(FIGURE_PRESETS))
    def test_figures_match_reference_loop(self, figure):
        self.assert_matches_reference_loop(run(FIGURE_PRESETS[figure]).ranked)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.05, 20.0),
        k=st.floats(-3.0, 1.0),
        b=st.floats(0.3, 1.2),
        count=st.integers(5, 40),
        noise=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_yule_matches_reference_loop(self, a, k, b, count, noise, seed):
        rng = np.random.default_rng(seed)
        values = yule_values(a, k, b, count) * (1 + rng.normal(0, noise, count))
        self.assert_matches_reference_loop(ranked_from_values(np.abs(values)))


class TestPlateauxReport:
    def test_factorized_baseline_has_exact_plateaux(self):
        for n in (3, 5):
            sym = build_hamming(n)
            spec = eigendecompose(sym, CouplingValues(mu0=0.0, beta=0.5))
            initial = sym.basis.index_of_word("R" * n)
            ranked = rank_order(time_averaged_profile(spec, initial, 21.0), include_self=False)
            report = plateaux_report(ranked, sym.basis, initial)
            assert report.is_exact()
            assert max(g.spread for g in report.groups) <= 1e-9
            for group in report.groups:
                if group.distance > 0:
                    assert group.size == math.comb(n, group.distance)

    def test_factorized_baseline_matches_site_oracle(self):
        n, horizon = 4, 13.0
        sym = build_hamming(n)
        spec = eigendecompose(sym, CouplingValues(mu0=0.0, beta=0.5))
        initial = sym.basis.index_of_word("RYRY")
        ranked = rank_order(time_averaged_profile(spec, initial, horizon), include_self=False)
        report = plateaux_report(ranked, sym.basis, initial)
        for group in report.groups:
            if group.distance > 0:
                oracle = site_product_average(n, group.distance, 0.0, 0.5, horizon)
                assert abs(group.mean - oracle) <= 1e-6

    def test_model_profile_is_not_plateaued(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(1.0, 0.1, 0.3, 0.3))
        initial = sym.basis.index_of_word("RRY")
        ranked = rank_order(infinite_time_average(spec, initial), include_self=False)
        report = plateaux_report(ranked, sym.basis, initial)
        assert not report.is_exact()
        assert max(g.spread for g in report.groups) > 1e-3
        assert not report.consistent

    def test_two_site_group_sizes(self):
        sym = build_model(2)
        spec = eigendecompose(sym, CouplingValues(1.0, 0.2, 0.0, 0.3))
        initial = sym.basis.index_of_word("RR")
        ranked = rank_order(time_averaged_profile(spec, initial, 30.0), include_self=True)
        report = plateaux_report(ranked, sym.basis, initial)
        assert [g.size for g in report.groups] == [1, 2, 1]

    def test_group_sizes_sum_to_dimension(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(1.0, 0.1, 0.3, 0.3))
        ranked = rank_order(time_averaged_profile(spec, 0, 10.0), include_self=False)
        report = plateaux_report(ranked, sym.basis, 0)
        assert sum(g.size for g in report.groups) == 7
        assert report.groups[0].size == 0

    @pytest.mark.parametrize("model", ["crystal", "hamming"])
    def test_matches_loop_oracle(self, model):
        rng = np.random.default_rng(37)
        for n in range(3, 9):
            if model == "crystal":
                sym = build_model(n)
                values = CouplingValues(1.0, *rng.uniform(0.1, 1.0, 4))
            else:
                sym = build_hamming(n)
                values = CouplingValues(mu0=0.0 if n % 2 == 0 else 1.0, beta=0.5)
            spec = eigendecompose(sym, values)
            initial = int(rng.integers(0, sym.basis.dim))
            profile = time_averaged_profile(spec, initial, 17.0)
            for include_self in (False, True):
                ranked = rank_order(profile, include_self=include_self)
                report = plateaux_report(ranked, sym.basis, initial)
                oracle = loop_plateaux_report(ranked, sym.basis, initial)
                assert report == oracle
                assert report.is_exact() == oracle.is_exact()
                # grouped around a state that is not the profile's initial one
                other = (initial + 1) % sym.basis.dim
                assert plateaux_report(ranked, sym.basis, other) == loop_plateaux_report(
                    ranked, sym.basis, other
                )

    def test_index_outside_basis_rejected(self):
        sym = build_model(3)
        spec = eigendecompose(sym, CouplingValues(1.0, 0.1, 0.3, 0.3))
        ranked = rank_order(time_averaged_profile(spec, 0, 10.0))
        for initial in (-1, sym.basis.dim):
            with pytest.raises(ValueError, match=f"initial state {initial} is not a basis index"):
                plateaux_report(ranked, sym.basis, initial)


class TestCompareModels:
    def test_strong_geometric_decay_defeats_zipf(self):
        ranked = ranked_from_values(yule_values(1.96, -1.49, 0.24, 8))
        comparison = compare_models(ranked)
        assert comparison.sse_ratio > 1e3

    def test_exact_zipf_data_ties(self):
        ranked = ranked_from_values(yule_values(0.8, -1.1, 1.0, 10))
        comparison = compare_models(ranked)
        assert comparison.sse_ratio == pytest.approx(1.0, abs=1e-9)

    def test_fits_share_points(self):
        values = list(yule_values(1.0, -1.0, 0.5, 6)) + [0.0]
        comparison = compare_models(ranked_from_values(values))
        assert comparison.yule.points_used == comparison.zipf.points_used == 6
        assert comparison.yule.points_excluded == comparison.zipf.points_excluded == 1
