"""Acceptance suite: one test per acceptance check, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from crystalchain import (
    CouplingValues,
    allowed_transitions,
    build_hamming,
    build_model,
    compare_models,
    eigendecompose,
    enumerate_basis,
    find_stable_T,
    fit_log_linear,
    labels_from_word,
    plateaux_report,
    rank_order,
    ranked_from_values,
    time_averaged_profile,
    transition_probability,
    validate_labels,
    word_from_labels,
)
from crystalchain.cli import main
from golden import THREE_SITE_DUMP
from oracles import site_product_average, trapezoid_profile


@contextmanager
def report(index, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance {index}] {description}: FAIL")
        raise
    print(f"[acceptance {index}] {description}: PASS")


def stable_profile(sym, couplings, initial_word):
    spec = eigendecompose(sym.evaluate(couplings))
    initial = sym.basis.index_of_word(initial_word)
    profile = find_stable_T(spec, initial)
    return spec, initial, profile.horizon, profile


def test_1_three_site_matrix_is_exact(capsys):
    with report(1, "three-site symbolic matrix oracle"):
        started = time.perf_counter()
        assert main(["hamiltonian", "--n", "3", "--model", "crystal", "--symbolic"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == THREE_SITE_DUMP
        assert time.perf_counter() - started < 1.0


def test_2_allowed_transition_sets():
    with report(2, "allowed transitions from the two interior words"):
        sym = build_model(3)
        words = sym.basis.words

        def reachable(word):
            return {words[f].spins for f in allowed_transitions(sym, sym.basis.index_of_word(word))}

        assert reachable("RYR") == {"RRR", "YYR", "RYY"}
        assert reachable("RYY") == {"YRR", "YYY", "RRY", "RYR"}


def test_3_bijection_and_label_count():
    with report(3, "word/label bijection and admissible tuple count"):
        started = time.perf_counter()
        for n in range(2, 13):
            basis = enumerate_basis(n)
            assert len(basis) == 2**n
            for word, labels in basis:
                assert word_from_labels(labels) == word
                assert labels_from_word(word) == labels
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
            assert count == 2**n
        assert time.perf_counter() - started < 10.0


def test_4_unitarity_and_normalization():
    with report(4, "unitarity of evolution and averaged-profile normalization"):
        rng = np.random.default_rng(101)
        for n in (3, 8):
            sym = build_model(n)
            couplings = CouplingValues(1.0, *rng.uniform(0.0, 1.0, 4))
            spec = eigendecompose(sym.evaluate(couplings))
            initial = int(rng.integers(0, sym.dim))
            for t in rng.uniform(0.0, 40.0, 5):
                total = sum(
                    transition_probability(spec, initial, f, float(t)) for f in range(sym.dim)
                )
                assert abs(total - 1.0) <= 1e-10
            for horizon in (0.37, 12.3, 4096.0):
                profile = time_averaged_profile(spec, initial, horizon)
                assert abs(float(profile.p_avg.sum()) - 1.0) <= 1e-8


def test_5_closed_form_matches_quadrature():
    with report(5, "closed-form averages match 1e5-sample trapezoid quadrature"):
        rng = np.random.default_rng(202)
        for n, horizon in ((3, 20.0), (4, 11.0), (6, 7.3)):
            sym = build_model(n)
            couplings = CouplingValues(1.0, *rng.uniform(0.0, 1.0, 4))
            spec = eigendecompose(sym.evaluate(couplings))
            initial = int(rng.integers(0, sym.dim))
            closed = time_averaged_profile(spec, initial, horizon).p_avg
            quadrature = trapezoid_profile(
                spec.eigenvalues, spec.eigenvectors, initial, horizon, samples=100_000
            )
            assert float(np.abs(closed - quadrature).max()) <= 1e-6


def test_6_factorized_baseline_plateaux():
    with report(6, "exact plateaux of the distance-one baseline"):
        beta = 0.5
        horizon = 17.0
        for n in range(3, 7):
            sym = build_hamming(n)
            initial_word = ("RY" * n)[:n]
            initial = sym.basis.index_of_word(initial_word)
            # factorized case: no diagonal field
            spec = eigendecompose(sym.evaluate(CouplingValues(mu0=0.0, beta=beta)))
            ranked = rank_order(time_averaged_profile(spec, initial, horizon), include_self=False)
            rep = plateaux_report(ranked, sym.basis, initial_word)
            assert rep.max_spread() <= 1e-9
            for group in rep.groups:
                if group.distance > 0:
                    oracle = site_product_average(n, group.distance, 0.0, beta, horizon)
                    assert abs(group.mean - oracle) <= 1e-6
            # with the diagonal field on, grouping must still explain ranking
            spec = eigendecompose(sym.evaluate(CouplingValues(mu0=1.0, beta=beta)))
            ranked = rank_order(time_averaged_profile(spec, initial, horizon), include_self=False)
            assert plateaux_report(ranked, sym.basis, initial_word).consistent


FIGURE_RUNS = (
    ("fig2", 3, "RRY", CouplingValues(1.0, 0.1, 0.3, 0.3, 0.0)),
    ("fig3", 4, "YYRY", CouplingValues(1.0, 0.1, 0.5, 0.5, 0.5)),
    ("fig4", 6, "RYRYRY", CouplingValues(1.0, 0.1, 0.5, 0.5, 0.5)),
)


def test_7_figure_phenomenology():
    with report(7, "figure-level phenomenology of the preset runs"):
        started = time.perf_counter()
        failures = []
        ratios = {}
        for tag, n, initial_word, couplings in FIGURE_RUNS:
            sym = build_model(n)
            _, _, _, profile = stable_profile(sym, couplings, initial_word)
            ranked = rank_order(profile, include_self=False)
            values = ranked.values
            if int((values > 0).sum()) < 2**n - 2:
                failures.append(f"{tag}: fewer than {2**n - 2} strictly positive values")
            if not (values[:-1] >= values[1:]).all():
                failures.append(f"{tag}: ranked values not nonincreasing")
            if plateaux_report(ranked, sym.basis, initial_word).is_exact(1e-9):
                failures.append(f"{tag}: unexpected exact plateaux")
            yule = fit_log_linear(ranked, "yule")
            comparison = compare_models(ranked)
            ratios[tag] = comparison.sse_ratio
            if not yule.k < 0:
                failures.append(f"{tag}: yule k = {yule.k:+.3f}, expected k < 0")
            if not 0 < yule.b <= 1:
                failures.append(f"{tag}: yule b = {yule.b:.3f}, expected 0 < b <= 1")
            if not yule.r2 >= 0.9:
                failures.append(f"{tag}: yule r2 = {yule.r2:.4f}, expected >= 0.9")
        if not ratios["fig2"] > 2:
            failures.append(f"fig2: zipf/yule sse ratio {ratios['fig2']:.3f}, expected > 2")
        if not abs(ratios["fig4"] - 1) < abs(ratios["fig2"] - 1):
            failures.append(
                f"fig4 ratio {ratios['fig4']:.3f} not closer to 1 than fig2 ratio {ratios['fig2']:.3f}"
            )
        assert time.perf_counter() - started < 30.0
        assert not failures, "; ".join(failures)


def test_8_fit_recovery():
    with report(8, "synthetic rank-size data recovers its generating parameters"):
        ranks = np.arange(1, 9, dtype=float)
        values = 1.96 * ranks**-1.49 * 0.24**ranks
        fit = fit_log_linear(ranked_from_values(values), "yule")
        assert abs(fit.a - 1.96) <= 1e-6
        assert abs(fit.k - (-1.49)) <= 1e-6
        assert abs(fit.b - 0.24) <= 1e-6


def test_9_equal_couplings_still_yule():
    with report(9, "equal interaction couplings keep the non-plateaux rank-size shape"):
        for n, initial_word, value in ((3, "RRY", 0.3), (4, "YYRY", 0.5)):
            sym = build_model(n)
            couplings = CouplingValues(1.0, value, value, value, value)
            _, _, _, profile = stable_profile(sym, couplings, initial_word)
            ranked = rank_order(profile, include_self=False)
            assert not plateaux_report(ranked, sym.basis, initial_word).is_exact(1e-9)
            yule = fit_log_linear(ranked, "yule")
            assert yule.k < 0
            assert 0 < yule.b <= 1
            assert yule.r2 >= 0.9
