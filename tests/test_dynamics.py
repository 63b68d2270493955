import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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
)
from crystalchain import dynamics
from crystalchain.cli import FIGURE_PRESETS
from crystalchain.dynamics import (
    _KERNEL_BLOCK,
    _NEAR_GAP,
    SpectralDecomposition,
    _residuals,
    _sector_layout,
    _sector_product,
)
from crystalchain.hamiltonian import SymbolicHamiltonian
from oracles import (
    dense_residuals,
    dense_row_bounds,
    direct_profile,
    direct_return_probability,
    exhaustive_find_stable_T,
    expm_unitary,
    reference_eigendecompose,
    transition_probability,
    trapezoid_profile,
    unblocked_profile,
)

FIG2_COUPLINGS = CouplingValues(mu0=1.0, eps=0.1, gamma=0.3, delta=0.3)
BASELINE = CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5)
# couplings for the reference comparison: signed zeros give degenerate
# spectra, the extremes dsyevd's scaling
COUPLINGS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def fig2_spec():
    sym = build_model(3)
    return sym, eigendecompose(sym, FIG2_COUPLINGS)


def preset_spec(name):
    """(spectrum, initial index) of a figure preset."""
    preset = FIGURE_PRESETS[name]
    sym = build_model(preset.n) if preset.model == "crystal" else build_hamming(preset.n)
    spec = eigendecompose(sym, preset.couplings)
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


@functools.cache
def built(build, n):
    return build(n)


def solver_paths():
    """Run a loop's body on both solver paths: in place through numpy's
    LAPACK, then with that handle forced to None, through the
    np.linalg.eigh fallback."""
    yield "in place"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_lapack", lambda: None)
        yield "fallback"


def failure(exc):
    """An exception's type and message, with a failed check's residual cut
    out: the sector products round it differently from a dense product."""
    return type(exc), re.sub(r"residual [^,]*,", "residual _,", str(exc))


def assert_matches_reference(sym, values):
    """On both solver paths, eigendecompose(sym, values) equals the
    whole-matrix reference on sym.evaluate(values) bit for bit, or both
    raise the same exception with the same message (`failure`)."""
    try:
        expected = reference_eigendecompose(sym.evaluate(values))
    except (ValueError, RuntimeError) as exc:
        for _ in solver_paths():
            with pytest.raises(type(exc)) as info:
                eigendecompose(sym, values)
            assert failure(info.value) == failure(exc)
        return
    for _ in solver_paths():
        found = eigendecompose(sym, values)
        assert found.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
        assert found.eigenvectors.tobytes() == expected.eigenvectors.tobytes()


def patch_solver(monkeypatch, eigenvalues, vectors):
    """Make the solver seam, dynamics._solve, return copies of the given
    decomposition once the real solve has run (and consumed its matrix) on
    the active path; np.linalg.eigh, which the reference calls, returns
    the same copies."""
    solve = dynamics._solve

    def patched(h, norm):
        solve(h, norm)
        return np.array(eigenvalues), np.array(vectors)

    monkeypatch.setattr(dynamics, "_solve", patched)
    monkeypatch.setattr(
        np.linalg, "eigh", lambda m: (np.array(eigenvalues), np.array(vectors))
    )


def record_bands(monkeypatch):
    """Record every delta `_gap_band` returns."""
    deltas = []
    band = dynamics._gap_band

    def recorded(*args):
        deltas.append(band(*args))
        return deltas[-1]

    monkeypatch.setattr(dynamics, "_gap_band", recorded)
    return deltas


def decade_gap_spec(seed):
    """Eigenvalues {0} and 10^-k for k = 0..9, with eigenvectors from the QR
    of a seeded normal draw: gaps down to 9e-10 keep the profile moving past
    the ladder's last horizon, so find_stable_T raises."""
    eigenvalues = np.sort(np.concatenate(([0.0], 10.0 ** -np.arange(10))))
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(11, 11)))
    return SpectralDecomposition(eigenvalues, q)


def assert_search_matches_oracle(spec, initial):
    """find_stable_T gives the exhaustive search's horizon and profile bytes,
    or both raise StableHorizonError."""
    try:
        expected = exhaustive_find_stable_T(spec, initial)
    except StableHorizonError:
        with pytest.raises(StableHorizonError):
            find_stable_T(spec, initial)
        return
    found = find_stable_T(spec, initial)
    assert found.horizon == expected.horizon
    assert found.p_avg.tobytes() == expected.p_avg.tobytes()


def assert_screens_within_bound(spec, initial):
    """Every batched ladder screen is within its own bound of the direct,
    one-horizon-at-a-time return probability."""
    ladder = dynamics._ladder_screens(spec, initial)
    assert [horizon for horizon, _, _ in ladder] == list(dynamics._LADDER)
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
        # no couplings: H = diag(2J3), 2J3 in {-2, 0, 0, 2}
        spec = eigendecompose(build_hamming(2), CouplingValues(mu0=1.5))
        assert spec.eigenvalues.tolist() == [-3.0, 0.0, 0.0, 3.0]
        # signed permutation columns
        assert (np.abs(spec.eigenvectors).sum(axis=0) == 1.0).all()
        assert np.abs(spec.eigenvectors).max() == 1.0

    def test_two_level_mixer(self):
        # beta times the hypercube's adjacency, a sum of n two-level mixers:
        # eigenvalues beta (n - 2k), C(n, k) times each, and the all-ones
        # vector at the top
        beta = 0.7
        spec = eigendecompose(build_hamming(3), CouplingValues(mu0=0.0, beta=beta))
        assert np.allclose(spec.eigenvalues, beta * np.array([-3, -1, -1, -1, 1, 1, 1, 3]))
        assert np.allclose(np.abs(spec.eigenvectors[:, -1]), 1 / math.sqrt(8))

    def test_random_symmetric_reconstruction(self):
        rng = np.random.default_rng(3)
        sym = build_model(6)
        values = CouplingValues(1.0, *rng.normal(size=5))
        h = sym.evaluate(values)
        spec = eigendecompose(sym, values)
        scale = np.abs(h).max()
        assert np.abs(h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max() <= 1e-10 * scale
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(64)).max() <= 1e-10
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert np.abs(rebuilt - h).max() <= 1e-9 * scale
        assert (np.diff(spec.eigenvalues) >= 0).all()

    def test_failed_checks_raise(self, monkeypatch):
        sym, values = build_hamming(2), CouplingValues(mu0=1.0)
        solve = dynamics._solve
        for shift, scale in ((1e-6, 1.0), (0.0, 1.0 + 1e-6)):
            def perturbed(m, norm, s=shift, c=scale):
                eigenvalues, vectors = solve(m, norm)
                return eigenvalues + s, vectors * c

            monkeypatch.setattr(dynamics, "_solve", perturbed)
            for _ in solver_paths():
                with pytest.raises(RuntimeError, match="decomposition failed checks"):
                    eigendecompose(sym, values)

    @settings(max_examples=40, deadline=None)
    @given(
        build=st.sampled_from([build_model, build_hamming]),
        n=st.integers(2, 8),
        couplings=st.tuples(*[COUPLINGS] * 6),
    )
    @example(build=build_model, n=9, couplings=(1.0, 0.1, 0.5, 0.5, 0.5, 0.0))
    @example(build=build_hamming, n=9, couplings=(0.0, 0.0, 0.0, 0.0, 0.0, 1e-300))
    @example(build=build_model, n=4, couplings=(1e300, 1e300, 1e300, 1e300, 1e300, 0.0))
    @example(build=build_model, n=4, couplings=(0.0, 0.0, 0.0, 2.0, 1e300, 0.0))
    def test_bitwise_equal_to_whole_matrix_reference(self, build, n, couplings):
        # zero couplings give degenerate spectra, extreme ones dsyevd's scaling
        assert_matches_reference(built(build, n), CouplingValues(*couplings))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dim", [3, 300])
    def test_non_finite_entries_raise_before_symmetry(self, monkeypatch, value, dim):
        # `dim` is the row of the entry, in the first or the second row
        # block at N = 9; it is written below the diagonal alone, so the
        # check must come before anything reads H as symmetric.  The
        # couplings are finite: only an overflow makes an infinite H
        evaluate = SymbolicHamiltonian.evaluate

        def spoiled(self, values):
            h = evaluate(self, values)
            h[dim, dim - 1] = value
            return h

        monkeypatch.setattr(SymbolicHamiltonian, "evaluate", spoiled)
        sym = build_model(9)
        for _ in solver_paths():
            with pytest.raises(RuntimeError, match="matrix has non-finite entries"):
                eigendecompose(sym, BASELINE)
        assert_matches_reference(sym, BASELINE)

    @pytest.mark.parametrize("where", ["eigenvalues", "vectors", "vectors_inf"])
    def test_non_finite_eigensolver_output_raises(self, monkeypatch, where):
        sym = build_model(9)
        eigenvalues, vectors = np.linalg.eigh(sym.evaluate(BASELINE))
        if where == "eigenvalues":
            eigenvalues[511] = math.nan
        else:
            vectors[511, 511] = math.nan if where == "vectors" else -math.inf
        patch_solver(monkeypatch, eigenvalues, vectors)
        for _ in solver_paths():
            with pytest.raises(RuntimeError, match="eigensolver returned non-finite values"):
                eigendecompose(sym, BASELINE)
        assert_matches_reference(sym, BASELINE)

    @pytest.mark.parametrize("column", [0, 299])
    @pytest.mark.parametrize("shift, scale", [(1e-6, 1.0), (0.0, 1.0 + 1e-6)])
    def test_failed_checks_raise_in_every_block(self, monkeypatch, column, shift, scale):
        # a shifted eigenvalue fails the residual, a scaled vector both
        # checks; at N = 9 column 299 sits in the second slab of 256
        sym = build_model(9)
        eigenvalues, vectors = np.linalg.eigh(sym.evaluate(BASELINE))
        eigenvalues[column] += shift
        vectors[:, column] *= scale
        patch_solver(monkeypatch, eigenvalues, vectors)
        for _ in solver_paths():
            with pytest.raises(RuntimeError, match="decomposition failed checks"):
                eigendecompose(sym, BASELINE)
        assert_matches_reference(sym, BASELINE)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_residual_is_nan_and_raises(self, monkeypatch):
        # H = diag(1e300 * 2J3): where 2J3 = +-2, H V overflows to inf and
        # V diag(e) too, so their difference is NaN
        sym, values = build_hamming(2), CouplingValues(mu0=1e300)
        diagonal = sym.evaluate(values).diagonal()
        patch_solver(monkeypatch, diagonal, np.eye(4) * 1e10)
        for _ in solver_paths():
            with pytest.raises(RuntimeError, match="residual nan"):
                eigendecompose(sym, values)
        assert_matches_reference(sym, values)

    @pytest.mark.parametrize("a, b", [(255, 256), (10, 250)], ids=["near_pair", "far_pair"])
    def test_pair_rotated_off_orthogonality_raises(self, monkeypatch, a, b):
        # N = 9 spans two row blocks, so the check runs on the eigen-gap
        # band.  Eigenvalues 255 and 256, across the blocks' border, are
        # 0.064 apart: a rotation by 1e-9 keeps the pair's residual
        # within tol * 9, so the pair must be inside the band.  A
        # far pair fails the residual, which takes the whole triangle.
        sym = build_model(9)
        eigenvalues, vectors = np.linalg.eigh(sym.evaluate(BASELINE))
        vectors[:, b] += 1e-9 * vectors[:, a]
        deltas = record_bands(monkeypatch)
        patch_solver(monkeypatch, eigenvalues, vectors)
        with pytest.raises(RuntimeError, match="orthonormality 1.0"):
            reference_eigendecompose(sym.evaluate(BASELINE))
        assert_matches_reference(sym, BASELINE)
        if b == 256:  # a band of about one unit of a 21-wide spectrum
            assert len(deltas) == 2 and eigenvalues[b] - eigenvalues[a] < min(deltas)
            assert max(deltas) < 10.0
        else:
            assert deltas == []

    @pytest.mark.parametrize("where", ["residual", "norm", "spread"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_bound_takes_the_whole_triangle(self, where, value):
        eigenvalues = np.linspace(0.0, 1.0, 4)
        r_squares, v_squares = np.full(4, 1e-30), np.ones(4)
        spread = 1.0
        assert dynamics._gap_band(eigenvalues, r_squares, v_squares, spread, 4) < 1e-3
        if where == "residual":
            r_squares[2] = value
        elif where == "norm":
            v_squares[2] = value
        else:
            spread = value
        assert dynamics._gap_band(eigenvalues, r_squares, v_squares, spread, 4) == math.inf

    @pytest.mark.parametrize(
        "build, values",
        [
            (build_model, CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5)),
            (build_hamming, CouplingValues(mu0=1.0, beta=0.5)),
        ],
    )
    def test_products_path_equals_dense_path_with_one_build(self, monkeypatch, build, values):
        # dim 512: the sector products and the gap band both run, and H is
        # evaluated once, for the solve; the dense reference checks with H
        sym = build(9)
        expected = reference_eigendecompose(sym.evaluate(values))
        calls = []
        evaluate = SymbolicHamiltonian.evaluate

        def counted(self, values):
            calls.append(values)
            return evaluate(self, values)

        monkeypatch.setattr(SymbolicHamiltonian, "evaluate", counted)
        found = eigendecompose(sym, values)
        assert calls == [values]
        assert found.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
        assert found.eigenvectors.tobytes() == expected.eigenvectors.tobytes()

    def test_products_path_raises_on_a_rotated_pair(self, monkeypatch):
        # the Hamming spectrum is degenerate: eigenvalues 191 and 192, on
        # either side of a 64-row block of the band, are equal, so a
        # rotation by 1e-9 keeps the residual at rounding level
        sym, values = build_hamming(9), CouplingValues(mu0=1.0, beta=0.5)
        h = sym.evaluate(values)
        eigenvalues, vectors = np.linalg.eigh(h)
        assert eigenvalues[192] - eigenvalues[191] < 1e-12
        vectors[:, 192] += 1e-9 * vectors[:, 191]
        patch_solver(monkeypatch, eigenvalues, vectors)
        with pytest.raises(RuntimeError) as expected:
            reference_eigendecompose(h)
        with pytest.raises(RuntimeError) as found:
            eigendecompose(sym, values)
        assert failure(found.value) == failure(expected.value)
        assert "orthonormality 1.0" in str(found.value)
        assert float(str(found.value).split("residual ")[1].split(",")[0]) < 1e-10

    def test_deterministic(self):
        sym = build_model(5)
        first = eigendecompose(sym, BASELINE)
        second = eigendecompose(sym, BASELINE)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_in_place_solver_found_with_scipy_openblas(self):
        # a numpy on scipy-openblas (ILP64) must not fall back to eigh unseen
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        if lapack["name"] == "scipy-openblas" and "USE64BITINT" in lapack.get(
            "openblas configuration", ""
        ):
            assert dynamics._lapack() is not None

    def test_a_missing_routine_falls_back_to_eigh(self, monkeypatch):
        monkeypatch.setitem(dynamics._ROUTINES, "dnosuch", "")
        dynamics._lapack.cache_clear()
        try:
            assert dynamics._lapack() is None
            assert_matches_reference(build_hamming(2), CouplingValues(mu0=2.0, beta=1.0))
        finally:
            dynamics._lapack.cache_clear()  # looked up again, unpatched, at the next call

    def test_dense_peak_bytes_follows_the_solver_path(self, monkeypatch):
        # from dim 1024 up the solve's peak is the larger; at 512 the
        # checks' 1.25 + 2.5 * 256 / 512 matrices equal it; at 256 the
        # checks' 1.25 + 2.5 set the peak
        vectors = 64 * 8 * 1024
        fixed = 2048 * 8
        if dynamics._lapack() is not None:
            assert dynamics.dense_peak_bytes(1024) == 2.5 * 8 * 1024**2 + vectors + fixed
            assert dynamics.dense_peak_bytes(512) == 2.5 * 8 * 512**2 + vectors // 2 + fixed
            assert dynamics.dense_peak_bytes(256) == 3.75 * 8 * 256**2 + vectors // 4 + fixed
        monkeypatch.setattr(dynamics, "_lapack", lambda: None)
        assert dynamics.dense_peak_bytes(1024) == 5 * 8 * 1024**2 + vectors + fixed

    @pytest.mark.parametrize("n", range(2, 11))
    def test_traced_peak_within_the_estimate(self, n):
        # after a first call has cached the workspace sizes
        sym = build_model(n)
        for _ in solver_paths():
            eigendecompose(sym, BASELINE)
            tracemalloc.start()
            try:
                eigendecompose(sym, BASELINE)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= dynamics.dense_peak_bytes(sym.dim)

    def test_memory_growth_stays_within_one_matrix_of_the_estimate(self, tmp_path):
        # N = 10, dim 1024.  In place the solve peaks with the packed
        # reflectors, Z and dstedc's workspace: the growth reads 24.3 MiB,
        # against a bound of 3.56 matrices, 28.5 MiB.  Through
        # np.linalg.eigh it reads 44 MB.
        dim = 1024
        code = (
            "import resource\n"
            "from crystalchain import CouplingValues, build_model, eigendecompose\n"
            "sym = build_model(10)\n"
            "values = CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "eigendecompose(sym, values)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        growth = int(proc.stdout) * 1024  # ru_maxrss is in KiB
        assert growth < dynamics.dense_peak_bytes(dim) + 8 * dim * dim

    @pytest.mark.parametrize(
        "build, n",
        [(build_model, 3), (build_model, 4), (build_model, 6), (build_model, 8),
         (build_hamming, 4), (build_hamming, 6)],
    )
    def test_column_signs_leave_profiles_unchanged(self, build, n):
        # no sign convention is imposed: every profile term is V_fa V_ia or
        # a square, and negating a column is exact
        values = CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5, beta=0.5)
        spec = eigendecompose(build(n), values)
        signs = np.random.default_rng(n).choice([-1.0, 1.0], size=spec.dim)
        flipped = SpectralDecomposition(spec.eigenvalues, spec.eigenvectors * signs)
        initial = spec.dim // 3
        for profile in (find_stable_T, infinite_time_average,
                        lambda s, i: time_averaged_profile(s, i, 77.7)):
            want, got = profile(spec, initial), profile(flipped, initial)
            assert got.horizon == want.horizon
            assert got.p_avg.tobytes() == want.p_avg.tobytes()


class TestRowBounds:
    @pytest.mark.parametrize("build", [build_model, build_hamming])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_pair_list_bounds_cover_the_dense_ones(self, build, n):
        sym = built(build, n)
        eps = np.finfo(float).eps
        c = 1.0 + 2 * (sym.dim + 2) * eps  # `_gap_band`'s rounding factor
        for values in (
            BASELINE,
            CouplingValues(mu0=-2.0, eps=-0.3, gamma=0.0, delta=1e-300, eta=-0.0, beta=-0.7),
            CouplingValues(mu0=0.0, eps=1e3, gamma=0.1, delta=0.0, beta=0.5),
        ):
            h = sym.evaluate(values)
            spread, terms = dynamics._row_bounds(sym, values, h.diagonal())
            dense_spread, dense_terms = dense_row_bounds(h)
            assert np.linalg.eigvalsh(np.abs(h)).max() <= spread * c
            # the same nonnegative terms, summed in another order
            assert abs(spread - dense_spread) <= (sym.dim + 2) * eps * dense_spread
            assert terms >= dense_terms


def sector_products(sym, h, x):
    """Yield (rows, cols, (h @ x)[rows][:, cols], x[rows][:, cols]) over
    slabs of _KERNEL_BLOCK columns, each product from `_sector_product` on
    blocks and a diagonal read from the dense h in `_sector_layout`'s
    order: the slab loop of `_residuals`, with H taken from h."""
    order, bounds, _ = _sector_layout(sym.basis.n, sym.basis.labels[0], sym.rows, sym.cols)
    sectors = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    blocks = [h[np.ix_(low, high)] for low, high in zip(sectors, sectors[1:])]
    diagonal = h.diagonal()[order, None]
    for start in range(0, x.shape[1], _KERNEL_BLOCK):
        cols = slice(start, start + _KERNEL_BLOCK)
        w = x[order, cols]
        product = _sector_product(blocks, bounds.tolist(), diagonal, w, np.empty_like(w))
        yield order, cols, product, w


class TestSectorProducts:
    @pytest.mark.parametrize("build", [build_model, build_hamming])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_sector_layout_indexes_the_blocks(self, build, n):
        # every pair's offset addresses its entry of B_k = H[S_k, S_k+1]
        sym = build(n)
        order, bounds, offsets = _sector_layout(n, sym.basis.labels[0], sym.rows, sym.cols)
        assert order.dtype == bounds.dtype == offsets.dtype == np.int32
        two_j3 = sym.basis.labels[0][order]
        assert (np.diff(two_j3) >= 0).all()
        assert two_j3[bounds[:-1]].tolist() == list(range(-n, n + 1, 2))
        sizes = np.diff(bounds)
        ends = np.cumsum(sizes[:-1] * sizes[1:])
        flat = np.zeros(ends[-1], dtype=np.int64)
        np.add.at(flat, offsets, 1)
        assert (flat[offsets] == 1).all()  # each pair once
        pattern = np.zeros((sym.dim, sym.dim), dtype=np.int64)
        pattern[sym.rows, sym.cols] = 1
        pattern[sym.cols, sym.rows] = 1
        # the blocks and their transposes hold every entry of both halves
        assert pattern.sum() == 2 * flat.sum()
        for k, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
            block = pattern[np.ix_(order[bounds[k] : bounds[k + 1]], order[bounds[k + 1] : bounds[k + 2]])]
            assert (flat[lo:hi] == block.ravel()).all()

    @settings(max_examples=150, deadline=None)
    @given(
        build=st.sampled_from([build_model, build_hamming]),
        n=st.integers(min_value=2, max_value=8),
        couplings=st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * 6),
        width=st.integers(min_value=1, max_value=2 * _KERNEL_BLOCK + 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(build=build_model, n=4, couplings=(0.0, -0.0, -1.5, 0.5, -0.0, 0.0), width=3, seed=0)
    @example(
        build=build_hamming, n=8, couplings=(-2.0, 0.0, 0.0, 0.0, 0.0, -0.0), width=513, seed=1
    )
    @example(build=build_model, n=8, couplings=(-0.0, 0.1, -0.5, 0.5, 0.5, 0.0), width=256, seed=2)
    def test_products_equal_evaluate_times_matrix(self, build, n, couplings, width, seed):
        # each computed entry is within gamma_(dim+3) (|H| |X|) of the exact
        # product, whatever the summation order, so the two differ by at
        # most twice that
        sym = built(build, n)
        values = CouplingValues(*couplings)
        h = sym.evaluate(values)
        x = np.random.default_rng(seed).normal(size=(sym.dim, width))
        found = np.zeros((sym.dim, width))
        covered = np.zeros((sym.dim, width), dtype=np.int64)
        for rows, cols, block, v in sector_products(sym, h, x):
            assert (v == x[rows, cols]).all()
            found[rows, cols] = block
            covered[rows, cols] += 1
        assert (covered == 1).all()
        bound = 2 * (sym.dim + 3) * np.finfo(float).eps * (np.abs(h) @ np.abs(x))
        assert (np.abs(found - h @ x) <= bound).all()

    @pytest.mark.parametrize("n", [9, 10])
    def test_residuals_hold_three_slabs(self, n):
        # besides the block values: W (scaled in place to V diag(e)) and
        # H W, each a slab of _KERNEL_BLOCK columns, one sector's product,
        # the largest sector's rows of a slab, and dense_peak_bytes' 64 dim
        # + 2048 for the layout and small objects.  V diag(e) in a slab of
        # its own goes past this at N = 9 and 10, as does a slab's W still
        # held while the next slab is multiplied.
        sym = built(build_model, n)
        vectors = np.random.default_rng(n).normal(size=(sym.dim, sym.dim))
        eigenvalues = np.zeros(sym.dim)
        _residuals(sym, BASELINE, eigenvalues, vectors)
        tracemalloc.start()
        try:
            _residuals(sym, BASELINE, eigenvalues, vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sizes = np.diff(_sector_layout(n, sym.basis.labels[0], sym.rows, sym.cols)[1])
        blocks = int((sizes[:-1] * sizes[1:]).sum())
        slabs = (2 * sym.dim + int(sizes.max())) * _KERNEL_BLOCK
        assert peak <= 8 * (slabs + blocks + 64 * sym.dim + 2048)

    @settings(max_examples=100, deadline=None)
    @given(
        build=st.sampled_from([build_model, build_hamming]),
        n=st.integers(min_value=2, max_value=8),
        couplings=st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * 6),
        width=st.integers(min_value=1, max_value=2 * _KERNEL_BLOCK + 1),
        seed=st.integers(0, 2**32 - 1),
        nan=st.booleans(),
    )
    @example(build=build_model, n=8, couplings=(1.0, 0.1, 0.5, 0.5, 0.5, 0.0), width=513, seed=0,
             nan=True)
    @example(build=build_hamming, n=2, couplings=(-0.0, 0.0, 0.0, 0.0, 0.0, 0.5), width=1, seed=1,
             nan=False)
    def test_residuals_match_the_dense_oracle(self, build, n, couplings, width, seed, nan):
        # an entry of r is within gamma_(dim+3) (|H| |V| + |V| |e|) of the
        # exact one, in either summation order, so the two r differ by at
        # most twice that, error; a sum of squares differs by its terms'
        # share of error plus each sum's rounding, gamma_(dim+1) of it
        sym = built(build, n)
        values = CouplingValues(*couplings)
        h = sym.evaluate(values)
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(sym.dim, width))
        eigenvalues = rng.normal(scale=3.0, size=width)
        if nan:
            vectors[rng.integers(sym.dim), rng.integers(width)] = np.nan
        residual, r_squares, v_squares = _residuals(sym, values, eigenvalues, vectors)
        expected, r_expected, v_expected = dense_residuals(h, eigenvalues, vectors)
        finite = ~np.isnan(vectors).any(axis=0)
        for sums in (r_squares, r_expected, v_squares, v_expected):
            assert (np.isnan(sums) == ~finite).all()
        assert math.isnan(residual) == math.isnan(expected) == nan
        eps = np.finfo(float).eps
        v, e = vectors[:, finite], eigenvalues[finite]
        r = h @ v - v * e
        error = 2 * (sym.dim + 3) * eps * (np.abs(h) @ np.abs(v) + np.abs(v * e))
        if not nan:
            assert abs(residual - expected) <= error.max()
        rounding = (sym.dim + 2) * eps
        r_bound = (error * (2 * np.abs(r) + error)).sum(axis=0)
        r_bound += rounding * (r_squares[finite] + r_expected[finite])
        assert (np.abs(r_squares[finite] - r_expected[finite]) <= r_bound).all()
        v_bound = rounding * (v_squares[finite] + v_expected[finite])
        assert (np.abs(v_squares[finite] - v_expected[finite]) <= v_bound).all()


def random_symmetric(dim, seed=0, scale=1.0):
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return (a + a.T) * (scale / 2)


def assert_solve_is_eigh(h):
    """`_solve` on a fresh copy of h gives np.linalg.eigh(h) bit for bit."""
    expected_values, expected_vectors = np.linalg.eigh(h)
    eigenvalues, vectors = dynamics._solve([h.copy()], float(np.abs(h).max()))
    assert eigenvalues.tobytes() == expected_values.tobytes()
    assert vectors.tobytes() == expected_vectors.tobytes()
    assert vectors.flags.c_contiguous


needs_lapack = pytest.mark.skipif(
    dynamics._lapack() is None, reason="numpy carries no scipy-openblas LAPACK"
)


class TestSolve:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_models_bitwise_equal_to_eigh(self, n):
        crystal = build_model(n)
        assert_solve_is_eigh(crystal.evaluate(BASELINE))
        assert_solve_is_eigh(crystal.evaluate(FIG2_COUPLINGS))
        assert_solve_is_eigh(build_hamming(n).evaluate(CouplingValues(mu0=1.0, beta=0.5)))

    @pytest.mark.parametrize(
        # below about 80, dsyevd's leftover workspace sets dormtr's block size
        "dim", [1, 2, 3, 5, 8, 16, 25, 26, 33, *range(63, 82), 128, 257, 300, 512, 1000, 1500],
    )
    def test_random_bitwise_equal_to_eigh(self, dim):
        assert_solve_is_eigh(random_symmetric(dim, seed=dim))

    @pytest.mark.parametrize("scale", [1e200, 1e150, 1e-160, 1e-300])
    @pytest.mark.parametrize("dim", [1, 2, 50])
    def test_scaled_matrices_bitwise_equal_to_eigh(self, scale, dim):
        # max|h| outside [2^-485, 2^485] takes dsyevd's scaling, except at dim 1
        assert_solve_is_eigh(random_symmetric(dim, seed=dim, scale=scale))

    @pytest.mark.parametrize("scale", [1e200, 1e150, 1e-160, 1e-300])
    @pytest.mark.parametrize("build, n", [(build_model, 2), (build_hamming, 9)])
    def test_scaled_couplings_match_reference(self, scale, build, n):
        # max|H| outside [2^-485, 2^485] takes dsyevd's scaling
        values = CouplingValues(*(scale * c for c in (1.0, 0.1, 0.3, 0.5, 0.7, 0.9)))
        assert_matches_reference(build(n), values)

    @needs_lapack
    def test_unconverged_dstedc_raises(self, monkeypatch):
        call = dynamics._call

        def failing(name, *args):
            info = call(name, *args)
            return 3 if name == "dstedc" else info

        monkeypatch.setattr(dynamics, "_call", failing)
        with pytest.raises(
            RuntimeError, match="^eigensolver did not converge: Eigenvalues did not converge$"
        ):
            eigendecompose(build_model(5), BASELINE)

    @needs_lapack
    def test_traced_peaks_at_dim_512(self):
        # while dstedc runs the solve holds the packed reflectors, Z and
        # dstedc's workspace; H, allocated while tracing, must be gone by then
        sym = build_model(9)
        dim = sym.dim
        h = sym.evaluate(BASELINE)
        norm = float(np.abs(h).max())
        dynamics._solve([h.copy()], norm)  # the workspace sizes, cached
        tracemalloc.start()
        try:
            dynamics._solve([h.copy()], norm)
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solve_peak <= 2.5 * 8 * dim * dim + 64 * 8 * dim


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, 1e308])
    def test_rejects_non_finite_time(self, t):
        _, spec = fig2_spec()
        message = "overflows the phases" if t == 1e308 else "finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                transition_probability(spec, 0, 1, t)


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
        spec = eigendecompose(sym, values)
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
        spec = reference_eigendecompose((a + a.T) / 2)
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

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 1e-308, 1e308])
    def test_rejects_non_finite_horizon(self, horizon):
        _, spec = fig2_spec()
        message = "overflows the phases" if horizon == 1e308 else "positive and finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
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
        spec = eigendecompose(sym, CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5))
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
        spec = reference_eigendecompose(np.zeros((4, 4)))
        profile = infinite_time_average(spec, 2)
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(profile.p_avg, expected)
        assert profile.horizon == math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_spectrum(self, value):
        # a hand-built decomposition; eigendecompose never returns one
        q, _ = np.linalg.qr(np.random.default_rng(43).normal(size=(4, 4)))
        spec = SpectralDecomposition(np.array([0.0, 1.0, 2.0, value]), q)
        with pytest.raises(ValueError, match="spectrum has non-finite eigenvalues"):
            infinite_time_average(spec, 1)

    def test_nondegenerate_spectrum_keeps_diagonal_terms(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(12, 12))
        spec = reference_eigendecompose(a + a.T)
        gaps = np.diff(spec.eigenvalues)
        assert gaps.min() > 1e-6  # generic draw: spectrum is simple
        manual = ((spec.eigenvectors * spec.eigenvectors[4]) ** 2).sum(axis=1)
        assert np.abs(infinite_time_average(spec, 4).p_avg - manual).max() <= 1e-12

    @pytest.mark.parametrize("figure", sorted(FIGURE_PRESETS))
    def test_singleton_clusters_match_cluster_sums_exactly(self, figure):
        """Squaring the weights directly gives the cluster-sum formula bit for bit."""
        spec, initial = preset_spec(figure)
        weights = spec.eigenvectors * spec.eigenvectors[initial]
        tol = 1e-9 * float(np.abs(spec.eigenvalues).max())
        starts = np.flatnonzero(np.diff(spec.eigenvalues) > tol) + 1
        clusters = np.add.reduceat(weights, np.concatenate(([0], starts)), axis=1)
        expected = (clusters * clusters).sum(axis=1)
        got = infinite_time_average(spec, initial).p_avg
        assert got.tobytes() == np.clip(expected, 0.0, 1.0).tobytes()

    def test_matches_long_horizon_closed_form(self):
        _, spec = fig2_spec()
        limit = infinite_time_average(spec, 3)
        long_avg = time_averaged_profile(spec, 3, 1e6)
        assert np.abs(limit.p_avg - long_avg.p_avg).max() <= 1e-4

    def test_degenerate_cluster_keeps_cross_terms(self):
        sym = build_hamming(3)
        spec = eigendecompose(sym, CouplingValues(mu0=0.0, beta=0.5))
        limit = infinite_time_average(spec, 0)
        long_avg = time_averaged_profile(spec, 0, 1e7)
        assert np.abs(limit.p_avg - long_avg.p_avg).max() <= 1e-4


class TestFindStableT:
    def test_diagonal_returns_start(self):
        spec = reference_eigendecompose(np.diag([1.0, -1.0, 3.0]))
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

    def test_ladder_doubles_from_ten_past_the_cap(self):
        assert dynamics._LADDER == tuple(10.0 * 2.0**k for k in range(28))
        assert dynamics._LADDER[-2] <= 1e9 < dynamics._LADDER[-1]

    def test_cap_exceeded_raises(self):
        with pytest.raises(StableHorizonError):
            find_stable_T(decade_gap_spec(3), 0)

    def test_cap_error_names_last_pair(self):
        with pytest.raises(StableHorizonError) as info:
            find_stable_T(decade_gap_spec(3), 0)
        message = str(info.value)
        assert message.startswith("no stable horizon below 1e+09 at rel_tol 0.001")
        assert "last pair T=6.71089e+08 vs 1.34218e+09 differs by" in message
        assert "(initial-row screen, a lower bound)" in message
        with pytest.raises(StableHorizonError) as info:
            find_stable_T(decade_gap_spec(1), 0)
        assert "last pair T=6.71089e+08 vs 1.34218e+09 differs by" in str(info.value)
        assert "(full max norm)" in str(info.value)

    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_figure_presets_match_exhaustive_search(self, name):
        spec, initial = preset_spec(name)
        assert_screens_within_bound(spec, initial)
        assert_search_matches_oracle(spec, initial)

    def test_cap_raises_like_exhaustive_search(self):
        for seed in (1, 3):
            spec = decade_gap_spec(seed)
            with pytest.raises(StableHorizonError):
                exhaustive_find_stable_T(spec, 0)
            assert_search_matches_oracle(spec, 0)

    @pytest.mark.parametrize(
        "n, words", [(8, ("RYRYRYRY", "RRRYYRYY", "YYYYYYYY")), (10, ("RRYYRYRYYR",))]
    )
    def test_model_words_match_exhaustive_search(self, n, words):
        sym = build_model(n)
        spec = eigendecompose(sym, CouplingValues(mu0=1.0, eps=0.1, gamma=0.5, delta=0.5, eta=0.5))
        for word in words:
            assert_screens_within_bound(spec, sym.basis.index_of_word(word))
            assert_search_matches_oracle(spec, sym.basis.index_of_word(word))

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        integer_entries=st.booleans(),
    )
    def test_random_matrices_match_exhaustive_search(self, dim, seed, integer_entries):
        # integer entries give (near-)degenerate spectra and long searches
        rng = np.random.default_rng(seed)
        a = rng.integers(-2, 3, size=(dim, dim)) if integer_entries else rng.normal(size=(dim, dim))
        spec = reference_eigendecompose((a + a.T) / 2)
        initial = int(rng.integers(0, dim))
        assert_search_matches_oracle(spec, initial)

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
        # decade_gap_spec(3)'s last pair fails its screen when screens are real
        with pytest.raises(StableHorizonError, match=r"differs by .* \(full max norm\)"):
            find_stable_T(decade_gap_spec(3), 0)

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
    )
    def test_clustered_spectra_match_exhaustive_search(self, dim, clusters, split, offset, seed):
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
        assert_screens_within_bound(spec, initial)
        assert_search_matches_oracle(spec, initial)
