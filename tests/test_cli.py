import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crystalchain import CouplingValues, StableHorizonError, build_model, cli
from crystalchain.cli import main
from crystalchain.dynamics import dense_peak_bytes
from golden import THREE_SITE_BASIS_LINES, THREE_SITE_DUMP
from oracles import dense_evaluate, scalar_model_build


SRC = Path(cli.__file__).resolve().parents[1]


def run_in_child(args, cwd):
    """The CLI in a fresh interpreter, so stderr holds every warning it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "crystalchain.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def read_csv_column(path, column):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    at = header.index(column)
    return [line.split(",")[at] for line in lines[1:]]


class TestBasisCommand:
    def test_three_site_listing(self, capsys):
        assert main(["basis", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == THREE_SITE_BASIS_LINES

    def test_two_site_order(self, capsys):
        assert main(["basis", "--n", "2"]) == 0
        words = [line.split()[1] for line in capsys.readouterr().out.strip().splitlines()]
        assert words == ["RY", "YY", "YR", "RR"]

    def test_too_short_chain_is_usage_error(self, capsys):
        assert main(["basis", "--n", "1"]) == 2


class TestHamiltonianCommand:
    def test_symbolic_three_site_dump(self, capsys):
        assert main(["hamiltonian", "--n", "3", "--model", "crystal", "--symbolic"]) == 0
        assert capsys.readouterr().out.strip() == THREE_SITE_DUMP

    def test_four_site_dump_contains_eta(self, capsys):
        assert main(["hamiltonian", "--n", "4", "--model", "crystal", "--symbolic"]) == 0
        assert " ETA " in capsys.readouterr().out

    def test_hamming_dump_has_cube_edges(self, capsys):
        assert main(["hamiltonian", "--n", "3", "--model", "hamming", "--symbolic"]) == 0
        beta_lines = [l for l in capsys.readouterr().out.splitlines() if " BETA " in l]
        assert len(beta_lines) == 24

    def test_numeric_output_matches_evaluate(self, capsys):
        assert main([
            "hamiltonian", "--n", "3", "--eps", "0.1", "--gamma", "0.3", "--delta", "0.3",
        ]) == 0
        rows = [
            [float(v) for v in line.split()]
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        from crystalchain import CouplingValues, evaluate

        expected = evaluate(build_model(3), CouplingValues(1.0, 0.1, 0.3, 0.3))
        assert np.allclose(np.array(rows), expected, atol=0)

    @pytest.mark.parametrize("n, couplings", [
        (5, {"mu0": -1.0, "eps": 0.2}),
        (4, {"mu0": -1.0, "eps": 0.2}),
        (4, {"mu0": -1.0, "eps": -0.2}),
    ])
    def test_numeric_text_equals_dense_sum(self, capsys, n, couplings):
        flags = [arg for name, value in couplings.items() for arg in (f"--{name}", str(value))]
        assert main(["hamiltonian", "--n", str(n), *flags]) == 0
        matrix = dense_evaluate(
            build_model(n).diag, scalar_model_build(n)[0], CouplingValues(**couplings)
        )
        expected = "\n".join(" ".join(repr(float(v)) for v in row) for row in matrix) + "\n"
        assert capsys.readouterr().out == expected

    def test_zero_diagonal_requires_hamming(self, capsys):
        assert main(["hamiltonian", "--n", "3", "--symbolic", "--zero-diagonal"]) == 2
        assert main(["hamiltonian", "--n", "3", "--model", "hamming", "--symbolic", "--zero-diagonal"]) == 0
        out = capsys.readouterr().out
        diag_lines = [l for l in out.splitlines() if " MU0 " in l]
        assert all(l.split()[-1] == "0" for l in diag_lines)


class TestProfileCommand:
    def test_short_horizon_delta_row(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "profile", "--n", "3", "--initial", "RYY", "--horizon", "0.000001",
            "--out", str(out),
        ]) == 0
        values = [float(v) for v in read_csv_column(out / "profile.csv", "p_avg")]
        words = read_csv_column(out / "profile.csv", "word")
        by_word = dict(zip(words, values))
        assert by_word["RYY"] == pytest.approx(1.0, abs=1e-9)
        assert sum(values) == pytest.approx(1.0, abs=1e-8)

    def test_manifest_fields(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "profile", "--n", "3", "--initial", "RRY", "--model", "hamming",
            "--beta", "0.5", "--mu0", "1", "--horizon", "auto", "--out", str(out),
        ]) == 0
        assert {p.name for p in out.iterdir()} == {"profile.csv", "ranked.csv", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 3
        assert manifest["initial"] == "RRY"
        assert manifest["model"] == "hamming"
        assert manifest["couplings"] == {
            "mu0": 1.0, "eps": 0.0, "gamma": 0.0, "delta": 0.0, "eta": 0.0, "beta": 0.5,
        }
        assert manifest["horizon"] == "auto"
        assert manifest["resolved_T"] > 0
        assert manifest["include_self"] is False
        assert manifest["fits"] == []
        assert manifest["version"]
        assert manifest["timestamp"]

    def test_deterministic_outputs(self, tmp_path, capsys):
        args = ["profile", "--n", "3", "--initial", "RRY", "--eps", "0.1",
                "--gamma", "0.3", "--delta", "0.3", "--horizon", "auto"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        for name in ("profile.csv", "ranked.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    def test_manifest_reruns_identically(self, tmp_path, capsys):
        first = tmp_path / "a"
        assert main([
            "profile", "--n", "4", "--initial", "YYRY", "--eps", "0.1", "--gamma", "0.5",
            "--delta", "0.5", "--eta", "0.5", "--horizon", "auto", "--out", str(first),
        ]) == 0
        second = tmp_path / "b"
        assert main([
            "profile", "--config", str(first / "manifest.json"), "--out", str(second),
        ]) == 0
        assert (first / "profile.csv").read_bytes() == (second / "profile.csv").read_bytes()
        assert (first / "ranked.csv").read_bytes() == (second / "ranked.csv").read_bytes()

    def test_infinite_horizon(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "profile", "--n", "3", "--initial", "RRY", "--eps", "0.1", "--gamma", "0.3",
            "--delta", "0.3", "--horizon", "infinite", "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["horizon"] == "infinite"
        assert manifest["resolved_T"] is None

    def test_alias_initial_word(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["profile", "--n", "3", "--initial", "110", "--horizon", "1.0",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["initial"] == "RRY"

    def test_argument_errors(self, tmp_path, capsys):
        assert main(["profile", "--n", "3", "--horizon", "1.0", "--out", str(tmp_path)]) == 2
        assert main(["profile", "--n", "3", "--initial", "RY", "--out", str(tmp_path)]) == 2
        assert main(["profile", "--n", "3", "--initial", "RRY", "--horizon", "-2",
                     "--out", str(tmp_path)]) == 2
        assert main(["profile", "--n", "3", "--initial", "RRY", "--horizon", "soon",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("horizon", ["inf", "1e400"])
    def test_non_finite_horizon_is_usage_error(self, tmp_path, horizon):
        proc = run_in_child(
            ["profile", "--n", "3", "--initial", "RRY", "--eps", "0.1",
             "--horizon", horizon, "--out", "x"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: explicit horizon must be positive and finite, got inf\n"
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_stable_horizon_failure_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        import crystalchain.cli as cli_module

        def explode(*args, **kwargs):
            raise StableHorizonError("near-degenerate spectrum")

        monkeypatch.setattr(cli_module, "find_stable_T", explode)
        assert main(["profile", "--n", "3", "--initial", "RRY", "--horizon", "auto",
                     "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_couplings_write_no_profile(self, tmp_path, capsys):
        # mu0 * 2J3 overflows to inf; the run must fail instead of writing NaN
        out = tmp_path / "x"
        assert main(["profile", "--n", "3", "--initial", "RRY", "--mu0", "1e308",
                     "--delta", "1e308", "--horizon", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "profile.csv").exists()

    @pytest.mark.parametrize("stage", ["eigendecompose", "time_averaged_profile"])
    def test_numeric_check_failure_maps_to_exit_3(self, tmp_path, capsys, monkeypatch, stage):
        import crystalchain.cli as cli_module

        def explode(*args, **kwargs):
            raise RuntimeError(f"{stage} failed checks")

        monkeypatch.setattr(cli_module, stage, explode)
        out = tmp_path / "x"
        assert main(["profile", "--n", "3", "--initial", "RRY", "--horizon", "10",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {stage} failed checks\n"
        assert not (out / "profile.csv").exists()

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]\n")
        assert main(["profile", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_config_include_self_must_be_boolean(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"n": 3, "initial": "RRY", "horizon": 10.0, "include_self": value}
        ))
        assert main(["profile", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x" / "profile.csv").exists()

    @staticmethod
    def run_config(tmp_path, **fields):
        data = {"n": 3, "initial": "RRY", "horizon": 10.0, **fields}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        return main(["profile", "--config", str(config), "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("value", [3.7, 3.0, True, "3", [3]])
    def test_config_n_must_be_integer(self, tmp_path, capsys, value):
        assert self.run_config(tmp_path, n=value) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [True, [10.0], {"T": 10.0}, 10**400])
    def test_config_horizon_must_be_number_or_string(self, tmp_path, capsys, value):
        assert self.run_config(tmp_path, horizon=value) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [101, 110])
    def test_config_initial_must_be_string(self, tmp_path, capsys, value):
        assert self.run_config(tmp_path, initial=value) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [True, "0.1", None, [0.1], 10**400])
    def test_config_couplings_must_be_numbers(self, tmp_path, capsys, value):
        assert self.run_config(tmp_path, couplings={"mu0": 1.0, "eps": value}) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    def test_config_integers_stand_for_floats(self, tmp_path, capsys):
        assert self.run_config(tmp_path, horizon=10, couplings={"mu0": 1, "eps": 0}) == 0
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["horizon"] == 10.0
        assert manifest["couplings"]["mu0"] == 1.0


class TestMemoryPreflight:
    def test_profile_beyond_physical_memory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**20)
        out = tmp_path / "run"
        assert main(["profile", "--n", "8", "--initial", "RRRRYYYY", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{dense_peak_bytes(2**8) / 2**20:,.0f} MiB" in err
        assert "1 MiB of physical memory" in err

    def test_fourteen_sites_refused_before_any_build(self, tmp_path, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("built a structure the memory check should refuse")

        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 7 * 2**30)
        monkeypatch.setattr(cli, "build_model", no_build)
        out = tmp_path / "run"
        argv = ["profile", "--n", "14", "--initial", "RY" * 7, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "physical memory" in capsys.readouterr().err


class TestFitCommand:
    @staticmethod
    def write_ranked(path, values):
        lines = ["rank,index,word,value"]
        for rank, value in enumerate(values, start=1):
            lines.append(f"{rank},{rank},WORD,{float(value)!r}")
        path.write_text("\n".join(lines) + "\n")

    def test_recovers_synthetic_parameters(self, tmp_path, capsys):
        ranks = np.arange(1, 9, dtype=float)
        self.write_ranked(tmp_path / "r.csv", 1.96 * ranks**-1.49 * 0.24**ranks)
        assert main(["fit", "--input", str(tmp_path / "r.csv"), "--fit-model", "yule"]) == 0
        fit = json.loads(capsys.readouterr().out)["fits"][0]
        assert abs(fit["a"] - 1.96) <= 1e-6
        assert abs(fit["k"] + 1.49) <= 1e-6
        assert abs(fit["b"] - 0.24) <= 1e-6

    def test_constant_data(self, tmp_path, capsys):
        self.write_ranked(tmp_path / "r.csv", [0.25] * 6)
        assert main(["fit", "--input", str(tmp_path / "r.csv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        yule = payload["fits"][0]
        assert abs(yule["k"]) <= 1e-9
        assert abs(yule["b"] - 1.0) <= 1e-9

    def test_underdetermined_is_exit_4(self, tmp_path, capsys):
        self.write_ranked(tmp_path / "r.csv", [1.0, 0.5, 0.25])
        assert main(["fit", "--input", str(tmp_path / "r.csv"), "--fit-model", "yule"]) == 4

    def test_bad_input_is_usage_error(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "missing.csv")]) == 2
        (tmp_path / "bad.csv").write_text("nope\n1,2,3\n")
        assert main(["fit", "--input", str(tmp_path / "bad.csv")]) == 2

    def test_refine_appends_linear_fit(self, tmp_path, capsys):
        ranks = np.arange(1, 11, dtype=float)
        self.write_ranked(tmp_path / "r.csv", 0.9 * ranks**-0.7 * 0.8**ranks)
        assert main(["fit", "--input", str(tmp_path / "r.csv"), "--fit-model", "yule",
                     "--refine"]) == 0
        fits = json.loads(capsys.readouterr().out)["fits"]
        assert [f["fit_space"] for f in fits] == ["log", "linear"]


class TestReproduceCommand:
    def test_fig2_outputs(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        assert main(["reproduce", "fig2", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            "profile.csv", "ranked.csv", "plot.dat", "fits.json", "manifest.json",
        }
        payload = json.loads((out / "fits.json").read_text())
        assert [f["model"] for f in payload["fits"]] == ["yule", "yule", "zipf"]
        assert payload["sse_ratio_zipf_over_yule"] > 0
        assert payload["plateaux"]["exact"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["couplings"]["eps"] == 0.1
        assert manifest["couplings"]["gamma"] == 0.3
        assert manifest["initial"] == "RRY"
        plot_lines = (out / "plot.dat").read_text().strip().splitlines()
        assert len(plot_lines) == 7
        assert plot_lines[0].split()[0] == "1"

    def test_fig1_groups_by_distance(self, tmp_path, capsys):
        out = tmp_path / "fig1"
        assert main(["reproduce", "fig1", "--out", str(out)]) == 0
        payload = json.loads((out / "fits.json").read_text())
        assert payload["plateaux"]["consistent"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model"] == "hamming"
        assert manifest["couplings"]["beta"] == 0.5

    def test_repeat_runs_are_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "fig2", "--out", str(a)]) == 0
        assert main(["reproduce", "fig2", "--out", str(b)]) == 0
        for name in ("profile.csv", "ranked.csv", "plot.dat", "fits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        m1 = json.loads((a / "manifest.json").read_text())
        m2 = json.loads((b / "manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    @pytest.mark.parametrize("figure", sorted(cli.FIGURE_PRESETS))
    def test_manifest_reruns_through_profile(self, tmp_path, capsys, figure):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", figure, "--out", str(first)]) == 0
        assert main([
            "profile", "--config", str(first / "manifest.json"), "--out", str(second),
        ]) == 0
        for name in ("profile.csv", "ranked.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestSweepCommand:
    def test_two_point_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2",
            "--param", "gamma=0.3", "--delta", "0.3", "--horizon", "auto",
            "--out", str(out),
        ]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert {p.name for p in out.iterdir()} == {"summary.csv", "point_000", "point_001"}
        for point in ("point_000", "point_001"):
            assert {p.name for p in (out / point).iterdir()} == {
                "profile.csv", "ranked.csv", "fits.json", "manifest.json",
            }

    def test_point_rerun_matches(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "all=0.3",
            "--horizon", "auto", "--out", str(out),
        ]) == 0
        rerun = tmp_path / "rerun"
        assert main([
            "profile", "--config", str(out / "point_000" / "manifest.json"),
            "--out", str(rerun),
        ]) == 0
        assert (out / "point_000" / "ranked.csv").read_bytes() == (rerun / "ranked.csv").read_bytes()

    def test_empty_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--n", "3", "--initial", "RRY", "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_all_points_failing_fit_is_exit_4(self, tmp_path, capsys):
        # two-site chains rank only three transitions: too few for a Yule fit
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "2", "--initial", "RY", "--param", "eps=0.2",
            "--horizon", "10", "--out", str(out),
        ]) == 4
        summary = (out / "summary.csv").read_text()
        assert "fit_error" in summary

    def test_diverging_fit_refinement_prints_no_warnings(self, tmp_path):
        # at eps = 0.3 the log-space Yule seed has r2 = -4e6 and trial
        # refinement steps overflow; they are rejected without a word
        proc = run_in_child(
            ["sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.3",
             "--horizon", "160", "--out", "sweep"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        for point in ("point_000", "point_001"):
            fits = json.loads((tmp_path / "sweep" / point / "fits.json").read_text())["fits"]
            assert all(np.isfinite([f["a"], f["k"], f["b"], f["sse_linear"]]).all() for f in fits)

    def test_unknown_parameter_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--n", "3", "--initial", "RRY", "--param", "zeta=1",
                     "--out", str(tmp_path / "s")]) == 2

    def test_workers_share_results(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2",
            "--delta", "0.3", "--horizon", "160", "--workers", "2", "--out", str(out),
        ]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_dynamics_failure_marks_point_and_finishes_grid(self, tmp_path, capsys, monkeypatch):
        import crystalchain.cli as cli_module

        real = cli_module.eigendecompose
        calls = []

        def fail_second_point(h):
            calls.append(h)
            if len(calls) == 2:
                raise RuntimeError("decomposition failed checks")
            return real(h)

        monkeypatch.setattr(cli_module, "eigendecompose", fail_second_point)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2,0.3",
            "--delta", "0.3", "--horizon", "160", "--out", str(out),
        ]) == 0
        assert read_csv_column(out / "summary.csv", "status") == ["ok", "dynamics_error", "ok"]
        assert not (out / "point_001").exists()
        assert (out / "point_002" / "ranked.csv").exists()

    def test_all_points_failing_dynamics_is_exit_3(self, tmp_path, capsys, monkeypatch):
        import crystalchain.cli as cli_module

        def explode(*args, **kwargs):
            raise RuntimeError("averaged profile has non-finite entries")

        monkeypatch.setattr(cli_module, "time_averaged_profile", explode)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2",
            "--horizon", "160", "--out", str(out),
        ]) == 3
        assert read_csv_column(out / "summary.csv", "status") == ["dynamics_error"] * 2

    def test_one_build_and_one_decomposition_per_point(self, tmp_path, capsys, monkeypatch):
        calls = {"build": 0, "eigendecompose": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_model", counted("build", cli.build_model))
        monkeypatch.setattr(cli, "eigendecompose", counted("eigendecompose", cli.eigendecompose))
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2,0.3",
            "--delta", "0.3", "--horizon", "160", "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"build": 1, "eigendecompose": 3}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_grid_value_writes_nothing(self, tmp_path, capsys, value):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--eps", "0.1",
            "--param", f"gamma=0.3,{value}", "--horizon", "160", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2",
            "--horizon", "160", "--workers", workers, "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (8, 3)])
    def test_pool_size_is_bounded(self, tmp_path, capsys, monkeypatch, cpus, expected):
        sizes = []

        class SerialPool:
            """Records the pool size and runs the points in this thread."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2,0.3",
            "--delta", "0.3", "--horizon", "160", "--workers", "1000000", "--out", str(out),
        ]) == 0
        assert sizes == [expected]
        assert read_csv_column(out / "summary.csv", "status") == ["ok"] * 3
