import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crystalchain import CouplingValues, StableHorizonError, build_hamming, build_model, cli, dynamics
from crystalchain.cli import main
from crystalchain.dynamics import dense_peak_bytes
from crystalchain.hamiltonian import SymbolicHamiltonian
from golden import THREE_SITE_BASIS_LINES, THREE_SITE_DUMP
from oracles import dense_evaluate, labels_from_word, reference_enumeration, scalar_model_build


SRC = Path(cli.__file__).resolve().parents[1]


def run_in_child(args, cwd, **environ):
    """The CLI in a fresh interpreter, so stderr holds every warning it
    prints, with the environment variables `environ` added."""
    env = dict(os.environ, **environ)
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

    def test_stdout_closed_by_its_reader_is_exit_2_without_traceback(self, tmp_path):
        # 4096 lines, far more than the pipe holds: the CLI is still writing
        # when the reader goes away after the first line
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "crystalchain.cli", "basis", "--n", "12"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"1 ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
        assert "Traceback" not in err
        assert err == ""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_listing_matches_reference_labels(self, capsys, n):
        bits, _ = reference_enumeration(n)
        expected = []
        for idx, word_bits in enumerate(bits.tolist(), start=1):
            word = "".join("R" if (word_bits >> (n - 1 - s)) & 1 else "Y" for s in range(n))
            labels = labels_from_word(word)
            body = ",".join(f"{q}/2" for q in labels.two_j)
            expected.append(f"{idx} {word} J3={labels.two_j3}/2; J^2..J^N={body}\n")
        assert main(["basis", "--n", str(n)]) == 0
        assert capsys.readouterr().out == "".join(expected)


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
        from crystalchain import CouplingValues

        expected = build_model(3).evaluate(CouplingValues(1.0, 0.1, 0.3, 0.3))
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
            build_model(n).basis.labels[0], scalar_model_build(n)[0], CouplingValues(**couplings)
        )
        expected = "\n".join(" ".join(repr(float(v)) for v in row) for row in matrix) + "\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("model", ["crystal", "hamming"])
    @pytest.mark.parametrize("symbolic", [[], ["--symbolic"]], ids=["numeric", "symbolic"])
    def test_dump_file_equals_stdout(self, tmp_path, capsys, model, symbolic):
        out = tmp_path / "dump"
        coupling = {"crystal": ["--eps", "0.1"], "hamming": ["--beta", "0.5"]}[model]
        argv = ["hamiltonian", "--n", "4", "--model", model, *coupling]
        assert main([*argv, *symbolic]) == 0
        printed = capsys.readouterr().out
        assert main([*argv, *symbolic, "--out", str(out)]) == 0
        assert capsys.readouterr().out == printed
        assert (out / "hamiltonian.txt").read_text() == printed
        if not symbolic:
            assert len(printed.splitlines()) == 16  # one line per row

    @pytest.mark.parametrize("model, reads, unread, message", [
        ("hamming", ["--beta", "0.5"], "--eps",
         "eps = 0.3 sets no coupling the hamming model reads (beta, mu0)"),
        ("crystal", ["--eps", "0.1"], "--beta",
         "beta = 0.3 sets no coupling the crystal model reads (delta, eps, eta, gamma, mu0)"),
    ], ids=["hamming-eps", "crystal-beta"])
    def test_numeric_dump_refuses_a_coupling_the_model_never_reads(
        self, tmp_path, capsys, model, reads, unread, message
    ):
        argv = ["hamiltonian", "--n", "3", "--model", model, *reads]
        out = tmp_path / "x"
        assert main([*argv, unread, "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert main([*argv, unread, "0.3", "--symbolic"]) == 0
        for zero in ("0", "-0.0"):
            assert main([*argv, unread, zero]) == 0

    def test_zero_mu0_drops_the_diagonal(self, capsys):
        assert main(["hamiltonian", "--n", "3", "--model", "hamming", "--mu0", "0",
                     "--beta", "0.5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[i] for i, row in enumerate(rows)] == ["0.0"] * 8

    def test_non_finite_matrix_is_exit_3_and_writes_nothing(self, tmp_path):
        proc = run_in_child(
            ["hamiltonian", "--n", "3", "--mu0", "1e308", "--eps", "1e308", "--out", "D"],
            tmp_path,
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: matrix has non-finite entries\n"
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "1e400", "--mu0", "5"], "coupling eps must be finite"),
        (["--gamma", "nan"], "coupling gamma must be finite"),
    ])
    def test_symbolic_dump_checks_coupling_flags(self, tmp_path, flags, message):
        proc = run_in_child(
            ["hamiltonian", "--n", "3", "--symbolic", *flags, "--out", "D"], tmp_path
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {message}")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_builds_and_writers_make_no_per_state_objects(self, tmp_path, capsys, monkeypatch):
        from crystalchain import crystal

        made = []
        parse_word = crystal.parse_word

        def count_word(text):
            made.append(text)
            return parse_word(text)

        for module in (crystal, cli):
            monkeypatch.setattr(module, "parse_word", count_word)
        crystal.enumerate_basis(8)
        build_model(8)
        build_hamming(8)
        assert made == []
        out = tmp_path / "run"
        assert main([
            "profile", "--n", "8", "--initial", "RYRYRRYY", "--eps", "0.1", "--gamma", "0.5",
            "--delta", "0.5", "--horizon", "infinite", "--out", str(out),
        ]) == 0
        assert len(read_csv_column(out / "profile.csv", "word")) == 256
        assert len(read_csv_column(out / "ranked.csv", "word")) == 255
        # only the initial word is parsed
        assert set(made) == {"RYRYRRYY"}

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

    @pytest.mark.parametrize("horizon", ["inf", "1e400", "1e-308", "1e308"])
    def test_non_finite_horizon_is_usage_error(self, tmp_path, horizon):
        proc = run_in_child(
            ["profile", "--n", "3", "--initial", "RRY", "--eps", "0.1",
             "--horizon", horizon, "--out", "x"],
            tmp_path,
        )
        assert proc.returncode == 2
        if horizon == "1e308":  # finite, but e*T is not
            message = "horizon 1e+308 overflows the phases e*T of this spectrum"
        else:
            message = (
                "explicit horizon must be positive and finite, with 2/horizon finite, "
                f"got {float(horizon)!r}"
            )
        assert proc.stderr == f"error: {message}\n"
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

    def test_overflowing_diagonal_prints_only_the_error(self, tmp_path):
        proc = run_in_child(
            ["profile", "--n", "3", "--initial", "RRY", "--mu0", "1e308", "--out", "x"], tmp_path
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: matrix has non-finite entries\n"
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_extreme_coupling_scales_succeed_or_fail_cleanly(self, tmp_path, capsys, recwarn):
        # phases that overflow on the ladder, a mean whose sum overflows, and
        # gaps so small that 1/(e_a - e_b) would overflow
        couplings = [
            ["--delta", "1e308"],
            ["--delta", "1e300"],
            ["--mu0", "0", "--delta", "1e-300"],
            ["--mu0", "0", "--delta", "1e-310"],
        ]
        for run, (flags, horizon) in enumerate(
            (flags, horizon) for flags in couplings for horizon in ("auto", "infinite", "10")
        ):
            out = tmp_path / str(run)
            code = main(["profile", "--n", "3", "--initial", "RRY", *flags,
                         "--horizon", horizon, "--out", str(out)])
            err = capsys.readouterr().err
            assert [str(w.message) for w in recwarn] == [], (flags, horizon)
            assert code in (0, 2, 3), (flags, horizon)
            if code == 0:
                assert err == "", (flags, horizon)
                for name in ("profile.csv", "ranked.csv"):
                    header, *lines = (out / name).read_text().splitlines()
                    numeric = [at for at, col in enumerate(header.split(",")) if col != "word"]
                    for line in lines:
                        values = [float(line.split(",")[at]) for at in numeric]
                        assert all(map(math.isfinite, values)), (flags, horizon)
            else:
                assert err.startswith("error:") and err.count("\n") == 1, (flags, horizon)
                assert not out.exists(), (flags, horizon)

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

    @pytest.mark.parametrize("typo, value", [("horizn", 5), ("inclde_self", True)])
    def test_config_refuses_unknown_keys(self, tmp_path, capsys, typo, value):
        assert self.run_config(tmp_path, **{typo: value}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(typo) in err
        assert not (tmp_path / "x").exists()

    def test_config_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"n": 3, "initial": "RRY"\xff}')
        assert main(["profile", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {config}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (
            ["profile", "--n", "4", "--initial", "RRYY", "--model", "hamming",
             "--beta", "0.5", "--eps", "0.3"],
            "eps = 0.3 sets no coupling the hamming model reads (beta, mu0)",
        ),
        (
            ["profile", "--n", "3", "--initial", "RRY", "--eps", "0.1", "--beta", "0.7"],
            "beta = 0.7 sets no coupling the crystal model reads (delta, eps, eta, gamma, mu0)",
        ),
        (
            ["sweep", "--n", "3", "--initial", "RRY", "--model", "hamming", "--eps", "0.2",
             "--param", "beta=0.1,0.2", "--horizon", "160"],
            "eps = 0.2 sets no coupling the hamming model reads (beta, mu0)",
        ),
    ], ids=["hamming-eps", "crystal-beta", "hamming-sweep-base-eps"])
    def test_coupling_the_model_never_reads_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_zero_coupling_the_model_never_reads_passes(self, tmp_path, capsys):
        assert main([
            "profile", "--n", "3", "--initial", "RRY", "--eps", "0.1", "--beta", "-0.0",
            "--horizon", "160", "--out", str(tmp_path / "x"),
        ]) == 0

    def test_config_integers_stand_for_floats(self, tmp_path, capsys):
        assert self.run_config(tmp_path, horizon=10, couplings={"mu0": 1, "eps": 0}) == 0
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["horizon"] == 10.0
        assert manifest["couplings"]["mu0"] == 1.0


class TestMemoryPreflight:
    def test_profile_beyond_physical_memory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**20)
        out = tmp_path / "run"
        argv = ["profile", "--n", "9", "--initial", "RRRRYYYYY", "--out", str(out)]
        # float64 matrices of 2 MiB: at dim 512 the checks' 2.5 equal the
        # in-place solve's; 5 through the eigh fallback; each plus 64 dim
        # and 16 KiB
        small = 64 * 8 * 2**9 + 2048 * 8
        in_place = (5, 5) if dynamics._lapack() is not None else (10, 10)
        for handle, (need, shown) in ((dynamics._lapack, in_place), (lambda: None, (10, 10))):
            monkeypatch.setattr(dynamics, "_lapack", handle)
            assert dense_peak_bytes(2**9) == need * 2**20 + small
            assert main(argv) == 2
            assert not out.exists()
            assert capsys.readouterr() == ("", (
                f"error: n = 9 needs about {shown} MiB for the dense eigendecomposition, "
                "3/4 or more of the 1 MiB of physical memory\n"
            ))

    def test_fourteen_sites_refused_before_any_build(self, tmp_path, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("built a structure the memory check should refuse")

        monkeypatch.setattr(cli, "build_model", no_build)
        out = tmp_path / "run"
        argv = ["profile", "--n", "14", "--initial", "RY" * 7, "--out", str(out)]
        # the in-place estimate, 5 GiB + 8 MiB, is more than 3/4 of 6 GiB
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 6 * 2**30)
        assert main(argv) == 2
        assert not out.exists()
        assert "physical memory" in capsys.readouterr().err
        if dynamics._lapack() is not None:  # but less than 3/4 of 7 GiB
            monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 7 * 2**30)
            with pytest.raises(AssertionError, match="built a structure"):
                main(argv)
        # a need of exactly 3/4 is refused too
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 8 * 2**30)
        with pytest.raises(cli.UsageError, match="3/4 or more"):
            cli._check_memory(14, 6 * 2**30, "the dense eigendecomposition")

    def test_numeric_dump_beyond_physical_memory_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("built a structure the memory check should refuse")

        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**20)
        monkeypatch.setattr(cli, "build_model", no_build)
        out = tmp_path / "dump"
        # one float64 matrix: 2 MiB at n = 9
        assert main(["hamiltonian", "--n", "9", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", (
            "error: n = 9 needs about 2 MiB for the dense matrix, "
            "3/4 or more of the 1 MiB of physical memory\n"
        ))
        # 0.5 MiB at n = 8 fits in 3/4 MiB, and the symbolic dump needs no
        # dense matrix
        monkeypatch.setattr(cli, "build_model", build_model)
        assert main(["hamiltonian", "--n", "8"]) == 0
        assert main(["hamiltonian", "--n", "9", "--symbolic"]) == 0


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["profile", "--n", "3", "--initial", "RRY", "--horizon", "10"],
        ["sweep", "--n", "3", "--initial", "RRY", "--horizon", "10", "--param", "gamma=0.3,0.5"],
        ["hamiltonian", "--n", "3", "--eps", "0.1"],
    ], ids=["profile", "sweep", "hamiltonian"])
    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["is-file", "under-file"])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, command, out):
        (tmp_path / "taken").write_text("keep me\n")
        proc = run_in_child([*command, "--out", out], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot write taken/")
        assert proc.stderr.count("\n") == 1
        assert (tmp_path / "taken").read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


class TestFitCommand:
    @staticmethod
    def write_ranked(path, values, ranks=None):
        lines = ["rank,index,word,value"]
        for index, value in enumerate(values, start=1):
            rank = index if ranks is None else ranks[index - 1]
            lines.append(f"{rank},{index},WORD,{float(value)!r}")
        path.write_text("\n".join(lines) + "\n")

    def test_recovers_synthetic_parameters(self, tmp_path, capsys):
        ranks = np.arange(1, 9, dtype=float)
        self.write_ranked(tmp_path / "r.csv", 1.96 * ranks**-1.49 * 0.24**ranks)
        assert main(["fit", "--input", str(tmp_path / "r.csv"), "--fit-model", "yule"]) == 0
        fit = json.loads(capsys.readouterr().out)["fits"][0]
        assert abs(fit["a"] - 1.96) <= 1e-6
        assert abs(fit["k"] + 1.49) <= 1e-6
        assert abs(fit["b"] - 0.24) <= 1e-6

    @pytest.mark.parametrize("refine", [[], ["--refine"]], ids=["log", "refine"])
    def test_both_fits_each_model_once(self, tmp_path, capsys, monkeypatch, refine):
        from crystalchain import analysis

        fitted = []
        fit_log_linear = analysis.fit_log_linear

        def count_fit(ranked, model="yule"):
            fitted.append(model)
            return fit_log_linear(ranked, model)

        for module in (analysis, cli):
            monkeypatch.setattr(module, "fit_log_linear", count_fit)
        ranks = np.arange(1, 9, dtype=float)
        self.write_ranked(tmp_path / "r.csv", 1.96 * ranks**-1.49 * 0.24**ranks)
        assert main(["fit", "--input", str(tmp_path / "r.csv"), "--fit-model", "both", *refine]) == 0
        assert sorted(fitted) == ["yule", "zipf"]
        fits = json.loads(capsys.readouterr().out)["fits"]
        assert [fit["model"] for fit in fits] == (
            ["yule", "yule", "zipf", "zipf"] if refine else ["yule", "zipf"]
        )

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

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        self.write_ranked(tmp_path / "r.csv", [0.5, 0.25, 0.125, 0.0625, 0.03125])
        (tmp_path / "taken").write_text("keep me\n")
        argv = ["fit", "--input", str(tmp_path / "r.csv"), "--out", str(tmp_path / "taken")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path / 'taken' / 'fits.json'}")
        assert (tmp_path / "taken").read_text() == "keep me\n"

    def test_bad_input_is_usage_error(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "missing.csv")]) == 2
        (tmp_path / "bad.csv").write_text("nope\n1,2,3\n")
        assert main(["fit", "--input", str(tmp_path / "bad.csv")]) == 2

    def test_input_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        ranked = tmp_path / "r.csv"
        ranked.write_bytes(b"\xff\xfe")
        assert main(["fit", "--input", str(ranked), "--out", str(tmp_path / "fits")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {ranked}: 'utf-8' codec can't decode")
        assert not (tmp_path / "fits").exists()

    @pytest.mark.parametrize("spelling", ["inf", "nan"])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, spelling):
        ranks = np.arange(1, 9, dtype=float)
        self.write_ranked(tmp_path / "r.csv", [*(0.5 * ranks**-1.2), float(spelling)])
        out = tmp_path / "fits"
        assert main(["fit", "--input", str(tmp_path / "r.csv"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: non-finite value in ranked row: '9,9,WORD,{spelling}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("ranks, bad_row", [
        ([0, 1, 2, 3, 4, 5, 6, 7], 1),
        ([1, 2, -3, 4, 5, 6, 7, 8], 3),
        ([1] * 8, 2),
        ([1, 2, 3, 5, 6, 7, 8, 9], 4),
        ([1, 2, 4, 3, 5, 6, 7, 8], 3),
    ], ids=["from-zero", "negative", "duplicated", "gap", "out-of-order"])
    def test_ranks_must_run_one_to_n(self, tmp_path, ranks, bad_row):
        values = 0.5 * np.arange(1, 9, dtype=float) ** -1.2
        self.write_ranked(tmp_path / "r.csv", values, ranks)
        proc = run_in_child(["fit", "--input", "r.csv", "--refine", "--out", "fits"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = f"{ranks[bad_row - 1]},{bad_row},WORD,{float(values[bad_row - 1])!r}"
        assert proc.stderr == (
            f"error: ranked row {bad_row} must have rank {bad_row} (ranks run 1..n): {line!r}\n"
        )
        assert not (tmp_path / "fits").exists()

    @pytest.mark.parametrize("row, field, text, message", [
        (2, 0, "2.5", "ranked row 2 must have rank 2 (ranks run 1..n)"),
        (3, 3, "abc", "ranked row 3 has a value that is not a number"),
        (1, 1, "0", "ranked row 1 must have an integer index in 1..16384"),
        (4, 1, "-4", "ranked row 4 must have an integer index in 1..16384"),
        (4, 1, "x", "ranked row 4 must have an integer index in 1..16384"),
        (6, 1, "99999999999999999999", "ranked row 6 must have an integer index in 1..16384"),
        (5, 1, "2", "ranked row 5 repeats index 2 of row 2"),
        (7, 2, "W,X", "ranked row 7 is not rank,index,word,value"),
    ], ids=[
        "fractional-rank", "value-not-number", "index-zero", "index-negative",
        "index-not-number", "index-too-large", "index-duplicated", "extra-field",
    ])
    def test_bad_row_is_usage_error_naming_the_row(self, tmp_path, row, field, text, message):
        values = 0.5 * np.arange(1, 9, dtype=float) ** -1.2
        self.write_ranked(tmp_path / "r.csv", values)
        lines = (tmp_path / "r.csv").read_text().splitlines()
        parts = lines[row].split(",")
        parts[field] = text
        lines[row] = ",".join(parts)
        (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
        proc = run_in_child(["fit", "--input", "r.csv", "--refine", "--out", "fits"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}: {lines[row]!r}\n"
        assert not (tmp_path / "fits").exists()

    def test_overflowing_fit_is_exit_4(self, tmp_path):
        # the log-space fit is exact, but its linear-space residuals overflow
        self.write_ranked(tmp_path / "huge.csv", 1e300 * 0.5 ** np.arange(8))
        proc = run_in_child(["fit", "--input", "huge.csv", "--refine", "--out", "fits"], tmp_path)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: yule fit in log space is not finite")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
        assert not (tmp_path / "fits").exists()

    @pytest.mark.parametrize("logs", [
        [600, 400, 200, 0, -200], [-700, -600, -500, -400, -300],
    ], ids=["a-overflows", "a-underflows"])
    @pytest.mark.parametrize("refine", [[], ["--refine"]], ids=["log", "refined"])
    def test_parameter_outside_float_range_is_exit_4(self, tmp_path, logs, refine):
        # exact Yule data whose fitted a is e^800 or e^-800
        self.write_ranked(tmp_path / "r.csv", [math.exp(v) for v in logs])
        proc = run_in_child(["fit", "--input", "r.csv", *refine], tmp_path)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: yule fit in log space puts a = ")
        assert proc.stderr.endswith("outside the positive floats\n")
        assert proc.stderr.count("\n") == 1

    def test_refine_near_float_range_prints_no_warnings(self, tmp_path):
        # the residuals stay finite, but the refinement's Gram matrix overflows
        ranks = np.arange(8, dtype=float)
        values = 1e154 * 0.7**ranks * (1 + 0.1 * (-1) ** ranks)
        self.write_ranked(tmp_path / "r.csv", values)
        proc = run_in_child(["fit", "--input", "r.csv", "--refine"], tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        fits = json.loads(proc.stdout)["fits"]
        assert all(np.isfinite([f["sse_linear"], f["r2"]]).all() for f in fits)

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
            "sweep", "--n", "3", "--initial", "RRY", "--param", "all=0.3,0.5",
            "--horizon", "auto", "--out", str(out),
        ]) == 0
        for point in ("point_000", "point_001"):
            rerun = tmp_path / f"rerun_{point}"
            assert main([
                "profile", "--config", str(out / point / "manifest.json"), "--out", str(rerun),
            ]) == 0
            for name in ("profile.csv", "ranked.csv"):
                assert (out / point / name).read_bytes() == (rerun / name).read_bytes()

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

    @pytest.mark.parametrize("member", ["eps", "gamma", "delta", "eta"])
    @pytest.mark.parametrize("all_first", [True, False])
    def test_all_next_to_a_member_is_usage_error(self, tmp_path, capsys, member, all_first):
        axes = ["--param", "all=0.1", "--param", f"{member}=0.2"]
        if not all_first:
            axes = axes[2:] + axes[:2]
        out = tmp_path / "s"
        assert main(["sweep", "--n", "3", "--initial", "RRY", *axes, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: sweep parameter 'all' sets eps, gamma, delta, eta; give it alone\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("model, axis, read", [
        ("crystal", "beta", "delta, eps, eta, gamma, mu0"),
        ("hamming", "all", "beta, mu0"),
        ("hamming", "gamma", "beta, mu0"),
    ])
    def test_axis_the_model_never_reads_is_usage_error(self, tmp_path, capsys, model, axis, read):
        out = tmp_path / "s"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--model", model,
            "--param", f"{axis}=0.1,0.2", "--horizon", "160", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: sweep parameter {axis!r} sets no coupling the {model} model reads ({read})\n"
        )
        assert not out.exists()

    def test_mu0_axis_counts_on_every_model(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--model", "hamming", "--beta", "0.5",
            "--param", "mu0=0,1", "--horizon", "160", "--out", str(out),
        ]) == 0
        assert read_csv_column(out / "summary.csv", "status") == ["ok", "ok"]

    def test_unknown_parameter_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--n", "3", "--initial", "RRY", "--param", "zeta=1",
                     "--out", str(tmp_path / "s")]) == 2

    def test_dynamics_failure_marks_point_and_finishes_grid(self, tmp_path, capsys, monkeypatch):
        import crystalchain.cli as cli_module

        real = cli_module.eigendecompose
        calls = []

        def fail_second_point(sym, values):
            calls.append(values)
            if len(calls) == 2:
                raise RuntimeError("decomposition failed checks")
            return real(sym, values)

        monkeypatch.setattr(cli_module, "eigendecompose", fail_second_point)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--param", "eps=0.1,0.2,0.3",
            "--delta", "0.3", "--horizon", "160", "--out", str(out),
        ]) == 0
        assert read_csv_column(out / "summary.csv", "status") == ["ok", "dynamics_error", "ok"]
        assert not (out / "point_001").exists()
        assert (out / "point_002" / "ranked.csv").exists()

    def test_phase_overflow_marks_only_its_point(self, tmp_path):
        # e*T is finite at delta = 0.3 but overflows at delta = 1000
        proc = run_in_child(
            ["sweep", "--n", "3", "--initial", "RRY", "--eps", "0.1", "--horizon", "1e306",
             "--param", "delta=0.3,1000", "--out", "sweep"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        summary = tmp_path / "sweep" / "summary.csv"
        assert read_csv_column(summary, "status") == ["ok", "dynamics_error"]
        assert not (tmp_path / "sweep" / "point_001").exists()

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

    def test_one_evaluate_per_run_past_one_row_block(self, tmp_path, capsys, monkeypatch):
        # the checks multiply through the sector blocks, not a second H
        calls = []
        evaluate = SymbolicHamiltonian.evaluate

        def counted(self, values):
            calls.append(values)
            return evaluate(self, values)

        monkeypatch.setattr(SymbolicHamiltonian, "evaluate", counted)
        assert main([
            "profile", "--n", "9", "--initial", "RYRYRYRYR", "--eps", "0.1", "--gamma", "0.5",
            "--delta", "0.5", "--horizon", "infinite", "--out", str(tmp_path / "p"),
        ]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_grid_value_writes_nothing(self, tmp_path, capsys, value):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--n", "3", "--initial", "RRY", "--eps", "0.1",
            "--param", f"gamma=0.3,{value}", "--horizon", "160", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestNumericEnvironment:
    def test_bytes_repeat_per_blas_thread_count_and_values_agree_across_counts(self, tmp_path):
        # README's contract: a re-run at the same BLAS thread count writes
        # the same bytes; another count may round LAPACK's steps otherwise
        # (4.7e-15 at most measured at N = 8) but resolves the same T
        argv = [
            "profile", "--n", "8", "--initial", "RYRYRRYY", "--eps", "0.1", "--gamma", "0.5",
            "--delta", "0.5", "--eta", "0.5", "--horizon", "auto",
        ]
        runs = {}
        for threads in ("1", "2"):
            for attempt in ("first", "again"):
                out = tmp_path / f"{threads}-{attempt}"
                proc = run_in_child(
                    [*argv, "--out", str(out)], tmp_path, OPENBLAS_NUM_THREADS=threads
                )
                assert proc.returncode == 0, proc.stderr
                runs[threads, attempt] = out
            first, again = runs[threads, "first"], runs[threads, "again"]
            for name in ("profile.csv", "ranked.csv"):
                assert (first / name).read_bytes() == (again / name).read_bytes()
        one, two = runs["1", "first"], runs["2", "first"]
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (one, two)]
        assert manifests[0]["resolved_T"] == manifests[1]["resolved_T"]
        words = [read_csv_column(out / "profile.csv", "word") for out in (one, two)]
        assert words[0] == words[1]
        p_avg = [np.array(read_csv_column(out / "profile.csv", "p_avg"), float) for out in (one, two)]
        assert np.abs(p_avg[0] - p_avg[1]).max() <= 1e-12


def artifact_bytes(root):
    """Every file under ``root`` by relative path, manifest timestamps removed."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[path.relative_to(root).as_posix()] = data
    return files


class TestParserReuse:
    CALLS = [
        ["profile", "--n", "3", "--initial", "RRY", "--eps", "0.1", "--gamma", "0.3",
         "--delta", "0.3", "--out", "profile"],
        ["sweep", "--n", "3", "--initial", "RRY", "--delta", "0.3", "--horizon", "infinite",
         "--param", "eps=0.1,0.2", "--param", "gamma=0.3", "--out", "sweep"],
        # a sweep without --param must not see the previous call's axes
        ["sweep", "--n", "3", "--initial", "RRY", "--out", "sweep_empty"],
        ["reproduce", "fig2", "--include-self", "--out", "fig2_self"],
        ["reproduce", "fig2", "--no-include-self", "--out", "fig2_no_self"],
        ["reproduce", "fig2", "--out", "fig2"],
        ["profile", "--n", "3", "--initial", "RRYY", "--out", "bad_word"],
        ["profile", "--n", "three"],  # argparse error: SystemExit(2)
    ]

    @staticmethod
    def run_calls(capsys):
        outcomes = []
        for argv in TestParserReuse.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    def test_repeated_calls_in_one_process_are_identical(self, tmp_path, capsys, monkeypatch):
        rounds = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            rounds.append((self.run_calls(capsys), artifact_bytes(tmp_path / name)))
        (first, first_files), (second, second_files) = rounds
        assert first == second
        assert first_files == second_files
        codes = [code for code, _, _ in first]
        assert codes == [0, 0, 0, 0, 0, 0, 2, ("exit", 2)]
        assert first[2][1] == "sweep of 0 point(s) written to sweep_empty\n"
        assert json.loads(first_files["fig2_self/manifest.json"])["include_self"] is True
        assert json.loads(first_files["fig2_no_self/manifest.json"])["include_self"] is False
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        probe = (
            "import crystalchain.cli as cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestNegativeValues:
    @pytest.mark.parametrize("command", [
        ["profile", "--n", "3", "--initial", "RRY", "--delta", "0.3", "--horizon", "40"],
        ["hamiltonian", "--n", "3"],
    ], ids=["profile", "hamiltonian"])
    def test_spaced_exponent_form_equals_joined(self, tmp_path, capsys, command):
        # argparse alone reads `--eps -1e-3` as --eps with its value missing
        runs = []
        for name, flags in (("spaced", ["--eps", "-1e-3"]), ("joined", ["--eps=-1e-3"])):
            out = tmp_path / name
            assert main([*command, *flags, "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out.replace(str(out), ""), artifact_bytes(out)))
        assert runs[0] == runs[1]
        assert runs[0][1]

    def test_spaced_negative_infinity_is_one_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["hamiltonian", "--n", "3", "--eps", "-inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_spaced_dash_leading_word_equals_joined(self, tmp_path, capsys):
        # argparse alone reads `--initial -+-` as --initial with its value missing
        runs = []
        for name, flags in (("spaced", ["--initial", "-+-"]), ("joined", ["--initial=-+-"])):
            out = tmp_path / name
            assert main(["profile", "--n", "3", *flags, "--horizon", "10", "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out.replace(str(out), ""), artifact_bytes(out)))
        assert runs[0] == runs[1]
        assert runs[0][1]
