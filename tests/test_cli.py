"""Command-line interface: payloads, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qperm.cli import main
from qperm.magic import MagicUnitary, f4_phi, fourier, from_hadamard


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def triple_file(tmp_path, rep, xs, name="triple.json"):
    path = tmp_path / name
    xs = np.asarray(xs, dtype=complex)
    blob = {"rep": rep.to_json(), "xs": np.stack([xs.real, xs.imag], axis=-1).tolist()}
    path.write_text(json.dumps(blob))
    return str(path)


class TestCohomology:
    def test_fourier4_json_is_frozen(self, capsys):
        code, out, err = run(capsys, "cohomology", "--fourier", "4")
        assert code == 0
        assert out == '{"zdim":4,"bdim":3,"h1dim":1}\n'
        assert err == ""

    def test_basis_payload(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--fourier", "4", "--basis")
        payload = json.loads(out)
        assert payload["h1dim"] == 1
        basis = np.asarray(payload["basis"], dtype=float)
        assert basis.shape == (1, 16, 2)

    def test_sigma_input(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--sigma", "(1 2)(3 4)")
        assert code == 0
        assert json.loads(out)["h1dim"] == 1

    def test_f4_special_angle(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--f4", str(math.pi / 2))
        assert json.loads(out) == {"zdim": 6, "bdim": 3, "h1dim": 3}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--fourier", "4", "--format", "csv")
        assert code == 0
        assert out == "key,value\nzdim,4\nbdim,3\nh1dim,1\n"

    def test_magic_file_input(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(from_hadamard(fourier(4)).to_json()))
        code, out, _ = run(capsys, "cohomology", "--magic", str(path))
        assert json.loads(out)["h1dim"] == 1

    def test_hadamard_file_input(self, capsys, tmp_path):
        path = tmp_path / "had.json"
        path.write_text(json.dumps(fourier(6).to_json()))
        code, out, _ = run(capsys, "cohomology", "--hadamard", str(path))
        assert json.loads(out)["h1dim"] == 4

    def test_validation_failure_is_exit_1(self, capsys):
        code, _, err = run(capsys, "cohomology", "--fourier", "0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("bad", ["0", "-1e-8", "nan", "inf"])
    def test_bad_rank_threshold_is_exit_1(self, capsys, bad):
        code, out, err = run(capsys, "cohomology", "--fourier", "6", f"--rank-threshold={bad}")
        assert code == 1
        assert out == ""
        assert "rank threshold" in err

    @pytest.mark.parametrize("big", ["1", "2"])
    def test_rank_threshold_of_one_or_more_is_exit_1(self, capsys, big):
        # such a threshold makes every rank 0: the answer would be zdim = 36
        code, out, err = run(capsys, "cohomology", "--fourier", "6", f"--rank-threshold={big}")
        assert code == 1
        assert out == ""
        assert "rank threshold" in err

    def test_missing_representation_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology"])
        assert exc.value.code == 64

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64


class TestVerify:
    def test_cycle_process_flags(self, capsys):
        code, out, _ = run(capsys, "verify", "--sigma", "(1 2 3)", "--rates", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3 and payload["d"] == 1
        assert payload["gaussian"] is False
        assert payload["poisson"] is True
        assert payload["symmetric"] is False
        assert payload["tracial"] is True
        v = payload["violations"]
        assert v["representation"] < 1e-12
        assert v["cocycle"] < 1e-12
        assert v["relations"] < 1e-9
        assert v["poisson_residual"] < 1e-10
        assert v["symmetry"] > 0.1

    def test_five_cycle_sampled_sweep_fits_pair_budget(self, capsys):
        code, out, _ = run(capsys, "verify", "--sigma", "(1 2 3 4 5)", "--rates", "1",
                           "--max-word-len", "2")
        assert code == 0
        assert '"tracial":true' in out
        assert json.loads(out)["tracial"] is True

    def test_zero_triple_file(self, capsys, tmp_path):
        rep = from_hadamard(fourier(4))
        path = triple_file(tmp_path, rep, np.zeros((4, 4)))
        code, out, _ = run(capsys, "verify", "--triple", path)
        payload = json.loads(out)
        assert payload["gaussian"] is True
        assert payload["poisson"] is True
        assert payload["symmetric"] is True
        assert payload["violations"]["symmetry"] == 0.0

    def test_csv_has_null_free_residual_column(self, capsys, tmp_path):
        rep = from_hadamard(fourier(4))
        path = triple_file(tmp_path, rep, np.zeros((4, 4)))
        code, out, _ = run(capsys, "verify", "--triple", path, "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("violations.poisson_residual,") for line in lines)

    def test_bad_triple_shape_is_exit_1(self, capsys, tmp_path):
        rep = from_hadamard(fourier(4))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rep": rep.to_json(), "xs": [[0.0, 0.0]]}))
        code, _, err = run(capsys, "verify", "--triple", str(path))
        assert code == 1

    @pytest.mark.parametrize("xs, message", [
        ([[[0, 0], [0, 0]], [[0, 0]]], "be rectangular arrays of numbers: "),
        ("abc", "be rectangular arrays of numbers: "),
        ([[[0, "x"]]], "be rectangular arrays of numbers: "),
        ([[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]], "hold finite numbers"),
    ])
    def test_malformed_xs_is_exit_1(self, capsys, tmp_path, xs, message):
        rep = from_hadamard(fourier(2))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rep": rep.to_json(), "xs": xs}))
        code, out, err = run(capsys, "verify", "--triple", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("qperm: error: complex JSON arrays must " + message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_finite_magic_entries_are_exit_1(self, capsys, tmp_path):
        blob = from_hadamard(fourier(2)).to_json()
        blob["entries"][0][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "cohomology", "--magic", str(path))
        assert (code, out) == (1, "")
        assert err == "qperm: error: complex JSON arrays must hold finite numbers\n"

    def test_sigma_without_rates_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--sigma", "(1 2)"])
        assert exc.value.code == 64


class TestSemigroup:
    def test_two_state_closed_form(self, capsys):
        code, out, _ = run(
            capsys,
            "semigroup",
            "--sigma", "(1 2)", "--rates", "0.8",
            "--time", "0.0,1.0",
            "--word", "p(1,1)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["times"] == [0.0, 1.0]
        q = np.asarray(payload["q"])
        assert np.allclose(q, [[-0.8, 0.8], [0.8, -0.8]])
        m1 = np.asarray(payload["marginals"][1])
        diag = 0.5 * (1 + math.exp(-1.6))
        assert abs(m1[0, 0] - diag) < 1e-10
        word = payload["words"][0]
        assert word["word"] == "p(1,1)"
        assert abs(word["values"][0][0] - 1.0) < 1e-12  # t = 0: counit
        assert abs(word["values"][1][0] - diag) < 1e-8

    def test_csv_layout_with_duplicate_times(self, capsys):
        code, out, _ = run(
            capsys,
            "semigroup",
            "--sigma", "(1 2)", "--rates", "1.0",
            "--time", "0.5,0.5",
            "--word", "p(1,1) p(2,2)",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "t,word,re,im"
        body = lines[1:]
        assert len(body) == 2 * (4 + 1)
        # both halves describe the same time, so they must agree
        assert body[: len(body) // 2] == body[len(body) // 2 :]

    def test_budget_exhaustion_is_exit_2(self, capsys):
        word = " ".join(["p(1,1)", "p(2,2)"] * 6)  # 12 letters: 4^12 raw terms
        code, _, err = run(
            capsys,
            "semigroup",
            "--sigma", "(1 2 3 4)", "--rates", "1.0",
            "--word", word,
        )
        assert code == 2
        assert "budget" in err

    def test_empty_time_list_is_exit_1(self, capsys):
        code, _, _ = run(
            capsys, "semigroup", "--sigma", "(1 2)", "--rates", "1.0", "--time", ","
        )
        assert code == 1

    def test_non_finite_time_is_exit_1(self, capsys):
        code, out, err = run(
            capsys, "semigroup", "--sigma", "(1 2)", "--rates", "1.0", "--time", "0,nan",
            "--word", "p(1,1)",
        )
        assert (code, out) == (1, "")
        assert "time must be finite" in err


class TestCentral:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "central", "--n", "4", "--atoms", "0:1", "--smax", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [1, 3, 5]
        assert payload["values"][0] == 0.0
        assert abs(payload["values"][1] + 1.0 / 3.0) < 1e-12
        # chi_2 = x^2 - 3x + 1: (chi_2(0) - chi_2(4)) / 4 / d_2 = -1/5
        assert abs(payload["values"][2] + 0.2) < 1e-12

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "central", "--n", "4", "--smax", "1", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "s,dim,value"
        assert lines[1] == "0,1,0"
        assert lines[2].startswith("1,3,")

    def test_atom_on_boundary_is_exit_1(self, capsys):
        code, _, _ = run(capsys, "central", "--n", "4", "--atoms", "4:1")
        assert code == 1

    def test_small_n_is_exit_1(self, capsys):
        code, _, _ = run(capsys, "central", "--n", "3")
        assert code == 1

    def test_malformed_atoms_is_exit_1(self, capsys):
        code, _, _ = run(capsys, "central", "--n", "4", "--atoms", "nope")
        assert code == 1


class TestSimulate:
    ARGS = (
        "simulate",
        "--sigma", "(1 2 3 4)", "--rates", "0.5",
        "--t", "1.0", "--samples", "2000", "--seed", "42",
    )

    def test_payload(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"] == "(1 2 3 4)"
        assert payload["n"] == 4
        assert payload["samples"] == 2000
        assert payload["seed"] == 42
        probs = np.asarray(payload["probs"])
        assert probs.shape == (4, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_non_finite_time_is_exit_1(self, capsys):
        args = list(self.ARGS)
        args[args.index("--t") + 1] = "inf"
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, "")
        assert "time must be finite" in err

    @pytest.mark.parametrize("rate, message", [
        ("nan", "finite"), ("inf", "finite"), ("1e20", "rate * t"),
    ])
    def test_bad_rate_is_exit_1(self, capsys, rate, message):
        args = list(self.ARGS)
        args[args.index("--rates") + 1] = rate
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("qperm: error:") and message in err

    def test_csv(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "i,j,prob,stderr"
        assert len(lines) == 1 + 16

    def test_paths_file(self, capsys, tmp_path):
        dest = tmp_path / "paths.csv"
        code, out, _ = run(
            capsys, *self.ARGS, "--paths", str(dest), "--times", "0.0,0.5,1.0"
        )
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "t,1,2,3,4"
        assert len(lines) == 4
        assert lines[1].startswith("0,1,2,3,4")  # identity at t = 0

    def test_paths_without_times_is_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.ARGS, "--paths", str(tmp_path / "p.csv"))
        assert code == 1
        assert "--times" in err

    @pytest.mark.parametrize("dest, extra, message", [
        ("p.csv", (), "--paths needs --times with the sampling grid"),
        ("p.csv", ("--times", "0,2,1"), "time grid must be nondecreasing and nonnegative"),
        ("p.csv", ("--times", "0,nan"), "time must be finite and >= 0, got nan"),
        ("missing/p.csv", ("--times", "0,1"), "cannot write {dest}: "),
    ])
    def test_bad_paths_request_fails_before_sampling(self, capsys, tmp_path, monkeypatch,
                                                     dest, extra, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate_marginals ran")

        monkeypatch.setattr("qperm.cli.simulate_marginals", forbidden)
        dest = tmp_path / dest
        code, out, err = run(capsys, *self.ARGS, "--paths", str(dest), *extra)
        assert (code, out) == (1, "")
        assert err.startswith("qperm: error: " + message.format(dest=dest))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not dest.exists()


class TestSelftest:
    def test_list_names(self, capsys):
        code, out, _ = run(capsys, "selftest", "--list")
        assert code == 0
        names = out.split()
        assert len(names) == 11
        assert "fourier-cohomology" in names
        assert "stochastic-oracle" in names

    def test_single_quick_check_text(self, capsys):
        code, out, _ = run(capsys, "selftest", "--only", "fourier-cohomology")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS fourier-cohomology:")
        assert lines[-1].startswith("OK (1/1 checks")

    def test_single_quick_check_json(self, capsys):
        code, out, _ = run(
            capsys, "selftest", "--only", "central-formulas", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["profile"] == "quick"
        assert payload["passed"] is True
        assert payload["results"][0]["name"] == "central-formulas"

    def test_unknown_check_is_exit_1(self, capsys):
        code, _, err = run(capsys, "selftest", "--only", "no-such-check")
        assert code == 1


class TestPlumbing:
    def test_out_file_writes_instead_of_stdout(self, capsys, tmp_path):
        dest = tmp_path / "res.json"
        code, out, _ = run(
            capsys, "cohomology", "--fourier", "4", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert dest.read_text() == '{"zdim":4,"bdim":3,"h1dim":1}\n'

    def test_unwritable_out_file_is_exit_1(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "res.json"
        code, out, err = run(capsys, "cohomology", "--fourier", "4", "--out", str(dest))
        assert (code, out) == (1, "")
        assert err.startswith(f"qperm: error: cannot write {dest}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_console_script_matches_in_process(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from qperm.cli import main; sys.exit(main(['cohomology', '--fourier', '4']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        _, out, _ = run(capsys, "cohomology", "--fourier", "4")
        assert proc.stdout == out

    def test_float_rendering_is_17_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "central", "--n", "5", "--atoms", "1:1", "--smax", "1"
        )
        # hunt(chi_1) = (chi_1(1) - chi_1(5))/(5 - 1) = -1; value -1/d_1 = -0.25
        assert '"values":[0,-0.25]' in out
        code, out, _ = run(capsys, "central", "--n", "4", "--atoms", "0:1", "--smax", "1")
        assert '"values":[0,-0.33333333333333331]' in out
