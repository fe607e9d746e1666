"""Command-line interface: payloads, formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qperm
from qperm import cli
from qperm.cli import main
from qperm.errors import ValidationError
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

    @pytest.mark.parametrize("mult", ["0", "-1"])
    def test_multiplicity_below_one_is_exit_1(self, capsys, mult):
        code, out, err = run(capsys, "cohomology", "--sigma", "(1 2)", "--mult", mult)
        assert code == 1
        assert out == ""
        assert err == f"qperm: error: multiplicity must be >= 1, got {mult}\n"

    def test_missing_representation_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology"])
        assert exc.value.code == 64

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_basis_with_csv_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", "--fourier", "4", "--basis", "--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 64
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "qperm: error: --basis needs --format json"


class TestSigmaInput:
    """--sigma entries are decimal integers; the ambient size is charged before it is built."""

    CASES = [("(a b)", 1, "qperm: error: cycle entry 'a' in '(a b)' is not a decimal integer"),
             ("(1 2.5)", 1, "qperm: error: cycle entry '2.5' in '(1 2.5)' is not a decimal integer"),
             ("(1 99999999999)", 2, "qperm: budget error: the permutation needs 99999999999 points, "
                                    "over the term budget 10000000")]

    @pytest.mark.parametrize("sigma,code,line", CASES)
    def test_cohomology_is_a_one_line_error(self, sigma, code, line):
        # a fresh process, so a traceback would show on stderr
        proc = subprocess.run([sys.executable, "-m", "qperm.cli", "cohomology", "--sigma", sigma],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line + "\n")

    @pytest.mark.parametrize("sigma,code,line", CASES)
    @pytest.mark.parametrize("command", [["verify"], ["semigroup", "--time", "1"]])
    def test_process_commands_give_the_same_error(self, capsys, command, sigma, code, line):
        assert run(capsys, *command, "--sigma", sigma, "--rates", "1") == (code, "", line + "\n")

    def test_the_block_entries_are_charged_before_they_are_built(self, capsys, budget):
        # n^2 d^2 entries: 2^2 5^2 = 100 fit a budget of 100, 2^2 6^2 = 144 do not;
        # the budget of 100 then stops d = 5 at the cocycle space, 3 (n d)^2 = 300
        budget(100)
        got = run(capsys, "cohomology", "--sigma", "(1 2)", "--mult", "5")
        assert got == (2, "", "qperm: budget error: the cocycle space needs "
                              "300 complex entries, over the term budget 100\n")
        got = run(capsys, "cohomology", "--sigma", "(1 2)", "--mult", "6")
        assert got == (2, "", "qperm: budget error: the permutation representation needs "
                              "144 complex entries, over the term budget 100\n")

    def test_the_ambient_size_is_charged_with_or_without_n(self, capsys, budget):
        # 5 points fit a budget of 5; their representation, 5^2 entries, does not
        budget(5)
        got = run(capsys, "cohomology", "--sigma", "(1 5)")
        assert got == (2, "", "qperm: budget error: the permutation representation needs "
                              "25 complex entries, over the term budget 5\n")
        for argv in (["--sigma", "(1 6)"], ["--sigma", "(1 2)", "--n", "6"],
                     ["--sigma", "id", "--n", "6"]):
            got = run(capsys, "cohomology", *argv)
            assert got == (2, "", "qperm: budget error: the permutation needs 6 points, "
                                  "over the term budget 5\n")


def _address_space_cap():
    # a guard that failed would start a 75 GB or 650 MB allocation; cap the child at 3 GB
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30, 3 * 2 ** 30))


class TestCohomologyBudget:
    """Fourier sizes past the term budget exit 2 before their arrays are built."""

    @pytest.mark.parametrize("n,line", [
        ("100000", "qperm: budget error: the Fourier matrix needs 10000000000 complex entries, "
                   "over the term budget 10000000"),
        ("56", "qperm: budget error: the Hadamard representation needs 10010112 complex entries, "
               "over the term budget 10000000"),
    ], ids=["fourier100000", "fourier56"])
    def test_is_a_one_line_budget_error(self, n, line):
        # a fresh process, so a traceback would show on stderr; n = 56 took about 40 s
        # and 650 MB before the representation was charged
        proc = subprocess.run([sys.executable, "-m", "qperm.cli", "cohomology", "--fourier", n],
                              capture_output=True, text=True, timeout=20,
                              preexec_fn=_address_space_cap)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")

    def test_largest_fourier_size_past_the_representation(self, capsys):
        # 43^4 + 43^3 entries fit, but 3 (43^2)^2 for the cocycle space do not
        got = run(capsys, "cohomology", "--fourier", "43")
        assert got == (2, "", "qperm: budget error: the cocycle space needs 10256403 complex "
                              "entries, over the term budget 10000000\n")


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

    def test_sixteen_cycle_answers(self, capsys):
        sigma = "(" + " ".join(map(str, range(1, 17))) + ")"
        code, out, _ = run(capsys, "verify", "--sigma", sigma, "--rates", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["symmetric"] is False
        assert payload["tracial"] is True
        assert payload["poisson"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_is_exit_1(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--sigma", "(1 2)", "--rates", "1", f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert err.startswith("qperm: error: tol must be finite and > 0") and err.count("\n") == 1

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

    @pytest.mark.parametrize("option, blob, key", [
        ("--triple", {"rep": [1, 2], "xs": []}, "entries"),
        ("--hadamard", {}, "H"),
        ("--magic", [1, 2], "entries"),
        ("--magic", {}, "entries"),
    ])
    def test_json_without_its_object_or_key_is_exit_1(self, capsys, tmp_path, option, blob, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        command = "verify" if option == "--triple" else "cohomology"
        code, out, err = run(capsys, command, option, str(path))
        assert (code, out) == (1, "")
        assert err == f"qperm: error: expected a JSON object with the key {key!r}\n"

    def test_non_finite_magic_entries_are_exit_1(self, capsys, tmp_path):
        blob = from_hadamard(fourier(2)).to_json()
        blob["entries"][0][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "cohomology", "--magic", str(path))
        assert (code, out) == (1, "")
        assert err == "qperm: error: complex JSON arrays must hold finite numbers\n"

    def test_non_magic_representation_is_exit_1(self, capsys, tmp_path):
        # finite blocks that are not projections; the zero tuple meets the cocycle conditions
        rep = MagicUnitary(np.arange(16.0).reshape(2, 2, 2, 2))
        path = triple_file(tmp_path, rep, np.zeros((2, 2)))
        code, out, err = run(capsys, "verify", "--triple", path)
        assert (code, out) == (1, "")
        assert err.startswith("qperm: error: not a magic unitary within tol=1e-09: ")
        assert err.count("\n") == 1 and "Traceback" not in err

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

    @pytest.mark.parametrize("rates, time, need", [
        ("1", "1e7", "55555610"),  # 55 terms in ceil(1e7 / 9.9) steps
        ("1", "1e308", "inf"),  # the trace of t L overflows
        ("1e300", "1e10", "inf"),  # t L overflows
    ])
    def test_exponential_past_the_budget_is_exit_2(self, capsys, rates, time, need):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "semigroup", "--sigma", "(1 2)", "--rates", rates, "--time", time
            )
        assert (code, out) == (2, "")
        assert err == (f"qperm: budget error: the exponential action needs {need} matrix "
                       "products, over the term budget 10000000\n")

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

    @pytest.mark.parametrize("args", [("--a", "nan"), ("--a", "inf"), ("--atoms", "nan:1"),
                                      ("--atoms", "1:inf")])
    def test_non_finite_input_is_exit_1(self, capsys, args):
        code, out, err = run(capsys, "central", "--n", "4", *args)
        assert code == 1
        assert out == ""
        assert "must hold finite numbers" in err and err.count("\n") == 1

    def test_malformed_atoms_is_exit_1(self, capsys):
        code, _, _ = run(capsys, "central", "--n", "4", "--atoms", "nope")
        assert code == 1

    def test_dimensions_beyond_float_range_are_one_line_exit_1(self):
        # a fresh process, so a traceback or a numpy warning would show on stderr
        proc = subprocess.run([sys.executable, "-m", "qperm.cli", "central", "--n", "100",
                               "--smax", "200"], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("qperm: error: the dimensions at n=100 leave the float range "
                               "at s=155; the largest usable s_max is 154\n")


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


# --- the serializer before bulk array output, kept as the reference -----------


def reference_f(x) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("cannot serialize a non-finite number")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def reference_emit(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(reference_f(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.write(f"[{reference_f(obj.real)},{reference_f(obj.imag)}]")
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for pos, (key, val) in enumerate(obj.items()):
            if pos:
                out.write(",")
            out.write(json.dumps(str(key)))
            out.write(":")
            reference_emit(val, out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        for pos, val in enumerate(obj):
            if pos:
                out.write(",")
            reference_emit(val, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_to_json(obj) -> str:
    buf = io.StringIO()
    reference_emit(obj, buf)
    buf.write("\n")
    return buf.getvalue()


def outcome(to_json, obj):
    """The text, or the exception's type and message."""
    try:
        return to_json(obj)
    except (TypeError, ValidationError) as exc:
        return type(exc), str(exc)


# +-0.0, subnormals, the extremes, integral floats and ordinary values
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
           1.7976931348623157e308, 1e-300, -1e-300, 3.0, -7.0, 1e16, 2.0**53 + 2, 0.1, -1 / 3]
SHAPES = [(), (0,), (0, 5), (3, 0), (4,), (2, 3, 4)]


def special_array(shape, kind, rng):
    size = int(np.prod(shape))
    re = rng.choice(SPECIAL, size=size)
    if kind == "complex":
        return (re + 1j * rng.choice(SPECIAL, size=size)).reshape(shape)
    return re.reshape(shape)


class TestBulkEmitter:
    @pytest.mark.parametrize("kind", ["float", "complex"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_arrays_match_reference(self, shape, kind):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = special_array(shape, kind, rng)
            assert outcome(cli._to_json, a) == outcome(reference_to_json, a)

    def test_zero_dimensional_array_still_raises(self):
        # the reference iterates over it and fails; the bulk path leaves it to the same branch
        for a in (np.array(1.5), np.array(1 + 2j), np.array(np.nan)):
            assert outcome(cli._to_json, a) == (TypeError, "iteration over a 0-d array")
            assert outcome(reference_to_json, a) == (TypeError, "iteration over a 0-d array")

    def test_views_and_narrow_dtypes_match_reference(self):
        rng = np.random.default_rng(12)
        a = special_array((4, 6), "complex", rng)
        # within float32's range, with signed zeros
        b = rng.standard_normal((3, 4)) * 1e3 + 1j * rng.standard_normal((3, 4))
        b[0, 0], b[1, 2] = -0.0, complex(0.0, -0.0)
        for view in (a.T, a[:, ::2], a[::-1, 1:4], a.real.T, a.imag[1], np.asfortranarray(a),
                     b.astype(np.complex64), b.real.astype(np.float32),
                     b.imag.astype(np.float16)):
            assert outcome(cli._to_json, view) == outcome(reference_to_json, view)

    def test_mixed_containers_match_reference(self):
        rng = np.random.default_rng(13)
        obj = {
            "zdim": 4,
            "n": np.int64(7),
            "flag": np.bool_(True),
            "none": None,
            "name": "p(1,2) \"q\"",
            "x": -0.0,
            "y": np.float64(1e-300),
            "z": np.float32(0.1),
            "w": complex(-0.0, 2.5),
            "v": np.complex128(1e308 - 3j),
            "basis": special_array((3, 5), "complex", rng),
            "rows": [special_array((4,), "float", rng), 1.5, [np.float64(2.0), 3]],
            "pairs": (special_array((2, 2), "float", rng), special_array((0, 3), "complex", rng)),
            "ints": np.arange(6).reshape(2, 3),
            "bools": np.array([True, False]),
            7: [],
        }
        assert cli._to_json(obj) == reference_to_json(obj)
        assert cli._to_json([obj, [obj]]) == reference_to_json([obj, [obj]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["float", "complex"])
    def test_non_finite_raises_the_same_error(self, bad, kind):
        rng = np.random.default_rng(14)
        for shape, pos in (((4,), 3), ((2, 3, 4), 17), ((3, 5), 0)):
            a = special_array(shape, kind, rng)
            a.flat[pos] = bad if kind == "float" else complex(1.0, bad)
            for obj in (a, {"ok": 1.0, "basis": a}, [a.tolist()], a.flat[pos]):
                got = outcome(cli._to_json, obj)
                assert got == outcome(reference_to_json, obj)
                assert got == (ValidationError, "cannot serialize a non-finite number")


# --- one subparser per call -----------------------------------------------------

REPRESENTATIVE_ARGV = {
    "cohomology": [["cohomology", "--fourier", "4"],
                   ["cohomology", "--sigma", "(1 2)", "--n", "3", "--mult", "2", "--basis",
                    "--rank-threshold", "1e-8", "--out", "x.json"]],
    "verify": [["verify", "--sigma", "(1 2 3)", "--rates", "1.0"],
               ["verify", "--triple", "t.json", "--max-word-len", "3", "--tol", "1e-6",
                "--format", "csv"]],
    "semigroup": [["semigroup", "--sigma", "(1 2)", "--rates", "1"],
                  ["semigroup", "--triple", "t.json", "--time", "0,1", "--word", "p(1,1)",
                   "--word", "p(1,2) p(2,1)"]],
    "central": [["central", "--n", "4"],
                ["central", "--n", "5", "--a", "0.5", "--atoms", "0:1", "--smax", "3",
                 "--format", "csv"]],
    "simulate": [["simulate", "--sigma", "(1 2)", "--rates", "1", "--t", "2"],
                 ["simulate", "--sigma", "(1 2 3)", "--rates", "1", "--t", "1", "--samples", "9",
                  "--seed", "3", "--n", "4", "--paths", "p.csv", "--times", "0,1"]],
    "selftest": [["selftest"], ["selftest", "--full", "--only", "a", "--only", "b", "--list",
                                "--format", "json"]],
}


def parse_outcome(parser, argv):
    """parse_args' namespace, or its exit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestOneSubparser:
    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("name", list(REPRESENTATIVE_ARGV))
    def test_chosen_parser_matches_full_build(self, name):
        chosen = parse_outcome(cli.build_parser([name, "--help"]), [name, "--help"])
        full = parse_outcome(cli.build_parser(), [name, "--help"])
        assert chosen == full
        assert chosen[0] == 0 and chosen[1].startswith(f"usage: qperm {name} ")
        for argv in REPRESENTATIVE_ARGV[name]:
            got = cli.build_parser(argv).parse_args(argv)
            assert isinstance(got, argparse.Namespace)
            assert got == cli.build_parser().parse_args(argv)
        # a usage error inside the subcommand reads the same
        argv = [name, "--no-such-flag"]
        assert parse_outcome(cli.build_parser(argv), argv) == parse_outcome(
            cli.build_parser(), argv)

    def test_only_the_named_subparser_is_built(self):
        code, _, err = parse_outcome(cli.build_parser(["central"]), ["verify", "--sigma", "(1 2)"])
        assert code == 64
        assert "invalid choice: 'verify' (choose from 'central')" in err

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--version"], [], ["bogus"],
                                      ["-h", "cohomology"], ["--version", "verify"]], ids=str)
    def test_top_level_output_unchanged(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        got = exc.value.code, out.getvalue(), err.getvalue()
        assert got == parse_outcome(cli.build_parser(), argv)
        assert got[0] == (64 if argv in ([], ["bogus"]) else 0)
        if got[0] == 0 and argv[0] != "--version":
            for name, (help_line, _) in cli.COMMANDS.items():
                assert name in got[1] and help_line in got[1]
        if argv == ["bogus"]:
            assert got[2].endswith(
                "invalid choice: 'bogus' (choose from 'cohomology', 'verify', 'semigroup', "
                "'central', 'simulate', 'selftest')\n")


# sys.modules["scipy"] = None makes every import of scipy or a submodule raise
WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import numpy as np
import qperm
from qperm.cli import main

rep = qperm.from_hadamard(qperm.fourier(4))
t = qperm.SchurmannTriple(rep, qperm.random_cocycle(rep, np.random.default_rng(0)))
words = [qperm.parse_word(text, 4) for text in ("p(1,2) p(2,3)", "p(1,1)", "p(1,2) p(2,3) p(3,4)")]
qperm.conv_exp(t, 0.5, words[0])
qperm.state_table(t, 0.5, words)
qperm.fundamental_semigroup(t, 0.5)
codes = {}
for argv in (
    ["semigroup", "--sigma", "(1 2)", "--rates", "1.0", "--time", "0,1", "--word", "p(1,1)"],
    ["verify", "--sigma", "(1 2 3)", "--rates", "1.0"],
    ["simulate", "--sigma", "(1 2 3 4)", "--rates", "1.0", "--t", "1.0", "--samples", "1000",
     "--seed", "7"],
    ["cohomology", "--fourier", "4"],
    ["central", "--n", "4", "--smax", "2", "--atoms", "0:1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = main(argv)
print(json.dumps(codes))
"""


class TestWithoutScipy:
    def test_library_and_cli_run_with_scipy_blocked(self):
        src = str(Path(qperm.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == dict.fromkeys(
            ["semigroup", "verify", "simulate", "cohomology", "central"], 0)
