import argparse
import json
import math
from pathlib import Path

import pytest

from entsig import (
    ShotBudget,
    evaluate,
    ghz_state,
    inequality_to_json_dict,
    predicted_counts,
)
from entsig.cli import build_parser, main

# stdout, stderr and exit code of cheap commands, recorded with the same argv;
# the 9-digit output bytes are the contract every refactor keeps
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepCommand:
    def test_writes_csv_with_expected_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--noise", "bitflip", "--qubits", "4",
            "--shots", "8000", "--grid", "0:0.25:20", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,F,V_M,E_M,S_M,V_A,E_A,S_A"
        assert len(lines) == 21
        assert lines[1].split(",")[4] == "inf"

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--grid", "0:0.2:8", "--shots", "4000"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0:0.1:3", "--format", "json", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 3
        assert data["rows"][0]["S_M"] == "inf"

    def test_bad_grid_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--grid", "0:2:10")
        assert code == 2
        assert "grid" in err

    def test_ansatz_needs_four_qubits(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--state", "ansatz", "--qubits", "6", "--grid", "0:0.1:3")
        assert code == 2
        assert "qubits" in err

    @pytest.mark.parametrize("option, value", [("--lambda", "inf"), ("--alpha", "nan"), ("--gamma", "inf")])
    def test_non_finite_ansatz_parameter_is_one_error_line(self, capsys, option, value):
        params = {"--alpha": "0.362", "--beta": "0.522", "--gamma": "0.398", "--lambda": "0.12", option: value}
        expected = "error: ansatz parameters must be finite, got alpha={}, beta={}, gamma={}, lambda={}\n"
        result = run_cli(capsys, "sweep", "--state", "ansatz", option, value)
        assert result == (2, "", expected.format(*params.values()))

    def test_unwritable_path_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--grid", "0:0.1:3", "--out", "/nonexistent-dir/x.csv")
        assert code == 3


class TestCrossingCommand:
    def test_bitflip_four_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "crossing", "--noise", "bitflip", "--qubits", "4")
        assert code == 0
        first = out.strip().split("\n")[0]
        assert first.startswith("p_star = ")
        f_star = float(first.split("F_star = ")[1])
        assert abs(f_star - 0.70) < 0.01

    def test_no_crossing_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "crossing", "--span", "0.2:0.25")
        assert code == 4
        assert "no crossing" in err.lower()

    def test_json_written(self, tmp_path, capsys):
        out = tmp_path / "crossing.json"
        code, _, _ = run_cli(capsys, "crossing", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert {"p_star", "fidelity_star", "noise", "qubits"} <= set(data)


class TestReportCommand:
    def test_round_trip_matches_in_process(self, tmp_path, capsys, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        table = predicted_counts(rho_ghz4, mermin4, budget)
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(table.to_json_dict()))
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "report", "--counts", str(path), "--inequality", "mermin", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        reference = evaluate(table, mermin4)
        assert data["violation"] == pytest.approx(reference.violation, abs=1e-9)
        assert data["error"] == pytest.approx(reference.error, abs=1e-9)
        assert data["significance"] == "inf"

    def test_finite_significance_round_trip(self, tmp_path, capsys, mermin4):
        from entsig import DensityMatrix, apply_noise

        noisy = apply_noise(DensityMatrix.from_pure(ghz_state(4)), "bitflip", 0.05)
        budget = ShotBudget.equal_split(7500, mermin4)
        table = predicted_counts(noisy, mermin4, budget)
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(table.to_json_dict()))
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "report", "--counts", str(path), "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        reference = evaluate(table, mermin4)
        assert data["significance"] == pytest.approx(reference.significance, rel=1e-9)

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "report", "--counts", str(path))
        assert code == 3
        assert "JSON" in err or "json" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run_cli(capsys, "report", "--counts", "/no/such/file.json")
        assert code == 3

    def test_unknown_setting_labels_rejected(self, tmp_path, capsys):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "inequality": "mermin4",
            "settings": [{"label": "ZZZZ", "counts": [1] * 16}],
        }))
        code, _, err = run_cli(capsys, "report", "--counts", str(path))
        assert code == 3

    def test_extra_setting_is_data_error(self, tmp_path, capsys, rho_ghz4, mermin4):
        data = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4)).to_json_dict()
        data["settings"].append({"label": "ZZZZ", "counts": [1.0] * 16})
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "report", "--counts", str(path), "--inequality", "mermin")
        assert code == 3
        assert "ZZZZ" in err

    def test_table_of_other_inequality_is_data_error(self, tmp_path, capsys, rho_ghz4, mermin4):
        data = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4)).to_json_dict()
        data["inequality"] = "ardehali4"
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "report", "--counts", str(path), "--inequality", "mermin")
        assert code == 3
        assert "ardehali4" in err

    def test_zero_totals_rejected(self, tmp_path, capsys, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        data = predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()
        data["settings"][0]["counts"] = [0.0] * 16
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "report", "--counts", str(path))
        assert code == 3
        assert "no events" in err

    def test_custom_inequality_file(self, tmp_path, capsys, mermin4, rho_ghz4):
        ineq_path = tmp_path / "custom.json"
        ineq_path.write_text(json.dumps(inequality_to_json_dict(mermin4)))
        budget = ShotBudget.equal_split(8000, mermin4)
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        code, out, _ = run_cli(
            capsys, "report", "--counts", str(counts_path), "--inequality", str(ineq_path)
        )
        assert code == 0
        assert json.loads(out)["violation"] == pytest.approx(4.0, abs=1e-9)

    def test_non_finite_inequality_coefficient_is_data_error(self, tmp_path, capsys, mermin4, rho_ghz4):
        # json writes and reads a NaN coefficient as a bare NaN token
        data = inequality_to_json_dict(mermin4)
        data["settings"][0]["coefficients"][0] = math.nan
        ineq_path = tmp_path / "custom.json"
        ineq_path.write_text(json.dumps(data))
        budget = ShotBudget.equal_split(8000, mermin4)
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        code, out, err = run_cli(
            capsys, "report", "--counts", str(counts_path), "--inequality", str(ineq_path), "--format", "csv"
        )
        assert code == 3
        assert out == ""
        assert "coefficients must be finite" in err

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_inequality_coefficient_is_one_error_line(self, tmp_path, capsys, mermin4, rho_ghz4, bad):
        # json writes and reads an infinite coefficient as a bare Infinity
        # token; it must be rejected before numpy warns about inf * 0
        data = inequality_to_json_dict(mermin4)
        data["settings"][2]["coefficients"][7] = bad
        ineq_path = tmp_path / "custom.json"
        ineq_path.write_text(json.dumps(data))
        budget = ShotBudget.equal_split(8000, mermin4)
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        result = run_cli(capsys, "report", "--counts", str(counts_path), "--inequality", str(ineq_path))
        assert result == (3, "", "error: outcome coefficients must be finite\n")

    def test_repeated_setting_is_data_error(self, tmp_path, capsys):
        # a second entry for a label must not silently replace the first
        path = tmp_path / "counts.json"
        assert run_cli(capsys, "predict", "--out", str(path))[0] == 0
        data = json.loads(path.read_text())
        data["settings"].append({"label": "XXXX", "counts": [0, 1000] + [0] * 14})
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "report", "--counts", str(path), "--format", "csv")
        assert code == 3
        assert out == ""
        assert "'XXXX' twice" in err

    @pytest.mark.parametrize("description, message", [
        ({"name": "x", "n_qubits": 4, "lhv_bound": 4.0, "settings": [{"label": "XXXX"}]},
         "malformed inequality description"),
        ({"name": "x", "n_qubits": 4, "lhv_bound": 4.0, "settings": 5}, "malformed inequality description"),
        ({"name": "x", "n_qubits": 7, "lhv_bound": 1.0,
          "settings": [{"label": "X" * 7, "coefficients": [1.0] * 2**7}]}, "n_qubits must be in [1, 6]"),
        ({"name": "x", "n_qubits": 4, "lhv_bound": 4.0, "settings": []}, "at least one setting required"),
    ])
    def test_bad_custom_inequality_is_data_error(self, tmp_path, capsys, rho_ghz4, mermin4, description, message):
        ineq_path = tmp_path / "custom.json"
        ineq_path.write_text(json.dumps(description))
        counts_path = tmp_path / "counts.json"
        budget = ShotBudget.equal_split(8000, mermin4)
        counts_path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        code, out, err = run_cli(capsys, "report", "--counts", str(counts_path), "--inequality", str(ineq_path))
        assert code == 3
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("field, value, message", [
        ("lhv_bound", math.nan, "lhv_bound must be finite, got nan"),
        ("lhv_bound", math.inf, "lhv_bound must be finite, got inf"),
        ("lhv_bound", -math.inf, "lhv_bound must be finite, got -inf"),
        ("n_qubits", 4.7, "n_qubits must be a whole number, got 4.7"),
    ])
    def test_bad_number_in_inequality_file_is_data_error(self, tmp_path, capsys, rho_ghz4, mermin4,
                                                          field, value, message):
        ineq_path = tmp_path / "custom.json"
        ineq_path.write_text(json.dumps({**inequality_to_json_dict(mermin4), field: value}))
        counts_path = tmp_path / "counts.json"
        budget = ShotBudget.equal_split(8000, mermin4)
        counts_path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        code, out, err = run_cli(capsys, "report", "--counts", str(counts_path),
                                 "--inequality", str(ineq_path), "--format", "csv")
        assert (code, out) == (3, "")
        assert message in err

    @pytest.mark.parametrize("option", ["--counts", "--inequality"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, rho_ghz4, mermin4, option):
        # json.load raises the decode error, a ValueError that is not a JSON
        # syntax error: it stays a configuration error, not a data error
        counts_path, binary = tmp_path / "counts.json", tmp_path / "binary.json"
        budget = ShotBudget.equal_split(8000, mermin4)
        counts_path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        binary.write_bytes(b"\xff\xfe\x00")
        paths = {"--counts": str(counts_path), "--inequality": "mermin", option: str(binary)}
        code, out, err = run_cli(capsys, "report", *[x for item in paths.items() for x in item])
        assert (code, out) == (2, "")
        assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"

    def test_csv_format(self, tmp_path, capsys, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(predicted_counts(rho_ghz4, mermin4, budget).to_json_dict()))
        code, out, _ = run_cli(capsys, "report", "--counts", str(path), "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,label,mean,error,extra"
        assert lines[-1].startswith("total,")
        assert lines[-1].endswith("inf")


class TestPredictCommand:
    def test_emit_and_reload(self, tmp_path, capsys):
        out = tmp_path / "counts.json"
        code, _, _ = run_cli(capsys, "predict", "--inequality", "ardehali", "--p", "0.05", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "predicted"
        assert len(data["settings"]) == 16

    def test_sampled_mode_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["predict", "--p", "0.05", "--seed", "11"]
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["mode"] == "sampled"

    @pytest.mark.parametrize("argv, message", [
        (["--p", "nan"], "flip probability must be in [0, 1]"),
        (["--p", "-0.1"], "flip probability must be in [0, 1]"),
        (["--noise", "white", "--p", "nan"], "white-noise weight must be in [0, 1]"),
    ])
    def test_invalid_noise_strength_is_config_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "predict", *argv)
        assert code == 2
        assert message in err
        assert out == ""


@pytest.mark.parametrize("command", ["predict", "montecarlo"])
def test_negative_seed_names_the_option(capsys, command):
    code, out, err = run_cli(capsys, command, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


class TestImproveCommand:
    def test_default_demo(self, capsys):
        code, out, _ = run_cli(capsys, "improve")
        assert code == 0
        assert "S after = inf" in out
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["significance_after"] == "inf"
        assert payload["added_operator_psd"] is True
        assert payload["deviation_after"] < 1e-10

    def test_undetected_state_rejected(self, capsys):
        code, _, err = run_cli(capsys, "improve", "--c0", "1.0", "--c1", "0.0")
        assert code == 2
        assert "not detected" in err

    @pytest.mark.parametrize("option, value", [("--a", "nan"), ("--a", "inf"), ("--a", "0"),
                                               ("--b", "nan"), ("--b", "inf")])
    def test_bad_parameter_is_named(self, capsys, option, value):
        message = f"error: parameter {option[2:]} must be positive and finite, got {float(value)!r}\n"
        assert run_cli(capsys, "improve", option, value) == (2, "", message)

    @pytest.mark.parametrize("c0, c1", [("nan", "0.6"), ("inf", "0.6"), ("0.8", "-inf"), ("1e200", "1e200")])
    def test_amplitudes_need_a_finite_norm(self, capsys, c0, c1):
        # rejected before the norm divides them: no RuntimeWarning, no "not normalized"
        message = f"error: --c0 and --c1 must be finite with a finite norm, got {float(c0)!r} and {float(c1)!r}\n"
        assert run_cli(capsys, "improve", f"--c0={c0}", f"--c1={c1}") == (2, "", message)

    def test_a_too_large_named_in_error(self, capsys):
        code, _, err = run_cli(capsys, "improve", "--a", "0.9")
        assert code == 2
        assert "detected" in err


class TestMonteCarloCommand:
    def test_small_run_summary(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code, _, _ = run_cli(
            capsys, "montecarlo", "--p", "0.05", "--trials", "150",
            "--seed", "7", "--inequality", "mermin", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mermin"]["trials"] == 150
        assert 0.5 < data["mermin"]["std_ratio"] < 1.5

    def test_seed_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["montecarlo", "--p", "0.03", "--trials", "120", "--seed", "3", "--inequality", "ardehali"]
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_trials_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "montecarlo", "--trials", "10")
        assert code == 2
        assert "trials" in err


# every float option of every command, read from the parser; cheap arguments
# that let each command reach its own check of the option
_COMMANDS = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
FLOAT_OPTIONS = [(c, o) for c, p in _COMMANDS.items() for a in p._actions if a.type is float for o in a.option_strings]
CHEAP_ARGS = {"sweep": ["--state", "ansatz", "--grid", "0:0.1:2"], "crossing": ["--state", "ansatz"],
              "predict": ["--state", "ansatz"], "improve": [],
              "montecarlo": ["--state", "ansatz", "--trials", "100"]}


class TestNegativeFloatValues:
    # argparse reads a separate '-inf' or '-1e-3' as an option name; as the
    # value of a float option it must read as '--opt=-inf' does
    def test_every_float_option_is_covered(self):
        assert {o for _, o in FLOAT_OPTIONS} == {"--shots", "--alpha", "--beta", "--gamma", "--lambda",
                                                 "--p", "--c0", "--c1", "--a", "--b"}
        assert {c for c, _ in FLOAT_OPTIONS} == set(CHEAP_ARGS)

    @pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
    def test_separate_value_reads_as_joined(self, capsys, command, option):
        joined = run_cli(capsys, command, *CHEAP_ARGS[command], f"{option}=-inf")
        assert joined[0] == 2 and joined[2].startswith("error: ")
        assert run_cli(capsys, command, *CHEAP_ARGS[command], option, "-inf") == joined

    @pytest.mark.parametrize("value", ["-1e-9", "-1E-9", "-.1e-8"])
    def test_exponent_form_runs(self, capsys, value):
        joined = run_cli(capsys, "sweep", *CHEAP_ARGS["sweep"], f"--lambda={value}")
        assert joined[0] == 0
        assert run_cli(capsys, "sweep", *CHEAP_ARGS["sweep"], "--lambda", value) == joined

    def test_int_option_is_not_joined(self):
        # only float options take a separate negative float; --seed stays as argparse reads it
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--seed", "-1e3"])
        assert exc.value.code == 2


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--shots", "nan", "--grid", "0:0.1:3"],
        ["sweep", "--shots", "inf", "--grid", "0:0.1:3"],
        ["montecarlo", "--shots", "nan", "--trials", "100"],
        ["montecarlo", "--shots", "inf", "--trials", "100"],
    ])
    def test_non_finite_shots_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "copies" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["report", "--counts", "counts.json", "--shots", "5"],
        ["improve", "--shots", "5"],
    ])
    def test_shots_only_where_it_is_read(self, argv):
        # only the commands that simulate a state take a shot budget
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_choice_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--noise", "pink"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["crossing", "improve", "predict"])
def test_empty_out_is_data_error(capsys, command):
    # every command sends --out through the same writer: "" is a path, not stdout
    code, _, err = run_cli(capsys, command, "--out", "")
    assert code == 3
    assert "cannot write ''" in err


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_recording(capsys, name):
    case = GOLDEN[name]
    assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])
