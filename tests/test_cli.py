import argparse
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entsig import (
    AnsatzParams,
    ShotBudget,
    evaluate,
    ghz_state,
    inequality_to_json_dict,
    predicted_counts,
)
import entsig
import entsig.cli as cli
import entsig.significance as significance
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


# `report` of the Mermin tables that `predict --p 0.05` writes, predicted and
# sampled with seed 5: CSV bytes, and the JSON's mode and total count.  No golden
# reaches `report`, which reads a file, so its bytes are pinned here.
REPORT_BYTES = {
    (): ("predicted", 8000.0, """kind,label,mean,error,extra
setting,XXXX,1,0,1000
setting,XXYY,0.81,0.018544541,1000
setting,XYXY,0.81,0.018544541,1000
setting,XYYX,0.81,0.018544541,1000
setting,YXXY,0.81,0.018544541,1000
setting,YXYX,0.81,0.018544541,1000
setting,YYXX,0.81,0.018544541,1000
setting,YYYY,0.6561,0.0238648861,1000
total,mermin4,2.5161,0.0513121115,49.0352068
"""),
    ("--seed", "5"): ("sampled", 7993.0, """kind,label,mean,error,extra
setting,XXXX,1,0,1000
setting,XXYY,0.812562313,0.0184045187,1003
setting,XYXY,0.801571709,0.0187393138,1018
setting,XYYX,0.823874755,0.0177289438,1022
setting,YXXY,0.818181818,0.0184799006,968
setting,YXYX,0.804281346,0.0189729008,981
setting,YYXX,0.80239521,0.0188534089,1002
setting,YYYY,0.633633634,0.0244766731,999
total,mermin4,2.49650078,0.0515775133,48.4028916
"""),
}


@pytest.mark.parametrize("seed", sorted(REPORT_BYTES))
def test_report_bytes(tmp_path, capsys, seed):
    mode, total, csv = REPORT_BYTES[seed]
    path = tmp_path / "counts.json"
    assert run_cli(capsys, "predict", "--p", "0.05", *seed, "--out", str(path)) == (0, "", "")
    assert run_cli(capsys, "report", "--counts", str(path), "--format", "csv") == (0, csv, "")
    # the JSON holds the CSV's 9-digit numbers, each a float
    *rows, (_, name, v, e, s) = (line.split(",") for line in csv.splitlines()[1:])
    settings = [{"label": label, "mean": float(m), "error": float(err), "n_total": float(n)} for _, label, m, err, n in rows]
    report = {"violation": float(v), "error": float(e), "significance": float(s), "degenerate": False,
              "settings": settings, "metadata": {"inequality": name, "lhv_bound": 4.0, "mode": mode, "total_counts": total}}
    assert run_cli(capsys, "report", "--counts", str(path)) == (0, json.dumps(report, indent=2) + "\n", "")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bound, v", [(1e300, "-1e+300"), (-1e300, "1e+300")])
def test_report_refuses_a_significance_past_the_float_range(tmp_path, capsys, fmt, bound, v):
    # V = -+1e300 and E = 2.2e-85 are finite, V/E is not: one error line, no numpy warning
    ineq, counts = tmp_path / "zz.json", tmp_path / "counts.json"
    ineq.write_text(json.dumps({"name": "zz", "n_qubits": 2, "lhv_bound": bound,
                                "settings": [{"label": "XX", "coefficients": [1, 1.000000001, 1, 1]}]}))
    counts.write_text(json.dumps({"inequality": "zz", "mode": "predicted", "settings": [{"label": "XX", "counts": [1e150] * 4}]}))
    message = f"error: inequality 'zz' has no finite significance: V {v}, E 2.1650636885992548e-85\n"
    assert run_cli(capsys, "report", "--counts", str(counts), "--inequality", str(ineq), "--format", fmt) == (3, "", message)


SWEEP = significance.SweepTable("bitflip", 1, 8.0, ("M",), np.zeros(1), np.ones(1), {"M": dict(V=np.ones(1), E=np.ones(1), S=np.ones(1))})


# each JSON writer with the value x in one of its float fields, and where the written x is found
@pytest.mark.parametrize("write, read", [
    (lambda x: significance.SignificanceReport(1.0, 0.0, x).to_json_dict(), lambda d: d["significance"]),
    (lambda x: dataclasses.replace(SWEEP, values={"M": {**SWEEP.values["M"], "S": np.array([x])}}).to_json_dict(),
     lambda d: d["rows"][0]["S_M"]),
    (lambda x: significance.MonteCarloSummary(100, 1.0, 1.0, 1.0, 1.0, x, 0.5).to_json_dict(), lambda d: d["std_ratio"]),
    (lambda x: json.loads(cli._dump_json({"S": (x, 1 / 3)})), lambda d: d["S"][0]),
], ids=["report", "sweep", "montecarlo", "cli"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=str)
def test_json_writers_spell_non_finite_floats_alike(write, read, x):
    data = write(x)
    json.dumps(data, allow_nan=False)
    assert read(data) == str(x)


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

    def test_amplitude_scale_keeps_the_result(self, capsys):
        # 2**k (0.8, 0.6) is the default state; where the squares underflowed, k = -540 read "all zero"
        # and (1e-160, 1e-160) "not normalized"
        _, out, _ = run_cli(capsys, "improve")
        line, payload = out.split("\n", 1)
        default = json.loads(payload)
        for k in [*range(-1020, 1, 17), -540, -600, -700, -1000]:
            c0, c1 = math.ldexp(0.8, k), math.ldexp(0.6, k)
            code, out, err = run_cli(capsys, "improve", f"--c0={c0!r}", f"--c1={c1!r}")
            assert (code, err, out.split("\n", 1)[0]) == (0, "", line), k
            got = json.loads(out.split("\n", 1)[1])
            assert got.pop("state") == {"c0": float(f"{c0:.9g}"), "c1": float(f"{c1:.9g}"),
                                        "normalization": float(f"{math.ldexp(default['state']['normalization'], k):.9g}")}, k
            assert got == {key: v for key, v in default.items() if key != "state"}, k
        assert run_cli(capsys, "improve", "--c0=1e-160", "--c1=1e-160") == run_cli(capsys, "improve", "--c0=1", "--c1=1")

    @pytest.mark.parametrize("option, value, a, b, exact", [
        ("--a", "1e-150", 1e-150, 1.9599999999999996e+148, -0.47999999999999976),
        ("--b", "1e150", 0.23999999999999988, 1e150, -0.23999999999999988),
    ])
    def test_parameters_lost_to_round_off(self, capsys, option, value, a, b, exact):
        # <W'> = <W> + a exactly; these pairs swamp it and used to print S after = -0.258064516
        code, out, err = run_cli(capsys, "improve", option, value)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: parameters a = {a!r} and b = {b!r} lose <W'> to round-off: got ")
        assert err.endswith(f", exact <W> + a = {exact!r}\n") and err.count("\n") == 1

    def test_a_too_large_named_in_error(self, capsys):
        code, _, err = run_cli(capsys, "improve", "--a", "0.9")
        assert code == 2
        assert "detected" in err

    @pytest.mark.parametrize("option, value", [("--b", "1e5"), ("--a", "1e-8")])
    def test_exact_eigenstate_at_large_parameters(self, capsys, option, value):
        # W' has entries of size max(a, b), so the deviation of its exact
        # eigenstate is round-off of that size; it used to print
        # S after = 1.13742462e+10 and 858993424
        code, out, err = run_cli(capsys, "improve", option, value)
        assert (code, err) == (0, "")
        assert out.startswith("S before = 3.42857143  S after = inf\n")
        assert json.loads(out.split("\n", 1)[1])["significance_after"] == "inf"


def test_closed_pipe_exits_one_quietly():
    # the reader of stdout is gone before the command writes: exit 1, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(entsig.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "entsig.cli", "improve", "--b", "1e5"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


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

    def test_one_generator_per_trial_for_both_inequalities(self, capsys, monkeypatch):
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: built.append(a) or default_rng(*a, **k))
        code, _, _ = run_cli(capsys, "montecarlo", "--trials", "100", "--inequality", "both")
        assert code == 0
        assert len(built) == 100

    def test_one_estimate_pass_per_block(self, capsys, monkeypatch):
        # 2000 trials in blocks of 128 for both inequalities: 16 blocks x 2 passes, plus the 2 predicted violations
        calls = []
        estimates = significance.setting_estimates
        monkeypatch.setattr(significance, "setting_estimates", lambda *a: calls.append(1) or estimates(*a))
        assert run_cli(capsys, "montecarlo")[0] == 0
        assert len(calls) == 34


class TestCountRange:
    # counts too large to sample, and setting totals whose square leaves the
    # normal floating-point range, are refused by name with no warning
    @pytest.mark.parametrize("argv", [
        ["predict", "--shots", "1e300", "--seed", "1"],
        ["montecarlo", "--shots", "1e200", "--trials", "100"],
    ])
    def test_too_large_to_sample(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: expected count \S+ in setting 'XXXX' is too large to sample\n", err)

    def test_predicting_needs_no_sampling(self, capsys):
        code, out, err = run_cli(capsys, "predict", "--shots", "1e300")
        assert (code, err) == (0, "")
        assert "1.5625e+298" in out

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "0.1:0.2:2", "--shots", "1e160"],
        ["sweep", "--grid", "0.1:0.2:2", "--shots", "1e-300"],
        ["montecarlo", "--shots", "1e-300", "--trials", "100"],
        ["crossing", "--shots", "1e160"],
    ])
    def test_total_out_of_range_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: setting total \S+ has no finite positive normal square\n", err)

    def test_total_out_of_range_in_a_table_is_data_error(self, tmp_path, capsys, rho_ghz4, mermin4):
        path = tmp_path / "huge.json"
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(1e160, mermin4))
        path.write_text(json.dumps(table.to_json_dict()))
        code, _, err = run_cli(capsys, "report", "--counts", str(path))
        assert code == 3
        assert err.startswith("error: setting total 1.249") and err.count("\n") == 1

    # JSON integers have no bound; a count past the float range, or a sampled
    # count past int64, is refused by name, and int64 counts total in floats
    @pytest.mark.parametrize("count, message", [
        (10**400, "malformed count table: int too large to convert to float"),
        (10**19, "sampled counts must be below 2**63 in setting 'XXXX'"),
    ], ids=["past_float", "past_int64"])
    def test_count_past_a_number_range_is_data_error(self, tmp_path, capsys, mermin4, count, message):
        data = {"inequality": mermin4.name, "mode": "sampled",
                "settings": [{"label": s.label, "counts": [100] * 16} for s in mermin4.settings]}
        data["settings"][0]["counts"][0] = count
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "report", "--counts", str(path)) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("count, message", [
        ("1", "count '1' in setting 'XXXX' is not a number"),
        (True, "count True in setting 'XXXX' is not a number"),
    ], ids=["string", "boolean"])
    def test_string_or_boolean_count_is_data_error(self, tmp_path, capsys, mermin4, count, message):
        # float() reads "1" and true as the count 1, so the table was evaluated
        data = {"inequality": mermin4.name,
                "settings": [{"label": s.label, "counts": [100] * 16} for s in mermin4.settings]}
        data["settings"][0]["counts"][0] = count
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "report", "--counts", str(path)) == (3, "", f"error: {message}\n")

    def test_total_past_int64_is_exact(self, tmp_path, capsys, mermin4):
        data = {"inequality": mermin4.name, "mode": "sampled",
                "settings": [{"label": s.label, "counts": [4 * 10**18] * 16} for s in mermin4.settings]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "report", "--counts", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["metadata"]["total_counts"] == 8 * 16 * 4e18


class TestOverflowEdges:
    def test_tiny_error_prints_finite_significance(self, capsys):
        # E below 1e-12 is still an error: S = V/E, not inf or 0
        code, out, err = run_cli(capsys, "sweep", "--grid", "0.1:0.2:2", "--shots", "1e26")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "0.1,0.6562,1.2496,5.91582815e-13,2.11229936e+12,2.42117288,9.94972476e-13,2.43340689e+12",
            "0.2,0.4112,-0.7104,7.04590879e-13,-1.00824467e+12,0.461172875,1.0660433e-12,4.32602388e+11",
        ]

    def test_overflowing_coefficients_are_data_error(self, tmp_path, capsys, rho_ghz4, mermin4):
        from entsig import apply_noise

        data = inequality_to_json_dict(mermin4)
        for entry in data["settings"]:
            entry["coefficients"] = [c * 1e200 for c in entry["coefficients"]]
        data["lhv_bound"] *= 1e200
        ineq, counts = tmp_path / "huge.json", tmp_path / "counts.json"
        ineq.write_text(json.dumps(data))
        table = predicted_counts(apply_noise(rho_ghz4, "bitflip", 0.05), mermin4, ShotBudget.equal_split(8000, mermin4))
        counts.write_text(json.dumps(table.to_json_dict()))
        assert run_cli(capsys, "report", "--counts", str(counts), "--inequality", str(ineq)) == (
            3, "", "error: setting 'XXYY' has no finite estimate: mean 8.1e+199, error inf\n")

    def test_violation_past_the_float_range_is_data_error(self, tmp_path, capsys, rho_ghz4, mermin4):
        # each setting's mean is 1e308; their sum is not, nor is the dense operator the file builds
        data = inequality_to_json_dict(mermin4)
        for entry in data["settings"]:
            entry["coefficients"] = [c * 1e308 for c in entry["coefficients"]]
        data["lhv_bound"] = 0.0
        ineq, counts = tmp_path / "huge.json", tmp_path / "counts.json"
        ineq.write_text(json.dumps(data))
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        counts.write_text(json.dumps(table.to_json_dict()))
        assert run_cli(capsys, "report", "--counts", str(counts), "--inequality", str(ineq)) == (
            3, "", "error: inequality 'mermin4' has no finite violation and error: V inf, E 0.0\n")

    @pytest.mark.parametrize("option, value, a, b", [("--a", "1e-300", 1e-300, 1.9599999999999997e+298),
                                                     ("--b", "1e300", 0.23999999999999988, 1e300)])
    def test_improvement_parameters_need_a_finite_norm(self, capsys, option, value, a, b):
        message = f"error: parameters a and b must have a finite norm, got {a!r} and {b!r}\n"
        assert run_cli(capsys, "improve", option, value) == (2, "", message)


# every float option of every command, read from the parser; cheap arguments
# that let each command reach its own check of the option
_COMMANDS = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
FLOAT_OPTIONS = [(c, o) for c, p in _COMMANDS.items() for a in p._actions if a.type is float for o in a.option_strings]
CHEAP_ARGS = {"sweep": ["--state", "ansatz", "--grid", "0:0.1:2"], "crossing": ["--state", "ansatz"],
              "predict": ["--state", "ansatz"], "improve": [],
              "montecarlo": ["--state", "ansatz", "--trials", "100"]}


class TestNegativeFloatValues:
    # a separate '-inf' or '-1e-3' is a value, as argparse reads '-1' and
    # '-.5'; after a float option it reads as '--opt=-inf' does
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

    @pytest.mark.parametrize("argv, abbreviation", [
        (["sweep", *CHEAP_ARGS["sweep"], "--alpha", "-1e-3"], "--alph"),
        (["predict", "--state", "ansatz", "--lambda", "-1e-3"], "--lam"),
        (["crossing", "--state", "ansatz", "--gamma", "-inf"], "--gam"),
        (["montecarlo", *CHEAP_ARGS["montecarlo"], "--shots", "-1E3"], "--sh"),
    ])
    def test_abbreviated_option_reads_as_full(self, capsys, argv, abbreviation):
        full = run_cli(capsys, *argv)
        assert full[0] == 2 and full[2].startswith("error: ")
        i = len(argv) - 2
        assert run_cli(capsys, *argv[:i], abbreviation, argv[-1]) == full

    def test_ambiguous_prefix_is_left_to_argparse(self, capsys):
        # --s could be --shots or --state, so nothing is joined
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--s", "-1e-3", "--grid", "0:0.1:2"])
        assert exc.value.code == 2
        assert "ambiguous option: --s could match --shots, --state" in capsys.readouterr().err

    def test_any_option_takes_a_separate_negative_number(self, capsys):
        # the value is read, and then refused by the option's own check
        for seed in ("--seed", "--see"):
            with pytest.raises(SystemExit) as exc:
                main(["predict", seed, "-1e3"])
            assert exc.value.code == 2
            assert "argument --seed: invalid int value: '-1e3'" in capsys.readouterr().err
        assert run_cli(capsys, "sweep", "--grid", "-inf") == (2, "", "error: --grid must look like a:b:k, got '-inf'\n")


FLOAT_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
                                5e-324, -5e-324, 1e-310, -0.0]) | st.floats(-2.0, 2.0) | st.floats(2.0, 1e5)


def _float_inputs(command):
    """1-4 distinct float options of ``command``, each with a value and a spelling (joined or not)."""
    options = st.sampled_from([o for c, o in FLOAT_OPTIONS if c == command])
    inputs = st.lists(st.tuples(options, FLOAT_VALUES, st.booleans()), min_size=1, max_size=4, unique_by=lambda t: t[0])
    return st.tuples(st.just(command), inputs)


class TestFloatInputs:
    # any floats in either spelling of up to four float options of one command
    # are read or refused: exit 0 in silence, or 2, 3 or 4 with one line; no
    # traceback, no RuntimeWarning (the ansatz examples need four at once)
    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(sorted(CHEAP_ARGS)).flatmap(_float_inputs))
    @example(case=("improve", [("--a", 1e-300, False)]))  # an improved witness that overflows
    @example(case=("improve", [("--b", 1e300, True)]))
    # an ansatz whose renormalization overflows: gamma / 1e-300, and 1/tr for an I/16 of trace 1e-320
    @example(case=("sweep", [("--alpha", 1e-300, False), ("--beta", 0.0, False), ("--lambda", 0.0, False),
                             ("--gamma", 1e10, False)]))
    @example(case=("sweep", [("--alpha", 0.0, False), ("--beta", 0.0, False), ("--gamma", 0.0, False),
                             ("--lambda", 1e-320, False)]))
    def test_every_float_input_is_read_or_refused(self, case):
        command, inputs = case
        argv = [command, *CHEAP_ARGS[command]]
        for option, value, joined in inputs:
            argv += [f"{option}={value!r}"] if joined else [option, repr(value)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        pattern = {0: "", 4: r"no crossing: [^\n]*\n"}.get(code, r"error: [^\n]*\n")
        assert code in (0, 2, 3, 4) and re.fullmatch(pattern, err.getvalue()) and caught == []


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

    @pytest.mark.parametrize("command", ["sweep", "crossing", "predict"])
    def test_state_defaults_are_the_ansatz_defaults(self, command):
        args = build_parser().parse_args([command])
        assert AnsatzParams(args.alpha, args.beta, args.gamma, args.lam) == AnsatzParams()


class TestCachedParser:
    # main parses with one parser per process; argparse reads the terminal
    # width when it formats help, so a parser built at one width helps at another
    @staticmethod
    def help_text(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch):
        cli._parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "90")
        cli._parser()  # built at width 90
        for columns in ("60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in [["--help"]] + [[command, "--help"] for command in _COMMANDS]:
                cached = self.help_text(capsys, main, argv)
                assert cached == self.help_text(capsys, build_parser().parse_args, argv)
                assert cached.startswith("usage: entsig")

    def test_no_state_leaks_between_calls(self, capsys):
        predicted = run_cli(capsys, "predict")
        assert json.loads(predicted[1])["mode"] == "predicted"
        assert json.loads(run_cli(capsys, "predict", "--seed", "5")[1])["mode"] == "sampled"
        assert run_cli(capsys, "predict") == predicted

    def test_built_once_per_process(self, capsys):
        cli._parser.cache_clear()
        for argv in (["improve"], ["predict", "--p", "0.1"], ["crossing", "--state", "ansatz"]):
            assert run_cli(capsys, *argv)[0] == 0
        assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 2)  # one build_parser() call


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
