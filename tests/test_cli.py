import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optomech import scenarios
from optomech.cli import main
from optomech.runner import ConfigError, run_scenario

from conftest import approx_rel


ALL_SCENARIOS = list(scenarios.SCENARIOS)


def run_cli(args):
    return main(args)


def test_list_scenarios(capsys):
    assert run_cli(["list-scenarios"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split("\t")[0] for line in lines]
    assert names == ALL_SCENARIOS
    assert len(names) == 13


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_bundled_scenarios_run(name, tmp_path, capsys):
    out = tmp_path / name
    assert run_cli(["run", name, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["scenario"] == name
    assert result["schema_version"] == 1
    for value in result["results"].values():
        assert set(value) == {"value", "unit"}
    for artifact in result["artifacts"]:
        assert (out / artifact).exists()


def test_scenario_names_unique_and_headline_values(tmp_path):
    assert len(set(ALL_SCENARIOS)) == len(ALL_SCENARIOS)
    assert "paper_si_horizontal_g" in ALL_SCENARIOS
    assert "paper_eq26_unity_ratio" in ALL_SCENARIOS
    out = tmp_path / "sens"
    run_cli(["run", "paper_fig3_sensitivity", "--out", str(out)])
    result = json.loads((out / "result.json").read_text())
    floor = result["results"]["shot_floor_pdh_m_per_sqrt_hz"]["value"]
    approx_rel(floor, 2.6e-16, 0.05)
    out2 = tmp_path / "qba"
    run_cli(["run", "paper_eq26_unity_ratio", "--out", str(out2)])
    qba = json.loads((out2 / "result.json").read_text())["results"]
    assert set(qba) >= {"s_ff_th", "s_ff_qba", "ratio",
                        "heisenberg_product_over_hbar2"}
    approx_rel(qba["heisenberg_product_over_hbar2"]["value"], 0.5, 1e-9)


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["run", "paper_fig2c_thermal", "--out", str(out)]) == 0
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
    assert (a / "thermal_spectrum.csv").read_bytes() \
        == (b / "thermal_spectrum.csv").read_bytes()


def test_run_config_file(tmp_path, capsys):
    config = scenarios.get_scenario("paper_si_horizontal_g")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    approx_rel(result["results"]["coupling_rate_hz_per_nm"]["value"],
               62.9e6, 0.01)


def test_stdout_matches_result_file(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(["run", "paper_decay_length", "--out", str(out)])
    printed = capsys.readouterr().out
    assert json.loads(printed) == json.loads((out / "result.json").read_text())


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli(["run", str(path)]) == 2


def test_missing_section_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "analysis": "spectrum"}))
    assert run_cli(["run", str(path)]) == 2
    assert "cavity" in capsys.readouterr().err


def test_bad_grid_exits_2(tmp_path, capsys):
    config = scenarios.get_scenario("paper_fig2c_thermal")
    config["grid"] = {"f_min_hz": 1e6, "f_max_hz": 2e6, "points": 1}
    path = tmp_path / "bad_grid.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == 2
    assert "grid" in capsys.readouterr().err


def test_unknown_analysis_exits_2(tmp_path, capsys):
    config = scenarios.get_scenario("paper_decay_length")
    config["analysis"] = "banana"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == 2


def test_domain_error_exits_3(tmp_path, capsys):
    config = scenarios.get_scenario("paper_fig3_sensitivity")
    config["drive"]["input_power_w"] = 0.0
    path = tmp_path / "zero_power.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == 3
    assert "ZeroPower" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert run_cli(["run", "/nonexistent/scenario.json"]) == 1


def test_fit_shift_command(tmp_path, capsys):
    path = tmp_path / "shift.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0_m", "dfreq_hz"])
        for x in np.linspace(0.0, 400e-9, 15):
            writer.writerow([repr(float(x)),
                             repr(-6.9e9 * math.exp(-x / 110e-9))])
    assert run_cli(["fit-shift", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["analysis"] == "fit-shift"
    approx_rel(out["results"]["decay_length_m"]["value"], 110e-9, 1e-6)
    approx_rel(out["results"]["amplitude_hz"]["value"], 6.9e9, 1e-6)


def test_fit_shift_bad_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0_m", "dfreq_hz"])
        writer.writerow(["0.0", "-1e9"])
    assert run_cli(["fit-shift", str(path)]) == 3


def test_fit_response_command(tmp_path, capsys):
    from optomech import response_model
    from optomech.units import TWO_PI
    omega_m, gamma_m, a1 = TWO_PI * 10.74e6, TWO_PI * 202.6, 5.8e12
    f = np.linspace(10.74e6 - 25e3, 10.74e6 + 25e3, 2001)
    h = response_model(TWO_PI * f, a1, omega_m, gamma_m)
    path = tmp_path / "response.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "h_mag"])
        for fi, hi in zip(f, h):
            writer.writerow([repr(float(fi)), repr(float(hi))])
    assert run_cli(["fit-response", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["analysis"] == "fit-response"
    approx_rel(out["results"]["omega_m_hz"]["value"], 10.74e6, 1e-6)
    approx_rel(out["results"]["a1"]["value"], a1, 1e-3)
    # no cavity context: g_eff is undefined and left out
    assert "g_eff_hz_per_nm" not in out["results"]


def test_spectrum_csv_format(tmp_path):
    out = tmp_path / "out"
    run_cli(["run", "paper_fig2c_thermal", "--out", str(out)])
    with open(out / "thermal_spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["freq_hz", "psd", "unit", "sidedness"]
    assert rows[1][2] == "m^2/Hz"
    assert rows[1][3] == "single"
    freqs = [float(r[0]) for r in rows[1:]]
    assert freqs == sorted(freqs)


def test_backaction_csv_format(tmp_path):
    out = tmp_path / "out"
    run_cli(["run", "paper_fig4_backaction", "--out", str(out)])
    with open(out / "linewidth_vs_g2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["g2_hz2_per_nm2", "gamma_total_hz"]
    gamma = [float(r[1]) for r in rows[1:]]
    assert all(g >= 0 for g in gamma)
    # linewidth decreases with coupling on the blue side until clipped
    assert gamma[0] > gamma[-1]


def test_response_csv_format(tmp_path):
    out = tmp_path / "out"
    run_cli(["run", "paper_response_interference", "--out", str(out)])
    with open(out / "response.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["freq_hz", "h_mag"]
    h = [float(r[1]) for r in rows[1:]]
    assert max(h) > 1.0 and min(h) < 1.0


def test_run_scenario_requires_schema_version():
    config = scenarios.get_scenario("paper_decay_length")
    config.pop("schema_version", None)
    with pytest.raises(ConfigError):
        run_scenario(config)


def _write_config(tmp_path, name, section, key, value):
    config = scenarios.get_scenario(name)
    (config if section is None else config[section])[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("name, section, key, value", [
    ("paper_fig3_sensitivity", None, "coupling_rate_hz_per_nm", "abc"),
    ("paper_fig3_sensitivity", None, "coupling_rate_hz_per_nm", -1),
    ("paper_standing_wave", "standing_wave", "branch", 3),
    ("paper_stress_inference", None, "measured_f1_hz", -1),
    ("paper_fig2c_thermal", "cavity", "kappa_hz", math.nan),
    ("paper_fig2c_thermal", "grid", "points", 2.7),
    ("paper_fig2c_thermal", "grid", "points", 10 ** 12),
    ("paper_fig4_backaction", "backaction_g_grid", "points", 0),
    ("paper_fig4_backaction", "backaction_g_grid", "points", 10 ** 12),
    ("paper_si_horizontal_g", "oscillator", "mode_index", 10 ** 6),
])
def test_invalid_value_exits_2(name, section, key, value, tmp_path, capsys):
    path = _write_config(tmp_path, name, section, key, value)
    assert run_cli(["run", str(path)]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("text", ["5", "[]", '"x"'])
def test_non_object_config_exits_2(text, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run_cli(["run", str(path)]) == 2
    assert "JSON object" in _one_line_error(capsys)


def test_vanishing_signal_to_background_exits_3(tmp_path, capsys):
    # the background shot**2 overflows to inf, so the ratio is 0
    path = _write_config(tmp_path, "paper_fig3_sensitivity", None,
                         "coupling_rate_hz_per_nm", 1e-310)
    assert run_cli(["run", str(path)]) == 3
    assert "signal-to-background ratio" in _one_line_error(capsys)


def test_numpy_warnings_stay_off_stderr(tmp_path):
    # in a subprocess, where numpy's RuntimeWarnings would reach stderr
    path = _write_config(tmp_path, "paper_fig2c_thermal", "mode",
                         "effective_mass_kg", 1e-320)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "optomech.cli", "run",
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("name, key, value", [
    # g/2pi = 1e300 Hz/nm overflows to inf in the rad/s/m conversion
    ("paper_fig4_backaction", "coupling_rate_hz_per_nm", 1e300),
    # (2*L*f1)^2 in the stress inversion raises OverflowError
    ("paper_stress_inference", "measured_f1_hz", 1e200),
])
def test_overflow_exits_3(name, key, value, tmp_path, capsys):
    path = _write_config(tmp_path, name, None, key, value)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 3
    _one_line_error(capsys)
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command", ["fit-shift", "fit-response", "run"])
@pytest.mark.parametrize("case", ["wrong header", "non-numeric cell"])
def test_bad_csv_exits_2(command, case, tmp_path, capsys):
    header = ["freq_hz", "h_mag"] if command == "fit-response" \
        else ["x0_m", "dfreq_hz"]
    if case == "wrong header":
        rows = [["x", "y"], ["0.0", "-1e9"]]
    else:
        rows = [header, ["0.0", "-1e9"], ["1e-7", "abc"]]
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    if command == "run":
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"schema_version": 1,
                                      "analysis": "fit-shift",
                                      "data_csv": str(path)}))
        args = ["run", str(config)]
    else:
        args = [command, str(path)]
    assert run_cli(args) == 2
    message = _one_line_error(capsys)
    if case == "non-numeric cell":
        assert "abc" in message


def test_get_scenario_returns_independent_copy():
    before = json.dumps(scenarios.SCENARIOS, sort_keys=True)
    config = scenarios.get_scenario("paper_fig3_sensitivity")
    config["cavity"]["kappa_hz"] = 1.0
    config["drive"]["input_power_w"] = 0.0
    assert json.dumps(scenarios.SCENARIOS, sort_keys=True) == before
