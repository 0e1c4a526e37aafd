import collections
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optomech import devices, runner, scenarios, sensing
from optomech.cli import main
from optomech.devices import CouplingGeometry, Microcavity, NanoOscillator
from optomech.mechanics import MechanicalMode, ProbeProfile, effective_mass
from optomech.runner import (CSV_CHUNK_ROWS, HZ_PER_NM, ConfigError,
                             _write_tables, run_scenario)
from optomech.sensing import DriveCondition
from optomech.units import BOUNDS, TWO_PI

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
    # the g^2 column is the configured grid, squared on the external axis
    gsec = scenarios.SCENARIOS["paper_fig4_backaction"]["backaction_g_grid"]
    g = np.linspace(gsec["g_min_hz_per_nm"] * HZ_PER_NM,
                    gsec["g_max_hz_per_nm"] * HZ_PER_NM, gsec["points"])
    assert [float(r[0]) for r in rows[1:]] == ((g / HZ_PER_NM) ** 2).tolist()
    gamma = [float(r[1]) for r in rows[1:]]
    assert all(g >= 0 for g in gamma)
    # linewidth decreases with coupling on the blue side until clipped
    assert gamma[0] > gamma[-1]


def test_backaction_g_grid_may_start_at_zero(tmp_path, capsys):
    config = _write_config(tmp_path, "paper_fig4_backaction",
                           "backaction_g_grid", "g_min_hz_per_nm", 0)
    out = tmp_path / "out"
    assert run_cli(["run", str(config), "--out", str(out)]) == 0
    with open(out / "linewidth_vs_g2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "0.0" and float(rows[2][0]) > 0


def test_response_csv_format(tmp_path):
    out = tmp_path / "out"
    run_cli(["run", "paper_response_interference", "--out", str(out)])
    with open(out / "response.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["freq_hz", "h_mag"]
    h = [float(r[1]) for r in rows[1:]]
    assert max(h) > 1.0 and min(h) < 1.0


def _reference_csv(path, header, columns, text):
    """csv.writer with each float as repr(float(x)), then the text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(x)) for x in row] + text)


def test_write_tables_matches_csv_writer(tmp_path):
    rows = 2 * CSV_CHUNK_ROWS + 5      # crosses two chunk edges
    special = [-0.0, 5e-324, 1e16, 1e-05, 3.0, -2.0, 0.1, 1.5e308]
    rng = np.random.default_rng(6)
    shared = np.concatenate([special, rng.uniform(1e6, 2e7, rows - 8)])
    values = rng.standard_normal((3, rows)) * 10.0 ** rng.integers(
        -30, 30, (3, rows))
    tables = {
        "signal.csv": (["freq_hz", "psd", "unit", "sidedness"],
                       (shared, values[0]), ["m^2/Hz", "single"]),
        "background.csv": (["freq_hz", "psd", "unit", "sidedness"],
                           (shared, values[1]), ["m^2/Hz", "single"]),
        "total.csv": (["freq_hz", "psd", "unit"], (shared, values[2]),
                      ["rad^2/Hz"]),
        "plain.csv": (["a", "b"], (values[2].tolist(), special * 3), []),
    }
    out = tmp_path / "out"
    ref = tmp_path / "ref"
    out.mkdir()
    ref.mkdir()
    _write_tables(out, tables)
    for name, (header, columns, text) in tables.items():
        _reference_csv(ref / name, header, columns, text)
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_run_scenario_requires_schema_version():
    config = scenarios.get_scenario("paper_decay_length")
    config.pop("schema_version", None)
    with pytest.raises(ConfigError):
        run_scenario(config)
    for value in (2, "banana", True, 1.0):
        config["schema_version"] = value
        with pytest.raises(ConfigError, match=r"`\$\.schema_version`"):
            run_scenario(config)


def test_run_scenario_requires_string_name():
    config = scenarios.get_scenario("paper_decay_length")
    del config["name"]
    assert run_scenario(config)["scenario"] == ""
    for value in (math.nan, ["a"], {"a": 1}, None, 1):
        config["name"] = value
        with pytest.raises(ConfigError, match=r"`\$\.name`"):
            run_scenario(config)


def _write_config(tmp_path, name, section, key, value):
    """`name`, a bundled scenario or a config, with one value set."""
    config = (scenarios.get_scenario(name) if isinstance(name, str)
              else json.loads(json.dumps(name)))
    (config if section is None else config[section])[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def analyses_unreached(monkeypatch):
    """Every analysis in `runner._HANDLERS` replaced by one that fails the
    test: the input step must report the config's fault before any runs."""
    def reached(cfg, rec):
        pytest.fail(f"the {cfg['analysis']} analysis ran")

    monkeypatch.setattr(runner, "_HANDLERS", {
        analysis: (reached, needs)
        for analysis, (_, needs) in runner._HANDLERS.items()})


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
    ("paper_si_horizontal_g", "oscillator", "mode_index", 0),
    ("paper_fig2c_thermal", "grid", "spacing", "log"),
    ("paper_decay_length", None, "name", math.nan),
    ("paper_decay_length", None, "name", ["a"]),
    ("paper_decay_length", None, "name", None),
    ("paper_decay_length", None, "schema_version", 2),
    ("paper_decay_length", None, "schema_version", "banana"),
    ("paper_decay_length", None, "schema_version", True),
    ("paper_fig3_sensitivity", None, "detector_floor_m_per_sqrt_hz",
     -4.29e-16),
    ("paper_response_interference", "response", "g_pump_hz_per_nm", -2e6),
    ("paper_standing_wave", "standing_wave", "branch", 0),
    ("paper_fig4_backaction", None, "coupling_rate_hz_per_nm", -1),
    ("paper_eq26_unity_ratio", None, "coupling_rate_hz_per_nm", -1),
    ("paper_response_interference", "response", "g_probe_hz_per_nm", 0),
    ("paper_fig4_backaction", "backaction_g_grid", "g_min_hz_per_nm", -1e6),
    # g_max_hz_per_nm is 1.2e6: an empty or a descending grid
    ("paper_fig4_backaction", "backaction_g_grid", "g_min_hz_per_nm", 1.2e6),
    ("paper_fig4_backaction", "backaction_g_grid", "g_min_hz_per_nm", 2e6),
    # every physical key that its record requires > 0; relations between
    # keys (R > r, D_mode < 2r, xi <= 1, Q > 1) stay in the records
    ("paper_si_horizontal_g", "oscillator", "length_m", -2.5e-5),
    ("paper_si_horizontal_g", "oscillator", "width_m", 0),
    ("paper_si_horizontal_g", "oscillator", "thickness_m", -1.1e-7),
    ("paper_si_horizontal_g", "oscillator", "density_kg_per_m3", 0),
    ("paper_si_horizontal_g", "oscillator", "stress_pa", -0.9e9),
    ("paper_decay_length", "cavity", "major_radius_m", 0),
    ("paper_decay_length", "cavity", "wavelength_m", -1.55e-6),
    ("paper_decay_length", "cavity", "refractive_index", 0),
    ("paper_decay_length", "cavity", "effective_index", -1.44),
    ("paper_decay_length", "cavity", "kappa_hz", 0),
    ("paper_decay_length", "cavity", "minor_radius_m", -3e-6),
    ("paper_decay_length", "cavity", "mode_diameter_m", 0),
    ("paper_decay_length", "cavity", "surface_field_fraction", -0.4),
    ("paper_fig2c_thermal", "mode", "frequency_hz", -1.074e7),
    # exited 3 with "ZeroDivisionError: float division by zero"
    ("paper_fig2c_thermal", "mode", "quality_factor", 0),
    ("paper_fig2c_thermal", "mode", "effective_mass_kg", -3.6e-15),
    # a number in Hz or Hz/nm that overflows in rad/s or rad/s/m: exited 3,
    # or 0 with a shot floor of 0.0 under sensitivity
    ("paper_fig4_backaction", None, "coupling_rate_hz_per_nm", 1e300),
    ("paper_fig3_sensitivity", None, "coupling_rate_hz_per_nm", 1e300),
    ("paper_eq26_unity_ratio", None, "coupling_rate_hz_per_nm", 1e300),
    ("paper_response_interference", "response", "g_pump_hz_per_nm", 1e300),
    ("paper_standing_wave", "standing_wave", "mean_shift_hz", 1e308),
    # exited 2 naming only the section, e.g. "`$.drive`: require
    # temperature > 0"
    ("paper_fig2c_thermal", "drive", "temperature_k", -1),
    ("paper_fig4_backaction", "drive", "input_power_w", -1e-3),
    ("paper_si_horizontal_g", "geometry", "separation_m", -1e-9),
])
def test_invalid_value_exits_2(name, section, key, value, tmp_path, capsys):
    path = _write_config(tmp_path, name, section, key, value)
    assert run_cli(["run", str(path)]) == 2
    message = _one_line_error(capsys)
    assert f"`$.{key if section is None else section + '.' + key}`" \
        in message
    if key == "branch":     # +1 or -1: the schema's message names the path
        assert message == ("error: `$.standing_wave.branch` must be one of "
                           f"[-1, 1], got {value}")
    if key == "length_m":   # was "require L > 0", a record field
        assert message == ("error: `$.oscillator.length_m` must be a finite "
                           "number > 0, got -2.5e-05")
    if key == "temperature_k":
        assert message == ("error: `$.drive.temperature_k` must be a finite "
                           "number > 0, got -1")
    if key == "separation_m":
        assert message == ("error: `$.geometry.separation_m` must be a "
                           "finite number >= 0, got -1e-09")
    if key == "mean_shift_hz":
        assert message == ("error: `$.standing_wave.mean_shift_hz` must be a "
                           "finite number of magnitude <= 2.861e+307, got "
                           "1e+308")


@pytest.mark.parametrize("name, section, donor, key, value", [
    # a coupling run reads no `mode` section
    ("paper_si_horizontal_g", "mode", "paper_fig2c_thermal",
     "quality_factor", -5.3e4),
    # a spectrum run with an explicit mode builds no oscillator
    ("paper_fig2c_thermal", "oscillator", "paper_si_horizontal_g",
     "length_m", -2.5e-5),
])
def test_bounds_hold_in_a_section_the_analysis_does_not_read(
        name, section, donor, key, value, tmp_path, capsys):
    config = scenarios.get_scenario(name)
    config[section] = scenarios.get_scenario(donor)[section]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == 0
    capsys.readouterr()
    config[section][key] = value    # exited 0 before the schema bound it
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == 2
    assert f"`$.{section}.{key}`" in _one_line_error(capsys)


@pytest.mark.parametrize("case", ["not utf-8", "5000-digit integer",
                                  "deep nesting", "deep nesting in name"])
def test_unreadable_config_exits_2(case, tmp_path, capsys):
    config = scenarios.get_scenario("paper_decay_length")
    text = json.dumps(config)
    if case == "not utf-8":
        data = text.replace("paper_decay_length", "caf\xe9").encode("latin-1")
    elif case == "5000-digit integer":
        data = text.replace('"schema_version": 1',
                            '"schema_version": 1' + "0" * 4999).encode()
    elif case == "deep nesting":
        data = ("[" * 100_000 + "]" * 100_000).encode()
    else:
        data = text.replace('"paper_decay_length"',
                            "[" * 5000 + "]" * 5000).encode()
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert run_cli(["run", str(path)]) == 2
    assert "invalid JSON" in _one_line_error(capsys)


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


def test_vanishing_probe_overlap_exits_3(tmp_path, capsys):
    # a probe ~1e150 m wide on a symmetric mode: the overlap underflows to
    # ~1e-77, and the message says so rather than blaming the mode's parity
    path = _write_config(tmp_path, "paper_si_horizontal_g", "cavity",
                         "major_radius_m", 1e150)
    assert run_cli(["run", str(path)]) == 3
    message = _one_line_error(capsys)
    assert message.startswith("error: DivergentMass: probe overlap ")
    assert "below the floor 1e-12" in message
    assert "antisymmetric" not in message


@pytest.mark.parametrize("section, key, value", [
    # l_y ~ 3.7e-103 m on the 25-um string; the quadrature gave an
    # effective mass of 1.6e-172 kg, with exit 0
    ("cavity", "wavelength_m", 1e-200),
    # l_y ~ 4.6e-6 m on a 1e300-m string; the quadrature overflowed
    ("oscillator", "length_m", 1e300),
])
def test_probe_below_the_string_resolution_takes_half_the_mass(
        section, key, value, tmp_path):
    # a point probe at the string's centre
    path = _write_config(tmp_path, "paper_si_horizontal_g", section, key,
                         value)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 0
    results = json.loads((out / "result.json").read_text())["results"]
    approx_rel(results["effective_mass_kg"]["value"],
               results["physical_mass_kg"]["value"] / 2.0, 1e-12)


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


OVERFLOW_CASES = [
    # (2*L*f1)^2 in the stress inversion raises OverflowError
    ("paper_stress_inference", None, "measured_f1_hz", 1e200,
     "devices.infer_stress"),
    # n**2 in the decay constant
    ("paper_decay_length", "cavity", "refractive_index", 1e200,
     "devices.decay_constant"),
    # detector_floor**2 in the noise budget
    ("paper_fig3_sensitivity", None, "detector_floor_m_per_sqrt_hz", 1e200,
     "sensing.noise_budget"),
    # the mode volume underflows to 0 and divides the shift: no errno tuple
    ("paper_si_horizontal_g", "cavity", "mode_diameter_m", 1e-300,
     "coupling._shift_magnitude"),
]


@pytest.mark.parametrize(
    "name, section, key, value, where", OVERFLOW_CASES,
    ids=[f"{name}-{key}-{value}" for name, _, key, value, _ in OVERFLOW_CASES])
def test_overflow_exits_3(name, section, key, value, where, tmp_path,
                          capsys):
    path = _write_config(tmp_path, name, section, key, value)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 3
    message = _one_line_error(capsys)
    # the failing function is named, and Python's errno tuple is not shown
    assert message.endswith(f" in {where}")
    assert "(34, " not in message
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command", ["fit-shift", "fit-response", "run"])
@pytest.mark.parametrize("case", ["wrong header", "non-numeric cell",
                                  "nan cell", "inf cell", "short row"])
def test_bad_csv_exits_2(command, case, tmp_path, capsys):
    header = ["freq_hz", "h_mag"] if command == "fit-response" \
        else ["x0_m", "dfreq_hz"]
    if case == "wrong header":
        rows = [["x", "y"], ["0.0", "-1e9"]]
    elif case == "short row":
        rows = [header, ["0.0", "-1e9"], ["1e-7"]]
    else:
        bad = {"non-numeric cell": "abc", "nan cell": "nan",
               "inf cell": "-inf"}[case]
        rows = [header, ["0.0", "-1e9"], ["1e-7", bad]]
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
    assert message.startswith("error: `$.data_csv`: ")
    if case != "wrong header":
        # 1-based, the header not counted
        assert "data row 2:" in message
    if case == "non-numeric cell":
        assert "abc" in message
    elif case in ("nan cell", "inf cell"):
        assert "finite" in message


@pytest.mark.parametrize("command", ["fit-shift", "fit-response"])
@pytest.mark.parametrize("body", ["", "\n\n\r\n"])
def test_csv_without_data_rows_exits_3(command, body, tmp_path):
    # in a subprocess, where a parser warning would reach stderr
    header = "freq_hz,h_mag" if command == "fit-response" \
        else "x0_m,dfreq_hz"
    path = tmp_path / "empty.csv"
    path.write_bytes((header + "\n" + body).encode())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "optomech.cli", command,
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("stdin", ["pipe", "file"])
def test_fit_shift_reads_dev_stdin_as_the_file(stdin, tmp_path):
    # a noisy curve of ~100 KB, past what the header's handle buffers, so
    # that a reader which lost those rows would fit another decay length
    rng = np.random.default_rng(29)
    x = np.linspace(0.0, 3e-7, 2500)
    y = -1e9 * np.exp(-x / 1e-7) * (1.0 + 0.01 * rng.standard_normal(x.size))
    path = tmp_path / "shift.csv"
    path.write_text("x0_m,dfreq_hz\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def fit(name, **stdin_kw):
        proc = subprocess.run([sys.executable, "-m", "optomech.cli",
                               "fit-shift", name], capture_output=True,
                              text=True, env=env, timeout=60, **stdin_kw)
        assert (proc.returncode, proc.stderr) == (0, "")
        return json.loads(proc.stdout)["results"]

    if stdin == "pipe":
        piped = fit("/dev/stdin", input=path.read_text())
    else:
        with open(path) as fh:
            piped = fit("/dev/stdin", stdin=fh)
    assert piped == fit(str(path))


def _valid_csv_text(analysis: str) -> str:
    """A CSV that the fit of `analysis` accepts."""
    if analysis == "fit-shift":
        header = "x0_m,dfreq_hz"
        x = np.linspace(0.0, 3e-7, 30)
        y = -1e9 * np.exp(-x / 1e-7)
    else:
        header = "freq_hz,h_mag"
        x = np.linspace(0.98e6, 1.02e6, 2001)
        omega_m = TWO_PI * 1e6
        y = sensing.response_model(TWO_PI * x, 0.01 * omega_m ** 2, omega_m,
                                   TWO_PI * 1e3)
    return header + "\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                   zip(x.tolist(), y.tolist()))


@pytest.mark.parametrize("analysis", ["fit-shift", "fit-response"])
@pytest.mark.parametrize("value", [0, 1, 2, True])
def test_data_csv_must_be_a_path_string(analysis, value, tmp_path):
    # in a subprocess: open() would take the value as a file descriptor,
    # read stdin or close the process's own stdout/stderr
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"schema_version": 1, "analysis": analysis,
                                  "data_csv": value}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "optomech.cli", "run",
                           str(config)], input=_valid_csv_text(analysis),
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "$.data_csv" in lines[0]


def test_get_scenario_returns_independent_copy():
    before = json.dumps(scenarios.SCENARIOS, sort_keys=True)
    config = scenarios.get_scenario("paper_fig3_sensitivity")
    config["cavity"]["kappa_hz"] = 1.0
    config["drive"]["input_power_w"] = 0.0
    assert json.dumps(scenarios.SCENARIOS, sort_keys=True) == before


_SCIPY_PROBE = """
import contextlib, io, sys
from optomech.cli import main
from optomech.scenarios import SCENARIOS
codes = set()
for args in ([["run", name] for name in SCENARIOS]
             + [["fit-shift", sys.argv[1]], ["fit-response", sys.argv[2]]]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.add(main(args))
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("numpy.ma" in sys.modules)
"""


def test_no_scipy_module_loads(tmp_path):
    # a fresh interpreter: this process has imported scipy for the oracles;
    # every bundled scenario runs, paper_fig2a_shift_fit among them
    paths = [tmp_path / "shift.csv", tmp_path / "response.csv"]
    for path, analysis in zip(paths, ("fit-shift", "fit-response")):
        path.write_text(_valid_csv_text(analysis))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           *map(str, paths)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["{0}", "[]", "False"]


_FIT_PROBE = """
import sys
from optomech.cli import main
for path in sys.argv[1:]:
    assert main(["fit-response", path]) == 0
"""


def test_fits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # in child processes, the only place a thread count is set. Curves of
    # over 10 000 rows: OpenBLAS threads a 1-D dot over them, and while the
    # LM took such dots, 4 of these 6 fits moved with the thread count
    rng = np.random.default_rng(0)
    paths = []
    for i in range(6):
        points = int(rng.integers(10_500, 20_001))
        f_m, q = rng.uniform(5e6, 15e6), rng.uniform(2e4, 8e4)
        f = np.linspace(f_m * (1.0 - 30.0 / q), f_m * (1.0 + 30.0 / q),
                        points)
        omega_m = TWO_PI * f_m
        h = sensing.response_model(TWO_PI * f, rng.uniform(2.0, 10.0)
                                   * omega_m ** 2 / q, omega_m, omega_m / q)
        h *= 1.0 + 0.01 * rng.standard_normal(points)
        paths.append(tmp_path / f"response{i}.csv")
        paths[-1].write_text("freq_hz,h_mag\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(f.tolist(), h.tolist())))
    src = str(Path(__file__).resolve().parents[1] / "src")
    stdout = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _FIT_PROBE,
                               *map(str, paths)], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        stdout.append(proc.stdout)
    assert stdout[0] == stdout[1]


_STARTUP_PROBE = """
import contextlib, io, json, os, sys
def loaded():
    return [m for m in ("numpy", "dataclasses") if m in sys.modules]
import optomech
print("import", loaded())
from optomech.cli import main
from optomech.scenarios import SCENARIOS
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["list-scenarios"]) == 0
print("list-scenarios", loaded())
for name, config in SCENARIOS.items():
    if config["analysis"] in ("coupling", "qba"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", name, "--out", sys.argv[1]]) == 0
        print(name, loaded())
# a bound's message is formatted from the float range, not from numpy
config = SCENARIOS["paper_decay_length"]
config = dict(config, cavity=dict(config["cavity"], kappa_hz=1e308))
path = os.path.join(sys.argv[1], "big_kappa.json")
with open(path, "w") as f:
    json.dump(config, f)
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert main(["run", path]) == 2
assert "of magnitude <= 2.861e+307, got 1e+308" in err.getvalue()
print("big_kappa", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "paper_fig2c_thermal", "--out", sys.argv[1]]) == 0
print("numpy" in sys.modules)
"""


def test_scalar_runs_load_neither_numpy_nor_dataclasses(tmp_path):
    # a fresh interpreter: the six `coupling` scenarios and the `qba` one
    # compute no array, and a config range error exits 2 without numpy
    scalar = [name for name, config in scenarios.SCENARIOS.items()
              if config["analysis"] in ("coupling", "qba")]
    assert len(scalar) == 7
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{step} []"
        for step in ["import", "list-scenarios", *scalar, "big_kappa"]
    ] + ["True"]


def test_tracer_patch_points_reach_the_fits(monkeypatch, tmp_path):
    # the benchmark's tracer replaces `least_squares` in both fit modules
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    csv_path = tmp_path / "response.csv"
    csv_path.write_text(_valid_csv_text("fit-response"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_scenario(scenarios.get_scenario("paper_fig2a_shift_fit"))
        assert tracer.counters["fit.attempts"] == 1
        run_scenario({"schema_version": 1, "analysis": "fit-response",
                      "data_csv": str(csv_path)})
    finally:
        tracer.uninstall()
    assert tracer.counters["fit.attempts"] == 2
    assert tracer.counters["fit.converged"] == 2
    assert tracer.counters["coupling.fit_exponential.nfev"] > 0
    assert tracer.counters["sensing.fit_response.nfev"] > 0


def test_bundled_results_match_benchmark_reference(monkeypatch, tmp_path):
    # the benchmark's cold-CLI check, run in process: a drift that would
    # fail it fails here first
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    assert set(reference) == set(ALL_SCENARIOS)
    for name in ALL_SCENARIOS:
        out = tmp_path / name
        out.mkdir()
        result = run_scenario(scenarios.get_scenario(name), out)
        workloads.compare(json.loads(json.dumps(result)), reference[name],
                          name)


def test_fit_response_requires_data_csv(tmp_path, capsys):
    # the scenario's response and grid sections feed no model curve
    path = _write_config(tmp_path, "paper_response_interference", None,
                         "analysis", "fit-response")
    assert run_cli(["run", str(path)]) == 2
    assert "`$.data_csv`" in _one_line_error(capsys)


@pytest.mark.parametrize("analysis", ["fit-shift", "fit-response"])
def test_csv_with_byte_order_mark(analysis, tmp_path, capsys):
    text = _valid_csv_text(analysis)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run_cli([analysis, str(plain)]) == 0
    expected = capsys.readouterr().out
    assert run_cli([analysis, str(marked)]) == 0
    assert capsys.readouterr().out == expected
    # a malformed row is still counted from the first data row
    header, first, *_ = text.splitlines()
    marked.write_text("\n".join([header, first, "1e-7,abc"]) + "\n",
                      encoding="utf-8-sig")
    assert run_cli([analysis, str(marked)]) == 2
    assert "data row 2:" in _one_line_error(capsys)


def _third_mode_config(analysis: str) -> dict:
    """The 25-um string, its mode derived with `oscillator.mode_index` 3."""
    config = scenarios.get_scenario("paper_si_horizontal_g")
    config["analysis"] = analysis
    config["oscillator"]["mode_index"] = 3
    config["drive"] = {"input_power_w": 65e-6, "temperature_k": 300.0}
    config["grid"] = {"f_min_hz": 30e6, "f_max_hz": 35e6, "points": 11}
    return config


def test_mode_index_selects_the_probed_mode():
    config = _third_mode_config("coupling")
    osc = runner.build_oscillator(config)
    _, l_y = devices.sampling_lengths(runner.build_cavity(config))
    probe = ProbeProfile(l_y=l_y)
    m_eff = effective_mass(osc, probe, 3)
    assert m_eff != effective_mass(osc, probe, 1)
    coupling_run = run_scenario(config)["results"]
    spectrum_run = run_scenario(_third_mode_config("spectrum"))["results"]
    approx_rel(spectrum_run["frequency_hz"]["value"],
               3.0 * coupling_run["string_f1_hz"]["value"], 1e-14)
    for results in (coupling_run, spectrum_run):
        assert results["effective_mass_kg"]["value"] == m_eff


@pytest.mark.parametrize("name", ["paper_fig3_sensitivity",
                                  "paper_fig4_backaction",
                                  "paper_eq26_unity_ratio"])
def test_geometry_coupling_rate_matches_explicit_rate(name):
    derived = scenarios.get_scenario(name)
    del derived["coupling_rate_hz_per_nm"]
    derived["oscillator"] = scenarios.get_scenario(
        "paper_si_horizontal_g")["oscillator"]
    derived["geometry"] = {"separation_m": 300e-9,
                           "orientation": "horizontal"}
    g = run_scenario(dict(derived, analysis="coupling"))[
        "results"]["coupling_rate_hz_per_nm"]["value"]
    explicit = dict(derived, coupling_rate_hz_per_nm=g)
    del explicit["oscillator"], explicit["geometry"]
    got = run_scenario(derived)["results"]
    want = run_scenario(explicit)["results"]
    assert got.keys() == want.keys()
    for key, quantity in want.items():
        if quantity["unit"] == "enum":
            assert got[key] == quantity
        else:
            approx_rel(got[key]["value"], quantity["value"], 1e-12)


def _derived_mode_and_rate(name: str) -> dict:
    """Scenario `name` with its mode and g derived from the 25-um string."""
    config = scenarios.get_scenario(name)
    del config["mode"], config["coupling_rate_hz_per_nm"]
    config["oscillator"] = scenarios.get_scenario(
        "paper_si_horizontal_g")["oscillator"]
    config["geometry"] = {"separation_m": 300e-9,
                          "orientation": "horizontal"}
    return config


DERIVED = ["paper_fig3_sensitivity", "paper_fig4_backaction",
           "paper_eq26_unity_ratio"]
BUILDERS = {"cavity": "build_cavity", "oscillator": "build_oscillator",
            "geometry": "build_geometry", "drive": "build_drive",
            "mode": "build_mode", "grid": "build_grid"}


@pytest.mark.parametrize("name, derived", [
    *((name, False) for name in ALL_SCENARIOS),
    *((name, True) for name in DERIVED)],
    ids=[*ALL_SCENARIOS, *(f"derived {name}" for name in DERIVED)])
def test_each_section_built_once(name, derived, monkeypatch):
    # patched as module attributes, as the benchmark's tracer patches them
    calls = dict.fromkeys(BUILDERS, 0)
    for section, attr in BUILDERS.items():
        def counted(cfg, section=section, build=getattr(runner, attr)):
            calls[section] += 1
            return build(cfg)
        monkeypatch.setattr(runner, attr, counted)
    config = _derived_mode_and_rate(name) if derived \
        else scenarios.get_scenario(name)
    run_scenario(config)
    assert calls == {section: int(section in config) for section in BUILDERS}


@pytest.mark.parametrize("section, make", [
    ("cavity", Microcavity), ("oscillator", NanoOscillator),
    ("geometry", CouplingGeometry), ("drive", DriveCondition),
    ("mode", MechanicalMode.from_quality_factor)])
def test_schema_names_each_record_field_once(section, make):
    # a record field without a config key fails here, not at a user's run
    if isinstance(make, type):
        has_default = {f: hasattr(make, f) for f in make.__match_args__}
    else:
        has_default = {name: p.default is not p.empty for name, p
                       in inspect.signature(make).parameters.items()}
    named = collections.Counter(
        entry[2] for entry in runner.SCHEMA[section][0].values()
        if len(entry) == 3)
    assert named.keys() <= has_default.keys()
    assert set(named.values()) == {1}
    assert {f for f, default in has_default.items() if not default} \
        <= named.keys()
    # a record field, not SCHEMA, states its key's bound and default;
    # mode.quality_factor fills an argument of from_quality_factor instead
    cls = make if isinstance(make, type) else make.__self__
    for key, entry in runner.SCHEMA[section][0].items():
        if entry[2:] and entry[2] in cls.__match_args__:
            kind, default, field = entry
            assert kind == BOUNDS.get(cls.__annotations__[field], str), key
            assert default is (runner.OPTIONAL if hasattr(cls, field)
                               else runner.REQUIRED), key


@pytest.mark.parametrize("name, section, key, value, path", [
    ("paper_fig2c_thermal", "drive", "temprature_k", 4,
     "$.drive.temprature_k"),
    ("paper_fig2c_thermal", "drive", "temperature_k", True,
     "$.drive.temperature_k"),
    ("paper_fig2c_thermal", "drive", "temperature_k", "4",
     "$.drive.temperature_k"),
    ("paper_fig2c_thermal", "drive", "temperature_k", "1_0.6e6",
     "$.drive.temperature_k"),
    ("paper_eq26_unity_ratio", None, "coupling_rate_hz_per_nm", True,
     "$.coupling_rate_hz_per_nm"),
    ("paper_fig2c_thermal", None, "extra", {}, "$.extra"),
    # a section that the qba analysis never reads is still checked whole
    ("paper_eq26_unity_ratio", None, "grid", {"f_min_hz": 1.0},
     "$.grid.f_max_hz"),
    ("paper_decay_length", None, "description", 5, "$.description"),
    ("paper_decay_length", "cavity", "bad\nkey", 1, "$.cavity['bad\\nkey']"),
])
def test_config_error_names_its_path(name, section, key, value, path,
                                     tmp_path, capsys):
    config = _write_config(tmp_path, name, section, key, value)
    assert run_cli(["run", str(config)]) == 2
    assert f"`{path}`" in _one_line_error(capsys)


@pytest.mark.parametrize("rows, message", [
    (["1.3879155081318496e-227,-5e-324", "-5e-324,-5e-324"], "too small"),
    (["1e308,-1e9", "1.0000001e308,-2e9", "1.0000002e308,-3e9"],
     "too large"),
    (["1e308,-3e9", "1.0000001e308,-2e9", "1.0000002e308,-1e9"],
     "too large"),
], ids=["x0 norm underflows", "rank-deficient seed", "x0 norm overflows"])
def test_fit_shift_seed_failure_exits_3(rows, message, tmp_path):
    # in a subprocess, where LAPACK messages on fd 2 and warnings would
    # reach stderr
    path = tmp_path / "shift.csv"
    path.write_text("\n".join(["x0_m,dfreq_hz"] + rows) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "optomech.cli", "fit-shift",
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: IllConditioned")
    assert message in lines[0]


def _response_rows(frequencies, peak=2.0):
    h = [1.0] * len(frequencies)
    h[5], h[7] = peak, 0.5
    return [f"{f!r},{v!r}" for f, v in zip(frequencies, h)]


@pytest.mark.parametrize("command, rows", [
    ("fit-response", _response_rows([1e6 + 1e3 * k for k in range(12)],
                                    peak=1e308)),
    ("fit-response", _response_rows([1e306 * (1 + 1e-3 * k)
                                     for k in range(12)])),
    ("fit-response", _response_rows([(k + 1) * 5e-324 for k in range(12)])),
    ("fit-shift", ["-1,-1e300", "0,-1e-300"]),
    ("fit-shift", ["1.9622275697030137e+122,-1e+308",
                   "8.6328476033567825e-165,-8.029408701200428e+149"]),
], ids=["h peak 1e308", "frequencies near 1e306", "frequencies near 5e-324",
        "seed residual overflows", "dfreq_hz overflows in rad/s"])
def test_numerical_fit_failure_exits_3(command, rows, tmp_path, capsys):
    # non-finite values at the fit's starting point, not bad input
    header = "freq_hz,h_mag" if command == "fit-response" \
        else "x0_m,dfreq_hz"
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    assert run_cli([command, str(path)]) == 3
    _one_line_error(capsys)


def test_non_positive_response_frequency_exits_2(tmp_path, capsys):
    header, *rows = _valid_csv_text("fit-response").splitlines()
    path = tmp_path / "response.csv"
    path.write_text("\n".join([header, "0.0,1.0"] + rows) + "\n")
    assert run_cli(["fit-response", str(path)]) == 2
    assert "frequencies must be > 0" in _one_line_error(capsys)


def _one_value_changed(analysis: str, section: str, key: str,
                       value) -> dict:
    """`paper_si_horizontal_g` with one value changed; a spectrum run also
    gets a drive and a 100-point grid and derives its mode."""
    config = scenarios.get_scenario("paper_si_horizontal_g")
    config["analysis"] = analysis
    config[section][key] = value
    if analysis == "spectrum":
        config["drive"] = {"input_power_w": 65e-6}
        config["grid"] = {"f_min_hz": 1e6, "f_max_hz": 2e7, "points": 100}
    return config


@pytest.mark.parametrize("analysis", ["coupling", "spectrum"])
@pytest.mark.parametrize("section, key, value, code", [
    # f_m overflows to inf: a derived value, a domain error
    ("oscillator", "density_kg_per_m3", 1e-308, 3),
    # the probe overlap underflows past its floor: a derived value too
    ("oscillator", "length_m", 1e-300, 3),
    # 2*pi*kappa_hz overflows: the config's number is out of range
    ("cavity", "kappa_hz", 1e308, 2),
])
def test_one_exit_code_per_input_under_every_analysis(
        analysis, section, key, value, code, tmp_path, capsys):
    path = tmp_path / "config.json"
    config = _one_value_changed(analysis, section, key, value)
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == code
    message = _one_line_error(capsys)
    if code == 2:
        assert message.startswith(f"error: `$.{section}.{key}` must be ")


@pytest.mark.parametrize("name, section, key, value, message", [
    ("paper_si_horizontal_g", "cavity", "minor_radius_m", 4e-5,
     "require R > r > 0"),
    ("paper_si_horizontal_g", "cavity", "surface_field_fraction", 1.5,
     "require 0 < xi <= 1"),
    ("paper_si_horizontal_g", "cavity", "mode_diameter_m", 1e-5,
     "require 0 < D_mode < 2r"),
    ("paper_si_horizontal_g", "oscillator", "quality_factor", 0.5,
     "require Q > 1"),
    # exited 0 with a blue shift and g < 0
    ("paper_si_horizontal_g", "oscillator", "refractive_index", 0.5,
     "require n_nano >= 1"),
    # a spectrum run with an explicit mode never reads the geometry
    ("paper_fig2c_thermal", "geometry", "orientation", "sideways",
     "unknown orientation 'sideways'"),
])
def test_record_error_names_its_section(name, section, key, value, message,
                                        tmp_path, capsys):
    config = scenarios.get_scenario(name)
    config.setdefault(section, scenarios.get_scenario(
        "paper_si_horizontal_g")[section])
    assert run_scenario(config)
    config[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["run", str(path)]) == 2
    assert _one_line_error(capsys) == f"error: `$.{section}`: {message}"


@pytest.mark.parametrize("analysis", ["spectrum", "response"])
@pytest.mark.parametrize("grid, message", [
    ({"f_min_hz": 2e6, "f_max_hz": 1e6, "points": 11},
     "error: require 0 < `$.grid.f_min_hz` < `$.grid.f_max_hz`"),
    # a linspace too narrow for its points: repeated rows, not a spectrum
    ({"f_min_hz": 1e6, "f_max_hz": 1e6 * (1 + 1e-15), "points": 1000},
     "error: `$.grid`: the points repeat a frequency"),
], ids=["descending", "repeated points"])
def test_grid_that_does_not_increase_exits_2(analysis, grid, message,
                                             tmp_path, capsys,
                                             analyses_unreached):
    name = {"spectrum": "paper_fig2c_thermal",
            "response": "paper_response_interference"}[analysis]
    path = _write_config(tmp_path, name, None, "grid", grid)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 2
    assert _one_line_error(capsys) == message
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("g_grid, message", [
    ({"g_min_hz_per_nm": 2e6, "g_max_hz_per_nm": 1e6},
     "error: require `$.backaction_g_grid.g_min_hz_per_nm` < "
     "`$.backaction_g_grid.g_max_hz_per_nm`"),
    # exited 0 with 1 000 rows of which 9 were distinct
    ({"g_min_hz_per_nm": 1e6, "g_max_hz_per_nm": 1e6 * (1 + 1e-15),
      "points": 1000},
     "error: `$.backaction_g_grid`: the points repeat a coupling rate"),
], ids=["descending", "repeated points"])
def test_backaction_g_grid_that_does_not_increase_exits_2(
        g_grid, message, tmp_path, capsys, analyses_unreached):
    path = _write_config(tmp_path, "paper_fig4_backaction", None,
                         "backaction_g_grid", g_grid)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 2
    assert _one_line_error(capsys) == message
    assert list(out.iterdir()) == []


def _g_from_string(name: str) -> dict:
    """Scenario `name` with g derived, not given: from the string of
    `paper_si_horizontal_g` at contact."""
    config = scenarios.get_scenario(name)
    del config["coupling_rate_hz_per_nm"]
    config["oscillator"] = scenarios.get_scenario(
        "paper_si_horizontal_g")["oscillator"]
    config["geometry"] = {"separation_m": 0.0, "orientation": "horizontal"}
    return config


@pytest.mark.parametrize("name, section, key, value, message", [
    # a string 1e300 m wide makes g inf: the sensitivity run exited 0 with
    # a shot floor of 0.0, and the qba run blamed `s_ff_qba`
    *(pytest.param(_g_from_string(name), "oscillator", "width_m", 1e300,
                   "require finite g > 0, got inf", id=f"{name}-inf-g")
      for name in ("paper_fig3_sensitivity", "paper_eq26_unity_ratio")),
    # g^2 overflows on the external axis: exited 0 with 24 `inf` rows
    ("paper_fig4_backaction", "backaction_g_grid", "g_max_hz_per_nm", 1e200,
     "`linewidth_vs_g2.csv` column `g2_hz2_per_nm2` is not finite"),
    # exited 3 but left a thermal_spectrum.csv of `nan` rows behind
    ("paper_fig2c_thermal", "mode", "effective_mass_kg", 1e-320,
     "result `x_rms_integrated_m` is nan"),
    # the cavity line overflowed a float's `** 2` in devices.detuning_sq;
    # now s_ff_qba is 0 and the shot floor inf, so their product is nan
    ("paper_eq26_unity_ratio", "mode", "frequency_hz", 1e300,
     "result `heisenberg_product_over_hbar2` is nan"),
])
def test_non_finite_output_exits_3_and_writes_nothing(
        name, section, key, value, message, tmp_path, capsys):
    path = _write_config(tmp_path, name, section, key, value)
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 3
    assert _one_line_error(capsys) == f"error: ValueError: {message}"
    assert list(out.iterdir()) == []
    # the same error without out_dir, where nothing would be written
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match=re.escape(message)):
        run_scenario(json.loads(path.read_text()))


def test_fit_response_reports_g_eff(tmp_path, capsys):
    # the fit of the model curve recovers g_eff = sqrt(g_pump * g_probe)
    run_scenario(scenarios.get_scenario("paper_response_interference"),
                 tmp_path)
    config = scenarios.get_scenario("paper_response_interference")
    config.update(analysis="fit-response",
                  data_csv=str(tmp_path / "response.csv"))
    results = run_scenario(config)["results"]
    approx_rel(results["g_eff_hz_per_nm"]["value"], math.sqrt(2e6 * 1e6),
               1e-6)
    del config["cavity"]
    assert "g_eff_hz_per_nm" not in run_scenario(config)["results"]


def test_backaction_default_g_grid(tmp_path):
    # without backaction_g_grid: 20 points from g/10 to g
    config = scenarios.get_scenario("paper_fig4_backaction")
    del config["backaction_g_grid"]
    run_scenario(config, tmp_path)
    with open(tmp_path / "linewidth_vs_g2.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    g2 = [float(row[0]) for row in rows]
    g = config["coupling_rate_hz_per_nm"]
    assert len(rows) == 20
    approx_rel(g2[0], (g / 10) ** 2, 1e-12)
    approx_rel(g2[-1], g ** 2, 1e-12)
    assert all(a < b for a, b in zip(g2, g2[1:]))


@pytest.mark.parametrize("name, fit, drop, message", [
    ("paper_fig4_backaction", None, "coupling_rate_hz_per_nm",
     "need `$.coupling_rate_hz_per_nm` or `$.oscillator`+`$.geometry`"),
    ("paper_fig2c_thermal", None, "mode", "need `$.mode` or `$.oscillator`"),
    ("paper_fig2a_shift_fit", None, "cavity",
     "need `$.data_csv` or `$.cavity`+`$.oscillator`+`$.geometry`"),
    # a fit of a valid curve reads a mode under a cavity
    ("paper_response_interference", "fit-response", "mode",
     "need `$.mode` or `$.oscillator`"),
], ids=["g", "mode", "fit-shift", "fit-response mode"])
def test_missing_alternative_sections_exit_2(name, fit, drop, message,
                                             tmp_path, capsys,
                                             analyses_unreached):
    config = scenarios.get_scenario(name)
    del config[drop]
    if fit is not None:
        data = tmp_path / "data.csv"
        data.write_text(_valid_csv_text(fit))
        config.update(analysis=fit, data_csv=str(data))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 2
    assert _one_line_error(capsys) == f"error: {message}"
    assert list(out.iterdir()) == []


def test_get_scenario_rejects_an_unknown_name():
    with pytest.raises(KeyError, match="unknown scenario 'nope'"):
        scenarios.get_scenario("nope")
