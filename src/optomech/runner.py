"""Scenario execution: config validation, analysis dispatch, artifacts.

Configs are JSON objects (see README for the schema). All frequencies in
configs and outputs are ordinary frequencies in Hz; coupling rates cross
the interface as g/2pi in Hz per nm. Angular frequencies never appear
externally.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

from . import backaction as ba
from . import coupling, devices, mechanics, qba, sensing
from .devices import CouplingGeometry, Microcavity, NanoOscillator
from .mechanics import MechanicalMode, ProbeProfile
from .sensing import DriveCondition
from .units import HBAR, TWO_PI, SpectralDensity

# file name -> (header, float columns, constant text fields of every row)
Tables = dict[str, tuple[list[str], tuple, list[str]]]

HZ_PER_NM = TWO_PI * 1e9  # rad/s/m per (Hz/nm)
MAX_POINTS = 1_000_000     # largest frequency or coupling grid


class ConfigError(Exception):
    """Scenario config failed validation."""


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing required key `{path}.{key}`")
    return section[key]


def _number(section: dict, key: str, path: str, default: float | None = None
            ) -> float:
    """`section[key]` as a finite float; `default` when the key is absent
    and a default is given."""
    if key not in section and default is not None:
        return float(default)
    raw = _require(section, key, path)
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"`{path}.{key}` must be a finite number, "
                          f"got {raw!r:.40}")
    return value


def _integer(section: dict, key: str, path: str, lo: int, hi: int,
             default: int | None = None) -> int:
    """`section[key]` as an integer in [lo, hi]; `default` when the key is
    absent and a default is given."""
    if key not in section and default is not None:
        return default
    raw = _require(section, key, path)
    if isinstance(raw, bool) or not isinstance(raw, int) \
            or not lo <= raw <= hi:
        raise ConfigError(f"`{path}.{key}` must be an integer in "
                          f"[{lo}, {hi}], got {raw!r:.40}")
    return raw


def _section(config: dict, key: str) -> dict:
    value = _require(config, key, "$")
    if not isinstance(value, dict):
        raise ConfigError(f"`$.{key}` must be an object")
    return value


def build_cavity(config: dict) -> Microcavity:
    c = _section(config, "cavity")
    return Microcavity(
        R=_number(c, "major_radius_m", "cavity"),
        r=_number(c, "minor_radius_m", "cavity"),
        wavelength=_number(c, "wavelength_m", "cavity"),
        n=_number(c, "refractive_index", "cavity"),
        n_eff=_number(c, "effective_index", "cavity"),
        kappa=TWO_PI * _number(c, "kappa_hz", "cavity"),
        D_mode=_number(c, "mode_diameter_m", "cavity"),
        xi=_number(c, "surface_field_fraction", "cavity"),
        n2=_number(c, "kerr_coefficient_m2_per_w", "cavity", default=3e-20),
    )


def build_oscillator(config: dict) -> NanoOscillator:
    o = _section(config, "oscillator")
    return NanoOscillator(
        kind=_require(o, "kind", "oscillator"),
        L=_number(o, "length_m", "oscillator"),
        w=_number(o, "width_m", "oscillator"),
        t=_number(o, "thickness_m", "oscillator"),
        rho=_number(o, "density_kg_per_m3", "oscillator"),
        stress=_number(o, "stress_pa", "oscillator"),
        n_nano=_number(o, "refractive_index", "oscillator"),
        Q=_number(o, "quality_factor", "oscillator"),
        mode_index=_integer(o, "mode_index", "oscillator", 1, 100, default=1),
    )


def build_geometry(config: dict) -> CouplingGeometry:
    gsec = _section(config, "geometry")
    return CouplingGeometry(
        x0=_number(gsec, "separation_m", "geometry"),
        orientation=_require(gsec, "orientation", "geometry"),
    )


def build_drive(config: dict) -> DriveCondition:
    d = _section(config, "drive")
    return DriveCondition(
        p_in=_number(d, "input_power_w", "drive"),
        detuning=TWO_PI * _number(d, "detuning_hz", "drive", default=0.0),
        temperature=_number(d, "temperature_k", "drive", default=300.0),
        readout=d.get("readout", "homodyne"),
    )


def build_mode(config: dict, cav: Microcavity) -> MechanicalMode:
    """Mechanical mode from an explicit `mode` section, else derived from
    the oscillator geometry with the Gaussian probe set by the cavity."""
    if "mode" in config:
        m = _section(config, "mode")
        return MechanicalMode.from_quality_factor(
            omega_m=TWO_PI * _number(m, "frequency_hz", "mode"),
            Q=_number(m, "quality_factor", "mode"),
            m_eff=_number(m, "effective_mass_kg", "mode"),
        )
    if "oscillator" not in config:
        raise ConfigError("need a `mode` or `oscillator` section")
    osc = build_oscillator(config)
    alpha = devices.decay_constant(cav)
    _, l_y = devices.sampling_lengths(cav, alpha)
    probe = ProbeProfile(shape="gaussian", l_y=l_y)
    return mechanics.mode_from_oscillator(osc, probe)


def build_grid(config: dict) -> np.ndarray:
    grid = _section(config, "grid")
    f_min = _number(grid, "f_min_hz", "grid")
    f_max = _number(grid, "f_max_hz", "grid")
    points = _integer(grid, "points", "grid", 2, MAX_POINTS)
    spacing = grid.get("spacing", "linear")
    if not (0 < f_min < f_max):
        raise ConfigError("require 0 < grid.f_min_hz < grid.f_max_hz")
    if spacing == "linear":
        return np.linspace(f_min, f_max, points)
    if spacing == "log":
        return np.logspace(math.log10(f_min), math.log10(f_max), points)
    raise ConfigError(f"unknown grid spacing {spacing!r}")


def coupling_rate_external(config: dict, cav: Microcavity) -> float:
    """Coupling rate in rad/s/m, from the config override or the model."""
    if "coupling_rate_hz_per_nm" in config:
        return _number(config, "coupling_rate_hz_per_nm", "$") * HZ_PER_NM
    if "oscillator" in config and "geometry" in config:
        osc = build_oscillator(config)
        geom = build_geometry(config)
        return coupling.coupling_rate(cav, osc, geom)
    raise ConfigError("need `coupling_rate_hz_per_nm` or oscillator+geometry")


def _q(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spectrum_table(s: SpectralDensity) -> tuple:
    return (["freq_hz", "psd", "unit", "sidedness"],
            (s.frequencies, s.values),
            [f"{s.quantity_unit}^2/Hz", s.sidedness])


def _write_csv(path: Path, header: list[str], columns, text: list[str]):
    """One row per column entry: each float as repr, then the text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(x)) for x in row] + text)


def run_scenario(config: dict, out_dir: Path | None = None) -> dict:
    """Execute one scenario; returns the result dict written to
    result.json. CSV artifacts land in out_dir when given."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    analysis = _require(config, "analysis", "$")
    if not isinstance(analysis, str) or analysis not in _HANDLERS:
        raise ConfigError(f"unknown analysis {analysis!r:.40}")
    if "schema_version" not in config:
        raise ConfigError("missing required key `$.schema_version`")
    # dataclass validators and library input checks raise ValueError;
    # wrong-typed config values raise TypeError, e.g. from comparisons
    try:
        results, tables = _HANDLERS[analysis](config)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    artifacts = []
    if out_dir is not None:
        for name, (header, columns, text) in tables.items():
            _write_csv(out_dir / name, header, columns, text)
            artifacts.append(name)
    return {
        "schema_version": 1,
        "scenario": config.get("name", ""),
        "analysis": analysis,
        "results": results,
        "artifacts": artifacts,
    }


def _run_coupling(config: dict) -> tuple[dict, Tables]:
    cav = build_cavity(config)
    alpha = devices.decay_constant(cav)
    l_x, l_y = devices.sampling_lengths(cav, alpha)
    results = {
        "field_decay_length_m": _q(1.0 / alpha, "m"),
        "intensity_decay_length_m": _q(1.0 / (2.0 * alpha), "m"),
        "mode_volume_m3": _q(devices.mode_volume(cav), "m^3"),
        "finesse": _q(devices.finesse(cav), "1"),
        "sampling_length_lx_m": _q(l_x, "m"),
        "sampling_length_ly_m": _q(l_y, "m"),
        "hv_ratio": _q(coupling.coupling_ratio_hv(cav), "1"),
    }
    if "oscillator" in config:
        osc = build_oscillator(config)
        if "geometry" in config:
            geom = build_geometry(config)
            dw = coupling.frequency_shift(cav, osc, geom)
            g = coupling.coupling_rate(cav, osc, geom)
            results["frequency_shift_hz"] = _q(dw / TWO_PI, "Hz")
            results["coupling_rate_hz_per_nm"] = _q(g / HZ_PER_NM, "Hz/nm")
        if osc.kind == "string":
            f1 = devices.string_mode_frequency(osc, 1)
            results["string_f1_hz"] = _q(f1, "Hz")
            probe = ProbeProfile(shape="gaussian", l_y=l_y)
            m_eff = mechanics.effective_mass(osc, probe, osc.mode_index)
            results["effective_mass_kg"] = _q(m_eff, "kg")
            results["physical_mass_kg"] = _q(osc.physical_mass, "kg")
            if "measured_f1_hz" in config:
                stress = devices.infer_stress(
                    osc, _number(config, "measured_f1_hz", "$"))
                results["inferred_stress_pa"] = _q(stress, "Pa")
    if "standing_wave" in config:
        sw = _section(config, "standing_wave")
        mean_shift = TWO_PI * _number(sw, "mean_shift_hz", "standing_wave")
        y = _number(sw, "lateral_position_m", "standing_wave", default=0.0)
        branch = _integer(sw, "branch", "standing_wave", -1, 1, default=1)
        prof = coupling.standing_wave_shift(cav, y, mean_shift, branch)
        results["standing_wave_period_m"] = _q(
            coupling.standing_wave_period(cav), "m")
        results["standing_wave_shift_hz"] = _q(prof.shift / TWO_PI, "Hz")
        results["standing_wave_g1_hz_per_nm"] = _q(prof.g1 / HZ_PER_NM,
                                                   "Hz/nm")
        results["standing_wave_g2_hz_per_nm2"] = _q(
            prof.g2 / (TWO_PI * 1e18), "Hz/nm^2")
    return results, {}


def _run_spectrum(config: dict) -> tuple[dict, Tables]:
    cav = build_cavity(config)
    mode = build_mode(config, cav)
    drive = build_drive(config)
    grid = build_grid(config)
    spectrum = mechanics.thermal_spectrum(mode, drive.temperature, grid)
    x_zp, s_sql = mechanics.zero_point(mode)
    amp_ratio, snr_db = mechanics.snr_requirement(mode, drive.temperature)
    fine = mechanics.thermal_spectrum(mode, drive.temperature,
                                      mechanics.resonance_grid(mode))
    results = {
        "frequency_hz": _q(mode.omega_m / TWO_PI, "Hz"),
        "effective_mass_kg": _q(mode.m_eff, "kg"),
        "x_rms_m": _q(mechanics.thermal_rms(mode, drive.temperature), "m"),
        "x_rms_integrated_m": _q(mechanics.integrated_rms(fine), "m"),
        "x_zp_m": _q(x_zp, "m"),
        "sql_asd_m_per_sqrt_hz": _q(math.sqrt(s_sql), "m/Hz^0.5"),
        "peak_psd_m2_per_hz": _q(float(np.max(fine.values)), "m^2/Hz"),
        "snr_requirement_amplitude": _q(amp_ratio, "1"),
        "snr_requirement_db": _q(snr_db, "dB"),
    }
    return results, {"thermal_spectrum.csv": _spectrum_table(spectrum)}


def _homodyne_shot_floor(cav: Microcavity, mode: MechanicalMode, g: float,
                         drive: DriveCondition) -> float:
    """Double-sided homodyne shot-noise floor at the mechanical resonance,
    whatever readout the drive names."""
    homodyne = dataclasses.replace(drive, readout="homodyne")
    return sensing.shot_noise_floor(cav, g, homodyne, mode.omega_m,
                                    sidedness="double")


def _run_sensitivity(config: dict) -> tuple[dict, Tables]:
    cav = build_cavity(config)
    mode = build_mode(config, cav)
    drive = build_drive(config)
    g = coupling_rate_external(config, cav)
    grid = build_grid(config)
    floor = _number(config, "detector_floor_m_per_sqrt_hz", "$", default=0.0)
    shot_double = _homodyne_shot_floor(cav, mode, g, drive)
    shot_pdh = shot_double * sensing.PDH_PENALTY
    budget = sensing.noise_budget(cav, mode, g, drive, grid, floor)
    x_zp, s_sql = mechanics.zero_point(mode)
    results = {
        "shot_floor_double_sided_m_per_sqrt_hz": _q(shot_double, "m/Hz^0.5"),
        "shot_floor_pdh_m_per_sqrt_hz": _q(shot_pdh, "m/Hz^0.5"),
        "imprecision_m_per_sqrt_hz": _q(budget.imprecision, "m/Hz^0.5"),
        "imprecision_over_zero_point": _q(
            budget.imprecision / math.sqrt(s_sql), "1"),
        "signal_to_background_db": _q(budget.snr_db, "dB"),
    }
    return results, {"signal.csv": _spectrum_table(budget.signal),
                     "background.csv": _spectrum_table(budget.background),
                     "total.csv": _spectrum_table(budget.total)}


def _response_rates(config: dict) -> tuple[float, float]:
    """(g_pump, g_probe) in rad/s/m from the `response` section."""
    rsec = _section(config, "response")
    return (_number(rsec, "g_pump_hz_per_nm", "response") * HZ_PER_NM,
            _number(rsec, "g_probe_hz_per_nm", "response") * HZ_PER_NM)


def _run_response(config: dict) -> tuple[dict, Tables]:
    cav = build_cavity(config)
    mode = build_mode(config, cav)
    g_pump, g_probe = _response_rates(config)
    grid = build_grid(config)
    a1 = sensing.response_coefficient(cav, mode, g_pump, g_probe)
    h = sensing.response_model(TWO_PI * grid, a1, mode.omega_m, mode.gamma_m)
    g_eff = math.sqrt(g_pump * g_probe)
    results = {
        "a1": _q(a1, "rad^2/s^2"),
        "g_eff_hz_per_nm": _q(g_eff / HZ_PER_NM, "Hz/nm"),
        "h_at_dc_limit": _q(abs(1.0 + a1 / mode.omega_m ** 2), "1"),
    }
    return results, {"response.csv": (["freq_hz", "h_mag"], (grid, h), [])}


def _run_backaction(config: dict) -> tuple[dict, Tables]:
    cav = build_cavity(config)
    mode = build_mode(config, cav)
    drive = build_drive(config)
    g = coupling_rate_external(config, cav)
    res = ba.backaction_rate(cav, mode, g, drive)
    p_thres = ba.threshold_power(cav, mode, g)
    state = ba.oscillation_amplitude(cav, mode, g, drive)
    slope = ba.linewidth_slope(cav, mode, drive.p_in)
    # slope re-expressed against the external g^2 axis (Hz^2/nm^2)
    slope_ext = slope / TWO_PI * HZ_PER_NM ** 2
    results = {
        "gamma_ba_hz": _q(res.gamma_ba / TWO_PI, "Hz"),
        "gamma_total_hz": _q(res.gamma_total / TWO_PI, "Hz"),
        "regime": {"value": res.regime, "unit": "enum"},
        "p_thres_w": _q(p_thres, "W"),
        "slope": _q(slope_ext, "Hz/(Hz/nm)^2"),
        "a_sat_m": _q((cav.kappa / 2.0) / g, "m"),
        "amplitude_m": _q(state.amplitude, "m"),
        "modulation_depth": _q(state.modulation_depth, "1"),
    }
    if "backaction_g_grid" in config:
        gsec = _section(config, "backaction_g_grid")
        path = "backaction_g_grid"
        g_grid = np.linspace(
            _number(gsec, "g_min_hz_per_nm", path) * HZ_PER_NM,
            _number(gsec, "g_max_hz_per_nm", path) * HZ_PER_NM,
            _integer(gsec, "points", path, 2, MAX_POINTS, default=25))
    else:
        g_grid = np.linspace(g / 10.0, g, 20)
    table = ba.linewidth_vs_coupling(cav, mode, drive, g_grid)
    g2 = [(gg / HZ_PER_NM) ** 2 for gg in g_grid]
    return results, {"linewidth_vs_g2.csv": (
        ["g2_hz2_per_nm2", "gamma_total_hz"], (g2, table[:, 1]), [])}


def _run_qba(config: dict) -> tuple[dict, Tables]:
    cav = build_cavity(config)
    mode = build_mode(config, cav)
    drive = build_drive(config)
    g = coupling_rate_external(config, cav)
    s_th = qba.thermal_force_psd(mode, drive.temperature)
    s_qba = qba.qba_force_psd(cav, g, drive, mode.omega_m)
    ratio = qba.qba_thermal_ratio(cav, mode, g, drive)
    s_xx_shot = _homodyne_shot_floor(cav, mode, g, drive) ** 2
    product_over_hbar2 = s_xx_shot * s_qba.value / HBAR ** 2
    results = {
        "s_ff_th": _q(s_th.value, "N^2/Hz"),
        "s_ff_qba": _q(s_qba.value, "N^2/Hz"),
        "ratio": _q(ratio, "1"),
        "heisenberg_product_over_hbar2": _q(product_over_hbar2, "1"),
    }
    return results, {}


def _synth_shift_curve(config: dict) -> coupling.ShiftCurve:
    cav = build_cavity(config)
    osc = build_oscillator(config)
    geom = build_geometry(config)
    alpha = devices.decay_constant(cav)
    points = []
    for x0 in np.linspace(0.0, 2.5 / alpha, 30):
        g = dataclasses.replace(geom, x0=x0)
        points.append((float(x0), coupling.frequency_shift(cav, osc, g)))
    return coupling.ShiftCurve(tuple(points))


def _run_fit_shift(config: dict) -> tuple[dict, Tables]:
    if "data_csv" in config:
        curve = coupling.ShiftCurve.from_csv(config["data_csv"])
    else:
        curve = _synth_shift_curve(config)
    fit = coupling.fit_exponential(curve)
    results = {
        "amplitude_hz": _q(fit.amplitude / TWO_PI, "Hz"),
        "decay_length_m": _q(fit.decay_length, "m"),
        "residual": _q(fit.residual_norm / TWO_PI, "Hz"),
    }
    return results, {}


def _run_fit_response(config: dict) -> tuple[dict, Tables]:
    """Fit a measured (`data_csv`) or modelled response curve. Without a
    `cavity` section g_eff is undefined and left out of the results."""
    cav = mode = None
    if "cavity" in config or "data_csv" not in config:  # model needs both
        cav = build_cavity(config)
        mode = build_mode(config, cav)
    if "data_csv" in config:
        curve = sensing.ResponseCurve.from_csv(config["data_csv"])
    else:
        g_pump, g_probe = _response_rates(config)
        grid = build_grid(config)
        h = sensing.response_magnitude(cav, mode, g_pump, g_probe,
                                       TWO_PI * grid)
        curve = sensing.ResponseCurve(grid, h)
    fit = sensing.fit_response(curve, cav, mode)
    results = {
        "a1": _q(fit.a1, "rad^2/s^2"),
        "omega_m_hz": _q(fit.omega_m / TWO_PI, "Hz"),
        "gamma_m_hz": _q(fit.gamma_m / TWO_PI, "Hz"),
        "residual": _q(fit.residual_norm, "1"),
    }
    if math.isfinite(fit.g_eff):
        results["g_eff_hz_per_nm"] = _q(fit.g_eff / HZ_PER_NM, "Hz/nm")
    return results, {}


_HANDLERS = {
    "coupling": _run_coupling,
    "spectrum": _run_spectrum,
    "sensitivity": _run_sensitivity,
    "response": _run_response,
    "backaction": _run_backaction,
    "qba": _run_qba,
    "fit-shift": _run_fit_shift,
    "fit-response": _run_fit_response,
}
