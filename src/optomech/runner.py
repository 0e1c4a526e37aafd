"""Scenario execution: config validation, analysis dispatch, artifacts.

Configs are JSON objects (see README for the schema). All frequencies in
configs and outputs are ordinary frequencies in Hz; coupling rates cross
the interface as g/2pi in Hz per nm. Angular frequencies never appear
externally.
"""

from __future__ import annotations

import math
import sys
from contextlib import ExitStack
from pathlib import Path

from . import backaction as ba
from . import coupling, devices, mechanics, qba, sensing
from .devices import CouplingGeometry, Microcavity, NanoOscillator
from .mechanics import MechanicalMode, ProbeProfile
from .sensing import DriveCondition
from .units import BOUNDS, HBAR, TWO_PI, SpectralDensity, np

# file name -> (header, float columns, constant text fields of every row)
Tables = dict[str, tuple[list[str], tuple, list[str]]]

HZ_PER_NM = TWO_PI * 1e9  # rad/s/m per (Hz/nm)
MAX_POINTS = 1_000_000     # largest frequency or coupling grid
CSV_CHUNK_ROWS = 8192      # CSV rows formatted and written at a time


class ConfigError(Exception):
    """Scenario config failed validation."""


# SCHEMA defaults for a key that must be given and one with no default
REQUIRED, OPTIONAL = object(), object()
# SCHEMA kinds of finite numbers: a record field's bounds (units.BOUNDS)
FINITE, POSITIVE, NON_NEGATIVE = BOUNDS.values()


def _fields(cls, **fields: str) -> dict:
    """SCHEMA entries of record `cls`'s fields, from field=key: the config
    key that fills each. A key's kind is its field's bound, or `str`, and
    it is OPTIONAL where the field has a default."""
    return {key: (cls._bounds.get(field, str),
                  OPTIONAL if field in vars(cls) else REQUIRED, field)
            for field, key in fields.items()}


# The config, described once: key -> (kind, default), and in a section
# built into a record (kind, default, the record field that the key fills).
# A kind is FINITE, POSITIVE or NON_NEGATIVE (a finite JSON number, never
# a bool or a string, within that bound), `str`, a `range` of allowed
# integers, a frozenset of allowed strings or integers, or the table of a
# nested section. A record field gives its key's bound and default, and
# the record checks what no kind states: relations between keys (R > r,
# D_mode < 2r), other bounds (xi <= 1, Q > 1, n_nano >= 1) and
# enumerations (oscillator kind, readout).
SCHEMA = {
    "schema_version": (range(1, 2), REQUIRED),
    "analysis": (str, REQUIRED),
    "name": (str, ""),
    "description": (str, OPTIONAL),
    "cavity": (_fields(
        Microcavity, R="major_radius_m", r="minor_radius_m",
        wavelength="wavelength_m", n="refractive_index",
        n_eff="effective_index", kappa="kappa_hz", D_mode="mode_diameter_m",
        xi="surface_field_fraction", n2="kerr_coefficient_m2_per_w"),
        OPTIONAL),
    "oscillator": ({
        **_fields(NanoOscillator, kind="kind", L="length_m", w="width_m",
                  t="thickness_m", rho="density_kg_per_m3", stress="stress_pa",
                  n_nano="refractive_index", Q="quality_factor"),
        "mode_index": (range(1, 101), 1)}, OPTIONAL),
    "geometry": (_fields(CouplingGeometry, x0="separation_m",
                         orientation="orientation"), OPTIONAL),
    "drive": (_fields(DriveCondition, p_in="input_power_w",
                      detuning="detuning_hz", temperature="temperature_k",
                      readout="readout"), OPTIONAL),
    # Q fills an argument of MechanicalMode.from_quality_factor, no field
    "mode": ({**_fields(MechanicalMode, omega_m="frequency_hz"),
              "quality_factor": (POSITIVE, REQUIRED, "Q"),
              **_fields(MechanicalMode, m_eff="effective_mass_kg")},
             OPTIONAL),
    "grid": ({"f_min_hz": (FINITE, REQUIRED), "f_max_hz": (FINITE, REQUIRED),
              "points": (range(2, MAX_POINTS + 1), REQUIRED),
              "spacing": (frozenset({"linear"}), "linear")}, OPTIONAL),
    "response": ({"g_pump_hz_per_nm": (POSITIVE, REQUIRED),
                  "g_probe_hz_per_nm": (POSITIVE, REQUIRED)}, OPTIONAL),
    "backaction_g_grid": ({"g_min_hz_per_nm": (NON_NEGATIVE, REQUIRED),
                           "g_max_hz_per_nm": (FINITE, REQUIRED),
                           "points": (range(2, MAX_POINTS + 1), 25)},
                          OPTIONAL),
    "standing_wave": ({"mean_shift_hz": (FINITE, REQUIRED),
                       "lateral_position_m": (FINITE, 0.0),
                       "branch": (frozenset({-1, 1}), 1)}, OPTIONAL),
    "coupling_rate_hz_per_nm": (POSITIVE, OPTIONAL),
    "detector_floor_m_per_sqrt_hz": (NON_NEGATIVE, 0.0),
    "measured_f1_hz": (NON_NEGATIVE, OPTIONAL),
    "data_csv": (str, OPTIONAL),
}


def _at(path: str, key) -> str:
    """The JSONPath of `key` in the object at `path`."""
    return f"{path}.{key}" if str(key).isidentifier() else f"{path}[{key!r}]"


def _check(raw, kind, where: str):
    """`raw`, the config value at JSONPath `where`, checked against a
    SCHEMA kind: a plain float, int or string, or for a section a new dict
    of checked values with the defaults filled in."""
    if isinstance(kind, dict):
        if not isinstance(raw, dict):
            raise ConfigError(f"`{where}` must be an object")
        for key in raw:
            if key not in kind:
                raise ConfigError(f"unknown key `{_at(where, key)}`")
        checked = {}
        for key, (sub, default, *_) in kind.items():
            if key in raw:
                checked[key] = _check(raw[key], sub, _at(where, key))
            elif default is REQUIRED:
                raise ConfigError(
                    f"missing required key `{_at(where, key)}`")
            elif default is not OPTIONAL:
                checked[key] = default
        return checked
    is_int = isinstance(raw, int) and not isinstance(raw, bool)
    number = kind in BOUNDS.values()
    if number:      # as a record checks a bound; int and float compare exactly
        words, least = kind
        expected = "a finite number" + words
        ok = ((is_int or isinstance(raw, float))
              and least <= raw <= sys.float_info.max)
        scale = {"_hz": TWO_PI, "_nm": HZ_PER_NM}.get(where[-3:], 1.0)
        if ok and not math.isfinite(raw * scale):
            ok = False
            expected += f" of magnitude <= {sys.float_info.max / scale:.4g}"
    elif isinstance(kind, range):
        expected = f"an integer in [{kind[0]}, {kind[-1]}]"
        ok = is_int and raw in kind
    elif kind is str:
        expected, ok = "a string", isinstance(raw, str)
    else:   # by type first: 1.0 and True equal 1 but are no JSON integers
        expected = f"one of {sorted(kind)}"
        ok = type(raw) in set(map(type, kind)) and raw in kind
    if not ok:
        raise ConfigError(f"`{where}` must be {expected}, got {raw!r:.40}")
    return float(raw) if number else raw


def _record(section: str, make):
    """The builder of `section`'s record: `make` called with every record
    field that SCHEMA names there and the config gives, a `_hz` key's value
    in rad/s."""
    fields = [(key, entry[2], key.endswith("_hz"))
              for key, entry in SCHEMA[section][0].items() if len(entry) == 3]

    def build(cfg: dict):
        c = cfg[section]
        return make(**{field: TWO_PI * c[key] if is_hz else c[key]
                       for key, field, is_hz in fields if key in c})
    return build


build_cavity = _record("cavity", Microcavity)
build_oscillator = _record("oscillator", NanoOscillator)
build_geometry = _record("geometry", CouplingGeometry)
build_drive = _record("drive", DriveCondition)
build_mode = _record("mode", MechanicalMode.from_quality_factor)


def _probe(cav: Microcavity) -> ProbeProfile:
    """The Gaussian probe that the cavity sets."""
    _, l_y = devices.sampling_lengths(cav)
    return ProbeProfile(l_y=l_y)


def _spaced(lo, hi, points: int, floor, order: str, repeat: str) -> np.ndarray:
    """`points` values from `lo` to `hi`, checked to rise from `floor`."""
    rises = floor < lo < hi
    values = np.linspace(lo, hi, points)
    if not (rises and (values[1:] > values[:-1]).all()):
        raise ConfigError(repeat if rises else order)
    return values


def build_grid(cfg: dict) -> np.ndarray:
    grid = cfg["grid"]
    return _spaced(grid["f_min_hz"], grid["f_max_hz"], grid["points"], 0.0,
                   "require 0 < `$.grid.f_min_hz` < `$.grid.f_max_hz`",
                   "`$.grid`: the points repeat a frequency")


def build_backaction_g_grid(cfg: dict) -> np.ndarray:
    gg = cfg["backaction_g_grid"]
    return _spaced(gg["g_min_hz_per_nm"] * HZ_PER_NM,
                   gg["g_max_hz_per_nm"] * HZ_PER_NM, gg["points"], -math.inf,
                   "require `$.backaction_g_grid.g_min_hz_per_nm`"
                   " < `$.backaction_g_grid.g_max_hz_per_nm`",
                   "`$.backaction_g_grid`: the points repeat a coupling rate")


def _q(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spectrum_table(s: SpectralDensity) -> tuple:
    return (["freq_hz", "psd", "unit", "sidedness"],
            (s.frequencies, s.values),
            ["m^2/Hz", s.sidedness])


def _write_tables(out_dir: Path, tables: Tables):
    """Write each table to `out_dir / name`: the header, then one row per
    column entry, each float as its repr followed by the text fields.

    The tables are written side by side, CSV_CHUNK_ROWS rows at a time,
    and a column object that several tables share is formatted once per
    chunk.
    """
    with ExitStack() as stack:
        outs = []
        for name, (header, columns, text) in tables.items():
            fh = stack.enter_context(
                open(out_dir / name, "w", newline="", encoding="utf-8"))
            fh.write(",".join(header) + "\n")
            outs.append((fh, columns, "".join("," + t for t in text) + "\n"))
        rows = max((len(c) for _, columns, _ in outs for c in columns),
                   default=0)
        for start in range(0, rows, CSV_CHUNK_ROWS):
            formatted: dict[int, list[str]] = {}
            for fh, columns, suffix in outs:
                cells = []
                for col in columns:
                    if id(col) not in formatted:
                        chunk = col[start:start + CSV_CHUNK_ROWS]
                        formatted[id(col)] = list(map(
                            repr, np.asarray(chunk, dtype=float).tolist()))
                    cells.append(formatted[id(col)])
                lines = suffix.join(map(",".join, zip(*cells)))
                if lines:
                    fh.write(lines + suffix)


def run_scenario(config: dict, out_dir: Path | None = None) -> dict:
    """Execute one scenario; returns the result dict written to
    result.json. CSV artifacts land in out_dir when given."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    analysis = _check(config.get("analysis"), frozenset(_HANDLERS),
                      "$.analysis")
    handler, needs = _HANDLERS[analysis]
    cfg = _check(config, SCHEMA, "$")
    for need in needs:
        if (not any(cfg.keys() >= set(a.split("+")) for a in need.split("|"))
                and (need != _MODE or "cavity" in cfg)):
            raise ConfigError("need `$." + need.replace("+", "`+`$.")
                              .replace("|", "` or `$.") + "`")
    # Every present section to its record, and a fit's data curve: the one
    # step whose ValueError is the config's. The benchmark's tracer patches
    # the builders and `from_csv`, so no module-level table may hold them.
    steps = {"cavity": build_cavity, "oscillator": build_oscillator,
             "geometry": build_geometry, "drive": build_drive,
             "mode": build_mode, "grid": build_grid,
             "backaction_g_grid": build_backaction_g_grid}
    curve = {"fit-shift": coupling.ShiftCurve,
             "fit-response": sensing.ResponseCurve}.get(analysis)
    if curve is not None:
        steps["data_csv"] = lambda cfg: curve.from_csv(cfg["data_csv"])
    rec = {}
    for key, build in steps.items():
        if key in cfg:
            try:
                rec[key] = build(cfg)
            except ValueError as exc:
                raise ConfigError(f"`$.{key}`: {exc}") from exc
    # g in rad/s/m, then the mode, derived outside the config's step
    if _G in needs:
        rec["g"] = (cfg["coupling_rate_hz_per_nm"] * HZ_PER_NM
                    if "coupling_rate_hz_per_nm" in cfg else
                    coupling.coupling_rate(rec["cavity"], rec["oscillator"],
                                           rec["geometry"]))
    if _MODE in needs and "cavity" in rec and "mode" not in rec:
        rec["mode"] = mechanics.mode_from_oscillator(
            rec["oscillator"], _probe(rec["cavity"]),
            cfg["oscillator"]["mode_index"])
    results, tables = handler(cfg, rec)
    # no file is written unless every value is finite, as in result.json
    for key, q in results.items():
        if q["unit"] != "enum" and not math.isfinite(q["value"]):
            raise ValueError(f"result `{key}` is {q['value']}")
    for name, (header, columns, _) in tables.items():
        for head, col in zip(header, columns):
            if not np.isfinite(col).all():
                raise ValueError(f"`{name}` column `{head}` is not finite")
    if out_dir is not None:
        _write_tables(out_dir, tables)
    return {"schema_version": 1, "scenario": cfg["name"],
            "analysis": analysis, "results": results,
            "artifacts": list(tables) if out_dir is not None else []}


def _run_coupling(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    cav = rec["cavity"]
    alpha = devices.decay_constant(cav)
    l_x, l_y = devices.sampling_lengths(cav)
    results = {
        "field_decay_length_m": _q(1.0 / alpha, "m"),
        "intensity_decay_length_m": _q(1.0 / (2.0 * alpha), "m"),
        "mode_volume_m3": _q(devices.mode_volume(cav), "m^3"),
        "finesse": _q(devices.finesse(cav), "1"),
        "sampling_length_lx_m": _q(l_x, "m"),
        "sampling_length_ly_m": _q(l_y, "m"),
        "hv_ratio": _q(coupling.coupling_ratio_hv(cav), "1"),
    }
    if "oscillator" in rec:
        osc = rec["oscillator"]
        if "geometry" in rec:
            geom = rec["geometry"]
            dw = coupling.frequency_shift(cav, osc, geom)
            g = coupling.coupling_rate(cav, osc, geom)
            results["frequency_shift_hz"] = _q(dw / TWO_PI, "Hz")
            results["coupling_rate_hz_per_nm"] = _q(g / HZ_PER_NM, "Hz/nm")
        if osc.kind == "string":
            f1 = devices.string_mode_frequency(osc, 1)
            results["string_f1_hz"] = _q(f1, "Hz")
            m_eff = mechanics.effective_mass(
                osc, _probe(cav), cfg["oscillator"]["mode_index"])
            results["effective_mass_kg"] = _q(m_eff, "kg")
            results["physical_mass_kg"] = _q(osc.physical_mass, "kg")
            if "measured_f1_hz" in cfg:
                stress = devices.infer_stress(osc, cfg["measured_f1_hz"])
                results["inferred_stress_pa"] = _q(stress, "Pa")
    if "standing_wave" in cfg:
        sw = cfg["standing_wave"]
        prof = coupling.standing_wave_shift(
            cav, sw["lateral_position_m"], TWO_PI * sw["mean_shift_hz"],
            sw["branch"])
        results["standing_wave_period_m"] = _q(
            coupling.standing_wave_period(cav), "m")
        results["standing_wave_shift_hz"] = _q(prof.shift / TWO_PI, "Hz")
        results["standing_wave_g1_hz_per_nm"] = _q(prof.g1 / HZ_PER_NM,
                                                   "Hz/nm")
        results["standing_wave_g2_hz_per_nm2"] = _q(
            prof.g2 / (TWO_PI * 1e18), "Hz/nm^2")
    return results, {}


def _run_spectrum(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    mode, drive, grid = rec["mode"], rec["drive"], rec["grid"]
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
    return sensing.shot_noise_floor(cav, g, DriveCondition(drive.p_in),
                                    mode.omega_m, sidedness="double")


def _run_sensitivity(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    cav, mode, drive, g = rec["cavity"], rec["mode"], rec["drive"], rec["g"]
    floor = cfg["detector_floor_m_per_sqrt_hz"]
    shot_double = _homodyne_shot_floor(cav, mode, g, drive)
    shot_pdh = shot_double * sensing.PDH_PENALTY
    budget = sensing.noise_budget(cav, mode, g, drive, rec["grid"], floor)
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


def _run_response(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    cav, mode, grid = rec["cavity"], rec["mode"], rec["grid"]
    g_pump = cfg["response"]["g_pump_hz_per_nm"] * HZ_PER_NM
    g_probe = cfg["response"]["g_probe_hz_per_nm"] * HZ_PER_NM
    a1 = sensing.response_coefficient(cav, mode, g_pump, g_probe)
    h = sensing.response_model(TWO_PI * grid, a1, mode.omega_m, mode.gamma_m)
    g_eff = math.sqrt(g_pump * g_probe)
    results = {
        "a1": _q(a1, "rad^2/s^2"),
        "g_eff_hz_per_nm": _q(g_eff / HZ_PER_NM, "Hz/nm"),
        "h_at_dc_limit": _q(abs(1.0 + a1 / mode.omega_m ** 2), "1"),
    }
    return results, {"response.csv": (["freq_hz", "h_mag"], (grid, h), [])}


def _run_backaction(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    cav, mode, drive, g = rec["cavity"], rec["mode"], rec["drive"], rec["g"]
    g_grid = (rec["backaction_g_grid"] if "backaction_g_grid" in rec
              else np.linspace(g / 10.0, g, 20))
    res = ba.backaction_rate(cav, mode, g, drive)
    p_thres = ba.threshold_power(cav, mode, g)
    state = ba.oscillation_amplitude(cav, mode, g, drive)
    # d(Gamma_total)/d(g^2) is the rate at unit g; re-expressed against
    # the external g^2 axis (Hz^2/nm^2)
    slope = ba.blue_detuned_rate(cav, mode, 1.0, drive.p_in)
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
    gamma_hz = ba.linewidth_vs_coupling(cav, mode, drive, g_grid)
    return results, {"linewidth_vs_g2.csv": (
        ["g2_hz2_per_nm2", "gamma_total_hz"],
        ((g_grid / HZ_PER_NM) ** 2, gamma_hz), [])}


def _run_qba(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    cav, mode, drive, g = rec["cavity"], rec["mode"], rec["drive"], rec["g"]
    s_th = qba.thermal_force_psd(mode, drive.temperature)
    s_qba = qba.qba_force_psd(cav, g, drive, mode.omega_m)
    ratio = qba.qba_thermal_ratio(cav, mode, g, drive)
    s_xx_shot = _homodyne_shot_floor(cav, mode, g, drive) ** 2
    product_over_hbar2 = s_xx_shot * s_qba / HBAR ** 2
    results = {
        "s_ff_th": _q(s_th, "N^2/Hz"),
        "s_ff_qba": _q(s_qba, "N^2/Hz"),
        "ratio": _q(ratio, "1"),
        "heisenberg_product_over_hbar2": _q(product_over_hbar2, "1"),
    }
    return results, {}


def _run_fit_shift(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    curve = rec.get("data_csv")
    if curve is None:
        # the model's shift curve over 2.5 field decay lengths
        cav, osc, geom = rec["cavity"], rec["oscillator"], rec["geometry"]
        x0s = np.linspace(0.0, 2.5 / devices.decay_constant(cav), 30)
        curve = coupling.ShiftCurve([(float(x0), coupling.frequency_shift(
            cav, osc, CouplingGeometry(x0, geom.orientation))) for x0 in x0s])
    fit = coupling.fit_exponential(curve)
    results = {
        "amplitude_hz": _q(fit.amplitude / TWO_PI, "Hz"),
        "decay_length_m": _q(fit.decay_length, "m"),
        "residual": _q(fit.residual_norm / TWO_PI, "Hz"),
    }
    return results, {}


def _run_fit_response(cfg: dict, rec: dict) -> tuple[dict, Tables]:
    """Fit the measured response curve in `data_csv`. Without a `cavity`
    section g_eff is undefined and left out of the results."""
    fit = sensing.fit_response(rec["data_csv"], rec.get("cavity"),
                               rec.get("mode"))
    results = {
        "a1": _q(fit.a1, "rad^2/s^2"),
        "omega_m_hz": _q(fit.omega_m / TWO_PI, "Hz"),
        "gamma_m_hz": _q(fit.gamma_m / TWO_PI, "Hz"),
        "residual": _q(fit.residual_norm, "1"),
    }
    if math.isfinite(fit.g_eff):
        results["g_eff_hz_per_nm"] = _q(fit.g_eff / HZ_PER_NM, "Hz/nm")
    return results, {}


# analysis -> (handler, needs): a need is top-level keys joined by "+", or
# alternatives of them joined by "|". A mode is needed only under a cavity
_G = "coupling_rate_hz_per_nm|oscillator+geometry"
_MODE = "mode|oscillator"
_HANDLERS = {
    "coupling": (_run_coupling, ("cavity",)),
    "spectrum": (_run_spectrum, ("cavity", "drive", "grid", _MODE)),
    "sensitivity": (_run_sensitivity, ("cavity", "drive", "grid", _G, _MODE)),
    "response": (_run_response, ("cavity", "grid", "response", _MODE)),
    "backaction": (_run_backaction, ("cavity", "drive", _G, _MODE)),
    "qba": (_run_qba, ("cavity", "drive", _G, _MODE)),
    "fit-shift": (_run_fit_shift, ("data_csv|cavity+oscillator+geometry",)),
    "fit-response": (_run_fit_response, ("data_csv", _MODE)),
}
