"""Bundled scenarios reproducing the published estimates.

Each scenario is a plain config dict as accepted by the `run` command.
Measured magnitudes from the experiment (fitted g values, achieved noise
floors) appear only in the descriptions; the scenarios reproduce the model
estimates.
"""

from __future__ import annotations

import copy

from .devices import index_for_decay_length

# silica toroid of the measurements: R = 29 um, r = 3 um, lambda = 1.55 um
_CAVITY_29UM = {
    "major_radius_m": 29e-6,
    "minor_radius_m": 3e-6,
    "wavelength_m": 1.55e-6,
    "refractive_index": 1.45,
    "effective_index": 1.44,
    "kappa_hz": 4.9e6,
    "mode_diameter_m": 3.5e-6,
    "surface_field_fraction": 0.4,
    "kerr_coefficient_m2_per_w": 3e-20,
}

# reference toroid of the coupling-rate estimates: R = 30 um, r = 3 um,
# lambda = 1.55 um, xi = 0.4, D_mode = 3.5 um, field decay length 220 nm
_SI_CAVITY = {**_CAVITY_29UM, "major_radius_m": 30e-6,
              "refractive_index": index_for_decay_length(1.55e-6, 220e-9)}

_SIN_STRING_25UM = {
    "kind": "string",
    "length_m": 25e-6,
    "width_m": 800e-9,
    "thickness_m": 110e-9,
    "density_kg_per_m3": 3100.0,
    "stress_pa": 0.9e9,
    "refractive_index": 2.05,
    "quality_factor": 53000.0,
    "mode_index": 1,
}

SCENARIOS: dict[str, dict] = {
    "paper_decay_length": {
        "schema_version": 1,
        "description": "Field decay length 235 nm (silica, 1550 nm); "
                       "intensity decay length 110 nm.",
        "analysis": "coupling",
        "cavity": _CAVITY_29UM,
    },
    "paper_si_horizontal_g": {
        "schema_version": 1,
        "description": "Horizontal-string coupling estimate, g/2pi around "
                       "60 MHz/nm at contact.",
        "analysis": "coupling",
        "cavity": _SI_CAVITY,
        "oscillator": _SIN_STRING_25UM,
        "geometry": {"separation_m": 0.0, "orientation": "horizontal"},
    },
    "paper_si_vertical_ratio": {
        "schema_version": 1,
        "description": "Vertical-string coupling and the sqrt(R/r) "
                       "horizontal/vertical ratio (about 3).",
        "analysis": "coupling",
        "cavity": _SI_CAVITY,
        "oscillator": _SIN_STRING_25UM,
        "geometry": {"separation_m": 0.0, "orientation": "vertical"},
    },
    "paper_si_sheet_g": {
        "schema_version": 1,
        "description": "30-nm nanosheet coupling estimate, g/2pi around "
                       "40 MHz/nm at contact.",
        "analysis": "coupling",
        "cavity": _SI_CAVITY,
        "oscillator": {**_SIN_STRING_25UM, "kind": "sheet", "length_m": 40e-6,
                       "width_m": 50e-6, "thickness_m": 30e-9},
        "geometry": {"separation_m": 0.0, "orientation": "sheet"},
    },
    "paper_fig2a_shift_fit": {
        "schema_version": 1,
        "description": "Exponential fit of the model shift-vs-distance "
                       "curve; decay length 1/(2*alpha) = 110 nm.",
        "analysis": "fit-shift",
        "cavity": _SI_CAVITY,
        "oscillator": _SIN_STRING_25UM,
        "geometry": {"separation_m": 0.0, "orientation": "horizontal"},
    },
    "paper_stress_inference": {
        "schema_version": 1,
        "description": "Tensile stress 0.9 GPa inferred from the 10.74 MHz "
                       "fundamental of a 25-um string.",
        "analysis": "coupling",
        "cavity": _SI_CAVITY,
        "oscillator": _SIN_STRING_25UM,
        "geometry": {"separation_m": 0.0, "orientation": "horizontal"},
        "measured_f1_hz": 10.74e6,
    },
    "paper_fig2c_thermal": {
        "schema_version": 1,
        "description": "Room-temperature Brownian noise of the 10.74 MHz "
                       "string (m_eff = 3.6 pg); x_rms = 16 pm.",
        "analysis": "spectrum",
        "cavity": _SI_CAVITY,
        "mode": {"frequency_hz": 10.74e6, "quality_factor": 53000.0,
                 "effective_mass_kg": 3.6e-15},
        "drive": {"input_power_w": 65e-6, "detuning_hz": 0.0,
                  "temperature_k": 300.0, "readout": "homodyne"},
        "grid": {"f_min_hz": 10.6e6, "f_max_hz": 10.9e6, "points": 2001,
                 "spacing": "linear"},
    },
    "paper_fig3_zero_point": {
        "schema_version": 1,
        "description": "Zero-point level of the 8 MHz string (4.9 pg, "
                       "Q = 40,000): 820 am/rtHz single-sided.",
        "analysis": "spectrum",
        "cavity": _SI_CAVITY,
        "mode": {"frequency_hz": 8e6, "quality_factor": 40000.0,
                 "effective_mass_kg": 4.9e-15},
        "drive": {"input_power_w": 65e-6, "detuning_hz": 0.0,
                  "temperature_k": 300.0, "readout": "pdh"},
        "grid": {"f_min_hz": 7.9e6, "f_max_hz": 8.1e6, "points": 2001,
                 "spacing": "linear"},
    },
    "paper_fig3_sensitivity": {
        "schema_version": 1,
        "description": "Shot-noise floor of the SQL measurement: 1.5e-16 "
                       "m/rtHz double-sided, 2.6e-16 with the PDH factor; "
                       "570 am/rtHz total background gives > 60 dB signal "
                       "to background (measured floor was 570 am/rtHz).",
        "analysis": "sensitivity",
        "cavity": {**_CAVITY_29UM, "kappa_hz": 50e6},
        "mode": {"frequency_hz": 8e6, "quality_factor": 40000.0,
                 "effective_mass_kg": 4.9e-15},
        "drive": {"input_power_w": 65e-6, "detuning_hz": 0.0,
                  "temperature_k": 300.0, "readout": "pdh"},
        "coupling_rate_hz_per_nm": 3.8e6,
        "detector_floor_m_per_sqrt_hz": 4.29e-16,
        "grid": {"f_min_hz": 7.5e6, "f_max_hz": 8.5e6, "points": 2001,
                 "spacing": "linear"},
    },
    "paper_response_interference": {
        "schema_version": 1,
        "description": "Pump-probe response with the destructive-"
                       "interference dip above resonance; g_eff = "
                       "sqrt(g_pump*g_probe).",
        "analysis": "response",
        "cavity": {**_CAVITY_29UM, "wavelength_m": 1.53e-6,
                   "kappa_hz": 120e6},
        "mode": {"frequency_hz": 10.74e6, "quality_factor": 53000.0,
                 "effective_mass_kg": 3.6e-15},
        "response": {"g_pump_hz_per_nm": 2.0e6, "g_probe_hz_per_nm": 1.0e6},
        "grid": {"f_min_hz": 10.5e6, "f_max_hz": 11.0e6, "points": 4001,
                 "spacing": "linear"},
    },
    "paper_fig4_backaction": {
        "schema_version": 1,
        "description": "Blue-detuned (Delta = +kappa/2) amplification of "
                       "the 10.8 MHz string: linewidth narrowing, "
                       "threshold, saturation near (kappa/2)/g = 10 nm.",
        "analysis": "backaction",
        "cavity": {**_CAVITY_29UM, "kappa_hz": 12e6},
        "mode": {"frequency_hz": 10.8e6, "quality_factor": 70000.0,
                 "effective_mass_kg": 3.6e-15},
        "drive": {"input_power_w": 300e-6, "detuning_hz": 6e6,
                  "temperature_k": 300.0, "readout": "homodyne"},
        "coupling_rate_hz_per_nm": 0.6e6,  # (kappa/2)/g = 10 nm
        "backaction_g_grid": {"g_min_hz_per_nm": 0.05e6,
                              "g_max_hz_per_nm": 1.2e6, "points": 25},
    },
    "paper_eq26_unity_ratio": {
        "schema_version": 1,
        "description": "Quantum-backaction-to-thermal force ratio near "
                       "unity at room temperature (reference set: g/2pi = "
                       "20 MHz/nm, kappa/2pi = 4 MHz, 15 pg, Q = 1e6).",
        "analysis": "qba",
        "cavity": {
            "major_radius_m": 15e-6,
            "minor_radius_m": 2e-6,
            "wavelength_m": 780e-9,
            "refractive_index": 1.45,
            "effective_index": 1.44,
            "kappa_hz": 4e6,
            "mode_diameter_m": 1.8e-6,
            "surface_field_fraction": 0.4,
            "kerr_coefficient_m2_per_w": 3e-20,
        },
        "mode": {"frequency_hz": 1e6, "quality_factor": 1e6,
                 "effective_mass_kg": 15e-15},
        "drive": {"input_power_w": 100e-6, "detuning_hz": 0.0,
                  "temperature_k": 300.0, "readout": "homodyne"},
        "coupling_rate_hz_per_nm": 20e6,
    },
    "paper_standing_wave": {
        "schema_version": 1,
        "description": "Split-mode standing-wave profile: lateral period "
                       "lambda/2n (about 500 nm) and the quadratic "
                       "coupling at node/antinode.",
        "analysis": "coupling",
        "cavity": _SI_CAVITY,
        "oscillator": _SIN_STRING_25UM,
        "geometry": {"separation_m": 0.0, "orientation": "vertical"},
        "standing_wave": {"mean_shift_hz": 1e9, "lateral_position_m": 0.0,
                          "branch": 1},
    },
}


def list_scenarios() -> list[tuple[str, str]]:
    """Names and one-line descriptions of the bundled scenarios."""
    return [(name, cfg["description"].split(";")[0].strip())
            for name, cfg in SCENARIOS.items()]


def get_scenario(name: str) -> dict:
    cfg = SCENARIOS.get(name)
    if cfg is None:
        raise KeyError(f"unknown scenario {name!r}")
    out = copy.deepcopy(cfg)
    out["name"] = name
    return out
