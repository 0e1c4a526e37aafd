"""The four benchmark workloads: seeded inputs, the timed operation, and
the check of its output.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. A workload yields an endless stream
of operations (`ops`), runs one (`execute`, the only timed call) and
checks its output (`verify`), which returns the units of work the
operation completed or raises `CheckFailed`.

Input sizes come from low-discrepancy sequences (`spread`, one per class
of operation: `class_sequences`), so every prefix of the stream covers the
size range evenly. The seed changes each operation's other inputs and the
order of classes, but not the sizes, so a run's mix of work is the same
for every seed and throughput is comparable across seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from optomech import runner, scenarios

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Stated tolerances of the output checks.
REFERENCE_REL_TOL = 1e-9        # cold CLI results against reference.json
ORACLE_MASS_REL_TOL = 1e-7      # effective mass against a dense trapezoid
RMS_REL_TOL = 0.01              # integrated against analytic x_rms
CLOSED_FORM_REL_TOL = 1e-12     # f1, stress, mass against their formulas
FIT_TOLERANCES = {              # fitted parameter against generating truth
    "decay_length_m": 0.05,
    "amplitude_hz": 0.05,
    "omega_m_hz": 1e-5,
    "gamma_m_hz": 0.1,
    "a1": 0.1,
}
NOISE = 0.01                    # multiplicative noise on measured curves

SPECTRUM_HEADER = "freq_hz,psd,unit,sidedness"
ARTIFACT_HEADERS = {
    "thermal_spectrum.csv": SPECTRUM_HEADER,
    "signal.csv": SPECTRUM_HEADER,
    "background.csv": SPECTRUM_HEADER,
    "total.csv": SPECTRUM_HEADER,
    "response.csv": "freq_hz,h_mag",
    "linewidth_vs_g2.csv": "g2_hz2_per_nm2,gamma_total_hz",
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


def spread(offset: float, i: int, lo: float, hi: float) -> float:
    """i-th point of the golden-ratio sequence shifted by `offset`, on
    [lo, hi)."""
    return lo + (hi - lo) * ((offset + i * GOLDEN) % 1.0)


def class_sequences(rng: random.Random, classes: list):
    """Endless (class, k) stream in blocks that hold each class once, in a
    seeded order. k is the class's next point of its own golden-ratio
    sequence on [0, 1), started at a fixed offset, so each class covers its
    size range evenly whatever the order and the seed."""
    offsets = [j / len(classes) for j in range(len(classes))]
    for i in itertools.count():
        block = [(c, spread(o, i, 0.0, 1.0)) for c, o in zip(classes, offsets)]
        rng.shuffle(block)
        yield from block


def rel_err(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens."""
    def reject(token):
        raise CheckFailed(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


def compare(got, want, path: str = "$"):
    """Structural comparison; numbers match to REFERENCE_REL_TOL."""
    if isinstance(want, dict):
        _expect(isinstance(got, dict) and got.keys() == want.keys(),
                f"{path}: keys differ")
        for key in want:
            compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        _expect(isinstance(got, list) and len(got) == len(want),
                f"{path}: list differs")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        _expect(isinstance(got, (int, float)) and not isinstance(got, bool),
                f"{path}: not a number")
        _expect(abs(got - want) <= REFERENCE_REL_TOL * max(abs(got), abs(want)),
                f"{path}: {got!r} != {want!r}")
    else:
        _expect(got == want, f"{path}: {got!r} != {want!r}")


def check_finite(result: dict):
    try:
        json.dumps(result, allow_nan=False)
    except ValueError as exc:
        raise CheckFailed(f"non-finite result: {exc}") from exc


def value(result: dict, key: str) -> float:
    return result["results"][key]["value"]


def count_csv(path: Path, header: str) -> tuple[int, int]:
    """(data rows, bytes) of a CSV whose first line must equal `header`."""
    data = path.read_bytes()
    first, _, _ = data.partition(b"\n")
    _expect(first.decode() == header, f"{path.name}: header {first!r}")
    _expect(data.endswith(b"\n"), f"{path.name}: truncated")
    return data.count(b"\n") - 1, len(data)


def write_csv(path: Path, header: str, columns):
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- seeded measured data ---------------------------------------------------

def make_shift_curve(rng: np.random.Generator, points: int, path: Path):
    """Noisy |dfreq| = A*exp(-x0/l) curve; returns the truth."""
    decay = rng.uniform(80e-9, 140e-9)
    amplitude = rng.uniform(1e6, 5e7)
    x = np.linspace(0.0, 3.0 * decay, points)
    shift = -amplitude * np.exp(-x / decay) \
        * (1.0 + NOISE * rng.standard_normal(points))
    write_csv(path, "x0_m,dfreq_hz", (x, shift))
    config = {"schema_version": 1, "analysis": "fit-shift",
              "name": path.stem, "data_csv": str(path)}
    return config, {"decay_length_m": decay, "amplitude_hz": amplitude}


def make_response_curve(rng: np.random.Generator, points: int, path: Path):
    """Noisy pump-probe response |1 + a1/(Om^2 - O^2 - i*O*Gm)| around a
    resonance; returns the truth."""
    f_m = rng.uniform(5e6, 15e6)
    q = rng.uniform(2e4, 8e4)
    gamma_hz = f_m / q
    omega_m, gamma_m = TWO_PI * f_m, TWO_PI * gamma_hz
    a1 = rng.uniform(2.0, 10.0) * omega_m * gamma_m
    f = np.linspace(f_m - 30.0 * gamma_hz, f_m + 30.0 * gamma_hz, points)
    omega = TWO_PI * f
    h = np.abs(1.0 + a1 / (omega_m ** 2 - omega ** 2 - 1j * omega * gamma_m))
    h = h * (1.0 + NOISE * rng.standard_normal(points))
    write_csv(path, "freq_hz,h_mag", (f, h))
    base = scenarios.get_scenario("paper_response_interference")
    config = {"schema_version": 1, "analysis": "fit-response",
              "name": path.stem, "data_csv": str(path),
              "cavity": base["cavity"],
              "mode": {"frequency_hz": f_m, "quality_factor": q,
                       "effective_mass_kg": 3.6e-15}}
    truth = {"omega_m_hz": f_m, "gamma_m_hz": gamma_hz, "a1": a1}
    return config, truth


def check_fit(result: dict, truth: dict) -> list[float]:
    """Check fitted parameters against the truth; returns the relative
    errors of the decay length or the resonance frequency."""
    check_finite(result)
    for key, want in truth.items():
        err = rel_err(value(result, key), want)
        _expect(err <= FIT_TOLERANCES[key],
                f"{key}: relative error {err:.3g} > {FIT_TOLERANCES[key]}")
    key = "decay_length_m" if "decay_length_m" in truth else "omega_m_hz"
    return [rel_err(value(result, key), truth[key])]


# --- workloads --------------------------------------------------------------

class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    work_unit = ""
    span = "bench.op"     # trace span around each timed operation
    # op_ms_tail: a fixed percentile (a level that moved with the number of
    # operations would move with host speed); workloads that run few
    # operations lower it, so that some ten lie above it in a 20 s run on
    # the reference host
    tail_percentile = 90
    # what tracks the host speed of the operations: run.REFERENCES
    speed_reference = "host_kernel"

    def __init__(self, seed: int, work_dir: Path, smallest: bool,
                 env: dict):
        self.work_dir = work_dir
        self.smallest = smallest
        self.env = env                # environment of child processes
        self.rng = random.Random(seed)
        self.serialized = [0, 0]      # CSV rows, CSV bytes seen by verify
        self.fit_errors: list[float] = []

    def ops(self):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def verify(self, op, output) -> float:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def serialize_us_per_row(self, ops, op_s, rows) -> float:
        """CSV cost per row, where the workload writes artifacts."""
        return 0.0

    def _count_artifacts(self, out_dir: Path, names: list[str],
                         expected_rows: int | None = None) -> int:
        rows_total = 0
        for name in names:
            rows, size = count_csv(out_dir / name, ARTIFACT_HEADERS[name])
            if expected_rows is not None:
                _expect(rows == expected_rows,
                        f"{name}: {rows} rows, grid has {expected_rows}")
            rows_total += rows
            self.serialized[0] += rows
            self.serialized[1] += size
        return rows_total


class CliCold(Workload):
    """Cold `python -m optomech.cli run <target> --out <dir>` subprocesses:
    the 13 bundled scenarios plus a seeded measured shift curve and a
    seeded measured response curve."""

    name = "cli_cold"
    work_unit = "cold run"
    tail_percentile = 60
    # cold runs got faster by less than host_kernel() did, and scaling by
    # it widened their spread across runs (0.05-0.07 to 0.11-0.12)
    speed_reference = "cold_reference"
    span = "cli.run"
    FIT_SCENARIOS = ("paper_fig2a_shift_fit",)

    def __init__(self, seed, work_dir, smallest, env):
        super().__init__(seed, work_dir, smallest, env)
        self.reference = json.loads(REFERENCE_PATH.read_text())
        _expect(set(self.reference) == set(scenarios.SCENARIOS),
                "reference.json does not cover the bundled scenarios")
        nrng = np.random.default_rng(seed)
        data = work_dir / "measured"
        data.mkdir()
        self.truth = {}
        self.points = {}
        made = (("measured_shift", make_shift_curve, 30, 2000),
                ("measured_response", make_response_curve, 2000, 20000))
        for stem, make, lo, hi in made:
            points = lo if smallest else int(nrng.integers(lo, hi + 1))
            config, truth = make(nrng, points, data / f"{stem}.csv")
            target = data / f"{stem}.json"
            target.write_text(json.dumps(config), encoding="utf-8")
            # same code path in process: the cold CLI must agree with it
            expected = runner.run_scenario(config, None)
            self.reference[str(target)] = json.loads(json.dumps(expected))
            self.truth[str(target)] = truth
            self.points[stem] = points
        self.fit_targets = list(self.FIT_SCENARIOS) + list(self.truth)
        self.plain_targets = [t for t in scenarios.SCENARIOS
                              if t not in self.FIT_SCENARIOS]
        self.runs = 0

    def ops(self):
        # every block of 5 runs holds one of the 3 targets that fit
        while True:
            fits = self.fit_targets[:]
            plain = self.plain_targets[:]
            self.rng.shuffle(fits)
            self.rng.shuffle(plain)
            for b, fit in enumerate(fits):
                block = [fit] + plain[4 * b:4 * b + 4]
                self.rng.shuffle(block)
                yield from block

    def is_fit(self, target: str) -> bool:
        return target in self.fit_targets

    def execute(self, target):
        out = self.work_dir / f"out{self.runs}"
        self.runs += 1
        cmd = [sys.executable, "-m", "optomech.cli", "run", target,
               "--out", str(out)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env)
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except BaseException:  # timeout or interrupt: end the child first
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, stdout.decode(), stderr.decode(), out

    def verify(self, target, output) -> float:
        code, stdout, stderr, out = output
        try:
            _expect(code == 0, f"{target}: exit {code}: {stderr.strip()}")
            result = strict_json(stdout)
            written = (out / "result.json").read_text(encoding="utf-8")
            _expect(written == stdout, f"{target}: result.json != stdout")
            compare(result, self.reference[target])
            self._count_artifacts(out, result["artifacts"])
            if target in self.truth:
                self.fit_errors += check_fit(result, self.truth[target])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return 1.0

    def sizes(self) -> dict:
        return {"targets": len(self.fit_targets) + len(self.plain_targets),
                "fit_targets": len(self.fit_targets),
                "measured_curve_points": self.points}


_STRING = scenarios.get_scenario("paper_si_horizontal_g")


def _probe_length(cavity: dict) -> float:
    """Gaussian probe length l_y = sqrt(pi*R/alpha), from the cavity."""
    n, lam = cavity["refractive_index"], cavity["wavelength_m"]
    alpha = TWO_PI * math.sqrt(n * n - 1.0) / lam
    return math.sqrt(math.pi * cavity["major_radius_m"] / alpha)


def trapezoid_mass(osc: dict, l_y: float, n: int, points: int = 20001):
    """m*<u^2>/overlap^2 with the overlap of cos(n*pi*y/L) and the Gaussian
    probe integrated by a dense trapezoid rule."""
    length = osc["length_m"]
    y = np.linspace(-length / 2.0, length / 2.0, points)
    integrand = np.cos(n * math.pi * y / length) \
        * np.exp(-math.pi * y * y / l_y ** 2) / l_y
    overlap = np.trapezoid(integrand, y)
    mass = osc["density_kg_per_m3"] * osc["thickness_m"] * osc["width_m"] \
        * length
    return 0.5 * mass / overlap ** 2


class SweepDerived(Workload):
    """Warm in-process `run_scenario(cfg, None)` over coupling and spectrum
    configs whose mode is derived from the string, so every call runs the
    effective-mass quadrature."""

    name = "sweep_derived"
    work_unit = "derived scenario"
    MODES = (1, 3, 5)

    def __init__(self, seed, work_dir, smallest, env):
        super().__init__(seed, work_dir, smallest, env)
        self.cavity = _STRING["cavity"]
        self.l_y = _probe_length(self.cavity)
        self.lengths = [math.inf, 0.0]

    def _config(self, i: int, k: float, analysis: str, n: int) -> dict:
        r = self.rng
        length = 15e-6 if self.smallest else 15e-6 + 45e-6 * k
        self.lengths = [min(self.lengths[0], length),
                        max(self.lengths[1], length)]
        osc = dict(_STRING["oscillator"], length_m=length,
                   width_m=r.uniform(400e-9, 1.2e-6),
                   stress_pa=r.uniform(0.6e9, 1.2e9),
                   quality_factor=r.uniform(2e4, 1e5), mode_index=n)
        config = {"schema_version": 1, "analysis": analysis,
                  "name": f"derived{i}", "cavity": self.cavity,
                  "oscillator": osc}
        f_n = n / (2.0 * length) * math.sqrt(osc["stress_pa"]
                                             / osc["density_kg_per_m3"])
        if analysis == "coupling":
            config["geometry"] = {
                "separation_m": r.uniform(0.0, 100e-9),
                "orientation": r.choice(("horizontal", "vertical"))}
            config["measured_f1_hz"] = f_n / n * r.uniform(0.95, 1.05)
            config["standing_wave"] = {
                "mean_shift_hz": r.uniform(1e8, 1e9),
                "lateral_position_m": r.uniform(0.0, 500e-9),
                "branch": r.choice((1, -1))}
        else:
            config["drive"] = {"input_power_w": 65e-6,
                               "temperature_k": r.uniform(4.0, 300.0)}
            config["grid"] = {"f_min_hz": 0.98 * f_n, "f_max_hz": 1.02 * f_n,
                              "points": 2001, "spacing": "linear"}
        return config

    def ops(self):
        classes = [(a, n) for a in ("coupling", "spectrum") for n in self.MODES]
        for i, ((analysis, n), k) in enumerate(class_sequences(self.rng,
                                                               classes)):
            yield self._config(i, k, analysis, n)

    def execute(self, config):
        return runner.run_scenario(config, None)

    def verify(self, config, result) -> float:
        check_finite(result)
        osc = config["oscillator"]
        n, length = osc["mode_index"], osc["length_m"]
        rho = osc["density_kg_per_m3"]
        f_n = n / (2.0 * length) * math.sqrt(osc["stress_pa"] / rho)
        m_eff = value(result, "effective_mass_kg")
        if n == 1:
            err = rel_err(m_eff, trapezoid_mass(osc, self.l_y, n))
            _expect(err <= ORACLE_MASS_REL_TOL,
                    f"effective mass off the trapezoid oracle by {err:.3g}")
        if config["analysis"] == "spectrum":
            err = rel_err(value(result, "x_rms_integrated_m"),
                          value(result, "x_rms_m"))
            _expect(err <= RMS_REL_TOL, f"integrated x_rms off by {err:.3g}")
            checks = {"frequency_hz": f_n}
        else:
            f1 = config["measured_f1_hz"]
            checks = {"string_f1_hz": f_n / n,
                      "inferred_stress_pa": rho * (2.0 * length * f1) ** 2,
                      "physical_mass_kg": rho * osc["thickness_m"]
                      * osc["width_m"] * length}
        for key, want in checks.items():
            err = rel_err(value(result, key), want)
            _expect(err <= CLOSED_FORM_REL_TOL, f"{key} off by {err:.3g}")
        return 1.0

    def sizes(self) -> dict:
        return {"length_m": self.lengths, "mode_index": list(self.MODES),
                "spectrum_grid_points": 2001}


class ArtifactsWrite(Workload):
    """Warm in-process `run_scenario(cfg, out_dir)` over spectrum,
    sensitivity, response and backaction configs with an explicit mode and
    large grids: CSV writing dominates and no quadrature runs."""

    name = "artifacts_write"
    work_unit = "artifact row"
    tail_percentile = 75
    ANALYSES = ("spectrum", "sensitivity", "response", "backaction")
    FILES = {"spectrum": ["thermal_spectrum.csv"],
             "sensitivity": ["signal.csv", "background.csv", "total.csv"],
             "response": ["response.csv"],
             "backaction": ["linewidth_vs_g2.csv"]}

    def __init__(self, seed, work_dir, smallest, env):
        super().__init__(seed, work_dir, smallest, env)
        self.cavity = scenarios.get_scenario("paper_fig3_sensitivity")["cavity"]
        self.out = work_dir / "artifacts"
        self.out.mkdir()
        self.points = [math.inf, 0]

    def _config(self, i: int, k: float, analysis: str) -> dict:
        r = self.rng
        points = 10000 if self.smallest else int(10000 + 90001 * k)
        self.points = [min(self.points[0], points),
                       max(self.points[1], points)]
        f_m = r.uniform(1e6, 20e6)
        config = {"schema_version": 1, "analysis": analysis,
                  "name": f"artifact{i}", "cavity": self.cavity,
                  "mode": {"frequency_hz": f_m,
                           "quality_factor": r.uniform(1e4, 1e5),
                           "effective_mass_kg": r.uniform(1e-15, 2e-14)},
                  "drive": {"input_power_w": r.uniform(20e-6, 300e-6),
                            "detuning_hz": 0.0, "temperature_k": 300.0,
                            "readout": r.choice(("homodyne", "pdh"))},
                  "grid": {"f_min_hz": 0.95 * f_m, "f_max_hz": 1.05 * f_m,
                           "points": points, "spacing": "linear"}}
        g = r.uniform(1e6, 1e7)
        if analysis == "sensitivity":
            config["coupling_rate_hz_per_nm"] = g
            config["detector_floor_m_per_sqrt_hz"] = r.uniform(1e-16, 5e-16)
        elif analysis == "response":
            config["response"] = {"g_pump_hz_per_nm": g,
                                  "g_probe_hz_per_nm": r.uniform(1e6, 1e7)}
        elif analysis == "backaction":
            config["coupling_rate_hz_per_nm"] = g
            config["drive"]["detuning_hz"] = self.cavity["kappa_hz"] / 2.0
            config["backaction_g_grid"] = {"g_min_hz_per_nm": 0.05 * g,
                                           "g_max_hz_per_nm": 2.0 * g,
                                           "points": points}
        return config

    def ops(self):
        for i, (analysis, k) in enumerate(class_sequences(self.rng,
                                                          self.ANALYSES)):
            yield self._config(i, k, analysis)

    def execute(self, config):
        return runner.run_scenario(config, self.out)

    def verify(self, config, result) -> float:
        try:
            check_finite(result)
            names = self.FILES[config["analysis"]]
            _expect(result["artifacts"] == names,
                    f"artifacts {result['artifacts']} != {names}")
            return float(self._count_artifacts(self.out, names,
                                               config["grid"]["points"]))
        finally:
            for path in self.out.iterdir():
                path.unlink()

    def sizes(self) -> dict:
        return {"grid_points": self.points, "analyses": list(self.ANALYSES)}

    def serialize_us_per_row(self, ops, op_s, rows) -> float:
        """Derived: the same configs timed again without out_dir."""
        compute = 0.0
        for config in ops:
            t0 = time.perf_counter()
            runner.run_scenario(config, None)
            compute += time.perf_counter() - t0
        return 1e6 * (sum(op_s) - compute) / max(sum(rows), 1.0)


class FitMeasured(Workload):
    """Warm in-process fit-shift / fit-response runs on seeded noisy
    measured curves read from CSV; least_squares and CSV reading dominate."""

    name = "fit_measured"
    work_unit = "fitted curve"
    BLOCKS = 32          # each block: 3 shift curves and 1 response curve

    def __init__(self, seed, work_dir, smallest, env):
        super().__init__(seed, work_dir, smallest, env)
        nrng = np.random.default_rng(seed)
        data = work_dir / "measured"
        data.mkdir()
        offset = self.rng.random()
        self.curves = []
        blocks = 1 if smallest else self.BLOCKS
        for b in range(blocks):
            block = []
            for k in range(3):
                i = 3 * b + k
                points = 30 if smallest else int(spread(offset, i, 30, 2001))
                block.append(make_shift_curve(nrng, points,
                                              data / f"shift{i}.csv")
                             + (points,))
            points = 2000 if smallest else int(spread(offset, b, 2000, 20001))
            block.append(make_response_curve(nrng, points,
                                             data / f"response{b}.csv")
                         + (points,))
            self.rng.shuffle(block)
            self.curves += block
        self.first_pass = len(self.curves)

    def ops(self):
        while True:
            yield from self.curves

    def execute(self, curve):
        return runner.run_scenario(curve[0], None)

    def verify(self, curve, result) -> float:
        errors = check_fit(result, curve[1])
        if self.first_pass:
            self.first_pass -= 1
            self.fit_errors += errors
        return 1.0

    def sizes(self) -> dict:
        shift = [c[2] for c in self.curves if c[0]["analysis"] == "fit-shift"]
        resp = [c[2] for c in self.curves if c[0]["analysis"] != "fit-shift"]
        return {"shift_curves": len(shift),
                "shift_points": [min(shift), max(shift)],
                "response_curves": len(resp),
                "response_points": [min(resp), max(resp)]}


WORKLOADS = {w.name: w for w in (CliCold, SweepDerived, ArtifactsWrite,
                                 FitMeasured)}
