import csv
import math
import os
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    CouplingGeometry,
    NanoOscillator,
    GeometryMismatch,
    IllConditioned,
    ShiftCurve,
    coupling_rate,
    coupling_ratio_hv,
    decay_constant,
    fit_exponential,
    frequency_shift,
    mode_volume,
    sampling_lengths,
    standing_wave_period,
    standing_wave_shift,
)
from optomech import coupling
from optomech.cli import main
from optomech.units import TWO_PI

from conftest import approx_rel, g_central_difference_error, make_cavity, \
    make_string, random_cavity, random_string, read_columns_reference, rng


def _oracle_shift(cav, osc, orientation, x0):
    # independent re-derivation: perturbative dielectric shift of the
    # sampled mode volume fraction
    alpha = 2.0 * math.pi * math.sqrt(cav.n ** 2 - 1.0) / cav.wavelength
    l_x = math.sqrt(math.pi * cav.r / alpha)
    l_y = math.sqrt(math.pi * cav.R / alpha)
    area = {"horizontal": osc.w * l_y, "vertical": osc.w * l_x,
            "sheet": l_x * l_y}[orientation]
    v_cav = 2.0 * math.pi * cav.R * math.pi * (cav.D_mode / 2.0) ** 2
    thick = (1.0 - math.exp(-2.0 * alpha * osc.t)) / (2.0 * alpha)
    return -(cav.omega0 / 2.0) * (area / v_cav) * thick \
        * (osc.n_nano ** 2 - 1.0) * cav.xi ** 2 * math.exp(-2.0 * alpha * x0)


@pytest.mark.parametrize("orientation", ["horizontal", "vertical", "sheet"])
def test_frequency_shift_matches_oracle(orientation):
    cav = make_cavity()
    osc = make_string(kind="sheet" if orientation == "sheet" else "string")
    for x0 in (0.0, 50e-9, 300e-9):
        geom = CouplingGeometry(x0=x0, orientation=orientation)
        approx_rel(frequency_shift(cav, osc, geom),
                   _oracle_shift(cav, osc, orientation, x0), 1e-13)


def test_shift_is_negative_and_decays():
    cav = make_cavity()
    osc = make_string()
    shifts = [frequency_shift(cav, osc, CouplingGeometry(x, "horizontal"))
              for x in (0.0, 100e-9, 200e-9)]
    assert all(s < 0 for s in shifts)
    assert abs(shifts[0]) > abs(shifts[1]) > abs(shifts[2])


def test_coupling_rate_is_two_alpha_times_shift():
    cav = make_cavity()
    osc = make_string()
    geom = CouplingGeometry(120e-9, "horizontal")
    alpha = decay_constant(cav)
    g = coupling_rate(cav, osc, geom)
    approx_rel(g, 2.0 * alpha * abs(frequency_shift(cav, osc, geom)), 1e-14)


def test_hv_ratio_is_sqrt_radius_ratio():
    cav = make_cavity()
    assert coupling_ratio_hv(cav) == pytest.approx(math.sqrt(10.0),
                                                   rel=1e-14)
    geom_h = CouplingGeometry(0.0, "horizontal")
    geom_v = CouplingGeometry(0.0, "vertical")
    osc = make_string()
    g_h = coupling_rate(cav, osc, geom_h)
    g_v = coupling_rate(cav, osc, geom_v)
    approx_rel(g_h / g_v, coupling_ratio_hv(cav), 1e-12)


def test_finite_difference_gradient(rng):
    for _ in range(100):
        cav = random_cavity(rng)
        osc = random_string(rng)
        orientation = str(rng.choice(["horizontal", "vertical", "sheet"]))
        if orientation == "sheet":
            osc = NanoOscillator(**{**osc.__dict__, "kind": "sheet"})
        alpha = decay_constant(cav)
        geom = CouplingGeometry(rng.uniform(0.0, 2.0 / alpha), orientation)
        h = rng.uniform(0.002, 0.005) / alpha
        assert g_central_difference_error(cav, osc, geom, h) < 1e-4


def test_geometry_mismatch_for_unknown_sampling():
    cav = make_cavity()
    sheet = make_string(kind="sheet")
    geom = CouplingGeometry(0.0, "horizontal")
    with pytest.raises(GeometryMismatch):
        frequency_shift(cav, sheet, geom)


def _model_curve(amplitude, ell, x):
    return ShiftCurve(tuple((float(xi), -amplitude * math.exp(-xi / ell))
                            for xi in x))


def test_exponential_fit_noiseless_round_trip():
    x = np.linspace(0.0, 500e-9, 25)
    curve = _model_curve(TWO_PI * 5e9, 110e-9, x)
    fit = fit_exponential(curve)
    approx_rel(fit.decay_length, 110e-9, 1e-3)
    approx_rel(fit.amplitude, TWO_PI * 5e9, 1e-3)
    assert fit.residual_norm < 1e-6 * TWO_PI * 5e9


def test_exponential_fit_two_points_exact():
    curve = _model_curve(TWO_PI * 5e9, 110e-9, [0.0, 200e-9])
    fit = fit_exponential(curve)
    approx_rel(fit.decay_length, 110e-9, 1e-9)


def test_exponential_fit_with_noise(rng):
    x = np.linspace(0.0, 500e-9, 40)
    amplitude, ell = TWO_PI * 5e9, 110e-9
    worst = 0.0
    for _ in range(20):
        noisy = tuple(
            (float(xi), -amplitude * math.exp(-xi / ell)
             * (1.0 + 0.01 * rng.standard_normal()))
            for xi in x)
        fit = fit_exponential(ShiftCurve(noisy))
        worst = max(worst, abs(fit.decay_length - ell) / ell)
    assert worst < 0.05


def _noisy_shift_fit(rng):
    x = np.linspace(0.0, 500e-9, 40)
    dw = -TWO_PI * 5e9 * np.exp(-x / 110e-9) \
        * (1.0 + 0.01 * rng.standard_normal(x.size))
    return x, dw, fit_exponential(ShiftCurve(np.column_stack((x, dw))))


def _assert_fit_scales_exactly(x, dw, fit, k):
    scaled = fit_exponential(ShiftCurve(np.column_stack((x, np.ldexp(dw, k)))))
    assert (scaled.amplitude, scaled.decay_length, scaled.residual_norm) \
        == (math.ldexp(fit.amplitude, k), fit.decay_length,
            math.ldexp(fit.residual_norm, k)), k


@pytest.mark.parametrize("k", [-600, 300], ids=["2**-600", "2**300"])
def test_exponential_fit_is_independent_of_the_shift_unit(k, rng):
    # the fit seeds and works in units of a power of two near max |dw0|:
    # dw0 -> 2**k * dw0 scales the amplitude and the residual by 2**k and
    # rounds nothing, bit for bit, so ||r||^2 neither underflows nor
    # overflows for shifts far from rad/s
    _assert_fit_scales_exactly(*_noisy_shift_fit(rng), k)


def test_exponential_fit_scales_exactly_over_the_double_range(rng):
    # the same, for every 20th power of two while each shift stays a
    # normal double
    x, dw, fit = _noisy_shift_fit(rng)
    for k in range(-1000, 941, 20):
        _assert_fit_scales_exactly(x, dw, fit, k)
    # subnormal shifts, whose unit 2**-k lies past the largest double
    tiny = fit_exponential(_model_curve(1e-310, 100e-9, x))
    approx_rel(tiny.decay_length, 100e-9, 1e-9)
    approx_rel(tiny.amplitude, 1e-310, 1e-9)


def test_exponential_fit_scales_exactly_with_the_separation_unit(rng):
    # x0 -> 2**k * x0 scales the seed's slope, x0/l and the decay length by
    # powers of two, which round nothing: the fit is the same but for the
    # decay length * 2**k, bit for bit. With x0 <= 3 * 140 nm, x0**2 stays
    # a normal double for k in about [-490, 530]
    for _ in range(4):
        decay = rng.uniform(80e-9, 140e-9)
        x = np.linspace(0.0, 3.0 * decay, rng.integers(30, 2001))
        dw = -TWO_PI * rng.uniform(1e6, 5e7) * np.exp(-x / decay) \
            * (1.0 + 0.01 * rng.standard_normal(x.size))
        fit = fit_exponential(ShiftCurve(np.column_stack((x, dw))))
        for k in range(-300, 301, 10):
            scale = 2.0 ** k
            scaled = fit_exponential(
                ShiftCurve(np.column_stack((x * scale, dw))))
            assert (scaled.amplitude, scaled.decay_length,
                    scaled.residual_norm) \
                == (fit.amplitude, fit.decay_length * scale,
                    fit.residual_norm), k


def test_fit_requires_two_points():
    with pytest.raises(IllConditioned):
        fit_exponential(ShiftCurve(((0.0, -1.0),)))


def test_fit_rejects_growing_magnitudes():
    curve = ShiftCurve(((0.0, -1.0), (1e-7, -2.0), (2e-7, -4.0)))
    with pytest.raises(IllConditioned):
        fit_exponential(curve)


def test_unconverged_exponential_fit_raises(monkeypatch, rng):
    # a solver that runs out of evaluations where it started
    monkeypatch.setattr(coupling, "least_squares", lambda fun_jac, x0:
                        coupling.LeastSquaresResult(x0, 1.0, 200, 0))
    x = np.linspace(0.0, 500e-9, 40)
    noisy = tuple((float(xi), -TWO_PI * 5e9 * math.exp(-xi / 110e-9)
                   * (1.0 + 0.01 * rng.standard_normal())) for xi in x)
    with pytest.raises(IllConditioned,
                       match="did not converge in 200 evaluations"):
        fit_exponential(ShiftCurve(noisy))


def test_exponential_fit_matches_scipy_levenberg_marquardt(rng):
    # an independent oracle: scipy's MINPACK `lmder` with a finite-difference
    # Jacobian on the unscaled problem from np.polyfit's log-line seed.
    # Unscaled, lmder stops short of the minimum, so the fit may sit lower
    # and a few 1e-4 away, never higher
    from scipy.optimize import least_squares as scipy_least_squares
    for _ in range(200):
        decay = rng.uniform(80e-9, 140e-9)
        amplitude = TWO_PI * rng.uniform(1e6, 5e7)
        x = np.linspace(0.0, 3.0 * decay, rng.integers(30, 2001))
        y = amplitude * np.exp(-x / decay) \
            * (1.0 + 0.01 * rng.standard_normal(x.size))
        fit = fit_exponential(ShiftCurve(np.column_stack((x, -y))))
        slope, intercept = np.polyfit(x, np.log(y), 1)
        oracle = scipy_least_squares(
            lambda p: p[0] * np.exp(-x / p[1]) - y,
            [math.exp(intercept), -1.0 / slope], method="lm",
            xtol=1e-12, ftol=1e-12)
        assert oracle.status > 0
        assert fit.residual_norm \
            <= np.linalg.norm(oracle.fun) * (1.0 + 1e-12)
        params = np.array([fit.amplitude, fit.decay_length])
        assert np.all(np.abs(params - oracle.x) <= 5e-4 * oracle.x)


def test_shift_curve_validation():
    with pytest.raises(ValueError):
        ShiftCurve(((0.0, -1.0), (0.0, -2.0)))
    with pytest.raises(ValueError):
        ShiftCurve(((0.0, 1.0),))
    for bad in ((0.0, -math.inf), (math.nan, -1.0)):
        with pytest.raises(ValueError, match="finite"):
            ShiftCurve(((1e-7, -1.0), bad))


def test_shift_curve_sorts_its_points(rng):
    for _ in range(20):
        decay = rng.uniform(80e-9, 140e-9)
        x = np.linspace(0.0, 3.0 * decay, rng.integers(30, 2001))
        y = TWO_PI * rng.uniform(1e6, 5e7) * np.exp(-x / decay) \
            * (1.0 + 0.01 * rng.standard_normal(x.size))
        points = np.column_stack((x, -y))
        shuffled = ShiftCurve(points[rng.permutation(x.size)])
        assert np.array_equal(shuffled.points, points)
        assert fit_exponential(shuffled) == fit_exponential(ShiftCurve(points))


def test_shift_curve_points_are_pairs():
    curve = ShiftCurve([(1e-7, -2.0), (0.0, -1.0)])
    assert curve.points.shape == (2, 2)
    assert ShiftCurve(()).points.shape == (0, 2)
    # a (2, 3) table holds six numbers, but not three (x0, dw0) pairs
    with pytest.raises(ValueError):
        ShiftCurve(((0.0, -1.0, -2.0), (1e-7, -3.0, -4.0)))


def test_shift_curve_csv_round_trip(tmp_path):
    path = tmp_path / "shift.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0_m", "dfreq_hz"])
        for x in np.linspace(0.0, 400e-9, 12):
            writer.writerow([repr(float(x)), repr(-5e9 * math.exp(-x / 110e-9))])
    curve = ShiftCurve.from_csv(path)
    fit = fit_exponential(curve)
    approx_rel(fit.decay_length, 110e-9, 1e-6)
    approx_rel(fit.amplitude, TWO_PI * 5e9, 1e-6)
    # the header as README spells it, with a space after the comma
    spaced = tmp_path / "spaced.csv"
    text = path.read_text()
    spaced.write_text(text.replace("x0_m,dfreq_hz", "x0_m, dfreq_hz", 1))
    assert np.array_equal(ShiftCurve.from_csv(spaced).points, curve.points)


def _shift_rows():
    x = np.linspace(0.0, 400e-9, 12)
    dfreq = -5e9 * np.exp(-x / 110e-9)
    return x, dfreq, [f"{a!r},{b!r}" for a, b in zip(x.tolist(),
                                                     dfreq.tolist())]


_SHIFT_NAMES = ("x0_m", "dfreq_hz")

# reads /dev/stdin in a subprocess: the timeout bounds a reader that
# waits for a pipe to open again
_READ_STDIN = """
import sys
from optomech import coupling
sys.stdout.write(coupling.read_columns("/dev/stdin", ("x0_m", "dfreq_hz"))
                 .tobytes().hex())
"""


def _read_piped(data: bytes) -> np.ndarray:
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _READ_STDIN], input=data,
                          capture_output=True, env=dict(os.environ,
                                                        PYTHONPATH=src),
                          timeout=60, check=True)
    return np.frombuffer(bytes.fromhex(proc.stdout.decode()),
                         dtype=float).reshape(2, -1)


@pytest.mark.parametrize("variant", ["crlf", "cr", "blank lines",
                                     "extra column", "quoted cell", "pipe",
                                     ".gz", ".bz2", ".xz", ".lzma", ".GZ"])
def test_read_columns_accepts(variant, tmp_path):
    # a name with a compression suffix is read as the plain text it holds
    x, dfreq, rows = _shift_rows()
    header, newline = "x0_m,dfreq_hz", "\n"
    if variant == "crlf":   # csv.writer's default line ending
        newline = "\r\n"
    elif variant == "cr":
        newline = "\r"
    elif variant == "blank lines":
        rows = [r + "\n" for r in rows[:6]] + ["", "\n"] + rows[6:] + [""]
    elif variant == "extra column":
        header += ",note"
        rows = [r + ",not a number" for r in rows]
    elif variant == "quoted cell":
        rows = [f'"{a!r}",{b!r}' for a, b in zip(x.tolist(),
                                                  dfreq.tolist())]
    data = (newline.join([header] + rows) + newline).encode()
    if variant == "pipe":
        table = _read_piped(data)
    else:
        path = tmp_path / ("shift.csv" + variant * variant.startswith("."))
        path.write_bytes(data)
        table = coupling.read_columns(path, _SHIFT_NAMES)
    assert np.array_equal(table, [x, dfreq])


def test_a_url_shaped_name_is_a_local_file(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a data_csv name was opened as a URL")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    x, dfreq, rows = _shift_rows()
    folder = tmp_path / "http:" / "host"
    folder.mkdir(parents=True)
    (folder / "d.csv").write_text("\n".join(["x0_m,dfreq_hz"] + rows) + "\n")
    monkeypatch.chdir(tmp_path)
    table = coupling.read_columns("http://host/d.csv", _SHIFT_NAMES)
    assert np.array_equal(table, [x, dfreq])


def test_a_malformed_piped_row_is_named(tmp_path):
    # a pipe cannot be read twice: the rows for the message are kept
    _, _, rows = _shift_rows()
    rows[4] = "2e-7,abc"
    data = ("\n".join(["x0_m,dfreq_hz"] + rows) + "\n").encode()
    path = tmp_path / "shift.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as from_file:
        coupling.read_columns(path, _SHIFT_NAMES)
    assert str(from_file.value) == "data row 5: expected 2 numbers, got " \
        "'2e-7,abc'"
    with pytest.raises(subprocess.CalledProcessError) as piped:
        _read_piped(data)
    assert piped.value.stderr.decode().splitlines()[-1] \
        == f"ValueError: {from_file.value}"


# A cell of the generated files: numbers spelled several ways, text that
# may hold a quote, a comma, a line break or another separator character
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.3e}", f" {v!r} ", f'"{v!r}"',
                               f'" {v:g}\n"']))
_TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r\t\x0b\x0c\x85\u2028'),
                max_size=6)
_BAD_CELL = st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "", "1_0",
                             "0x10", "# 1", '"1"2', "1 2"])


@st.composite
def _csv_files(draw):
    """(bytes, name suffix) of a measured-data CSV in the forms that
    `read_columns` documents, with at most one bad row."""
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    extra = draw(st.integers(0, 2))
    header = [draw(st.sampled_from([n, f" {n}", f'"{n}"'])) for n in
              _SHIFT_NAMES] + [f"note{k}" for k in range(extra)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        cells = [draw(_NUMBER), draw(_NUMBER)]
        cells += [draw(_TEXT.map(lambda t: f'"{t}"') | _TEXT.filter(
            lambda t: not set(t) & set(',"\n\r'))) for _ in range(extra)]
        lines.append(",".join(cells))
    if len(lines) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(lines) - 1))
        column = draw(st.integers(0, 1))
        cells = [draw(_NUMBER), draw(_NUMBER)]
        cells[column] = draw(_BAD_CELL)
        lines[at] = ",".join(cells[:1] if cells[1] == "" else cells)
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode(), draw(st.sampled_from([".csv", ".csv.gz"]))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_csv_files())
def test_read_columns_reads_as_the_handle_reader(case):
    # against the reader that parsed every file from its open handle:
    # the same arrays, or a ValueError naming the same row; a `.gz` name
    # takes the branch that pipes take
    data, suffix = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / ("shift" + suffix)
        path.write_bytes(data)
        outcomes = []
        for read in (coupling.read_columns, read_columns_reference):
            try:
                outcomes.append(read(path, _SHIFT_NAMES))
            except ValueError as exc:
                outcomes.append(str(exc))
    got, expected = outcomes
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_comment_line_is_a_malformed_row(tmp_path, capsys):
    # `#` starts no comment: the row is not two numbers, so the CLI exits 2
    _, _, rows = _shift_rows()
    path = tmp_path / "shift.csv"
    path.write_text("\n".join(["x0_m,dfreq_hz", "# gap sweep"] + rows)
                    + "\n")
    with pytest.raises(ValueError):
        coupling.read_columns(path, ("x0_m", "dfreq_hz"))
    assert main(["fit-shift", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_standing_wave_period():
    cav = make_cavity(n=1.5)
    approx_rel(standing_wave_period(cav), 1.55e-6 / 3.0, 1e-14)


def test_standing_wave_antinode_and_node():
    cav = make_cavity()
    mean = TWO_PI * 1e9
    at_antinode = standing_wave_shift(cav, 0.0, mean, branch=+1)
    assert at_antinode.shift == pytest.approx(mean, rel=1e-14)
    assert at_antinode.g1 == 0.0
    assert at_antinode.g2 < 0
    other = standing_wave_shift(cav, 0.0, mean, branch=-1)
    assert other.shift == 0.0
    assert other.g2 > 0
    # the two branches tile the full splitting
    y = 123e-9
    total = standing_wave_shift(cav, y, mean, +1).shift \
        + standing_wave_shift(cav, y, mean, -1).shift
    assert total == pytest.approx(mean, rel=1e-12)


def test_standing_wave_derivatives_match_finite_differences():
    cav = make_cavity()
    mean = TWO_PI * 1e9
    h = 1e-12
    for y in (0.0, 80e-9, 200e-9):
        lo = standing_wave_shift(cav, y - h, mean).shift
        mid = standing_wave_shift(cav, y, mean)
        hi = standing_wave_shift(cav, y + h, mean).shift
        g1_fd = (hi - lo) / (2.0 * h)
        g2_fd = (hi - 2.0 * mid.shift + lo) / h ** 2
        assert g1_fd == pytest.approx(mid.g1, rel=1e-4, abs=mean * 1e-3)
        assert g2_fd == pytest.approx(mid.g2, rel=1e-3)


def test_standing_wave_branch_validation():
    with pytest.raises(ValueError):
        standing_wave_shift(make_cavity(), 0.0, 1.0, branch=0)
