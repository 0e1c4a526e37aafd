import csv
import math

import numpy as np
import pytest

from optomech import (
    DriveCondition,
    IllConditioned,
    NoResonanceInWindow,
    ResponseCurve,
    ZeroPower,
    backaction_rate,
    fit_response,
    g_eff_from_a1,
    noise_budget,
    qba_force_psd,
    response_coefficient,
    response_model,
    shot_noise_floor,
    zero_point,
)
from optomech import sensing
from optomech.coupling import LeastSquaresResult
from optomech.sensing import PDH_PENALTY
from optomech.units import C_LIGHT, HBAR, TWO_PI

from conftest import (
    HZ_PER_NM,
    approx_rel,
    denominator_complex,
    line_backaction,
    line_qba,
    line_shot,
    make_cavity,
    make_drive,
    make_mode,
    random_cavity,
    response_magnitude,
    rng,
)


def test_shot_noise_floor_direct_arithmetic():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    g = 3.8e6 * HZ_PER_NM
    drive = make_drive(p_in=65e-6)
    omega = TWO_PI * 8e6
    got = shot_noise_floor(cav, g, drive, omega)
    omega0 = TWO_PI * C_LIGHT / 1.55e-6
    expected = (TWO_PI * 50e6 / (4.0 * g)
                * math.sqrt(HBAR * omega0 / 65e-6)
                * math.sqrt(1.0 + (2.0 * 8e6 / 50e6) ** 2))
    approx_rel(got, expected, 1e-13)


def test_shot_noise_sidedness_and_pdh_factors():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    g = 3.8e6 * HZ_PER_NM
    omega = TWO_PI * 8e6
    base = shot_noise_floor(cav, g, make_drive(), omega)
    single = shot_noise_floor(cav, g, make_drive(), omega, sidedness="single")
    approx_rel(single, base * math.sqrt(2.0), 1e-14)
    pdh = shot_noise_floor(cav, g, make_drive(readout="pdh"), omega)
    approx_rel(pdh, base * PDH_PENALTY, 1e-14)
    with pytest.raises(ValueError):
        shot_noise_floor(cav, g, make_drive(), omega, sidedness="both")


def test_shot_noise_scaling_properties(rng):
    cav = make_cavity(kappa=TWO_PI * 50e6)
    omega = TWO_PI * 8e6
    for _ in range(50):
        g = rng.uniform(0.5e6, 10e6) * HZ_PER_NM
        p = rng.uniform(1e-6, 1e-3)
        scale = rng.uniform(2.0, 10.0)
        s = shot_noise_floor(cav, g, make_drive(p_in=p), omega)
        approx_rel(shot_noise_floor(cav, g, make_drive(p_in=scale * p),
                                    omega),
                   s / math.sqrt(scale), 1e-12)
        approx_rel(shot_noise_floor(cav, scale * g, make_drive(p_in=p),
                                    omega),
                   s / scale, 1e-12)


def test_zero_power_raises():
    cav = make_cavity()
    with pytest.raises(ZeroPower):
        shot_noise_floor(cav, 1e6 * HZ_PER_NM, make_drive(p_in=0.0),
                         TWO_PI * 8e6)


@pytest.mark.parametrize("bad", [
    dict(p_in=math.inf), dict(detuning_hz=math.nan), dict(temperature=math.inf),
])
def test_drive_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        make_drive(**bad)


def test_heisenberg_product(rng):
    # randomized (g, kappa, P, Omega): double-sided imprecision times
    # backaction force PSD pins the hbar^2/2 uncertainty product
    for _ in range(200):
        cav = make_cavity(kappa=TWO_PI * rng.uniform(1e6, 300e6))
        g = rng.uniform(0.1e6, 50e6) * HZ_PER_NM
        drive = make_drive(p_in=rng.uniform(1e-7, 1e-2))
        omega = TWO_PI * rng.uniform(1e5, 1e8)
        s_xx = shot_noise_floor(cav, g, drive, omega) ** 2
        s_ff = qba_force_psd(cav, g, drive, omega)
        approx_rel(s_xx * s_ff, HBAR ** 2 / 2.0, 1e-12)


def _ulp_apart(a, b):
    return np.abs(np.asarray(a) - b) / np.spacing(np.abs(b))


def test_shared_forms_match_their_old_spellings(rng, monkeypatch):
    # the mechanical denominator keeps the response bit for bit, and the
    # cavity line keeps the shot floor in the spelling of its CSVs bit for
    # bit; qba_force_psd moves by round-off only, and backaction_rate by
    # at most 4 ulp per Lorentzian, amplified where the sideband bracket
    # lor(delta + Om) - lor(delta - Om) cancels
    eps = np.finfo(float).eps
    cases = []
    for _ in range(400):
        cav = random_cavity(rng)
        g = rng.uniform(0.1e6, 50e6) * HZ_PER_NM
        drive = make_drive(p_in=rng.uniform(1e-7, 1e-2))
        omega_m = TWO_PI * rng.uniform(1e3, 1e9)
        gamma_m = omega_m / rng.uniform(1.5, 1e8)
        a1 = rng.uniform(-1.0, 1.0) * omega_m * gamma_m
        omega = omega_m * rng.uniform(0.0, 3.0, size=17)
        scalar = float(omega[0])
        cases.append((cav, g, drive, omega, scalar, a1, omega_m, gamma_m))

        shot = (cav.kappa / (4.0 * g)
                * math.sqrt(HBAR * cav.omega0 / drive.p_in))
        assert shot_noise_floor(cav, g, drive, scalar) \
            == shot * math.sqrt(line_shot(scalar, cav.kappa))
        assert shot_noise_floor(cav, g, drive, omega).tobytes() \
            == (shot * np.sqrt(line_shot(omega, cav.kappa))).tobytes()
        qba_old = (8.0 * (HBAR * g) ** 2 / cav.kappa ** 2
                   * drive.p_in / (HBAR * cav.omega0)
                   / line_qba(scalar, cav.kappa))
        assert _ulp_apart(qba_force_psd(cav, g, drive, scalar),
                          qba_old) <= 4
        mode = make_mode(f_m=omega_m / TWO_PI, Q=omega_m / gamma_m)
        detuned = DriveCondition(p_in=drive.p_in,
                                 detuning=cav.kappa * rng.uniform(-2.0, 2.0))
        x_zp, _ = zero_point(mode)
        lor = lambda d: 1.0 / line_backaction(d, cav.kappa)
        delta = detuned.detuning
        hi, lo = lor(delta + mode.omega_m), lor(delta - mode.omega_m)
        scale = ((g * x_zp / cav.kappa) ** 2
                 * (drive.p_in / (HBAR * cav.omega0)) * 8.0 * lor(delta))
        rate = backaction_rate(cav, mode, g, detuned).gamma_ba
        assert abs(rate - scale * (hi - lo)) \
            <= eps * abs(scale) * (4.0 * (abs(hi) + abs(lo))
                                   + 8.0 * abs(hi - lo))

    def responses():
        return [(sensing.response_model(omega, a1, om, gm).tobytes(),
                 *(a.tobytes() for a in sensing.response_jacobian(
                     omega, a1, om, gm)))
                for *_, omega, _, a1, om, gm in cases]
    def denominator_old(omega, omega_m, gamma_m, re, im):
        d = denominator_complex(omega, omega_m, gamma_m)
        re[...], im[...] = d.real, d.imag

    shared = responses()
    monkeypatch.setattr(sensing, "mechanical_denominator", denominator_old)
    assert shared == responses()


def test_response_coefficient_round_trip():
    cav = make_cavity()
    mode = make_mode()
    g_pump, g_probe = 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    g_eff = g_eff_from_a1(cav, mode, a1)
    approx_rel(g_eff, math.sqrt(g_pump * g_probe), 1e-12)


@pytest.mark.parametrize("g_pump, g_probe", [
    (-2e6, 1e6), (2e6, 0.0), (-2e6, -1e6),
])
def test_response_coefficient_requires_positive_rates(g_pump, g_probe):
    # two negative rates once gave a positive a1 and a positive g_eff
    with pytest.raises(ValueError, match="g_pump > 0 and g_probe > 0"):
        response_coefficient(make_cavity(), make_mode(),
                             g_pump * HZ_PER_NM, g_probe * HZ_PER_NM)


@pytest.mark.parametrize("a1", [-1.0, 0.0, math.nan])
def test_g_eff_requires_positive_a1(a1):
    with pytest.raises(ValueError, match=r"require a1 > 0, got"):
        g_eff_from_a1(make_cavity(), make_mode(), a1)


def test_response_model_limits():
    mode = make_mode()
    a1 = 5e12
    far = response_model(np.array([mode.omega_m * 10.0]), a1, mode.omega_m,
                         mode.gamma_m)
    assert abs(float(far[0]) - 1.0) < 0.01
    # interference null just above resonance where the real part cancels
    on = response_model(np.array([mode.omega_m]), a1, mode.omega_m,
                        mode.gamma_m)
    assert float(on[0]) > 1.0


def test_fit_response_noiseless_round_trip():
    cav = make_cavity()
    mode = make_mode()
    g_pump, g_probe = 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 8001)
    h = response_magnitude(cav, mode, g_pump, g_probe, TWO_PI * f)
    fit = fit_response(ResponseCurve(f, h), cav, mode)
    a1 = response_coefficient(cav, mode, g_pump, g_probe)
    approx_rel(fit.a1, a1, 1e-3)
    approx_rel(fit.omega_m, mode.omega_m, 1e-6)
    approx_rel(fit.gamma_m, mode.gamma_m, 1e-3)
    approx_rel(fit.g_eff, math.sqrt(g_pump * g_probe), 1e-3)


def test_fit_response_without_context_gives_nan_g():
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 4001)
    h = response_model(TWO_PI * f, 5e12, mode.omega_m, mode.gamma_m)
    fit = fit_response(ResponseCurve(f, h))
    assert math.isnan(fit.g_eff)
    approx_rel(fit.omega_m, mode.omega_m, 1e-6)


def test_fit_response_requires_bracketed_resonance():
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    # window entirely below resonance: H rises monotonically
    f = np.linspace(f_m * 0.5, f_m * 0.9, 200)
    h = response_model(TWO_PI * f, 5e12, mode.omega_m, mode.gamma_m)
    with pytest.raises(NoResonanceInWindow):
        fit_response(ResponseCurve(f, h))
    with pytest.raises(NoResonanceInWindow):
        fit_response(ResponseCurve(f[:5], h[:5]))


@pytest.mark.parametrize("first", [0.0, -2.2e-16, -1e6])
def test_response_curve_requires_positive_frequencies(first):
    f = np.array([first, 1e6, 2e6])
    with pytest.raises(ValueError, match="frequencies must be > 0"):
        ResponseCurve(f, np.ones(3))
    ResponseCurve(np.array([5e-324, 1e6, 2e6]), np.ones(3))


@pytest.mark.parametrize("f, h", [
    ([math.nan, 1e6, 2e6], [1.0, math.inf, 2.0]),
    ([1e6, 2e6, math.inf], [1.0, 1.0, 2.0]),
    ([1e6, 2e6, 3e6], [1.0, -math.inf, 2.0]),
    ([1e6, 2e6, 3e6], [1.0, math.nan, 2.0]),
])
def test_response_curve_requires_finite_samples(f, h):
    with pytest.raises(ValueError, match="response samples must be finite"):
        ResponseCurve(np.array(f), np.array(h))


def test_an_infinite_sample_is_blamed_on_the_curve_not_the_fit():
    # the fit of the curve used to raise IllConditioned("residuals or
    # Jacobian not finite at the starting point")
    mode = make_mode(f_m=10.0e6, Q=1e3)
    f = np.linspace(9.9e6, 10.1e6, 50)
    h = response_model(TWO_PI * f, 5.0 * mode.omega_m * mode.gamma_m,
                       mode.omega_m, mode.gamma_m)
    approx_rel(fit_response(ResponseCurve(f, h)).omega_m, mode.omega_m, 1e-9)
    h[17] = math.inf
    with pytest.raises(ValueError, match="response samples must be finite"):
        ResponseCurve(f, h)


def test_unconverged_response_fit_raises(monkeypatch):
    # a solver that runs out of evaluations where it started
    monkeypatch.setattr(sensing, "least_squares", lambda fun_jac, x0:
                        LeastSquaresResult(x0, 1.0, 300, 0))
    cav = make_cavity()
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 25e3, f_m + 25e3, 2001)
    h = response_magnitude(cav, mode, 2e6 * HZ_PER_NM, 1e6 * HZ_PER_NM,
                           TWO_PI * f)
    with pytest.raises(IllConditioned,
                       match="did not converge in 300 evaluations"):
        fit_response(ResponseCurve(f, h))


def _random_resonance(rng, points=2000):
    """(a1, Omega_m, Gamma_m) and a grid of +-30 linewidths around them."""
    f_m = rng.uniform(1e5, 2e7)
    q = rng.uniform(1e2, 1e5)
    omega_m = TWO_PI * f_m
    gamma_m = omega_m / q
    a1 = rng.uniform(2.0, 10.0) * omega_m * gamma_m
    f = np.linspace(f_m * (1.0 - 30.0 / q), f_m * (1.0 + 30.0 / q), points)
    return np.array([a1, omega_m, gamma_m]), f


def test_response_jacobian_matches_central_difference(rng):
    for _ in range(20):
        params, f = _random_resonance(rng)
        if rng.random() < 0.5:
            params[0] = -params[0]   # repulsive force: the dip below
        omega = TWO_PI * f
        model, jac = sensing.response_jacobian(omega, *params)
        assert jac.shape == (f.size, 3)
        assert np.allclose(model, response_model(omega, *params),
                           rtol=1e-13, atol=0.0)
        # H varies on the scale of Gamma_m in Omega_m; Om^2 - O^2 cancels
        # to ~Q*eps, so a smaller step loses the difference to round-off
        steps = 1e-4 * np.array([abs(params[0]), params[2], params[2]])
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = steps[j]
            fd = (response_model(omega, *(params + dp))
                  - response_model(omega, *(params - dp))) / (2.0 * steps[j])
            assert np.max(np.abs(jac[:, j] - fd)) \
                <= 1e-6 * np.max(np.abs(jac[:, j]))


def _noisy_curve(rng, points=2000, repeats=1):
    """A random resonance with 1% noise, each of its grid's frequencies
    taken `repeats` times, as from that many sweeps."""
    params, f = _random_resonance(rng, points)
    f = np.tile(f, repeats)
    h = response_model(TWO_PI * f, *params) \
        * (1.0 + 0.01 * rng.standard_normal(f.size))
    return ResponseCurve(f, h)


def _assert_fits_match_scipy(curves, monkeypatch):
    # an independent oracle: scipy's MINPACK `lmder` on the same scaled
    # problem from the same start; x_scale="jac" is lmder's column-norm
    # scaling, the default only from scipy 1.16
    from scipy.optimize import least_squares as scipy_least_squares
    calls = []
    least_squares = sensing.least_squares

    def recorded(fun_jac, x0, **kw):
        sol = least_squares(fun_jac, x0, **kw)
        calls.append((fun_jac, x0, sol))
        return sol

    monkeypatch.setattr(sensing, "least_squares", recorded)
    nfev = oracle_nfev = 0
    for curve in curves:
        fit_response(curve)
        fun_jac, x0, sol = calls.pop()
        oracle = scipy_least_squares(
            lambda p: fun_jac(p)[0], x0, jac=lambda p: fun_jac(p)[1],
            method="lm", xtol=1e-14, ftol=1e-14, x_scale="jac")
        assert oracle.status > 0 and sol.status > 0
        assert np.all(np.abs(sol.x - oracle.x) <= 1e-7 * np.abs(oracle.x))
        assert math.sqrt(sol.fsq) \
            <= np.linalg.norm(oracle.fun) * (1.0 + 1e-12)
        nfev += sol.nfev
        oracle_nfev += oracle.nfev
    assert nfev <= 1.1 * oracle_nfev


# 15 000 rows: long enough for OpenBLAS to thread a 1-D dot over them
@pytest.mark.parametrize("points", [2000, 15_000])
def test_fit_matches_scipy_levenberg_marquardt(points, monkeypatch, rng):
    _assert_fits_match_scipy(
        (_noisy_curve(rng, points) for _ in range(20)), monkeypatch)


@pytest.mark.parametrize("repeats", [2, 3])
def test_fit_of_repeated_frequencies_matches_scipy(repeats, monkeypatch,
                                                   rng):
    # the curve sorts each frequency's rows by magnitude, so the fit's
    # starting peak and half-width read ties
    _assert_fits_match_scipy(
        (_noisy_curve(rng, 1000, repeats) for _ in range(20)), monkeypatch)


@pytest.mark.parametrize("seed", [3, 8])
def test_response_fit_scales_exactly_with_the_frequency_unit(seed):
    # f -> 2**k * f scales Omega_m, Gamma_m, the seed and the Jacobian's
    # columns by powers of two, which round nothing: the fit is the same
    # but for a1 * 4**k and the rates * 2**k, bit for bit. On these grids
    # that holds for |k| up to ~240; past that a square leaves the range
    rng = np.random.default_rng(seed)
    for _ in range(4):
        curve = _noisy_curve(rng, 500)
        fit = fit_response(curve)
        for k in range(-150, 151, 10):
            scale = 2.0 ** k
            scaled = fit_response(ResponseCurve(
                curve.frequencies_hz * scale, curve.magnitudes))
            assert (scaled.a1, scaled.omega_m, scaled.gamma_m,
                    scaled.residual_norm) \
                == (fit.a1 * scale * scale, fit.omega_m * scale,
                    fit.gamma_m * scale, fit.residual_norm), k


def test_least_squares_solves_a_linear_problem(rng):
    a = rng.standard_normal((40, 3))
    b = rng.standard_normal(40)
    sol = sensing.least_squares(lambda x: (a @ x - b, a), np.zeros(3))
    assert sol.status > 0 and sol.nfev <= 300
    assert np.allclose(sol.x, np.linalg.lstsq(a, b, rcond=None)[0],
                       rtol=1e-12, atol=1e-14)
    r = a @ sol.x - b
    assert math.isclose(sol.fsq, r @ r, rel_tol=1e-12)


def test_least_squares_stops_after_100_evaluations_per_parameter():
    # r = exp(-x): each Gauss-Newton step is x += 1 and lowers ||r|| by
    # e, but no stopping test is ever met
    sol = sensing.least_squares(
        lambda x: (np.exp(-x), -np.exp(-x)[:, None]), np.zeros(1))
    assert (sol.status, sol.nfev) == (0, 100)
    assert sol.x[0] == 99.0


def test_least_squares_takes_its_last_small_step(rng):
    # a start a few ulp off a zero-residual minimum stops on xtol; as in
    # MINPACK the stopping step is still taken, as it lowers ||r||
    for _ in range(200):
        a = rng.standard_normal((50, 3))
        x_true = rng.standard_normal(3)
        b = a @ x_true
        x0 = x_true * (1.0 + 4e-15 * rng.standard_normal(3))
        r0 = a @ x0 - b
        sol = sensing.least_squares(lambda x: (a @ x - b, a), x0)
        r = a @ sol.x - b
        assert r @ r < 0.25 * (r0 @ r0)


def test_least_squares_damped_path():
    # Rosenbrock's valley rejects the Gauss-Newton step from (-1.2, 1), so
    # the damping has to grow and then shrink again
    def rosenbrock(x):
        return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))

    sol = sensing.least_squares(rosenbrock, np.array([-1.2, 1.0]))
    assert sol.status > 0 and sol.nfev <= 200
    assert np.all(np.abs(sol.x - 1.0) <= 1e-10)


def test_least_squares_moves_off_huge_residuals(rng):
    # residuals of ~1e80: ||r||^2 times a squared column norm overflows,
    # and a gradient test on that product passed at the starting point
    a = rng.standard_normal((40, 3))
    b = rng.standard_normal(40)
    sol = sensing.least_squares(lambda x: ((a @ x - b) * 1e80, a * 1e80),
                                np.zeros(3))
    assert sol.nfev > 1 and sol.status > 0
    assert np.allclose(sol.x, np.linalg.lstsq(a, b, rcond=None)[0],
                       rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("residual, jac", [
    ([np.inf, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
    ([1.0, 2.0], [[np.nan, 0.0], [0.0, 1.0]]),
    ([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]]),     # singular J^T J
], ids=["residual", "jacobian", "singular"])
def test_least_squares_numerical_failure_is_ill_conditioned(residual, jac):
    residual, jac = np.array(residual), np.array(jac)
    with pytest.raises(IllConditioned):
        sensing.least_squares(lambda x: (residual + jac @ x, jac),
                              np.zeros(2))


@pytest.mark.parametrize("f, h", [
    ([3.0, 1.0, 2.0, 1.0, 3.0, 2.0], [0.5, 2.0, 1.0, 0.7, 0.4, 1.0]),
    ([1.0, 2.0, 2.0, 3.0], [1.0, 0.9, 0.5, 1.0]),
], ids=["unsorted", "tie"])
def test_response_curve_csv_sorts_by_frequency_then_magnitude(f, h,
                                                              tmp_path):
    f, h = 1e6 * np.array(f), np.array(h)
    path = tmp_path / "response.csv"
    path.write_text("freq_hz,h_mag\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(f.tolist(), h.tolist())))
    curve = ResponseCurve.from_csv(path)
    order = np.lexsort((h, f))
    assert np.array_equal(curve.frequencies_hz, f[order])
    assert np.array_equal(curve.magnitudes, h[order])


@pytest.mark.parametrize("seed", [4, 9])
def test_fit_of_a_shuffled_curve_is_the_fit_of_the_sorted_one(seed):
    # the fit's starting width and its bracketing test read the samples in
    # frequency order. Read in row order, seed 4's twelfth curve fails the
    # bracketing test and seed 9's twelfth fits Omega_m 6e9 times too high
    rng = np.random.default_rng(seed)
    for _ in range(20):
        params, f = _random_resonance(rng)
        h = response_model(TWO_PI * f, *params) \
            * (1.0 + 0.01 * rng.standard_normal(f.size))
        perm = rng.permutation(f.size)
        shuffled = ResponseCurve(f[perm], h[perm])
        assert np.array_equal(shuffled.frequencies_hz, f)
        assert np.array_equal(shuffled.magnitudes, h)
        fit, again = fit_response(ResponseCurve(f, h)), fit_response(shuffled)
        assert (again.a1, again.omega_m, again.gamma_m, again.residual_norm) \
            == (fit.a1, fit.omega_m, fit.gamma_m, fit.residual_norm)


def test_response_curve_csv_round_trip(tmp_path):
    mode = make_mode()
    f_m = mode.omega_m / TWO_PI
    f = np.linspace(f_m - 5e3, f_m + 5e3, 500)
    h = response_model(TWO_PI * f, 5e12, mode.omega_m, mode.gamma_m)
    path = tmp_path / "response.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "h_mag"])
        for fi, hi in zip(f, h):
            writer.writerow([repr(float(fi)), repr(float(hi))])
    curve = ResponseCurve.from_csv(path)
    assert np.allclose(curve.frequencies_hz, f)
    assert np.allclose(curve.magnitudes, h)
    # spaces around the header names
    spaced = tmp_path / "spaced.csv"
    text = path.read_text()
    spaced.write_text(text.replace("freq_hz,h_mag", " freq_hz , h_mag", 1))
    again = ResponseCurve.from_csv(spaced)
    assert np.array_equal(again.frequencies_hz, curve.frequencies_hz)
    assert np.array_equal(again.magnitudes, curve.magnitudes)


def test_noise_budget_composition():
    cav = make_cavity(kappa=TWO_PI * 50e6)
    mode = make_mode(f_m=8e6, Q=4e4, m_eff=4.9e-15)
    drive = make_drive(p_in=65e-6, readout="pdh")
    g = 3.8e6 * HZ_PER_NM
    grid = np.linspace(7.9e6, 8.1e6, 2001)
    floor = 4e-16
    budget = noise_budget(cav, mode, g, drive, grid, detector_floor=floor)
    shot_single = shot_noise_floor(cav, g, drive, TWO_PI * 8e6,
                                   sidedness="single")
    i_res = int(np.argmin(np.abs(grid - 8e6)))
    approx_rel(float(budget.background.values[i_res]),
               shot_single ** 2 + floor ** 2, 1e-6)
    assert np.allclose(budget.total.values,
                       budget.signal.values + budget.background.values)
    approx_rel(budget.imprecision,
               math.sqrt(shot_single ** 2 + floor ** 2), 1e-6)
    assert budget.snr_db > 0


def test_noise_budget_rejects_negative_detector_floor():
    # only the square of the floor enters the budget, so a negative one
    # once passed as its absolute value
    cav = make_cavity(kappa=TWO_PI * 50e6)
    mode = make_mode(f_m=8e6, Q=4e4, m_eff=4.9e-15)
    grid = np.linspace(7.9e6, 8.1e6, 11)
    with pytest.raises(ValueError, match="detector_floor >= 0"):
        noise_budget(cav, mode, 3.8e6 * HZ_PER_NM, make_drive(p_in=65e-6),
                     grid, detector_floor=-4.29e-16)
