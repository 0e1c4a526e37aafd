"""Evanescent frequency shift and optomechanical coupling rate.

The cavity resonance is red-shifted when a dielectric oscillator enters the
evanescent field:

    dw0/w0 = -(1/2) * (A_nano/V_cav) * (1 - exp(-2*alpha*t))/(2*alpha)
             * (n_nano^2 - 1) * xi^2 * exp(-2*alpha*x0)

with the sampled area A_nano depending on orientation: w*l_y (horizontal
string), w*l_x (vertical string), l_x*l_y (sheet). The coupling rate is the
derivative along the separation coordinate, g = 2*alpha*|dw0|, with the
convention that x increases away from the cavity: the frequency shift is
negative, g > 0, and the per-photon force -hbar*g is attractive.

The finite-thickness factor is kept in full; the thin-film limit
(1 - exp(-2*alpha*t))/(2*alpha) -> t is only an approximation (37% off for
110-nm strings, where 2*alpha*t = 1).

The module also holds what the shift fit here and the response fit in
`sensing` share: the measured-data CSV reader and the Levenberg-Marquardt
solver.
"""

from __future__ import annotations

import io
import math
import os
import stat
import warnings
from pathlib import Path

from . import devices
from .devices import CouplingGeometry, Microcavity, NanoOscillator
from .errors import GeometryMismatch, IllConditioned
from .units import TWO_PI, np, record


# names that `np.loadtxt` opens decompressed (numpy's `_datasource`)
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _parse_rows(source, n: int, skip: int = 0) -> np.ndarray:
    """The first n columns of comma-separated rows as an (m, n) table,
    after `skip` lines; blank lines are skipped and `"` quotes a cell."""
    return np.loadtxt(source, delimiter=",", usecols=range(n), ndmin=2,
                      comments=None, quotechar='"', encoding="utf-8-sig",
                      skiprows=skip)


def _first_bad_row(lines: list[str], n: int) -> int:
    """Index of the first of `lines` that `_parse_rows` rejects, found by
    bisection: the rows before `good` parse, those before `bad` do not."""
    good, bad = 0, len(lines)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_rows(lines[good:mid], n)
            good = mid
        except ValueError:
            bad = mid
    return good


def read_columns(path: str | Path, names: tuple[str, ...]) -> np.ndarray:
    """The first len(names) columns of a measured-data CSV, one array row
    per column.

    The header must start with `names` (spaces around a name are allowed);
    every data row needs a finite number in each of those columns, and
    further columns are ignored. A leading byte-order mark and blank lines
    are skipped, LF, CRLF and CR line endings are all read, and a cell may
    be quoted (`"1e-7"`). An error names the data row: 1-based, header and
    blank lines not counted.
    A table without data rows is returned empty, for the fits to reject.

    `path` is a local name, never a URL, and may name a regular file, a
    FIFO or `/dev/stdin`; a `.gz`, `.bz2`, `.xz` or `.lzma` file is read
    as plain text, not decompressed.
    """
    n = len(names)
    with open(path, encoding="utf-8-sig") as fh:
        header = [c.strip().strip('"') for c in fh.readline().split(",")]
        if header[:n] != list(names):
            raise ValueError(f"expected CSV header `{', '.join(names)}`")
        name, rest = os.path.abspath(path), None
        if (stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                and not name.endswith(_COMPRESSED)):
            # a name takes loadtxt's chunked reader, ~10% faster on long
            # curves than a handle, which it reads line by line
            source, skip = name, 1
        else:
            # a pipe reads once, and on from the header that `fh` has
            # buffered past: keep its rows for an error message
            rest = fh.read()
            source, skip = io.StringIO(rest), 0
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                table = _parse_rows(source, n, skip)
        except ValueError:
            if rest is None:
                fh.seek(0)
                rest = fh.read().partition("\n")[2]
            lines = [line for line in rest.split("\n") if line]
            row = _first_bad_row(lines, n)
            raise ValueError(f"data row {row + 1}: expected {n} numbers, "
                             f"got {lines[row]!r:.60}") from None
    if not np.isfinite(table).all():
        row = np.flatnonzero(~np.isfinite(table).all(axis=1))[0]
        raise ValueError(f"data row {row + 1}: values must be finite, "
                         f"got {', '.join(map(repr, table[row].tolist()))}")
    return table.T


@record
class LeastSquaresResult:
    """Where `least_squares` stopped: the parameters, the sum of squared
    residuals ||r||^2 there, the number of residual+Jacobian evaluations,
    and why (status <= 0: it did not converge)."""

    x: np.ndarray
    fsq: float
    nfev: int
    status: int


_XTOL = _FTOL = 1e-14
_GTOL = 1e-8


def _normal_equations(fun_jac, x: np.ndarray) -> np.ndarray:
    """[J | r]^T [J | r] = [[J^T J, J^T r], [r^T J, ||r||^2]] at x."""
    r, jac = fun_jac(x)
    m = np.column_stack((jac, r))
    return m.T @ m


def least_squares(fun_jac, x0) -> LeastSquaresResult:
    """Minimize ||r(x)|| by Levenberg-Marquardt on the normal equations.

    Each step solves Marquardt's (J^T J + mu*diag(J^T J)) p = -J^T r (SIAM
    J. Appl. Math. 11, 431, 1963), whose damping ignores the parameters'
    units. mu starts at 0, a Gauss-Newton step, and follows Nielsen's rule
    (Madsen, Nielsen and Tingleff, "Methods for non-linear least squares
    problems", DTU, 2004): a step that lowers ||r|| is taken and shrinks
    mu by up to 3x; a rejected one grows mu by a factor that doubles with
    each rejection in a row.

    This is the one solver of the package: `fit_exponential` and
    `sensing.fit_response` both call it, on their parameters divided by
    the starting values. `fun_jac(x)` returns the residuals r and their
    Jacobian (one row per residual) from one evaluation. It stops when
    J^T r is below 1e-8 of ||r|| times each column norm (status 1), when
    the actual and predicted reductions of ||r||^2 are both below 1e-14 of
    it (2), when the step is below 1e-14 of ||x|| (3), or after 100
    evaluations per parameter (0). As in MINPACK, the last step of a stop
    on 2 or 3 is taken if it lowers ||r||. The result holds the
    parameters `x`, `fsq` = ||r(x)||^2, the evaluation count `nfev` and
    the `status`. A non-finite residual or Jacobian at `x0`, or singular
    normal equations, raise IllConditioned.

    J^T J, J^T r and ||r||^2 are the blocks of one product [J | r]^T
    [J | r]: no 1-D BLAS dot runs over the residuals. OpenBLAS threads one
    of more than ~10 000 elements, where it can stall for tens of ms and
    splits its sum by the thread count, which moved the fits' last bits.
    """
    x = np.array(x0, dtype=float)
    with np.errstate(all="ignore"):
        gram = _normal_equations(fun_jac, x)
        if not np.isfinite(gram).all():
            raise IllConditioned("residuals or Jacobian not finite at the "
                                 "starting point")
        nfev, mu, nu = 1, 0.0, 2.0
        while True:
            a, g, fsq = gram[:-1, :-1], gram[:-1, -1], gram[-1, -1]
            # two square roots: fsq * diag(a) overflows for residuals
            # of ~1e77 and more, which would pass the test at the start
            if np.all(np.abs(g) <= _GTOL * np.sqrt(fsq)
                      * np.sqrt(np.diag(a))):
                return LeastSquaresResult(x, fsq, nfev, 1)
            if nfev >= 100 * x.size:
                return LeastSquaresResult(x, fsq, nfev, 0)
            try:
                p = np.linalg.solve(a + np.diag(mu * np.diag(a)), -g)
            except np.linalg.LinAlgError as exc:
                raise IllConditioned(f"singular normal equations: {exc}") \
                    from exc
            small = np.linalg.norm(p) <= _XTOL * np.linalg.norm(x)
            gram_new = _normal_equations(fun_jac, x + p)
            nfev += 1
            actred = fsq - gram_new[-1, -1]
            # the reduction of ||r||^2 that the linear model predicts
            prered = p @ a @ p + 2.0 * mu * (p * p) @ np.diag(a)
            if actred > 0:
                x, gram = x + p, gram_new
            if small or (abs(actred) <= _FTOL * fsq
                         and prered <= _FTOL * fsq):
                return LeastSquaresResult(x, gram[-1, -1], nfev,
                                          3 if small else 2)
            if actred > 0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * actred / prered - 1.0) ** 3)
                nu = 2.0
            else:
                mu = mu * nu if mu else 1e-3
                nu *= 2.0


@record
class ShiftCurve:
    """Frequency-shift-vs-separation data, dw0 <= 0 (red shift).

    `points` is an (n, 2) float array of (x0 m, dw0 rad/s) rows, sorted by
    x0 when built; any sequence of pairs is converted.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be (x0, dw0) pairs")
        if not np.isfinite(pts).all():
            raise ValueError("shift points must be finite")
        if not np.all(pts[1:, 0] > pts[:-1, 0]):
            pts = pts[np.argsort(pts[:, 0])]
            if np.any(pts[1:, 0] == pts[:-1, 0]):
                raise ValueError("x0 values must be distinct")
        object.__setattr__(self, "points", pts)
        if np.any(pts[:, 1] > 0):
            raise ValueError("frequency shifts must be <= 0 (red shift)")

    @classmethod
    def from_csv(cls, path: str | Path) -> "ShiftCurve":
        """Read columns `x0_m, dfreq_hz` (dw0/2pi in Hz); header required."""
        x0, dfreq = read_columns(path, ("x0_m", "dfreq_hz"))
        with np.errstate(over="ignore"):
            dw0 = TWO_PI * dfreq
        bad = np.flatnonzero(np.isinf(dw0))
        if bad.size:
            raise OverflowError(f"data row {bad[0] + 1}: dfreq_hz "
                                f"{float(dfreq[bad[0]])!r} overflows in rad/s")
        return cls(np.column_stack((x0, dw0)))


@record
class ExpFit:
    """Result of fitting |dw0| = amplitude * exp(-x0/decay_length)."""

    amplitude: float      # rad/s
    decay_length: float   # m
    residual_norm: float


def _sampled_area(cav: Microcavity, osc: NanoOscillator,
                  geom: CouplingGeometry) -> float:
    l_x, l_y = devices.sampling_lengths(cav)
    if geom.orientation == "horizontal":
        if osc.kind != "string":
            raise GeometryMismatch("horizontal orientation requires a string")
        return osc.w * l_y
    if geom.orientation == "vertical":
        if osc.kind != "string":
            raise GeometryMismatch("vertical orientation requires a string")
        return osc.w * l_x
    if osc.kind != "sheet":
        raise GeometryMismatch("sheet orientation requires a sheet oscillator")
    return l_x * l_y


def _shift_magnitude(cav: Microcavity, osc: NanoOscillator,
                     geom: CouplingGeometry, x0: float) -> float:
    # x0 passed separately: the tests' central difference of g evaluates
    # the analytic profile at x0 +- h, which may lie past the validated range
    alpha = devices.decay_constant(cav)
    area = _sampled_area(cav, osc, geom)
    thickness = (1.0 - math.exp(-2.0 * alpha * osc.t)) / (2.0 * alpha)
    return (0.5 * cav.omega0 * area / devices.mode_volume(cav)
            * thickness * (osc.n_nano ** 2 - 1.0) * cav.xi ** 2
            * math.exp(-2.0 * alpha * x0))


def frequency_shift(cav: Microcavity, osc: NanoOscillator,
                    geom: CouplingGeometry) -> float:
    """Static cavity frequency shift dw0(x0) <= 0 (rad/s)."""
    return -_shift_magnitude(cav, osc, geom, geom.x0)


def coupling_rate(cav: Microcavity, osc: NanoOscillator,
                  geom: CouplingGeometry) -> float:
    """Linear coupling rate g(x0) = 2*alpha*|dw0(x0)| (rad/s per m)."""
    alpha = devices.decay_constant(cav)
    return 2.0 * alpha * _shift_magnitude(cav, osc, geom, geom.x0)


def coupling_ratio_hv(cav: Microcavity) -> float:
    """Horizontal/vertical coupling-rate ratio sqrt(R/r)."""
    return math.sqrt(cav.R / cav.r)


def fit_exponential(curve: ShiftCurve) -> ExpFit:
    """Least-squares fit of |dw0| = A*exp(-x0/l) to a shift curve.

    Seeded by the least-squares line through (x0, log|dw0|), then refined
    in the original domain by the module's `least_squares`, the
    Levenberg-Marquardt that `sensing.fit_response` also uses, on the
    parameters divided by the seed and with the analytic Jacobian.
    """
    if len(curve.points) < 2:
        raise IllConditioned("need at least 2 points")
    x, dw = curve.points.T
    y = np.abs(dw)
    if np.any(y <= 0):
        raise IllConditioned("zero-magnitude shifts cannot seed the log fit")

    # log-domain seed: the line log y = log A - x/l through the centroid
    log_y = np.log(y)
    with np.errstate(all="ignore"):
        xc = x - x.mean()
        sxx, sxy = np.stack((xc, log_y - log_y.mean())) @ xc
        slope = sxy / sxx
        intercept = log_y.mean() - slope * x.mean()
        scales = np.array([np.exp(intercept), -1.0 / slope])
    if not sxx > 0:
        raise IllConditioned("x0 values too small to seed the log fit")
    if not sxx < math.inf:
        raise IllConditioned("x0 values too large to seed the log fit")
    if slope >= 0:
        raise IllConditioned("shift magnitudes grow with distance")
    if not np.isfinite(scales).all():
        raise IllConditioned("log-domain seed is not finite")

    # residuals in units of a power of two near max |dw0|: an exact change
    # of scale that keeps ||r||^2 and J^T J in range for shifts far from
    # rad/s, as MINPACK's scaled norms did
    unit = 2.0 ** -math.frexp(y.max())[1]

    def residual_and_jacobian(p):
        # dr/dp = (e, A*e*x/l^2) * scales, written so that no factor
        # leaves the range of the shifts
        amp, ell = p * scales
        e = np.exp(-x / ell)
        jac = np.array((scales[0] * e, amp * e * (x / ell) / p[1])).T * unit
        return (amp * e - y) * unit, jac

    sol = least_squares(residual_and_jacobian, np.ones(2))
    if sol.status <= 0:
        raise IllConditioned(f"exponential fit did not converge in "
                             f"{sol.nfev} evaluations")
    amp, ell = sol.x * scales
    if ell <= 0:
        raise IllConditioned("fitted decay length non-positive")
    return ExpFit(amplitude=float(amp), decay_length=float(ell),
                  residual_norm=math.sqrt(sol.fsq) / unit)


@record
class StandingWaveShift:
    """Local shift and derivatives of a split standing-wave mode."""

    shift: float  # dw0(y), rad/s
    g1: float     # d(dw0)/dy, rad/s per m
    g2: float     # d^2(dw0)/dy^2, rad/s per m^2


def standing_wave_shift(cav: Microcavity, y: float, mean_shift: float,
                        branch: int = +1) -> StandingWaveShift:
    """Frequency shift profile along a standing-wave mode.

    dw0(y) = mean_shift * (1 +/- cos(2*k_g*y))/2 with k_g = 2*pi*n/lambda,
    giving a lateral period lambda/(2n). The splitting depth `mean_shift`
    is an input; there is no scattering model behind it. At nodes and
    antinodes the linear coupling g1 vanishes and the quadratic coupling
    g2 = -/+ 2*mean_shift*k_g^2*cos(2*k_g*y) is extremal.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    k_g = TWO_PI * cav.n / cav.wavelength
    phase = 2.0 * k_g * y
    shift = mean_shift * (1.0 + branch * math.cos(phase)) / 2.0
    g1 = -branch * mean_shift * k_g * math.sin(phase)
    g2 = -branch * 2.0 * mean_shift * k_g ** 2 * math.cos(phase)
    return StandingWaveShift(shift=shift, g1=g1, g2=g2)


def standing_wave_period(cav: Microcavity) -> float:
    """Lateral periodicity lambda/(2n) of the standing-wave pattern (m)."""
    return cav.wavelength / (2.0 * cav.n)
