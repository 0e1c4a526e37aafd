"""Adaptive Simpson quadrature by interval bisection (Lyness, J. ACM 16, 483,
1969): the composite of the two halves against the whole interval, with the
(S2 - S1)/15 extrapolation as the error estimate. Each step's sums are
written out, without a helper call, which would cost more than the sums.
"""

from __future__ import annotations

from typing import Callable

_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_DEPTH = 60


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float
                        ) -> float:
    """Integrate f over [a, b] to a relative tolerance of 1e-10."""
    if b == a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _refine(f, a, b, fa, fm, fb, whole, _ABS_TOL, _MAX_DEPTH)


def _refine(f, a, b, fa, fm, fb, whole, abs_tol, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # max(abs_tol, tol) to the bit, NaN and -0.0 included
    tol = _REL_TOL * abs(left + right)
    if depth <= 0 or abs(delta) <= 15.0 * (tol if tol > abs_tol else abs_tol):
        return left + right + delta / 15.0
    # the relative tolerance carries over; the absolute floor is split
    return (_refine(f, a, m, fa, flm, fm, left, abs_tol / 2, depth - 1)
            + _refine(f, m, b, fm, frm, fb, right, abs_tol / 2, depth - 1))
