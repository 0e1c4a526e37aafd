"""Adaptive quadrature by interval bisection with an embedded error estimate.

Simpson's rule on the whole interval is compared against the composite of
the two halves; the standard (S2 - S1)/15 extrapolation serves as the error
estimate. Integrands here are smooth, so this converges fast.
"""

from __future__ import annotations

from typing import Callable

_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_DEPTH = 60


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float
                        ) -> float:
    """Integrate f over [a, b] to a relative tolerance of 1e-10."""
    if b == a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _refine(f, a, b, fa, fm, fb, whole, _ABS_TOL, _MAX_DEPTH)


def _refine(f, a, b, fa, fm, fb, whole, abs_tol, depth) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * max(abs_tol,
                                              _REL_TOL * abs(left + right)):
        return left + right + delta / 15.0
    # the relative tolerance carries over; the absolute floor is split
    return (_refine(f, a, m, fa, flm, fm, left, abs_tol / 2, depth - 1)
            + _refine(f, m, b, fm, frm, fb, right, abs_tol / 2, depth - 1))
