"""One-loop vacuum polarization scalar of the electron-positron field.

The renormalized vacuum contribution depends on the probe only through
c2 = a**2 - b**2 and changes analytic character twice: it is real for
spacelike momenta (c2 < 0) and below the pair threshold (0 < c2 < 1),
and acquires a positive absorptive part for c2 > 1 where real pair
creation opens up.
"""

from __future__ import annotations

import math

from .kinematics import _MAX_ABS_C2, InvalidPointError, KinematicPoint, classify_region
from .occupation import MediumState

# below this |c2| the closed form loses digits to cancellation and a
# series in s = c2/(1 - c2) takes over
_SERIES_SWITCH = 0.05


# bracket = 1/3 + 2*(1 + 1/(2 c2))*(h*arccot(h) - 1) expanded about
# c2 = 0 in s = c2/(1 - c2): with 1/(1 - c2) = 1 + s it is the power
# series sum over k >= 1 of (-1)**k 4 (k + 2)/((2k + 1)(2k + 3)) s**k.
# Its coefficients k = 1..15, each the float of the exact rational (int
# division rounds correctly); at |s| <= 0.05/0.95 the first omitted term
# is below 6e-21 of the leading one, -4 s/5
_SERIES = tuple((-1) ** k * 4 * (k + 2) / ((2 * k + 1) * (2 * k + 3)) for k in range(1, 16))


def _bracket_series(c2: float) -> float:
    """The bracket of the closed form at |c2| <= _SERIES_SWITCH, by Horner."""
    s = c2 / (1.0 - c2)
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15 = _SERIES
    return s * (k1 + s * (k2 + s * (k3 + s * (k4 + s * (k5 + s * (k6 + s * (k7 + s * (
        k8 + s * (k9 + s * (k10 + s * (k11 + s * (k12 + s * (k13 + s * (k14 + s * k15)))))
    )))))))))


def _vacuum_value(c2: float, ms: MediumState) -> float | complex:
    """The value of c_star(c2, ms), unchecked.

    A float below the pair threshold (c2 < 1), where the value is real,
    and a complex above it.  The caller has refused c2 by classify_region:
    c_star through a point that carries only c2, the response path
    through the point it evaluates.
    """
    pref = ms._vacuum_pref
    if abs(c2) <= _SERIES_SWITCH:
        return pref * _bracket_series(c2)
    u = 1.0 + 1.0 / (2.0 * c2)
    if c2 < 0.0:
        k = math.sqrt(1.0 - 1.0 / c2)
        hcot = 0.5 * k * math.log((k + 1.0) / (k - 1.0))
    elif c2 < 1.0:
        h = math.sqrt(1.0 / c2 - 1.0)
        hcot = h * math.atan(1.0 / h)
    else:
        kappa = math.sqrt(1.0 - 1.0 / c2)
        hcot = kappa * math.atanh(kappa)
    bracket = 1.0 / 3.0 + 2.0 * u * (hcot - 1.0)
    if c2 < 1.0:
        return pref * bracket
    return pref * complex(bracket, -math.pi * kappa * u)


def c_star(c2: float, ms: MediumState) -> complex:
    """Vacuum polarization scalar at squared invariant c2.

    Refuses |c2| >= 2**50 (where the closed form no longer resolves
    k - 1), and else what classify_region refuses: a c2 on the light
    cone, on the pair threshold, or NaN.  The prefactor is -e2/(12 pi**2); above threshold the imaginary part is
    positive, as passivity demands.
    """
    if abs(c2) >= _MAX_ABS_C2:
        raise InvalidPointError(f"|c2| = {abs(c2):.3e} is too large: it is not below 2**50")
    classify_region(KinematicPoint(math.nan, math.nan, c2, math.nan, math.nan))
    return complex(_vacuum_value(c2, ms))
