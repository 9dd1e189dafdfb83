"""One-loop vacuum polarization scalar of the electron-positron field.

The renormalized vacuum contribution depends on the probe only through
c2 = a**2 - b**2 and changes analytic character twice: it is real for
spacelike momenta (c2 < 0) and below the pair threshold (0 < c2 < 1),
and acquires a positive absorptive part for c2 > 1 where real pair
creation opens up.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .kinematics import (
    _MAX_ABS_C2,
    LIGHT_CONE_CUT,
    PAIR_THRESHOLD_CUT,
    InvalidPointError,
    LightConeError,
    PairThresholdError,
)
from .occupation import MediumState

# below this |c2| the closed form loses digits to cancellation and a
# series in s = c2/(1 - c2) takes over
_SERIES_SWITCH = 0.05


class VacuumScalar(NamedTuple):
    """Value of the vacuum scalar together with its analytic branch.

    branch is "spacelike" (c2 < 0), "subthreshold" (0 < c2 < 1) or
    "above_threshold" (c2 > 1, complex value).
    """

    value: complex
    branch: str


# (2n + 1, -(2n + 3)) of the series terms n = 1..201, as floats:
# term/-(2n + 3) is -term/(2n + 3) to the last bit
_DENOMS = tuple((float(2 * n + 1), -float(2 * n + 3)) for n in range(1, 202))


def _bracket_series(c2: float) -> float:
    # bracket = 1/3 + 2*(1 + 1/(2 c2))*(h*arccot(h) - 1) expanded about
    # c2 = 0 via s = c2/(1-c2); leading behaviour is -4 s / 5.  For
    # |s| < 1, add1 and add2 (and sum1 and sum2) have opposite signs, so
    # |add1| + |add2| is |add1 - add2| to the last bit, and so for the sums
    s = c2 / (1.0 - c2)
    neg_s = -s
    sum1 = 0.0
    sum2 = 0.0
    term = 1.0
    for d1, neg_d3 in _DENOMS:
        term *= neg_s
        add1 = term / d1
        add2 = term / neg_d3
        sum1 += add1
        sum2 += add2
        # |add1| + |add2| < 1e-18 (|sum1| + |sum2| + 1e-30)
        stop = 1e-18 * (abs(sum1 - sum2) + 1e-30)
        if -stop < add1 - add2 < stop:
            break
    return -s / 3.0 + 2.0 * sum1 + sum2 / (1.0 - c2)


def _vacuum_value(c2: float, ms: MediumState) -> complex:
    """The value of c_star(c2, ms), without its branch label."""
    if not math.isfinite(c2):
        raise ValueError(f"c2 = {c2} must be finite")
    if abs(c2) < LIGHT_CONE_CUT:
        raise LightConeError(f"|c2| = {abs(c2):.3e} is on the light cone")
    if abs(c2 - 1.0) <= PAIR_THRESHOLD_CUT:
        raise PairThresholdError(f"c2 = {c2!r} sits on the pair threshold")
    pref = -ms.e2 / (12.0 * math.pi**2)
    if abs(c2) <= _SERIES_SWITCH:
        return complex(pref * _bracket_series(c2), 0.0)
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
        return complex(pref * bracket, 0.0)
    return pref * complex(bracket, -math.pi * kappa * u)


def c_star(c2: float, ms: MediumState) -> VacuumScalar:
    """Vacuum polarization scalar at squared invariant c2.

    Requires |c2| >= 1e-9 (off the light cone), |c2 - 1| > 1e-12 (off
    the pair threshold) and |c2| < 2**50 (where the closed form still
    resolves k - 1).  The prefactor is -e2/(12 pi**2); above threshold
    the imaginary part is positive, as passivity demands.
    """
    if abs(c2) >= _MAX_ABS_C2:
        raise InvalidPointError(f"|c2| = {abs(c2):.3e} is too large: it is not below 2**50")
    value = _vacuum_value(c2, ms)
    branch = "spacelike" if c2 < 0.0 else "subthreshold" if c2 < 1.0 else "above_threshold"
    return VacuumScalar(value, branch)
