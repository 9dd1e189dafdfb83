"""Dimensionless kinematics of an electromagnetic probe in an electron gas.

Frequency and momentum transfer enter through the dimensionless pair

    a = omega / (2 m),    b = |q| / (2 m),

with m the electron mass.  Everything else is derived from these two:
``c2 = a**2 - b**2`` fixes whether the four-momentum is spacelike or
timelike, ``gamma2 = 1 - 1/c2`` is the squared boost parameter of the
decay kinematics, and ``d2 = a**2 - b**2*gamma2`` collects the
combination that controls the momentum-space integrals.

The (a, b) quarter-plane splits into three regions:

* region I   (``c2 < 0``):  spacelike, electron-hole absorption,
* region II  (``0 < c2 < 1``): timelike below pair threshold, transparent,
* region III (``c2 > 1``):  timelike above the electron-positron
  pair-creation threshold.

At zero temperature the absorptive regions I and III further split into
the subregions A-D depending on how the kinematic window of participating
fermion energies sits relative to the Fermi surface.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

LIGHT_CONE_CUT = 1e-9
PAIR_THRESHOLD_CUT = 1e-12
# Points with |c2| at or above this are refused.  The vacuum closed form
# needs k - 1 = sqrt(1 - 1/c2) - 1 (or 1 - kappa) to keep a few bits, and
# 1/|c2| falls below 2**-52 near 4.5e15, where k rounds to 1.  The bound
# also keeps a and b below 2**51, far from where the t = 0 squares and
# the t > 0 kernel products overflow.
_MAX_ABS_C2 = 2.0**50
BOUNDARY_TOL = 1e-12
# builds a NamedTuple from a tuple of its fields without the generated
# __new__: _new(Cls, (x, y)) == Cls(x, y), minus one Python frame
_new = tuple.__new__


class InvalidPointError(ValueError):
    """Base class for kinematically unusable (a, b) input."""


class LightConeError(InvalidPointError):
    """Raised when (a, b) sits on (or hugs) the light cone a = b."""


class PairThresholdError(InvalidPointError):
    """Raised when c2 is too close to the pair-creation threshold c2 = 1."""


class InternalConsistencyError(RuntimeError):
    """An internal cross-check that should hold by algebra has failed."""


class KinematicPoint(NamedTuple):
    """A probe four-momentum in dimensionless variables.

    Attributes
    ----------
    a : float
        omega / 2m, must be >= 0.
    b : float
        |q| / 2m, must be > 0.
    c2 : float
        a**2 - b**2.
    gamma2 : float
        1 - 1/c2; positive in regions I and III (real branch),
        negative in region II (complex branch).
    d2 : float
        a**2 - b**2*gamma2 = c2 + b**2/c2.
    """

    a: float
    b: float
    c2: float
    gamma2: float
    d2: float


class RegionLabel(Enum):
    I = "I"
    II = "II"
    III = "III"


class FermiSurface(NamedTuple):
    """Zero-temperature Fermi surface in electron-mass units.

    xF is the Fermi energy over m (>= 1), yF = sqrt(xF**2 - 1) the Fermi
    momentum over m.
    """

    xF: float
    yF: float


def fermi_surface(xF: float) -> FermiSurface:
    """Build a FermiSurface from the dimensionless Fermi energy xF >= 1.

    xF must also lie below 2**50, the bound on |c2| (yF and the boundary
    curves square it); NaN is refused.
    """
    if not 1.0 <= xF < _MAX_ABS_C2:
        raise ValueError(f"Fermi energy xF = {xF} must be >= 1 and below 2**50")
    return FermiSurface(xF=xF, yF=math.sqrt(xF * xF - 1.0))


class SubregionLabel(NamedTuple):
    """Zero-temperature absorption classification of a kinematic point.

    label is one of "A", "B", "C", "D" or "NONE".  For an absorbing
    point, (x_lower, x_upper) is the active range of fermion energies
    x = E/m that contribute; for "NONE" both are nan.
    """

    label: str
    x_lower: float
    x_upper: float


# the label of every point without absorption, shared: it is immutable
_NO_ABSORPTION = SubregionLabel("NONE", math.nan, math.nan)


def derive_point(a: float, b: float) -> KinematicPoint:
    """Validate (a, b) and derive the dependent kinematic quantities.

    Parameters
    ----------
    a, b : float
        Dimensionless frequency and momentum transfer.  Requires a >= 0,
        b > 0, and |a**2 - b**2| >= 1e-9 (points on the light cone are
        rejected because gamma2 and d2 blow up there); b**2 must be a
        normal double and c2 finite, or the results would be inf or NaN.
    """
    if not (b > 0.0) or not math.isfinite(b):
        raise InvalidPointError(f"momentum transfer b = {b} must be positive")
    if a < 0.0 or not math.isfinite(a):
        raise InvalidPointError(f"frequency a = {a} must be >= 0")
    b2 = b * b
    if b2 < sys.float_info.min:
        raise InvalidPointError(f"momentum transfer b = {b} is too small: b**2 is subnormal")
    c2 = a * a - b2
    if not math.isfinite(c2):
        raise InvalidPointError(f"(a, b) = ({a}, {b}) is too large: c2 = a**2 - b**2 = {c2}")
    if abs(c2) < LIGHT_CONE_CUT:
        raise LightConeError(
            f"(a, b) = ({a}, {b}) is on the light cone: |c2| = {abs(c2):.3e}"
        )
    return _new(KinematicPoint, (a, b, c2, 1.0 - 1.0 / c2, c2 + b2 / c2))


def classify_region(p: KinematicPoint) -> RegionLabel:
    """Classify a point into region I, II or III of the (a, b) plane.

    Refuses a point on the light cone or the pair threshold, and a NaN c2
    (which a KinematicPoint built by hand can carry).
    """
    c2 = p.c2
    if abs(c2) < LIGHT_CONE_CUT:
        raise LightConeError(f"|c2| = {abs(c2):.3e} is on the light cone")
    if abs(c2 - 1.0) <= PAIR_THRESHOLD_CUT:
        raise PairThresholdError(
            f"c2 = {c2!r} sits on the pair-creation threshold c2 = 1"
        )
    if c2 < 0.0:
        return RegionLabel.I
    if c2 < 1.0:
        return RegionLabel.II
    if c2 > 1.0:
        return RegionLabel.III
    raise InvalidPointError(f"c2 = {c2} must be finite")


def kinematic_window(p: KinematicPoint) -> tuple[float, float]:
    """Energy window (x_lower, x_upper) of fermions that can absorb at p.

    Only defined on the real branch (gamma2 > 0, i.e. regions I and III);
    there the window is (|a - b*gamma|, a + b*gamma) and its lower edge
    always lies above the mass shell x = 1.
    """
    a, b, _, gamma2, _ = p
    if gamma2 <= 0.0:
        raise ValueError("kinematic window requires gamma2 > 0")
    bg = b * math.sqrt(gamma2)
    lower = abs(a - bg)
    upper = a + bg
    if lower < 1.0 - 1e-9:
        raise InternalConsistencyError(
            f"window lower edge {lower} fell below the mass shell"
        )
    return lower, upper


def zero_t_subregion(
    p: KinematicPoint, fs: FermiSurface, region: RegionLabel | None = None
) -> SubregionLabel:
    """Locate p among the T = 0 absorption subregions A-D.

    A: the whole window lies inside the Fermi sea (region I);
    B: the window straddles the Fermi surface (region I);
    C, D: same split for the pair-creation window (region III);
    NONE: no absorption (window empty of occupied states, or region II).

    Boundary membership uses a tolerance of 1e-12 on window edges.  A
    caller that has classified p already passes its region, which is then
    not classified again.
    """
    if region is None:
        region = classify_region(p)
    if region is RegionLabel.II:
        return _NO_ABSORPTION
    lower, upper = kinematic_window(p)
    x_fermi = fs.xF
    if lower >= x_fermi - BOUNDARY_TOL:
        return _NO_ABSORPTION
    if upper <= x_fermi + BOUNDARY_TOL:
        return _new(SubregionLabel, ("A" if region is RegionLabel.I else "C", lower, upper))
    return _new(SubregionLabel, ("B" if region is RegionLabel.I else "D", lower, x_fermi))


def region_boundaries(fs: FermiSurface, a: float) -> dict[str, float]:
    """Boundary curves b(a) of the T = 0 subregion map.

    For a fixed Fermi surface, returns the b values at which the window
    edges cross the Fermi surface:

    * ``b_plus``, ``b_minus``    solve  b*gamma - a = xF  (onset/offset of
      electron-hole absorption in region I),
    * ``bbar_plus``, ``bbar_minus`` solve  b*gamma + a = xF  (A/B and C/D
      splits for a < xF),
    * ``bprime_plus``, ``bprime_minus`` solve  a - b*gamma = xF  (pair
      window onset for a > xF).

    Entries are omitted when the square-root argument is negative (the
    curve does not exist at this a).  The bbar/bprime expressions share
    one square root and differ only in sign placement.  a must be >= 0
    and below 2**50, as xF is; NaN is refused.
    """
    if not 0.0 <= a < _MAX_ABS_C2:
        raise ValueError(f"frequency a = {a} must be >= 0 and below 2**50")
    half = 0.5 * fs.yF
    out: dict[str, float] = {}
    arg_outer = half * half + a * (fs.xF + a)
    if arg_outer >= 0.0:
        root = math.sqrt(arg_outer)
        out["b_plus"] = half + root
        out["b_minus"] = -half + root
    arg_inner = half * half - a * (fs.xF - a)
    if arg_inner >= 0.0:
        root = math.sqrt(arg_inner)
        out["bbar_plus"] = half + root
        out["bbar_minus"] = half - root
        out["bprime_plus"] = half + root
        out["bprime_minus"] = -half + root
    return out
