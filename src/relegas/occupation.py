"""Thermal state of the gas and Fermi-Dirac occupation numbers.

Temperature and chemical potential are measured in electron masses:
t = k_B T / m and xi = mu / m.  The occupation that enters every medium
integral is the sum of the electron and positron distributions,

    n_F(x) = 1/(exp((x - xi)/t) + 1) + 1/(exp((x + xi)/t) + 1),

evaluated at the dimensionless fermion energy x = E/m >= 1.  At t = 0
it is the unit step of the Fermi sea, which the quadratures take as unit
occupation below xF: their node builder _n_fermi_nodes serves t > 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import exp
from typing import Callable, Sequence

from .kinematics import _MAX_ABS_C2, FermiSurface, fermi_surface

FINE_STRUCTURE_DEFAULT = 1.0 / 137.036

# exp argument beyond which the Fermi factor under/overflows a double
_EXP_CLIP = 700.0


@dataclass(frozen=True)
class MediumState:
    """Temperature, chemical potential and coupling of the gas.

    Attributes
    ----------
    t : float
        Dimensionless temperature k_B T / m, >= 0.
    xi : float
        Dimensionless chemical potential mu / m.  At t = 0 it must be
        >= 1 and below 2**50, the bound on |c2| (the closed forms square
        and cube the Fermi energy); xi = 1 describes an empty Fermi sea
        (pure vacuum).
    alpha : float
        Fine-structure constant, > 0; the squared coupling e2 must be
        finite.
    e2 : float
        Squared coupling 4 pi alpha, built once, with the state.
    """

    t: float
    xi: float
    alpha: float = FINE_STRUCTURE_DEFAULT

    def __post_init__(self) -> None:
        if self.t < 0.0 or not math.isfinite(self.t):
            raise ValueError(f"temperature t = {self.t} must be >= 0")
        if not math.isfinite(self.xi):
            raise ValueError("chemical potential must be finite")
        if self.t == 0.0 and not 1.0 <= self.xi < _MAX_ABS_C2:
            raise ValueError(
                f"a zero-temperature state needs xi >= 1 and xi < 2**50, got xi = {self.xi}"
            )
        # every scalar scales with e2: an alpha whose e2 overflows would
        # make the tensors inf or NaN
        e2 = 4.0 * math.pi * self.alpha
        if not (self.alpha > 0.0 and math.isfinite(e2)):
            raise ValueError(
                f"coupling alpha = {self.alpha} must be positive and finite,"
                " and so must e2 = 4 pi alpha"
            )
        # frozen: stored as a cached_property stores its value
        self.__dict__["e2"] = e2

    @property
    def is_degenerate(self) -> bool:
        return self.t == 0.0

    @cached_property
    def fermi_surface(self) -> FermiSurface:
        """Fermi surface of the t = 0 state (xF = xi), built once per state."""
        if self.t != 0.0:
            raise ValueError("fermi_surface is defined only at t = 0")
        return fermi_surface(self.xi)

    @cached_property
    def _fermi_log(self) -> float:
        """log(xF + yF) of the t = 0 state, built once per state."""
        x, y = self.fermi_surface
        return math.log(x + y)

    @cached_property
    def _vacuum_pref(self) -> float:
        """-e2/(12 pi**2), the vacuum scalar's prefactor, built once per state."""
        return -self.e2 / (12.0 * math.pi**2)


def n_fermi(x: float, ms: MediumState) -> float:
    """Combined electron + positron occupation at energy x = E/m.

    At t = 0 this is the unit step of the Fermi sea, with the half-way
    value 0.5 exactly at x = xi.  Always within [0, 2].
    """
    if ms.t == 0.0:
        return 1.0 if x < ms.xi else 0.5 if x == ms.xi else 0.0
    return _two_terms(ms.t, ms.xi)((x,))[0]


def _n_fermi_nodes(ms: MediumState) -> Callable[[Sequence[float]], list[float]]:
    """xs -> [n_fermi(x, ms) for x in xs] bit for bit at nodes x >= 1, for one panel level.

    ms has t > 0: the quadratures integrate the t = 0 step as unit
    occupation below xF.  The terms are f(u) and f(v), f(u) = 1/(exp(u) + 1),
    u = (x - |xi|)/t <= v = (x + |xi|)/t, and f(v)/f(u) = (exp(u) + 1)/(exp(v) + 1)
    is <= 2 exp(u - v) = 2 exp(-2|xi|/t) for u >= 0 and <= 2 exp(-v) <=
    2 exp(-(1 + |xi|)/t) for u < 0, as x >= 1.  Once min(2|xi|, 1 + |xi|) > 40 t
    the smaller term is below 2 exp(-40) ~ 8.5e-18 of the larger (the rounded
    terms too), under half an ulp of it (>= 2**-54 of it, and f(u) >= exp(-700)
    is normal): the sum rounds to f(u), and f(v) is not built.  n_fermi keeps
    both terms, as it accepts x < 1.
    """
    t, xi = ms.t, ms.xi
    axi = abs(xi)
    if _one_term(t, axi):
        return lambda xs: [
            0.0 if (u := (x - axi) / t) > _EXP_CLIP else 1.0 if u < -_EXP_CLIP
            else 1.0 / (exp(u) + 1.0)
            for x in xs
        ]
    return _two_terms(t, xi)


def _two_terms(t: float, xi: float) -> Callable[[Sequence[float]], list[float]]:
    """xs -> [f((x - xi)/t) + f((x + xi)/t) for x in xs] at t > 0, any x.

    f(u) = 1/(exp(u) + 1), 0 above u = _EXP_CLIP and 1 below -_EXP_CLIP,
    so exp never overflows.
    """
    return lambda xs: [
        (0.0 if (u := (x - xi) / t) > _EXP_CLIP else 1.0 if u < -_EXP_CLIP
         else 1.0 / (exp(u) + 1.0))
        + (0.0 if (v := (x + xi) / t) > _EXP_CLIP else 1.0 if v < -_EXP_CLIP
           else 1.0 / (exp(v) + 1.0))
        for x in xs
    ]


def _one_term(t: float, axi: float) -> bool:
    """Whether n_F at t > 0 and |xi| = axi rounds to its larger Fermi term at every x >= 1."""
    return min(2.0 * axi, 1.0 + axi) > 40.0 * t


def x_cutoff(ms: MediumState) -> float:
    """Upper energy cut, the end of every finite-t medium integral.

    At t = 0 it is xi (>= 1), above which the occupation vanishes
    identically.  At t > 0 the tails die like exp(-(x - |xi|)/t); forty
    thermal widths past the larger of the mass shell and |xi|, n_F is
    below 2 exp(-40) ~ 8.5e-18 of its value at that larger one.  Nothing
    above the cut is integrated: neither the real parts nor the part of a
    kinematic window that lies above it.
    """
    return max(1.0, abs(ms.xi)) + 40.0 * ms.t
