"""Nonrelativistic Lindhard absorption, used as a limit check.

For a cold, dilute gas (p_F << 1 in electron-mass units, m = 1) the
absorptive part of the density response takes the textbook Lindhard
form.  The (omega, q) plane splits into six cases by two questions:
is omega above or below the free-particle energy eps_q = q**2/2
(cases 1/2), and where does the Fermi momentum sit relative to
|omega - eps_q|/q and (omega + eps_q)/q (subcases a/b/c).  Only the
b and c subcases absorb.

The relativistic machinery must reduce to these values under
a = omega/2, b = q/2, y_F = p_F, which pins the overall normalization
and sign of the absorptive parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .occupation import MediumState


@dataclass(frozen=True)
class NRPoint:
    """Nonrelativistic probe: frequency omega, momentum q, Fermi momentum pF."""

    omega: float
    q: float
    pF: float

    def __post_init__(self) -> None:
        # a NaN passes every comparison below, so refuse it first
        for name, value in (("omega", self.omega), ("q", self.q), ("pF", self.pF)):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} must be finite")
        if self.q <= 0.0:
            raise ValueError(f"momentum q = {self.q} must be positive")
        if self.omega < 0.0:
            raise ValueError(f"frequency omega = {self.omega} must be >= 0")
        if self.pF <= 0.0:
            raise ValueError(f"Fermi momentum pF = {self.pF} must be positive")

    @property
    def eps_q(self) -> float:
        return 0.5 * self.q * self.q


def nr_case(p: NRPoint) -> str:
    """Classify p into the Lindhard cases 1a..2c.

    1 = omega > eps_q, 2 = omega < eps_q;
    a: pF below |omega - eps_q|/q (Pauli-forbidden, no absorption),
    b: pF between |omega - eps_q|/q and (omega + eps_q)/q,
    c: pF above (omega + eps_q)/q (case 1c only exists formally; for
    omega > eps_q the c threshold always exceeds the a threshold).
    """
    major = "1" if p.omega > p.eps_q else "2"
    lo = abs(p.omega - p.eps_q) / p.q
    hi = (p.omega + p.eps_q) / p.q
    if p.pF < lo:
        return major + "a"
    if p.pF < hi:
        return major + "b"
    return major + "c"


def nr_im_B(p: NRPoint, ms: MediumState) -> float:
    """Absorptive Lindhard value at p (electron-mass units, m = 1).

    Subcase a gives 0; subcase b gives
    e2 * eps_F' * (1 - (omega - eps_q)**2/(4 eps_F' eps_q)) / (2 pi q**3)
    with eps_F' = pF**2/2; subcase c gives e2 * omega / (2 pi q**3).
    Continuous across both subcase boundaries.
    """
    case = nr_case(p)
    sub = case[1]
    if sub == "a":
        return 0.0
    e2 = ms.e2
    if sub == "b":
        eps_f = 0.5 * p.pF * p.pF
        ratio = (p.omega - p.eps_q) ** 2 / (4.0 * eps_f * p.eps_q)
        return e2 * eps_f * (1.0 - ratio) / (2.0 * math.pi * p.q**3)
    return e2 * p.omega / (2.0 * math.pi * p.q**3)
