"""Closed-form medium response at zero temperature.

With a sharp Fermi sea the occupation integrals of the finite-T module
collapse to elementary functions.  The imaginary parts become cubic
bracket differences over the active part of the kinematic window; the
real parts reduce to boundary terms (U), a density term (W), and a
biquadratic-denominator piece (Z) built from the two master integrals

    I_j = \\int_0^{t_F} t^j dt / (fC t^4 + fB t^2 + fA),   j = 0, 2,

with t_F = y_F/x_F the Fermi velocity.  On the real branch (gamma2 > 0)
the denominator has real roots t_-, t_+, which lie inside (0, t_F)
whenever the point absorbs; the printed two-log antiderivative then
evaluates the integrals in the principal-value sense.  All Z evaluations
below go through difference-quotient forms that stay accurate when the
two roots collide (a -> 0 or gamma2 -> 0).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .kinematics import (
    FermiSurface,
    InternalConsistencyError,
    KinematicPoint,
    SubregionLabel,
    classify_region,
    zero_t_subregion,
)
from .medium_finite_t import ResponseScalars, _log_kernels
from .occupation import MediumState

_EDGE_TOL = 1e-14


class SubregionBoundaryError(ValueError):
    """Point sits exactly on a subregion boundary where the closed real
    parts are individually log-divergent (their sum is finite but not
    computable in double precision there)."""


class ZeroTCoefficients(NamedTuple):
    """Polynomial coefficients of the zero-temperature Z terms.

    M_*, N_* build the quartic numerators n(s) = M + N (1 - s); C_B and
    C_D are the constant weights of the Z pieces; frakA, frakB, frakC
    are the biquadratic denominator coefficients fA + fB t^2 + fC t^4
    of the master integrals.
    """

    M_B: float
    N_B: float
    M_D: float
    N_D: float
    C_B: float
    C_D: float
    frakA: float
    frakB: float
    frakC: float


def _z_coefficients(
    a2: float, b2: float, c2: float, gamma2: float, d2: float
) -> tuple[float, float, float, float, float, float]:
    """(M_B, N_B, M_D, N_D, C_B, C_D) of zero_t_coefficients, from a**2 and b**2."""
    d4 = d2 * d2
    m_b = -2.0 * a2 * (1.0 + 4.0 * b2) - (1.0 - 2.0 * b2 - 2.0 * a2 * (2.0 - gamma2)) * d2
    m_d = 2.0 * a2 * (1.0 + gamma2) - d2
    return m_b, -d4 * (1.0 - 2.0 * b2), m_d, -d4, 1.0 / 3.0, 0.5 * (1.0 + 2.0 * c2)


def zero_t_coefficients(p: KinematicPoint) -> ZeroTCoefficients:
    """Coefficients entering Z_B and Z_D at the kinematic point p."""
    a, b, c2, gamma2, d2 = p
    a2 = a * a
    return ZeroTCoefficients(
        *_z_coefficients(a2, b * b, c2, gamma2, d2),
        frakA=(d2 + 1.0) ** 2 - 4.0 * a2,
        frakB=-2.0 * (d2 * (d2 + 1.0) - 2.0 * a2),
        frakC=d2 * d2,
    )


def _edge_log(t: float, t_fermi: float) -> float:
    """log|t_F - t| - log(t_F + t), stable for t << t_F."""
    if abs(t_fermi - t) <= _EDGE_TOL * max(1.0, t_fermi):
        raise SubregionBoundaryError(
            f"denominator root t = {t} collides with the Fermi velocity {t_fermi}"
        )
    if t < 0.5 * t_fermi:
        return math.log1p(-2.0 * t / (t_fermi + t))
    return math.log(abs(t_fermi - t)) - math.log(t_fermi + t)


def _real_branch_pieces(
    a: float, b: float, gamma2: float, d2: float, t_fermi: float
) -> tuple[float, float, float, float]:
    """(d_g, g_bar, s_bar, frak_c) of the real-root antiderivative.

    Difference-quotient building blocks: d_g ~ dG/ds, g_bar ~ mean G,
    s_bar ~ mean squared root, with G(t) = edge_log(t)/(2 t).
    """
    frak_c = d2 * d2
    t0_sq = (d2 * (d2 + 1.0) - 2.0 * a * a) / frak_c
    delta_s = 4.0 * a * b * math.sqrt(gamma2) / frak_c
    if delta_s == 0.0:
        # coincident roots (a = 0): use the s-derivative of G directly
        if t0_sq <= 0.0:
            raise InternalConsistencyError(
                f"degenerate root t0^2 = {t0_sq} is not positive at (a, b) = ({a}, {b})"
            )
        t0 = math.sqrt(t0_sq)
        gap = t_fermi * t_fermi - t0_sq
        if abs(gap) <= _EDGE_TOL * max(1.0, t_fermi * t_fermi):
            raise SubregionBoundaryError(
                f"degenerate root t0 = {t0} collides with the Fermi velocity {t_fermi}"
            )
        log0 = _edge_log(t0, t_fermi)
        d_g = -t_fermi / (2.0 * t0_sq * gap) - log0 / (4.0 * t0 * t0_sq)
        return d_g, log0 / (2.0 * t0), t0_sq, frak_c
    tp_sq = t0_sq + 0.5 * delta_s
    tm_sq = t0_sq - 0.5 * delta_s
    if tp_sq <= 0.0 or tm_sq <= 0.0:
        raise InternalConsistencyError(
            f"real-branch roots t+^2 = {tp_sq}, t-^2 = {tm_sq} must be positive"
        )
    tp = math.sqrt(tp_sq)
    tm = math.sqrt(tm_sq)
    log_p = _edge_log(tp, t_fermi)
    log_m = _edge_log(tm, t_fermi)
    delta_t = delta_s / (tp + tm)
    # (log_p - log_m)/delta_t, recast through atanh when the roots are close
    u = t_fermi * t_fermi - tp * tm
    v = t_fermi * delta_t
    if abs(v) < 0.5 * abs(u):
        d_log = -2.0 * math.atanh(v / u) / delta_t
    else:
        d_log = (log_p - log_m) / delta_t
    d_g = (d_log / (2.0 * tp) - log_m / (2.0 * tp * tm)) / (tp + tm)
    g_bar = 0.5 * (log_p / (2.0 * tp) + log_m / (2.0 * tm))
    return d_g, g_bar, 0.5 * (tp_sq + tm_sq), frak_c


def _complex_branch_pieces(
    a: float, b: float, gamma2: float, d2: float, t_fermi: float
) -> tuple[float, float, float, float, float]:
    """(lg, at, t_r, m2, frak_c) of the complex-root antiderivative."""
    frak_c = d2 * d2
    root_sq = complex(
        (d2 * (d2 + 1.0) - 2.0 * a * a) / frak_c,
        2.0 * a * b * math.sqrt(-gamma2) / frak_c,
    )
    t_c = cmath.sqrt(root_sq)
    t_r = t_c.real
    t_i = abs(t_c.imag)
    m2 = abs(root_sq)
    if t_r <= 0.0 or t_i <= 0.0:
        raise InternalConsistencyError(
            f"complex root {t_c} must have positive real and imaginary parts"
        )
    tf2 = t_fermi * t_fermi
    lg = math.log((tf2 + 2.0 * t_r * t_fermi + m2) / (tf2 - 2.0 * t_r * t_fermi + m2))
    at = (2.0 * t_r / t_i) * (
        math.atan((t_fermi + t_r) / t_i) + math.atan((t_fermi - t_r) / t_i)
    )
    return lg, at, t_r, m2, frak_c


def integrals_Ij(p: KinematicPoint, fs: FermiSurface) -> tuple[float, float]:
    """Master integrals (I0, I2) over the Fermi ball.

    On the real branch with a root inside (0, t_F) the returned value is
    the principal-value/finite-part evaluation of the antiderivative;
    this is exactly what the physical Z combinations require.
    """
    if fs.xF < 1.0:
        raise ValueError(f"Fermi energy xF = {fs.xF} must be >= 1")
    t_fermi = fs.yF / fs.xF
    if t_fermi == 0.0:
        return 0.0, 0.0
    a, b, _, gamma2, d2 = p
    if gamma2 >= 0.0:
        d_g, g_bar, s_bar, frak_c = _real_branch_pieces(a, b, gamma2, d2, t_fermi)
        return d_g / frak_c, (s_bar * d_g + g_bar) / frak_c
    lg, at, t_r, m2, frak_c = _complex_branch_pieces(a, b, gamma2, d2, t_fermi)
    denom = 8.0 * frak_c * t_r
    return (lg + at) / (denom * m2), (-lg + at) / denom


def _im_parts(p: KinematicPoint, sub: SubregionLabel, ms: MediumState) -> tuple[float, float]:
    """(Im B, Im D) at T = 0 over the subregion's active window.

    Im B is the closed cubic bracket P(x_u) - P(x_l) with
    P(x) = (x +- a)^3 - 3 b^2 x, evaluated through the exact identity
    P(u + delta) - P(u) = delta (3 v^2 + 3 delta v + delta^2 - 3 b^2),
    v = u +- a, which has no cancellation for narrow windows; Im D is
    proportional to the window length delta.
    """
    label, u, x_upper = sub
    if label == "NONE":
        return 0.0, 0.0
    a, b, c2, _, _ = p
    # A and B lie in region I, C and D in region III
    v = u + (a if label in ("A", "B") else -a)
    delta = x_upper - u
    bracket = delta * (3.0 * v * v + 3.0 * delta * v + delta * delta - 3.0 * b * b)
    e2 = ms.e2
    im_b = -e2 / (48.0 * math.pi * b * c2) * bracket
    im_d = -e2 * (1.0 + 2.0 * c2) / (32.0 * math.pi * b * c2) * delta
    return im_b, im_d


def _fermi_logs(p: KinematicPoint, x: float, y: float) -> tuple[float, float]:
    """(r1, r2) at the Fermi surface x = xF, y = yF, from _log_kernels.

    The guard reads the products L1 L3, L2 L4, L2 L3 and L1 L4 of the
    four linear factors L1..L4 = a (a -+ x) - b (b +- y): the numerators
    and denominators of the defining log ratios.  One of them within
    _EDGE_TOL max((a x)**2, c2**2, (b y)**2) of 0 means a window edge
    sits on the surface, where the U terms diverge.
    """
    a, b, c2 = p.a, p.b, p.c2
    ax = a * x
    by = b * y
    am = a * (a - x)
    ap = a * (a + x)
    bp = b * (b + y)
    bm = b * (b - y)
    l1 = am - bp
    l2 = am - bm
    l3 = ap - bp
    l4 = ap - bm
    tol = _EDGE_TOL * max(ax**2, c2 * c2, by**2)
    n1, d1, n2, d2 = l1 * l3, l2 * l4, l2 * l3, l1 * l4
    if -tol <= n1 <= tol or -tol <= d1 <= tol or -tol <= n2 <= tol or -tol <= d2 <= tol:
        raise SubregionBoundaryError(
            f"(a, b) = ({a}, {b}) has a window edge on the Fermi surface xF = {x}"
        )
    return _log_kernels(x, p)


def _re_parts(p: KinematicPoint, fs: FermiSurface, ms: MediumState) -> tuple[float, float]:
    """(Re B, Re D) at T = 0 in closed form, U + W + Z pieces of both.

    The Fermi-surface logs (with their guard), the Z coefficients and the
    branch pieces of the master integrals are built once, from the
    point's and the surface's fields read once.  Each Z is
    (M + N) I0 - N I2: on the real branch through the mean root s_bar,
    on the complex one grouped by lg and at.
    """
    x, y = fs
    if y == 0.0:
        return 0.0, 0.0
    a, b, c2, gamma2, d2 = p
    k1, k2 = _fermi_logs(p, x, y)
    b2 = b * b
    u_b = x / (12.0 * b) * ((x * x + 3.0 * c2) * k1 + 6.0 * a * x * k2)
    u_d = x * (1.0 + 2.0 * c2) / (8.0 * b) * k1
    log_xy = math.log(x + y)
    w_b = (2.0 / 3.0) * (x * y - b2 * log_xy)
    w_d = 0.5 * (x * y + 2.0 * c2 * log_xy)
    m_b, n_b, m_d, n_d, c_b, c_d = _z_coefficients(a * a, b2, c2, gamma2, d2)
    if gamma2 >= 0.0:
        d_g, g_bar, s_bar, frak_c = _real_branch_pieces(a, b, gamma2, d2, y / x)
        one_s = 1.0 - s_bar
        z_b = ((m_b + n_b * one_s) * d_g - n_b * g_bar) / frak_c
        z_d = ((m_d + n_d * one_s) * d_g - n_d * g_bar) / frak_c
    else:
        lg, at, t_r, m2, frak_c = _complex_branch_pieces(a, b, gamma2, d2, y / x)
        one_m2 = 1.0 - m2
        den = 8.0 * frak_c * t_r
        z_b = (((m_b + n_b) / m2 + n_b) * lg + (m_b + n_b * one_m2) / m2 * at) / den
        z_d = (((m_d + n_d) / m2 + n_d) * lg + (m_d + n_d * one_m2) / m2 * at) / den
    pref = -ms.e2 / (4.0 * math.pi**2 * c2)
    return pref * (u_b + w_b + c_b * z_b), pref * (u_d + w_d + c_d * z_d)


def scalars_zero_t(
    p: KinematicPoint, ms: MediumState, include_vacuum: bool = True
) -> ResponseScalars:
    """All four response scalars at p from the T = 0 closed forms.

    The Fermi surface is ms.fermi_surface, so it cannot contradict ms.
    """
    fs = ms.fermi_surface
    region = classify_region(p)
    # the real half runs (and may raise) before the subregion is built
    parts = _re_parts(p, fs, ms) + _im_parts(p, zero_t_subregion(p, fs, region), ms)
    return ResponseScalars.from_parts(p, ms, parts, include_vacuum)
