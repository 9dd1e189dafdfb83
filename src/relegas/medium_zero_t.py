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

from .kinematics import (
    FermiSurface,
    InternalConsistencyError,
    KinematicPoint,
    RegionLabel,
    SubregionLabel,
    classify_region,
    zero_t_subregion,
)
from .medium_finite_t import ResponseScalars, _factor_logs, _factor_products, _scalars
from .occupation import MediumState

_EDGE_TOL = 1e-14


class SubregionBoundaryError(ValueError):
    """Point sits exactly on a subregion boundary where the closed real
    parts are individually log-divergent (their sum is finite but not
    computable in double precision there)."""


def _z_coefficients(
    a2: float, b2: float, c2: float, gamma2: float, d2: float
) -> tuple[float, float, float, float, float, float]:
    """(M_B, N_B, M_D, N_D, C_B, C_D) of Z_B and Z_D, from a**2 and b**2.

    M and N build the quartic numerators n(s) = M + N (1 - s); C_B and C_D
    are the constant weights of the Z pieces.
    """
    d4 = d2 * d2
    m_b = -2.0 * a2 * (1.0 + 4.0 * b2) - (1.0 - 2.0 * b2 - 2.0 * a2 * (2.0 - gamma2)) * d2
    m_d = 2.0 * a2 * (1.0 + gamma2) - d2
    return m_b, -d4 * (1.0 - 2.0 * b2), m_d, -d4, 1.0 / 3.0, 0.5 * (1.0 + 2.0 * c2)


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
    # (log_p - log_m)/delta_t, recast through atanh when the roots are close;
    # coincident roots (a = 0) take its limit
    u = t_fermi * t_fermi - tp * tm
    v = t_fermi * delta_t
    if delta_t == 0.0:
        d_log = -2.0 * t_fermi / u
    elif abs(v) < 0.5 * abs(u):
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
    """(r1, r2) at the Fermi surface x = xF, y = yF: _log_kernels's bits.

    The guard reads the products L1 L3, L2 L4, L2 L3 and L1 L4 of the
    four linear factors L1..L4 = a (a -+ x) - b (b +- y) that
    _factor_products builds: the numerators and denominators of the
    defining log ratios.  One of them within _EDGE_TOL
    max((a x)**2, c2**2, (b y)**2) of 0 means a window edge
    sits on the surface, where the U terms diverge.  The logs are taken
    from the same products, by _factor_logs as in _log_kernels.
    """
    a, b, c2 = p.a, p.b, p.c2
    products = _factor_products(a, b, x, y)
    tol = _EDGE_TOL * max((a * x) ** 2, c2 * c2, (b * y) ** 2)
    n1, d1, n2, d2, _, _ = products
    if -tol <= n1 <= tol or -tol <= d1 <= tol or -tol <= n2 <= tol or -tol <= d2 <= tol:
        raise SubregionBoundaryError(
            f"(a, b) = ({a}, {b}) has a window edge on the Fermi surface xF = {x}"
        )
    return _factor_logs(*products)


def _re_parts(p: KinematicPoint, ms: MediumState) -> tuple[float, float]:
    """(Re B, Re D) at T = 0 in closed form, U + W + Z pieces of both.

    The Fermi surface is ms's, and log(xF + yF) is built once per state.
    The Fermi-surface logs (with their guard), the Z coefficients and the
    branch pieces of the master integrals are built once, from the
    point's and the surface's fields read once.  Each Z is
    (M + N) I0 - N I2: on the real branch through the mean root s_bar,
    on the complex one grouped by lg and at.
    """
    x, y = ms.fermi_surface
    if y == 0.0:
        return 0.0, 0.0
    a, b, c2, gamma2, d2 = p
    k1, k2 = _fermi_logs(p, x, y)
    b2 = b * b
    u_b = x / (12.0 * b) * ((x * x + 3.0 * c2) * k1 + 6.0 * a * x * k2)
    u_d = x * (1.0 + 2.0 * c2) / (8.0 * b) * k1
    log_xy = ms._fermi_log
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


def _zero_t_parts(
    p: KinematicPoint, ms: MediumState, region: RegionLabel
) -> tuple[SubregionLabel, tuple[float, float, float, float]]:
    """(subregion, (Re B, Re D, Im B, Im D)) at t = 0: the real half, which may raise, first."""
    re_parts = _re_parts(p, ms)
    sub = zero_t_subregion(p, ms.fermi_surface, region)
    return sub, re_parts + _im_parts(p, sub, ms)


def scalars_zero_t(
    p: KinematicPoint, ms: MediumState, include_vacuum: bool = True
) -> ResponseScalars:
    """All four response scalars at p from the T = 0 closed forms.

    The Fermi surface is ms.fermi_surface, so it cannot contradict ms.
    """
    _, parts = _zero_t_parts(p, ms, classify_region(p))
    return ResponseScalars(*map(complex, _scalars(p, ms, parts, include_vacuum)))
