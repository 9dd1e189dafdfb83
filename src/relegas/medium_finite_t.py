"""Medium contributions to the response at finite temperature.

The thermal parts of the two independent medium scalars (written B and D
throughout, with A the dependent combination and C the vacuum scalar)
are one-dimensional integrals over the fermion energy x = E/m weighted
by the occupation n_F(x).

Real parts integrate n_F against smooth kernels built from the two log
ratios r1 and r2; on the real branch (gamma2 > 0) those logs have
integrable singularities at the kinematic window edges, which are handed
to the quadrature engine as breakpoints.  The logs have one formula, the
factored form of ``_log_kernels``, which loses no digits as b -> 0: the
quadrature, the public r1 and r2 and the t = 0 closed forms all use it.
Imaginary parts are integrals of polynomial kernels over the part of the
kinematic window below the occupation cutoff; they vanish identically in
region II, where no real absorption process exists.  All five integrals
are one vector-valued quadrature pass over shared nodes; in region II the
pass has the three real components only.

The pass has one of two panel plans.  The sharp-edge plan integrates
[1, mu], mu = |xi|, at unit occupation, cut at the window edges below
mu.  At t = 0 (mu = xF) that is the whole integral.  At t > 0 it serves
an isolated Fermi edge (n_F one Fermi term, b >= 1e-3 a, mu at least
18 t above the mass shell and 30 t from each window edge, or from region
II's complex pair of edges) and adds t sum W_i [S(mu + t z_i) -
S(mu - t z_i)] over the six nodes of a 3-node Gauss rule for odd
integrands under the weight 1/(e^z + 1), where S is the same node loop
at unit occupation.  This is the Sommerfeld expansion through its t**12
term, with the derivatives of the kernels at mu replaced by six samples.
Every other cell, at t > 0, takes the thermal-tail plan: it integrates
n_F over [1, cutoff], cut at the window edges and at mu, with the
thermal tail above the last edge in the variable of _tail_map.  Its
occupation at the nodes of each integrand call comes from
occupation._n_fermi_nodes, with n_fermi's bits.
"""

from __future__ import annotations

import math
from math import exp, expm1, log, log1p, sqrt
from typing import NamedTuple, Sequence

from .kinematics import KinematicPoint, RegionLabel, classify_region, kinematic_window
from .numerics import _raise_nonfinite, integrate_adaptive
from .occupation import MediumState, _n_fermi_nodes, _one_term, x_cutoff
from .vacuum import _vacuum_value

# floor under the kernels' logs, and of a denominator that rounds to 0
_TINY = 1e-300
# a Fermi edge at most this many widths t above the edge below it is smooth
_FERMI_MERGE = 2.0
# the 3-node Gauss rule for odd integrands under the weight 1/(e^z + 1) on
# [0, inf): sum W_i g(z_i) is the integral of g(z)/(e^z + 1) for g = z, z^3,
# ..., z^11 (printed by tests/make_finite_t_reference.py --gauss-fermi)
_GF_NODES = (1.9228418539597034, 5.761738129236588, 11.897233681055607)
_GF_WEIGHTS = (0.3823962212977991, 0.015019528488747257, 5.387675463739371e-05)
# a Fermi edge |xi| is isolated, and takes the rule, when it lies at least
# _SHELL_WIDTHS t above the mass shell and _EDGE_WIDTHS t from each window
# edge, and b >= _DEEP_B a
_SHELL_WIDTHS = 18.0
_EDGE_WIDTHS = 30.0
_DEEP_B = 1e-3


class ResponseScalars(NamedTuple):
    """The four scalar amplitudes of the polarization tensor.

    B and D are the independent medium scalars, C is the vacuum scalar,
    and A = D + (1 + 3*c2/(2*b**2)) * B is carried for convenience.
    When built with include_vacuum=False, C is exactly 0.
    """

    B: complex
    D: complex
    A: complex
    C: complex


def _scalars(
    p: KinematicPoint, ms: MediumState, parts: tuple[float, ...], include_vacuum: bool
) -> tuple[float, float, float, float] | tuple[complex, complex, complex, complex]:
    """(B, D, A, C) at p from (Re B, Re D, Im B, Im D), as a plain tuple.

    The one builder of A and C: ResponseScalars(*map(complex, _scalars(...)))
    is the record.  p has been classified (classify_region), so C is the
    unchecked vacuum value, and 0 < c2 < 1 is region II: there Im B and
    Im D are exactly 0 and C is real, so the four scalars are floats, with
    the bits of the real parts of the complex ones.  Elsewhere they are
    complex.
    """
    re_b, re_d, im_b, im_d = parts
    _, b, c2, _, _ = p
    c_val = _vacuum_value(c2, ms) if include_vacuum else 0.0
    if 0.0 < c2 < 1.0:
        b_val, d_val = re_b, re_d
    else:
        b_val, d_val, c_val = complex(re_b, im_b), complex(re_d, im_d), complex(c_val)
    return b_val, d_val, d_val + (1.0 + 3.0 * c2 / (2.0 * b * b)) * b_val, c_val


def r1(x: float, p: KinematicPoint) -> float:
    """First log kernel, log|((c2-b*y)^2 - a^2 x^2)/((c2+b*y)^2 - a^2 x^2)|.

    Vanishes at the mass shell x = 1 and decays like 1/x**2 at large x.
    It does not vanish at a = 0: its static limit carries the entire
    Thomas-Fermi screening response.  The first component of
    _log_kernels, the one formula that the quadrature and the t = 0
    closed forms (medium_zero_t._fermi_logs) use too.
    """
    return _log_kernels(x, p)[0]


def r2(x: float, p: KinematicPoint) -> float:
    """Second log kernel, (1/2) log|(c2^2 - (a x - b y)^2)/(c2^2 - (a x + b y)^2)|.

    Odd under a -> -a, hence identically zero at a = 0.  The second
    component of _log_kernels.
    """
    return _log_kernels(x, p)[1]


def _log_kernels(x: float, p: KinematicPoint) -> tuple[float, float]:
    """r1 and r2 at x from the four linear factors L1..L4 = c2 -+ a x -+ b y.

    Each factor is computed without c2, e.g. L1 = a (a - x) - b (b + y),
    so it stays accurate up to its own zero (a - x is exact near x = a).
    r1 = log|L1 L3/(L2 L4)| and r2 = (1/2) log|L2 L3/(L1 L4)|, and the
    numerators differ from the denominators by the exact -4 c2 b y and
    4 a x b y (with c2 = (a - b)(a + b), that of the factors), so each log
    is log1p(q) of that difference over the denominator while q > -1/2.
    Below that the ratio is under 1/2 (a factor near its zero, or a sign
    change inside the window) and the kernel is one log of |ratio|,
    floored at _TINY; a denominator that rounds to 0 counts as _TINY.
    Unlike the squared arguments of the defining ratios, nothing cancels
    as b -> 0, so the kernels keep their relative accuracy where they are
    O(b).
    """
    return _factor_logs(*_factor_products(p.a, p.b, x, sqrt(x * x - 1.0)))


def _factor_products(
    a: float, b: float, x: float, y: float
) -> tuple[float, float, float, float, float, float]:
    """(L1 L3, L2 L4, L2 L3, L1 L4, -4 c2 b y, 4 a x b y) at x, y: the factors' one build."""
    by = b * y
    am = a * (a - x)
    ap = a * (a + x)
    bp = b * (b + y)
    bm = b * (b - y)
    l1 = am - bp
    l2 = am - bm
    l3 = ap - bp
    l4 = ap - bm
    return l1 * l3, l2 * l4, l2 * l3, l1 * l4, -4.0 * ((a - b) * (a + b)) * by, 4.0 * a * x * by


def _factor_logs(
    n1: float, d1: float, n2: float, d2: float, diff1: float, diff2: float
) -> tuple[float, float]:
    """(r1, r2) = (log|n1/d1|, (1/2) log|n2/d2|) from _factor_products.

    diff1 = n1 - d1 and diff2 = n2 - d2 are the exact differences, not subtracted.
    """
    den = d1 or _TINY
    q = diff1 / den
    if q > -0.5:
        k1 = log1p(q)
    else:
        r = abs(n1 / den)
        k1 = log(_TINY if r < _TINY else r)
    den = d2 or _TINY
    q = diff2 / den
    if q > -0.5:
        k2 = 0.5 * log1p(q)
    else:
        r = abs(n2 / den)
        k2 = 0.5 * log(_TINY if r < _TINY else r)
    return k1, k2


def _tail_map(t0: float, top: float, hi: float, t: float):
    """Nodes of the thermal tail [t0, hi] from those of the panel [t0, top].

    The quadrature sees the tail as a panel of width top - t0 = 1 (to an
    ulp) in s = z - t0, and x = t0 - t ln(1 - s (1 - E)), E =
    exp(-(hi - t0)/t), runs from t0 to hi as s runs from 0 to 1.  Each
    weight gains dx/ds = t (1 - E)/(1 - s (1 - E)), which undoes the
    exp(-(x - t0)/t) fall of n_F above t0: the integrand in s is smooth
    and of one scale (the exponential decay map of double-exponential
    quadrature; Mori & Sugihara, J. Comput. Appl. Math. 127 (2001) 287).
    1 - s (1 - E) is formed as 1 + log1p's argument below s = 1/2 and as
    (top - z) + s E above it; s and top - z are exact differences, so
    neither end loses digits.  A node whose x rounds onto t0 or hi is
    dropped, as the engine drops nodes that round onto a panel edge.
    """
    e = exp(-(hi - t0) / t)
    om = -expm1(-(hi - t0) / t)
    tom = t * om

    def nodes(zs: list[float], ws: Sequence[float]) -> tuple[list[float], list[float]]:
        xs = []
        mws = []
        for z, w in zip(zs, ws):
            s = z - t0
            if s < 0.5:
                v = -s * om
                x = t0 - t * log1p(v)
                d = 1.0 + v
            else:
                d = (top - z) + s * e
                x = t0 - t * log(d)
            if t0 < x < hi:
                xs.append(x)
                mws.append(w * (tom / d))
        return xs, mws

    return nodes


def _unit_occupation(xs: Sequence[float]) -> list[float]:
    return [1.0] * len(xs)


def _isolated_edge(
    p: KinematicPoint, region: RegionLabel, lower: float, upper: float, t: float, axi: float
) -> bool:
    """Whether the Fermi edge axi = |xi| at t > 0 is integrated by the Gauss-Fermi rule.

    The rule needs n_F to be one Fermi term (occupation._one_term) and the
    kernels to be smooth within ~12 t of axi, with their nearest
    singularities far enough for a polynomial of degree 11 in x - axi:
    the mass shell x = 1 at least _SHELL_WIDTHS t below axi, and each
    window edge at least _EDGE_WIDTHS t away.  In region II the edges
    a +- b sqrt(gamma2) are the complex pair a +- i b sqrt(-gamma2).
    Below b = _DEEP_B a, in the long-wavelength cancellation of ROADMAP
    item 3, the thermal-tail plan stays.  The distances come from
    measured error bands: over max(|Re B|, |Re D|) the error is up to
    7e-10 at 15-17 t above the shell and 2.1e-10 from 18 t on, and up to
    7e-7 at 20-22 t from a window edge and below 1e-10 from 25 t on.
    """
    a, b, _, gamma2, _ = p
    if not (t > 0.0 and b >= _DEEP_B * a and axi - 1.0 >= _SHELL_WIDTHS * t and _one_term(t, axi)):
        return False
    far = _EDGE_WIDTHS * t
    if region is RegionLabel.II:
        # the square overflows from |xi| ~ 1.3e154 on; where the first test
        # holds, so does the second
        return abs(axi - a) >= far or (axi - a) ** 2 - b * b * gamma2 >= far * far
    return abs(lower - axi) >= far and abs(upper - axi) >= far


def _parts(
    p: KinematicPoint, ms: MediumState, region: RegionLabel
) -> tuple[float, float, float, float]:
    """(Re B, Re D, Im B, Im D) from one vector quadrature.

    The five integrands (R, R_B, R_D and the Im B, Im D kernels) share
    every node, so n_F, r1 and r2 are evaluated once per node (n_F in the
    thermal-tail plan by one call of the occupation._n_fermi_nodes builder
    per integrand call, r1 and r2 inline) with the bits of n_fermi and
    _log_kernels.  Region II has no window and exactly zero imaginary
    parts: its pass integrates only the three real components (R, R_B,
    R_D), not five.

    Sharp-edge plan (t = 0, and t > 0 when _isolated_edge).  The pass
    integrates [1, |xi|] at unit occupation, cut at the window edges below
    |xi|: at t = 0, where n_F is 1 below xF = xi, the whole integral.  At
    t > 0 it adds t sum W_i [S(|xi| + t z_i) - S(|xi| - t z_i)], S the
    same node loop at unit occupation and (z_i, W_i) the Gauss-Fermi rule
    of _GF_NODES and _GF_WEIGHTS.  With n_F one Fermi term f((x - |xi|)/t),
    the integral of H n_F over [1, inf) is that of H over [1, |xi|] plus
    t times the integral over z in [0, inf) of f(z) (H(|xi| + t z) -
    H(|xi| - t z)), an odd function of z; the rule is exact for its odd
    powers through z**11.  What it cannot follow lies where f is small:
    below the mass shell, z >= 18 (f < e**-18), and across a window edge,
    z >= 30 (f < e**-30).  No panel reaches above |xi|, so a window lying
    wholly above it has exactly zero imaginary parts.

    Thermal-tail plan (t > 0 unless the edge is isolated).  Every panel
    ends at the occupation cutoff: the real parts integrate over
    [1, cutoff], the imaginary ones over the part of the kinematic window
    below it.  The window edges, where r1 and r2 have log singularities,
    and the Fermi edge |xi| (n_F is even in xi) are panel edges; |xi| is
    not when it lies within _FERMI_MERGE t above the largest of 1 and the
    window edges below it, as n_F is smooth on the scale of the panel
    that starts there.  The last panel, the thermal tail [t0, cutoff]
    above the largest of 1, |xi| and the window edges below the cutoff,
    is integrated in the variable of _tail_map.
    """
    a, b, c2 = p.a, p.b, p.c2
    b2 = b * b
    lower = upper = shift = 0.0
    absorbs = region is not RegionLabel.II
    if absorbs:
        lower, upper = kinematic_window(p)
        # (x + a)**2 - b**2 in region I, (x - a)**2 - b**2 in region III
        shift = a if region is RegionLabel.I else -a

    t = ms.t
    axi = abs(ms.xi)
    gauss = _isolated_edge(p, region, lower, upper, t, axi)
    if t == 0.0 or gauss:
        # [1, |xi|] at unit occupation; at t > 0 the rule adds the rest
        cuts = [e for e in (lower, upper) if e < axi]
        t0 = top = axi
        occupation = _unit_occupation
    else:
        hi = x_cutoff(ms)
        cuts = [e for e in (lower, upper) if e < hi]
        below = max([1.0, *(e for e in cuts if e < axi)])
        # the cutoff rounds onto |xi| once 40 t is below half an ulp of it
        # (|xi|/t above ~3.6e17); |xi| is still the edge, so no tail is mapped
        if axi <= hi and not 0.0 < axi - below <= _FERMI_MERGE * t:
            cuts.append(axi)
        # the quadrature's axis is x up to t0, then the tail panel [t0, top] in
        # s = z - t0; without a tail (no double inside [t0, hi]) it is x
        # throughout.  n_F falls from |xi|, not from xi: at xi < -1 it is ~1
        # up to |xi|, and a tail mapped from far below |xi| would lose that
        # plateau
        t0 = top = max([1.0, *cuts])
        if t0 < 0.5 * (t0 + hi) < hi:
            top = t0 + 1.0
            tail = _tail_map(t0, top, hi, t)
            tail_in_window = lower <= t0 < upper
        occupation = _n_fermi_nodes(ms)
    a4 = 4.0 * a
    m4c2 = -4.0 * ((a - b) * (a + b))

    def sums(xs: list[float], ws: Sequence[float], in_window: bool) -> tuple[float, ...]:
        # _log_kernels inlined with y and b*y shared: one sqrt and no
        # Python call per node.  The arithmetic is its step for step, and
        # each sum adds w * value in node order, so the bits are those of a
        # per-node integrand.  Every node lies below the cutoff (and below
        # xi at t = 0), and inside the window or outside it as in_window says.
        ns = occupation(xs)
        s_big = s_b = s_d = s_im_b = s_im_d = 0.0
        for x, w, n in zip(xs, ws, ns):
            xx = x * x
            y = sqrt(xx - 1.0)
            by = b * y
            am = a * (a - x)
            ap = a * (a + x)
            bp = b * (b + y)
            bm = b * (b - y)
            l1 = am - bp
            l2 = am - bm
            l3 = ap - bp
            l4 = ap - bm
            den = l2 * l4 or _TINY
            q = m4c2 * by / den
            if q > -0.5:
                k1 = log1p(q)
            else:
                r = abs(l1 * l3 / den)
                k1 = log(_TINY if r < _TINY else r)
            den = l1 * l4 or _TINY
            q = a4 * x * by / den
            if q > -0.5:
                k2 = 0.5 * log1p(q)
            else:
                r = abs(l2 * l3 / den)
                k2 = 0.5 * log(_TINY if r < _TINY else r)
            s_big += w * (n * y)
            s_b += w * (n * ((xx + c2) * k1 + a4 * x * k2))
            s_d += w * (n * k1)
        if not absorbs:
            return s_big, s_b, s_d
        if in_window:
            for x, w, n in zip(xs, ws, ns):
                s_im_b += w * (n * ((x + shift) ** 2 - b2))
                s_im_d += w * n
        return s_big, s_b, s_d, s_im_b, s_im_d

    def kernel(zs: list[float], ws: Sequence[float]) -> tuple[float, ...]:
        # all nodes of a call lie inside one panel: the first decides
        # whether they are x or the tail's s, and the window
        if zs[0] <= t0:
            return sums(zs, ws, lower < zs[0] < upper)
        xs, ws = tail(zs, ws)
        out = sums(xs, ws, tail_in_window)
        if not all(map(math.isfinite, out)):
            # name the culprit by its x, not by its s
            _raise_nonfinite(lambda x1, w1: sums(x1, w1, tail_in_window), xs)
        return out

    res = integrate_adaptive(kernel, 1.0, top, breakpoints=cuts)
    if not res.evaluations:
        # no double lies inside [1, cutoff]: an empty sea and no window
        # (t = 0 with xi = 1, or a cutoff of 1 + 1 ulp at t ~ 1e-17)
        return 0.0, 0.0, 0.0, 0.0
    value = res.value
    if gauss:
        # t sum W_i [S(|xi| + t z_i) - S(|xi| - t z_i)] turns the unit step
        # at |xi| into the Fermi term.  Every node lies within 12 t of |xi|,
        # so on the same side of each window edge as |xi|
        in_window = lower < axi < upper
        xs_above = [axi + t * z for z in _GF_NODES]
        xs_below = [axi - t * z for z in _GF_NODES]
        plus = sums(xs_above, _GF_WEIGHTS, in_window)
        minus = sums(xs_below, _GF_WEIGHTS, in_window)
        value = [v + t * (u - d) for v, u, d in zip(value, plus, minus)]
        if not all(map(math.isfinite, value)):
            _raise_nonfinite(lambda x1, w1: sums(x1, w1, in_window), xs_above + xs_below)
    big_r, r_b, r_d = value[:3]
    r_b /= 4.0 * b
    r_d *= (1.0 + 2.0 * c2) / (8.0 * b)
    pref = -ms.e2 / (4.0 * math.pi**2 * c2)
    re_b, re_d = pref * (big_r + r_b), pref * (big_r + r_d)
    if not absorbs:
        return re_b, re_d, 0.0, 0.0
    im_b, im_d = value[3:]
    im_b *= -ms.e2 / (16.0 * math.pi * b * c2)
    im_d *= -ms.e2 * (1.0 + 2.0 * c2) / (32.0 * math.pi * b * c2)
    return re_b, re_d, im_b, im_d


def im_scalars(p: KinematicPoint, ms: MediumState) -> tuple[float, float]:
    """Absorptive parts (Im B, Im D) of the medium scalars.

    Region II returns (0.0, 0.0) exactly.  Elsewhere the kernels are

        Im B: (x + a)**2 - b**2   in region I,
              (x - a)**2 - b**2   in region III,
        Im D: 1,

    integrated with weight n_F over the part of the kinematic window
    below the occupation cutoff x_cutoff (so a window wholly above it
    gives exact zeros), with overall factors -e2/(16 pi b c2) and
    -e2 (1 + 2 c2)/(32 pi b c2).  They come from the same quadrature pass
    as re_scalars.
    """
    region = classify_region(p)
    if region is RegionLabel.II:
        return 0.0, 0.0
    return _parts(p, ms, region)[2:]


def re_scalars(p: KinematicPoint, ms: MediumState) -> tuple[float, float]:
    """Dispersive parts (Re B, Re D) of the medium scalars.

    Re B = -e2/(4 pi^2 c2) * (R + R_B) and Re D = -e2/(4 pi^2 c2) *
    (R + R_D), where R integrates n_F * y (the density-like moment),
    R_B integrates n_F * ((x^2 + c2) r1 + 4 a x r2)/(4 b) and R_D
    integrates n_F * r1 * (1 + 2 c2)/(8 b), all over x in [1, cutoff].
    They come from the same quadrature pass as im_scalars.
    """
    return _parts(p, ms, classify_region(p))[:2]

