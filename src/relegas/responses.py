"""Response tensors, plasmon dispersion, and metamaterial classification.

The four scalars (B, D, A, C) combine into the dielectric tensors of the
gas.  For wave propagation only two combinations matter: the
longitudinal permittivity eps_L (zeros are longitudinal plasmons) and
the transverse combination nu_L (nu_L = -1 marks transverse plasmons).
A metamaterial band is a frequency window where the real parts of both
are simultaneously negative.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Sequence

from .kinematics import (
    _MAX_ABS_C2,
    LIGHT_CONE_CUT,
    PAIR_THRESHOLD_CUT,
    InternalConsistencyError,
    InvalidPointError,
    KinematicPoint,
    RegionLabel,
    SubregionLabel,
    _new,
    classify_region,
    derive_point,
)
from .medium_finite_t import ResponseScalars, _parts, _scalars
from .medium_zero_t import SubregionBoundaryError, _zero_t_parts
from .numerics import Bracket, _warn_skipped, find_root_bracketed, integrate_adaptive
from .occupation import MediumState, _n_fermi_nodes, x_cutoff

_DUAL_PATH_TOL = 1e-12
# dispersion walks a grid of _N_SCAN steps across the search window
_N_SCAN = 160
# The band search runs only over a <= gate * b (_band_gate).  Above
# that the t = 0 closed forms lose the rise of Re eps_L and Re nu_L to
# roundoff (ROADMAP item 3), and where they lose it moves with the Fermi
# velocity v_F = yF/xF: on the dispersion grid (window/_N_SCAN) the rise
# first breaks near a/b = C v_F**1.5, C ~ 9,700 at small v_F and
# ~20,000 at xF = 4 (a/b ~ 95 at xF = 1.001, 3,200 at xF = 1.1).  The
# gate 32 (v_F/_GATE_V_F)**1.5 keeps that break more than 3.4 gates up
# at every xF measured (xF - 1 in [1e-3, 3]), and shrinks to nothing as
# xF -> 1.  At t > 0 the gate is _BAND_GATE.
_BAND_GATE = 32.0
_GATE_V_F = 0.05
# the band search steps from the Braaten-Segel root a_BS by
# _BAND_STEP * a_BS, doubling each step (_band_bracket)
_BAND_STEP = 1e-3
# _bs_root: secant steps in s = a**2, to this relative change of s; its
# root only seeds _band_bracket, whose first step is _BAND_STEP of it
_BS_MAX_STEPS = 40
_BS_S_TOL = 1e-6
_BS_U_MAX = 1.0 - 2.0**-53


class ResponseTensors(NamedTuple):
    """Permittivity combinations of the magnetized-free gas.

    eps_prime = -nu_prime and tau = sigma hold identically; both members
    of each pair are assembled through different arithmetic and serve as
    an internal consistency check.
    """

    eps: complex
    nu: complex
    eps_prime: complex
    nu_prime: complex
    tau: complex
    sigma: complex
    eps_L: complex
    nu_L: complex


def scalars_at(
    a: float, b: float, ms: MediumState, include_vacuum: bool = True
) -> tuple[KinematicPoint, RegionLabel, SubregionLabel | None, ResponseScalars]:
    """Classify (a, b) once and evaluate its scalars.

    Returns the point, its region, its T = 0 subregion (None at t > 0)
    and the scalars: closed forms at t = 0, one quadrature pass else.
    """
    p, region, sub, s = _evaluate(a, b, ms, include_vacuum)
    return p, region, sub, ResponseScalars(*map(complex, s))


def _evaluate(
    a: float, b: float, ms: MediumState, include_vacuum: bool
) -> tuple[KinematicPoint, RegionLabel, SubregionLabel | None, tuple[float | complex, ...]]:
    """scalars_at with the scalars (B, D, A, C) as a plain tuple.

    They are floats in region II and complex elsewhere (_scalars).
    """
    p = derive_point(a, b)
    if not abs(p.c2) < _MAX_ABS_C2:
        raise InvalidPointError(
            f"(a, b) = ({a}, {b}) is too large: |c2| = {abs(p.c2):.3e} is not below 2**50"
        )
    region = classify_region(p)
    if ms.is_degenerate:
        sub, parts = _zero_t_parts(p, ms, region)
    else:
        sub, parts = None, _parts(p, ms, region)
    return p, region, sub, _scalars(p, ms, parts, include_vacuum)


def assemble(s: ResponseScalars, p: KinematicPoint) -> ResponseTensors:
    """Combine the scalars (B, D, A, C), any 4-sequence, into the tensors at p.

    The longitudinal/transverse combinations are cross-checked against
    their two independent compositions; disagreement beyond 1e-12
    (relative), a NaN on either side or an infinite eps_L or nu_L raises
    InternalConsistencyError.  Every field is complex.
    """
    return _new(ResponseTensors, tuple(map(complex, _assemble(s, p))))


def _assemble(s: Sequence[float | complex], p: KinematicPoint) -> tuple[float | complex, ...]:
    """assemble as a plain tuple, in the arithmetic of the scalars.

    Float scalars (region II) give float tensors, with the bits of the
    real parts that complex scalars with 0 imaginary parts give.
    """
    a, b, c2, _, _ = p
    s_b, s_d, s_a, s_c = s
    a2 = a * a
    b2 = b * b
    a2_b2 = a2 / b2
    b2_c2 = b2 / c2
    c2_b2 = c2 / b2
    a_b = a / b
    eps = 1.0 + (2.0 - a2 / c2) * s_c + s_a + (1.0 - a2_b2) * s_b
    nu = 1.0 + (2.0 + b2_c2) * s_c + s_a - 2.0 * a2_b2 * s_b
    eps_prime = b2_c2 * s_c - s_a
    nu_prime = (s_a * c2 - b2 * s_c) / c2
    tau = a_b * (b2_c2 * s_c - s_b)
    sigma = (a * b / c2) * s_c - a_b * s_b

    eps_l = 1.0 + s_c - c2_b2 * s_b
    summed = eps + eps_prime
    if not abs(eps_l - summed) <= _DUAL_PATH_TOL * max(1.0, abs(eps_l)) < math.inf:
        raise InternalConsistencyError(f"eps_L composition mismatch: {eps_l!r} vs {summed!r}")
    nu_l = 1.0 + 2.0 * s_c + 2.0 * s_d + c2_b2 * s_b
    summed = nu + nu_prime
    if not abs(nu_l - summed) <= _DUAL_PATH_TOL * max(1.0, abs(nu_l)) < math.inf:
        raise InternalConsistencyError(f"nu_L composition mismatch: {nu_l!r} vs {summed!r}")
    return eps, nu, eps_prime, nu_prime, tau, sigma, eps_l, nu_l


def tensors_at(
    a: float, b: float, ms: MediumState, include_vacuum: bool = True
) -> tuple[KinematicPoint, RegionLabel, SubregionLabel | None, ResponseTensors]:
    """Full evaluation at (a, b): point, region, T=0 subregion, tensors."""
    p, region, sub, s = _evaluate(a, b, ms, include_vacuum)
    return p, region, sub, assemble(s, p)


def _band_gate(ms: MediumState) -> float:
    """Top of the transparent band that dispersion searches, in units of b."""
    if not ms.is_degenerate:
        return _BAND_GATE
    fs = ms.fermi_surface
    return _BAND_GATE * (fs.yF / fs.xF / _GATE_V_F) ** 1.5


def plasma_moments(ms: MediumState) -> tuple[float, float, float]:
    """Braaten & Segel's plasma moments (omega_p, omega_1, v_star) of the gas.

    In units m = 1, with v = p/E and n = n_F the occupation of both
    species (Phys. Rev. D 48, 1478 (1993)):

        omega_p**2 = (4 alpha/pi) integral of p**2/E (1 - v**2/3) n dp,
        omega_1**2 = (4 alpha/pi) integral of p**2/E (5 v**2/3 - v**4) n dp,

    and v_star = omega_1/omega_p.  omega_p/2 is a_e, the b -> 0 limit of
    both plasmon branches, and omega = 2 a.  At t = 0 both integrals are
    elementary over p in [0, yF]: omega_p**2 = 4 e2 yF**3/(12 pi**2 xF)
    and v_star = yF/xF, the Fermi velocity (the logs cancel).  At t > 0
    they are one vector quadrature over x in [1, x_cutoff], p**2/E dp =
    y dx, with the Fermi edge |xi| as a breakpoint.  An empty sea (n_F
    0 at every node, or no node) gives (0.0, 0.0, 0.0), as at t = 0, xi = 1.
    """
    if ms.is_degenerate:
        x, y = ms.fermi_surface
        omega_p = 2.0 * math.sqrt(ms.e2 * y**3 / (12.0 * math.pi**2 * x))
        v_star = y / x
        return omega_p, omega_p * v_star, v_star
    occupation = _n_fermi_nodes(ms)

    def moments(xs: Sequence[float], ws: Sequence[float]) -> tuple[float, float]:
        # with v**2 = 1 - 1/x**2, 1 - v**2/3 = (2 x**2 + 1)/(3 x**2) and
        # 5 v**2/3 - v**4 = v**2 (2 x**2 + 3)/(3 x**2)
        s_p = s_1 = 0.0
        for x, w, n in zip(xs, ws, occupation(xs)):
            xx = x * x
            yy = (x - 1.0) * (x + 1.0)
            wy = w * n * math.sqrt(yy) / (3.0 * xx)
            s_p += wy * (2.0 * xx + 1.0)
            s_1 += wy * (yy / xx) * (2.0 * xx + 3.0)
        return s_p, s_1

    res = integrate_adaptive(moments, 1.0, x_cutoff(ms), breakpoints=(abs(ms.xi),))
    if not res.evaluations or not res.value[0] > 0.0:
        return 0.0, 0.0, 0.0
    i_p, i_1 = res.value
    omega_p = math.sqrt(ms.e2 / math.pi**2 * i_p)
    omega_1 = math.sqrt(ms.e2 / math.pi**2 * i_1)
    return omega_p, omega_1, omega_1 / omega_p


def plasma_frequency_estimate(ms: MediumState) -> float:
    """Leading-order plasma frequency a_e of the gas.

    a_e is the b -> 0 limit of both plasmon branches (eps_L = 0 and
    nu_L = -1): a_e = omega_p/2 of plasma_moments, a_e**2 =
    e2/(4 pi**2) * integral over x >= 1 of n_F(x) y (1 - y**2/(3 x**2)) dx,
    with y = sqrt(x**2 - 1).  At t = 0 that is the closed form
    e2 * yF**3 / (12 pi**2 xF).  Used to seed dispersion search ranges.
    """
    return 0.5 * plasma_moments(ms)[0]


def _bs_h(u: float) -> float:
    """(atanh(u)/u - 1)/u**2 = sum over n >= 0 of u**(2 n)/(2 n + 3), 0 <= u < 1."""
    u2 = u * u
    if u2 < 0.01:
        # the first omitted term, u**16/19, is below 2e-17 of the sum
        h = 1 / 17
        for k in (15, 13, 11, 9, 7, 5, 3):
            h = 1 / k + u2 * h
        return h
    return (math.atanh(u) / u - 1.0) / u2


def _bs_root(mode: str, b: float, moments: tuple[float, float, float]) -> float:
    """Braaten-Segel root a = omega/2 of the mode at k = 2 b, to ~1e-6.

    With a_p = omega_p/2 and u = v_star b/a, the relations of ROADMAP
    item 11 divided through by k**2 (longitudinal) and by 4 read

        longitudinal: a**2 = 3 a_p**2 h(u),
        transverse:   a**2 = b**2 + (3/2) a_p**2 (1 - (1 - u**2) h(u)),

    with h(u) = (atanh(u)/u - 1)/u**2 = 1/3 + u**2/5 + ..., so neither
    loses digits as b -> 0.  Both right-hand sides fall as s = a**2 rises
    from (v_star b)**2, where u = 1, so each has one root, and it lies in
    a bracket known in advance: 1/3 <= h(u) <= 1/3 + u**2/(5 (1 - u**2))
    puts the longitudinal one in [max(a_p**2, (v_star b)**2),
    a_p**2 + (v_star b)**2], and 2/3 <= 1 - (1 - u**2) h(u) <= 1 the
    transverse one in [b**2 + a_p**2, b**2 + (3/2) a_p**2].  Secant steps
    in s start from a_p**2 + (3/5)(v_star b)**2 (longitudinal) or
    a_p**2 + b**2 (transverse), clipped to that bracket widened by
    a_p**2/10, and a step that leaves the bracket known so far bisects it.
    """
    omega_p, _, v_star = moments
    ap2 = 0.25 * omega_p * omega_p
    if not ap2 > 0.0:
        # an empty sea has no plasmon: any timelike start will do
        return b
    vb = v_star * b
    s_min = vb * vb
    b2 = b * b
    longitudinal = mode == "longitudinal"

    def phi(s: float) -> float:
        # u < 1 above s_min; rounding can put it at 1 there, the lower
        # end of the longitudinal bracket once v_star b > a_p
        u = min(vb / math.sqrt(s), _BS_U_MAX)
        h = _bs_h(u)
        if longitudinal:
            return s - 3.0 * ap2 * h
        return s - b2 - 1.5 * ap2 * (1.0 - (1.0 - u * u) * h)

    if longitudinal:
        s_lo, s_hi = max(0.9 * ap2, s_min), 1.1 * ap2 + s_min
        s = ap2 + 0.6 * s_min
    else:
        s_lo, s_hi = b2 + 0.9 * ap2, b2 + 1.6 * ap2
        s = ap2 + b2
    s = min(max(s, s_lo), s_hi)
    f = phi(s)
    # the first step is the fixed-point one, s - phi(s)
    slope = 1.0
    for _ in range(_BS_MAX_STEPS):
        if f < 0.0:
            s_lo = s
        elif f > 0.0:
            s_hi = s
        else:
            break
        # phi rises, so a slope that is not positive (rounding) bisects
        s_next = s - f / slope if slope > 0.0 else math.nan
        if not s_lo < s_next < s_hi:
            s_next = 0.5 * (s_lo + s_hi)
        if abs(s_next - s) <= _BS_S_TOL * s_next:
            s = s_next
            break
        f_next = phi(s_next)
        slope = (f_next - f) / (s_next - s)
        s, f = s_next, f_next
    return math.sqrt(s)


class RootSample(NamedTuple):
    """One dispersion root: mode condition satisfied at (b, root_a)."""

    b: float
    root_a: float
    residual: float
    im_at_root: float


class DispersionBranch(NamedTuple):
    """Plasmon branch over a b grid with its b -> 0 extrapolation.

    samples holds the smallest accepted timelike root (root_a > b) for
    each b (b values with no root are simply absent); plasma_frequency
    is the quadratic-in-b**2 extrapolation of root_a through the three
    smallest sampled b (nan when fewer than three roots exist).
    """

    mode: str
    samples: tuple[RootSample, ...]
    plasma_frequency: float


def dispersion(
    mode: str,
    b_grid: Sequence[float],
    ms: MediumState,
    a_search_range: tuple[float, float],
    *,
    include_vacuum: bool = True,
) -> DispersionBranch:
    """Trace a plasmon branch over b_grid.

    Each b must be finite and positive.  For each b the mode condition is
    scanned upwards over the points of the _N_SCAN + 1 point grid of
    a_search_range above the light-cone cut (a plasmon is timelike), and
    each sign change is refined by Brent's method as the scan reaches it.
    The scan stops at the first accepted root (_first_zero).  Invalid
    points (pair threshold, subregion boundaries) are skipped as NaN.

    Both modes search the transparent band (region II below a = gate * b)
    without its grid: there Re eps_L and Re nu_L both rise with a and so
    change sign at most once, and the search brackets that sign change
    from the Braaten-Segel root of the mode at b (_bs_root, from
    plasma_moments(ms), computed once per call), which lies within
    ~1e-3 of it.  At t = 0 the gate is 32 (v_F/0.05)**1.5 with
    v_F = yF/xF, which keeps it >= 3 times below where roundoff breaks
    the rise; at t > 0 it is 32.
    """
    if mode not in ("longitudinal", "transverse"):
        raise ValueError(f"unknown dispersion mode {mode!r}")
    a_lo, a_hi = a_search_range
    if not (0.0 <= a_lo < a_hi < math.inf):
        raise ValueError(f"bad search range ({a_lo}, {a_hi}): need 0 <= lo < hi, both finite")
    for b in b_grid:
        if not 0.0 < b < math.inf:
            raise ValueError(f"b = {b!r} must be finite and positive")
    longitudinal = mode == "longitudinal"
    step = (a_hi - a_lo) / _N_SCAN
    grid = [a_lo + i * step for i in range(_N_SCAN + 1)]
    samples: list[RootSample] = []
    gate = _band_gate(ms)
    moments = plasma_moments(ms)
    for b in b_grid:
        # tensors per abscissa: Brent's bracket edges and the root's own
        # tensors revisit points the search (or Brent) has already
        # evaluated.  The band is region II, where they are floats
        cache: dict[float, tuple[float | complex, ...] | None] = {}

        def tens_at(a: float) -> tuple[float | complex, ...] | None:
            if a not in cache:
                try:
                    p, _, _, s = _evaluate(a, b, ms, include_vacuum)
                    cache[a] = _assemble(s, p)
                except (InvalidPointError, SubregionBoundaryError):
                    cache[a] = None
            return cache[a]

        def gap(a: float) -> float:
            # longitudinal zero: Re eps_L = 0; transverse zero: Re nu_L = -1
            tens = tens_at(a)
            if tens is None:
                return math.nan
            return tens[6].real if longitudinal else tens[7].real + 1.0

        root = _first_zero(gap, grid, b, gate, _bs_root(mode, b, moments))
        if root is None:
            continue
        im_val = tens_at(root)[6 if longitudinal else 7].imag
        samples.append(RootSample(b=b, root_a=root, residual=gap(root), im_at_root=im_val))
    plasma = _extrapolate_to_zero_b(samples)
    return DispersionBranch(mode=mode, samples=tuple(samples), plasma_frequency=plasma)


def _first_zero(
    g: Callable[[float], float],
    grid: Sequence[float],
    b: float,
    gate: float,
    guess: float,
) -> float | None:
    """Smallest timelike zero of g on grid, or None.

    The walk starts at lo, the first grid point above the light-cone cut
    (a > b > 0), and refines each strict sign change between two
    consecutive defined points with Brent's method; no bracket spans the
    light cone and its pole.  A root is accepted when its residual lies
    below its bracket edges', which a crossing of roundoff noise (t = 0,
    b << a_e) or a NaN gap (Brent met a point that raised) fails.  The
    brackets arrive in increasing a, so the walk stops at the first
    accepted root, the smallest; a warning counts the NaN grid points
    visited.

    The band is the run of grid points in region II, off the light-cone
    and pair-threshold cuts, with a <= gate * b (_band_gate: above it the
    t = 0 closed forms lose the rise to roundoff).  There Im eps_L and
    Im nu_L are 0, and the gap g (Re eps_L, or Re nu_L + 1) rises with a:
    for eps_L by Kramers-Kronig with Im eps_L >= 0, for nu_L as measured
    and pinned on every band point of the test draws.  So g changes sign
    at most once there, from - to +.  _band_bracket brackets that sign
    change from guess (the Braaten-Segel root) without the grid, and
    Brent refines it; a root that passes the residual test is the
    smallest, as g < 0 at a band point means g < 0 on the band below it.
    The walk takes over from lo if g >= 0 there or the root fails the
    test, and from the last negative point found if g is negative at the
    band's top or a probe is NaN or 0: the points it skips lie between
    two negative ones.  g is memoised by dispersion, so the points
    probed, and the bracket edges and root that Brent and dispersion
    read again, are evaluated once.
    """
    b2 = b * b
    lo = bisect_left(grid, True, key=lambda a: a * a - b2 >= LIGHT_CONE_CUT)
    end = bisect_left(
        grid,
        True,
        lo=lo,
        key=lambda a: a > gate * b or a * a - b2 - 1.0 >= -PAIR_THRESHOLD_CUT,
    )
    i = lo
    # NaN compares false: no bracket before the first defined point
    prev_a = prev_g = math.nan
    if end > lo:
        neg, pos = _band_bracket(g, grid[lo], grid[end - 1], guess)
        if pos is not None:
            root = find_root_bracketed(g, Bracket(neg, pos))
            if abs(g(root)) < min(abs(g(neg)), abs(g(pos))):
                return root
        elif neg is not None:
            i = bisect_right(grid, neg)
            prev_a, prev_g = neg, g(neg)
    n_bad = 0
    root = None
    for a in grid[i:]:
        val = g(a)
        if math.isnan(val):
            n_bad += 1
            continue
        if prev_g < 0.0 < val or val < 0.0 < prev_g:
            root = find_root_bracketed(g, Bracket(prev_a, a))
            if abs(g(root)) < min(abs(prev_g), abs(val)):
                break
            root = None
        prev_a, prev_g = a, val
    _warn_skipped(n_bad)
    return root


def _band_bracket(
    g: Callable[[float], float], a_min: float, a_max: float, guess: float
) -> tuple[float | None, float | None]:
    """(neg, pos) with g(neg) < 0 < g(pos) and a_min <= neg, pos <= a_max.

    The first probe is guess clipped to [a_min, a_max].  From there it
    steps by _BAND_STEP times that probe, doubling each step, clipped to
    the band: upwards while g < 0, downwards while g > 0.  pos is None
    when no bracket was found: g < 0 at a_max, or a probe that is NaN or
    exactly 0; neg is then the last point known to hold g < 0, or None
    when none is (g >= 0 at a_min, or the bad probe came first or on the
    way down).
    """
    a = min(max(guess, a_min), a_max)
    step = _BAND_STEP * a
    val = g(a)
    if val < 0.0:
        while a < a_max:
            neg = a
            a = min(a + step, a_max)
            step *= 2.0
            val = g(a)
            if val > 0.0:
                return neg, a
            if not val < 0.0:
                return neg, None
        return a, None
    while val > 0.0 and a > a_min:
        pos = a
        a = max(a - step, a_min)
        step *= 2.0
        val = g(a)
        if val < 0.0:
            return a, pos
    return None, None


def _extrapolate_to_zero_b(samples: Sequence[RootSample]) -> float:
    """Quadratic fit of root_a in b**2 through the three smallest b."""
    if len(samples) < 3:
        return math.nan
    pts = sorted(samples, key=lambda s: s.b)[:3]
    s1, s2, s3 = ((s.b * s.b, s.root_a) for s in pts)
    # exact interpolation: a(b2) = p0 + p1 b2 + p2 b2^2, want p0
    x1, y1 = s1
    x2, y2 = s2
    x3, y3 = s3
    denom = (x1 - x2) * (x1 - x3) * (x2 - x3)
    if denom == 0.0:
        return math.nan
    p0 = (
        y1 * x2 * x3 * (x2 - x3)
        - y2 * x1 * x3 * (x1 - x3)
        + y3 * x1 * x2 * (x1 - x2)
    ) / denom
    return p0


class GridCell(NamedTuple):
    """One (a, b) cell of a metamaterial scan.

    Skipped cells (invalid kinematics) carry NaN fields and a reason;
    metamaterial marks Re eps_L < 0 and Re nu_L < 0 simultaneously.
    """

    a: float
    b: float
    region: str
    subregion: str
    re_eps_L: float
    im_eps_L: float
    re_nu_L: float
    im_nu_L: float
    metamaterial: bool
    reason: str


def evaluate_cell(
    a: float, b: float, ms: MediumState, include_vacuum: bool = True
) -> GridCell:
    """Evaluate one scan cell, trapping a refused or failed evaluation into a reason.

    A ValueError (refused kinematics, a subregion boundary, a non-finite
    integrand) becomes the reason; InternalConsistencyError propagates.
    """
    try:
        p, region, sub, s = _evaluate(a, b, ms, include_vacuum)
        eps_l, nu_l = _assemble(s, p)[6:]
    except ValueError as exc:
        return _new(
            GridCell, (a, b, "", "", math.nan, math.nan, math.nan, math.nan, False, str(exc))
        )
    meta = eps_l.real < 0.0 and nu_l.real < 0.0
    subregion = sub.label if sub is not None else ""
    # _value_ is region.value without the Enum property's lookup
    return _new(
        GridCell,
        (a, b, region._value_, subregion, eps_l.real, eps_l.imag, nu_l.real, nu_l.imag, meta, ""),
    )


def metamaterial_scan(
    a_grid: Sequence[float],
    b_grid: Sequence[float],
    ms: MediumState,
    include_vacuum: bool = True,
) -> list[GridCell]:
    """Classify every (a, b) cell of a grid, row-major in b then a."""
    return [
        evaluate_cell(a, b, ms, include_vacuum)
        for b in b_grid
        for a in a_grid
    ]
