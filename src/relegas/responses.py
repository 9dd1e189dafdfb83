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
from bisect import bisect_left
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
    classify_region,
    derive_point,
    zero_t_subregion,
)
from .medium_finite_t import ResponseScalars, _parts, _scalars
from .medium_zero_t import SubregionBoundaryError, _im_parts, _re_parts
from .numerics import Bracket, _warn_skipped, find_root_bracketed, integrate_adaptive
from .occupation import MediumState, n_fermi, x_cutoff

_DUAL_PATH_TOL = 1e-12
# The band search bisects only over a <= gate * b (_band_gate).  Above
# that the t = 0 closed forms lose the rise of Re eps_L and Re nu_L to
# roundoff (ROADMAP item 3), and where they lose it moves with the Fermi
# velocity v_F = yF/xF: on the dispersion grid (window/160) the rise
# first breaks near a/b = C v_F**1.5, C ~ 9,700 at small v_F and
# ~20,000 at xF = 4 (a/b ~ 95 at xF = 1.001, 3,200 at xF = 1.1).  The
# gate 32 (v_F/_GATE_V_F)**1.5 keeps that break more than 3.4 gates up
# at every xF measured (xF - 1 in [1e-3, 3]), and shrinks to nothing as
# xF -> 1.  At t > 0 the gate is _BAND_GATE.
_BAND_GATE = 32.0
_GATE_V_F = 0.05


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
    return p, region, sub, ResponseScalars(*s)


def _evaluate(
    a: float, b: float, ms: MediumState, include_vacuum: bool
) -> tuple[KinematicPoint, RegionLabel, SubregionLabel | None, tuple[complex, ...]]:
    """scalars_at with the scalars (B, D, A, C) as a plain tuple."""
    p = derive_point(a, b)
    if not abs(p.c2) < _MAX_ABS_C2:
        raise InvalidPointError(
            f"(a, b) = ({a}, {b}) is too large: |c2| = {abs(p.c2):.3e} is not below 2**50"
        )
    region = classify_region(p)
    if ms.is_degenerate:
        fs = ms.fermi_surface
        # the real half runs (and may raise) before the subregion is built
        re_parts = _re_parts(p, fs, ms)
        sub = zero_t_subregion(p, fs, region)
        parts = re_parts + _im_parts(p, sub, ms)
    else:
        sub = None
        parts = _parts(p, ms, region)
    return p, region, sub, _scalars(p, ms, parts, include_vacuum)


def assemble(s: ResponseScalars, p: KinematicPoint) -> ResponseTensors:
    """Combine the scalars (B, D, A, C), any 4-sequence, into the tensors at p.

    The longitudinal/transverse combinations are cross-checked against
    their two independent compositions; disagreement beyond 1e-12
    (relative) raises InternalConsistencyError.
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
    if abs(eps_l - summed) > _DUAL_PATH_TOL * max(1.0, abs(eps_l)):
        raise InternalConsistencyError(f"eps_L composition mismatch: {eps_l!r} vs {summed!r}")
    nu_l = 1.0 + 2.0 * s_c + 2.0 * s_d + c2_b2 * s_b
    summed = nu + nu_prime
    if abs(nu_l - summed) > _DUAL_PATH_TOL * max(1.0, abs(nu_l)):
        raise InternalConsistencyError(f"nu_L composition mismatch: {nu_l!r} vs {summed!r}")
    return ResponseTensors(eps, nu, eps_prime, nu_prime, tau, sigma, eps_l, nu_l)


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


def plasma_frequency_estimate(ms: MediumState) -> float:
    """Leading-order plasma frequency a_e of the gas.

    a_e is the b -> 0 limit of both plasmon branches (eps_L = 0 and
    nu_L = -1): a_e**2 = e2/(4 pi**2) * integral over x >= 1 of
    n_F(x) y (1 - y**2/(3 x**2)) dx, with y = sqrt(x**2 - 1), which is
    Braaten & Segel's omega_p**2/4.  At t = 0 that is the closed form
    e2 * yF**3 / (12 pi**2 xF); at t > 0 it is one quadrature over
    [1, x_cutoff] with the Fermi edge |xi| as a breakpoint.  Used to seed
    dispersion search ranges, and where dispersion's first search starts.
    """
    if ms.is_degenerate:
        fs = ms.fermi_surface
        return math.sqrt(ms.e2 * fs.yF**3 / (12.0 * math.pi**2 * fs.xF))

    def moment(xs: Sequence[float], ws: Sequence[float]) -> float:
        # y (1 - y**2/(3 x**2)) = y (2 x**2 + 1)/(3 x**2)
        total = 0.0
        for x, w in zip(xs, ws):
            y = math.sqrt((x - 1.0) * (x + 1.0))
            total += w * n_fermi(x, ms) * y * (2.0 * x * x + 1.0) / (3.0 * x * x)
        return total

    res = integrate_adaptive(moment, 1.0, x_cutoff(ms), breakpoints=(abs(ms.xi),))
    return math.sqrt(ms.e2 / (4.0 * math.pi**2) * res.value)


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
    n_scan: int = 160,
    include_vacuum: bool = True,
) -> DispersionBranch:
    """Trace a plasmon branch over b_grid.

    Each b must be finite and positive.  For each b the mode condition is
    scanned upwards over the points of the n_scan + 1 point grid of
    a_search_range above the light-cone cut (a plasmon is timelike), and
    each sign change is refined by Brent's method as the scan reaches it.
    The scan stops at the first accepted root (_first_zero).  Invalid
    points (pair threshold, subregion boundaries) are skipped as NaN.

    Both modes skip grid points of the transparent band (region II below
    a = gate * b), where Re eps_L and Re nu_L both rise with a and so
    change sign at most once: galloping and bisection over grid indices
    find the band's bracket, probing points above it, and return the root
    the full scan would.  At t = 0 the gate is 32 (v_F/0.05)**1.5 with
    v_F = yF/xF, which keeps it >= 3 times below where roundoff breaks the
    rise; at t > 0 it is 32.  The first b's search starts at the grid
    interval of plasma_frequency_estimate(ms), the b -> 0 limit of both
    branches; each later b's at that of the last accepted root, where the
    next root usually lies.
    """
    if mode not in ("longitudinal", "transverse"):
        raise ValueError(f"unknown dispersion mode {mode!r}")
    if not isinstance(n_scan, int) or n_scan < 1:
        raise ValueError(f"n_scan {n_scan!r} must be an int >= 1")
    a_lo, a_hi = a_search_range
    if not (0.0 <= a_lo < a_hi < math.inf):
        raise ValueError(f"bad search range ({a_lo}, {a_hi}): need 0 <= lo < hi, both finite")
    for b in b_grid:
        if not 0.0 < b < math.inf:
            raise ValueError(f"b = {b!r} must be finite and positive")
    longitudinal = mode == "longitudinal"
    step = (a_hi - a_lo) / n_scan
    grid = [a_lo + i * step for i in range(n_scan + 1)]
    samples: list[RootSample] = []
    gate = _band_gate(ms)
    start = plasma_frequency_estimate(ms)
    for b in b_grid:
        # tensors per abscissa: Brent's bracket edges and the root's own
        # tensors revisit points the scan (or Brent) has already evaluated
        cache: dict[float, ResponseTensors | None] = {}

        def tens_at(a: float) -> ResponseTensors | None:
            if a not in cache:
                try:
                    cache[a] = tensors_at(a, b, ms, include_vacuum=include_vacuum)[3]
                except (InvalidPointError, SubregionBoundaryError):
                    cache[a] = None
            return cache[a]

        def gap(a: float) -> float:
            # longitudinal zero: Re eps_L = 0; transverse zero: Re nu_L = -1
            tens = tens_at(a)
            if tens is None:
                return math.nan
            return tens.eps_L.real if longitudinal else tens.nu_L.real + 1.0

        root = _first_zero(gap, grid, b, gate, start)
        if root is None:
            continue
        start = root
        tens = tens_at(root)
        im_val = tens.eps_L.imag if longitudinal else tens.nu_L.imag
        samples.append(RootSample(b=b, root_a=root, residual=gap(root), im_at_root=im_val))
    plasma = _extrapolate_to_zero_b(samples)
    return DispersionBranch(mode=mode, samples=tuple(samples), plasma_frequency=plasma)


def _first_zero(
    g: Callable[[float], float],
    grid: Sequence[float],
    b: float,
    gate: float,
    start: float,
) -> float | None:
    """Smallest timelike zero of g on grid, or None.

    The walk starts at lo, the first grid point above the light-cone cut
    (a > b > 0), and refines each strict sign change between two
    consecutive defined points with Brent's method; no bracket spans the
    light cone and its pole.  A root is accepted when its residual lies
    below its bracket edges', which a crossing of roundoff noise (t = 0,
    b << a_e) or a NaN gap (Brent met a point that raised) fails.  The
    brackets arrive in increasing a, so the walk stops at the first
    accepted root, the smallest; a warning counts the NaN points visited.

    The band is the run of grid points in region II, off the light-cone
    and pair-threshold cuts, with a <= gate * b (_band_gate: above it the
    t = 0 closed forms lose the rise to roundoff).  There Im eps_L and
    Im nu_L are 0, and the gap g (Re eps_L, or Re nu_L + 1) rises with a:
    for eps_L by Kramers-Kronig with Im eps_L >= 0, for nu_L as measured
    and pinned on every band point of the test draws.  So g changes sign
    at most once there, from - to +.  If g < 0 at lo, the walk's first
    step goes to the last band point known to be negative (_band_resume,
    started at the grid interval of start: a_e for the first b, then the
    previous b's root), and it goes on linearly from there.  The points
    it skips lie between two negative ones, so the sign changes it meets,
    and their brackets, are those of the full timelike grid.  g is
    memoised by dispersion, so the band points _band_resume probed, and
    the bracket edges and root that Brent and dispersion read again, are
    evaluated once.
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
    if end > lo and g(grid[lo]) < 0.0:
        i = _band_resume(g, grid, lo, end - 1, bisect_left(grid, start) - 1)
    n_bad = 0
    # NaN compares false: no bracket before the first defined point
    prev_a = prev_g = math.nan
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


def _band_resume(
    g: Callable[[float], float],
    grid: Sequence[float],
    lo: int,
    hi: int,
    start: int | None = None,
) -> int:
    """Last index in [lo, hi] known to hold g < 0, given g(grid[lo]) < 0.

    With start in (lo, hi] it probes start first and gallops from there
    (offsets 1, 2, 4, ...): upwards if g < 0 there, downwards towards lo
    if g > 0.  Otherwise it gallops upwards from lo.  Once a probe lies
    across the sign change or past lo or hi, it bisects, so the result j
    has g(grid[j + 1]) > 0 unless j = hi.  A probe that is NaN or exactly
    0 stops the search at the last negative point found.
    """
    neg, pos, anchor, offset = lo, hi + 1, lo, 1
    if start is not None and lo < start <= hi:
        anchor = start
        val = g(grid[start])
        if val < 0.0:
            neg = start
        elif val > 0.0:
            pos, offset = start, -1
        else:
            return neg
    while pos - neg > 1:
        k = anchor + offset
        if not neg < k < pos:
            k = (neg + pos) // 2
        val = g(grid[k])
        if val < 0.0:
            neg = k
        elif val > 0.0:
            pos = k
        else:
            return neg
        offset *= 2
    return neg


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
        _, region, sub, tens = tensors_at(a, b, ms, include_vacuum=include_vacuum)
    except ValueError as exc:
        return GridCell(a, b, "", "", math.nan, math.nan, math.nan, math.nan, False, str(exc))
    # positional: keyword construction of a NamedTuple costs twice as much
    eps_l = tens.eps_L
    nu_l = tens.nu_L
    meta = eps_l.real < 0.0 and nu_l.real < 0.0
    subregion = sub.label if sub is not None else ""
    return GridCell(
        a, b, region.value, subregion, eps_l.real, eps_l.imag, nu_l.real, nu_l.imag, meta, ""
    )


def metamaterial_scan(
    a_grid: Sequence[float],
    b_grid: Sequence[float],
    ms: MediumState,
    include_vacuum: bool = True,
) -> list[GridCell]:
    """Classify every (a, b) cell of a grid, row-major in b then a."""
    return [
        evaluate_cell(a, b, ms, include_vacuum=include_vacuum)
        for b in b_grid
        for a in a_grid
    ]
