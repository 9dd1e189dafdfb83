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
from contextlib import closing
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
from .medium_finite_t import ResponseScalars, _parts
from .medium_zero_t import SubregionBoundaryError, _im_parts, _re_parts
from .numerics import find_root_bracketed, iter_sign_changes
from .occupation import MediumState

_DUAL_PATH_TOL = 1e-12
# The band search bisects only over a <= _BAND_GATE * b.  Above
# that the t = 0 closed forms lose Re eps_L's rise to roundoff (ROADMAP
# item 3).  Over xF - 1 in [1e-3, 3] the rise over one grid step
# (window/160) is smallest at xF = 1.001: there it falls below the
# spread of Re eps_L under ulp changes of a near a = 100 b, where it
# first fails on the grid; up to a = 32 b it stays >= 32 times that
# spread, which grows like (a/b)**3.
_BAND_GATE = 32.0


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
    return p, region, sub, ResponseScalars.from_parts(p, ms, parts, include_vacuum)


def assemble(s: ResponseScalars, p: KinematicPoint) -> ResponseTensors:
    """Combine the scalars into the permittivity tensors at p.

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
    nu_l = 1.0 + 2.0 * s_c + 2.0 * s_d + c2_b2 * s_b
    for direct, summed, name in (
        (eps_l, eps + eps_prime, "eps_L"),
        (nu_l, nu + nu_prime, "nu_L"),
    ):
        if abs(direct - summed) > _DUAL_PATH_TOL * max(1.0, abs(direct)):
            raise InternalConsistencyError(
                f"{name} composition mismatch: {direct!r} vs {summed!r}"
            )
    return ResponseTensors(eps, nu, eps_prime, nu_prime, tau, sigma, eps_l, nu_l)


def tensors_at(
    a: float, b: float, ms: MediumState, include_vacuum: bool = True
) -> tuple[KinematicPoint, RegionLabel, SubregionLabel | None, ResponseTensors]:
    """Full evaluation at (a, b): point, region, T=0 subregion, tensors."""
    p, region, sub, s = scalars_at(a, b, ms, include_vacuum=include_vacuum)
    return p, region, sub, assemble(s, p)


def plasma_frequency_estimate(ms: MediumState) -> float:
    """Leading-order plasma frequency a_e of a cold gas.

    At t = 0 the small-b limit of eps_L = 0 gives
    a_e**2 = e2 * yF**3 / (12 pi**2 xF); the transverse condition
    nu_L = -1 approaches the same frequency as b -> 0.  Used to seed
    dispersion search ranges.
    """
    fs = ms.fermi_surface
    return math.sqrt(ms.e2 * fs.yF**3 / (12.0 * math.pi**2 * fs.xF))


class RootSample(NamedTuple):
    """One dispersion root: mode condition satisfied at (b, root_a)."""

    b: float
    root_a: float
    residual: float
    im_at_root: float


class DispersionBranch(NamedTuple):
    """Plasmon branch over a b grid with its b -> 0 extrapolation.

    samples holds the smallest positive root found for each b (b values
    with no root are simply absent); plasma_frequency is the quadratic-
    in-b**2 extrapolation of root_a through the three smallest sampled b
    (nan when fewer than three roots exist).
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

    For each b the mode condition is scanned upwards over the n_scan + 1
    points of a_search_range, and each sign change is refined by Brent's
    method as the scan reaches it.  The scan stops at the first root that
    is positive and not a light-cone pole: that is the smallest accepted
    root.  Kinematically invalid scan points (light cone, pair threshold,
    subregion boundaries) are skipped as NaN.

    Both modes skip grid points of the transparent band (region II below
    a = 32 b), where Re eps_L and Re nu_L both rise with a and so change
    sign at most once: galloping and bisection over grid indices find the
    band's bracket, probing points above it, and return the root the full
    scan would.  From the second b on, the search starts at the grid
    interval of the last accepted root, where the next root usually lies.
    """
    if mode not in ("longitudinal", "transverse"):
        raise ValueError(f"unknown dispersion mode {mode!r}")
    if not isinstance(n_scan, int) or n_scan < 1:
        raise ValueError(f"n_scan {n_scan!r} must be an int >= 1")
    a_lo, a_hi = a_search_range
    if not (0.0 <= a_lo < a_hi < math.inf):
        raise ValueError(f"bad search range ({a_lo}, {a_hi}): need 0 <= lo < hi, both finite")
    longitudinal = mode == "longitudinal"
    step = (a_hi - a_lo) / n_scan
    grid = [a_lo + i * step for i in range(n_scan + 1)]
    samples: list[RootSample] = []
    start = None
    for b in b_grid:
        # tensors per abscissa: Brent's bracket edges and the pole filter
        # revisit points the scan (or Brent) has already evaluated
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

        root = _first_zero(gap, _band_walk(gap, grid, b, start))
        if root is None:
            continue
        start = root
        tens = tens_at(root)
        im_val = tens.eps_L.imag if longitudinal else tens.nu_L.imag
        samples.append(RootSample(b=b, root_a=root, residual=gap(root), im_at_root=im_val))
    plasma = _extrapolate_to_zero_b(samples)
    return DispersionBranch(mode=mode, samples=tuple(samples), plasma_frequency=plasma)


def _first_zero(g: Callable[[float], float], grid: Iterable[float]) -> float | None:
    """Smallest accepted zero of g on grid, or None.

    The brackets arrive in increasing a and do not overlap, so the first
    one whose Brent root is positive and passes the pole filter holds the
    smallest accepted root: the scan stops there, and the grid points
    above that bracket are never visited.
    """
    with closing(iter_sign_changes(g, grid)) as brackets:
        for br in brackets:
            root = find_root_bracketed(g, br)
            if root <= 0.0:
                continue
            # a sign change across the light cone is a pole, not a zero:
            # there the refined point has a larger residual than the
            # bracket edges (or none at all)
            g_root = g(root)
            g_edges = min(abs(g(br.lo)), abs(g(br.hi)))
            if math.isnan(g_root) or abs(g_root) >= g_edges:
                continue
            return root
    return None


def _band_walk(
    g: Callable[[float], float], grid: Sequence[float], b: float, start: float | None = None
) -> Iterator[float]:
    """The points of grid that the dispersion scan visits, in order.

    The band is the run of grid points in region II, off the light-cone
    and pair-threshold cuts, with a <= _BAND_GATE * b.  There Im eps_L and
    Im nu_L are 0, and the gap g (Re eps_L, or Re nu_L + 1) rises with a:
    for eps_L by Kramers-Kronig with Im eps_L >= 0, for nu_L as measured
    and pinned on every band point of the test draws.  So g changes sign
    at most once there, from - to +.  The walk visits every point up to
    the band's first, lo.  If g < 0 there, it resumes at the last band
    point known to be negative (_band_resume, started at the grid
    interval of start, the previous b's root) and goes on linearly from
    there; otherwise it goes on from lo.  The points it skips lie between
    two negative ones, so the sign changes it meets, and their brackets,
    are those of the full grid.  g is cached by the caller, so a resumed
    point costs nothing twice.
    """
    b2 = b * b
    lo = bisect_left(grid, True, key=lambda a: a * a - b2 >= LIGHT_CONE_CUT)
    end = bisect_left(
        grid,
        True,
        lo=lo,
        key=lambda a: a > _BAND_GATE * b or a * a - b2 - 1.0 >= -PAIR_THRESHOLD_CUT,
    )
    yield from grid[: lo + 1]
    resume = lo
    if end > lo and g(grid[lo]) < 0.0:
        first = None if start is None else bisect_left(grid, start) - 1
        resume = _band_resume(g, grid, lo, end - 1, first)
    yield from grid[max(resume, lo + 1) :]


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
        return GridCell(
            a=a,
            b=b,
            region="",
            subregion="",
            re_eps_L=math.nan,
            im_eps_L=math.nan,
            re_nu_L=math.nan,
            im_nu_L=math.nan,
            metamaterial=False,
            reason=str(exc),
        )
    meta = tens.eps_L.real < 0.0 and tens.nu_L.real < 0.0
    return GridCell(
        a=a,
        b=b,
        region=region.value,
        subregion=sub.label if sub is not None else "",
        re_eps_L=tens.eps_L.real,
        im_eps_L=tens.eps_L.imag,
        re_nu_L=tens.nu_L.real,
        im_nu_L=tens.nu_L.imag,
        metamaterial=meta,
        reason="",
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
