"""Adaptive quadrature and bracketed root finding.

The quadrature engine is a tanh-sinh (double-exponential) rule
(Takahasi & Mori, Publ. RIMS 9 (1974) 721) applied to each panel
between the user's breakpoints.  The substitution
x = tanh((pi/2) sinh t) clusters nodes double-exponentially towards both
panel edges, so integrable endpoint singularities such as logs and
square roots are resolved without bisection, and every node lies
strictly inside its panel: a breakpoint is never evaluated.

Every panel opens with levels 0, 1 and 2 before its first error test,
and then halves its step (one level) at a time; each level roughly
doubles the number of correct digits.  The difference of the last two
levels, d1 = |S_k - S_(k-1)|, is therefore the error of S_(k-1), not of
S_k.  A panel extrapolates the error of S_k from d1 and
d2 = |S_k - S_(k-2)| (Bailey, Jeyabalan & Li, Exp. Math. 14 (2005) 317,
as in mpmath's QuadratureRule.estimate_error): with
l = log10(d / |S_k|) it is |S_k| * 10**max(l1**2/l2, 2 l1, -15.5), and
never more than d1.  The extrapolation is trusted only while the levels
converge quadratically, l1 <= 1.5 l2 < 0; otherwise the error is d1.
Without that guard, a panel whose digits grow only linearly (an inverse
square root at a breakpoint) reports convergence with a true error many
times the tolerance.  The panel contributing the largest share of the
error is refined next.  The running sums and the error are brought up
to date once per opening or step, not once per level.  Levels stop at
MAX_LEVEL, which bounds every call to PANEL_BUDGET evaluations per
panel.

The integrand is called once per level of one panel, as f(xs, ws), with
the nodes that level adds and their weights (all positive).  Every node
of one call lies strictly inside the same panel, between two consecutive
breakpoints, so a test that is constant on a panel can be made once per
call.  f returns the weighted sums of its values over the nodes as a
tuple of floats, one per component; the components share the nodes and
must each meet the tolerance.  Summed in node order, as
sum(map(mul, ws, values)) adds them on CPython 3.11, the result is that
of a per-node integrand.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from math import log10
from typing import Callable, NamedTuple, Sequence

# step h = 2**-(level + 1); every panel opens with levels 0 to _MIN_LEVEL
# before its first error test, so that two crude levels cannot agree by
# accident and the first error is already extrapolated from three levels
_MIN_LEVEL = 2
MAX_LEVEL = 5
# nodes stop where the offset from a panel edge, as a fraction of the
# half-width, falls below this (the weight there is ~1e-18 of the centre's)
_EDGE_MIN = 2.0**-64
# errors below the smallest normal double pass: a component that small
# (an occupation tail of exp(-700)) has no relative precision left
_TINY = sys.float_info.min
# floor on the extrapolated log10(error/|value|): about one ulp
_LOG_FLOOR = -15.5
# find_root_bracketed stops once its bracket is below this, relative to max(1, |x|)
_X_TOL = 1e-12


def _level_table(level: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Offsets u and weights w of the nodes that level adds, t > 0 ascending.

    A node at t sits at hi - half*u and its mirror at lo + half*u, where
    u = 1 - tanh(s) = 2 q / (1 + q), q = exp(-2 s), s = (pi/2) sinh t.
    Level 0 holds every multiple of h = 1/2 (and the centre t = 0, u = 1,
    weight pi/2); each later level halves h and adds the odd multiples.
    """
    h = 2.0 ** -(level + 1)
    k = 1
    step = 1 if level == 0 else 2
    us: list[float] = []
    ws: list[float] = []
    while True:
        t = k * h
        s = 0.5 * math.pi * math.sinh(t)
        q = math.exp(-2.0 * s)
        u = 2.0 * q / (1.0 + q)
        if u < _EDGE_MIN:
            return tuple(us), tuple(ws)
        us.append(u)
        ws.append(2.0 * math.pi * math.cosh(t) * q / (1.0 + q) ** 2)
        k += step


_TABLES = tuple(_level_table(k) for k in range(MAX_LEVEL + 1))
# the centre, then every level's nodes on both sides of it
PANEL_BUDGET = 1 + sum(2 * len(us) for us, _ in _TABLES)
# each level's weights in node order, left side then right side (and the
# centre, pi/2, at level 0), for a level none of whose nodes rounds onto an edge
_BOTH_SIDES = tuple(
    ws + ws + ((0.5 * math.pi,) if k == 0 else ()) for k, (_, ws) in enumerate(_TABLES)
)

# f(xs, ws) -> the weighted sums of f's components over the nodes xs of one panel
Integrand = Callable[[list[float], Sequence[float]], tuple[float, ...]]


class QuadratureResult(NamedTuple):
    """Outcome of an adaptive integration.

    value is the best estimate, error_estimate the summed panel error
    (both tuples, one entry per component), evaluations the number of
    nodes evaluated, and converged tells whether error_estimate met the
    requested tolerance.  A panel's
    error is extrapolated from its last three levels where they converge
    quadratically, and is the difference of its last two levels
    otherwise (see the module docstring).
    """

    value: tuple[float, ...]
    error_estimate: tuple[float, ...]
    evaluations: int
    converged: bool


class Bracket(NamedTuple):
    """An interval [lo, hi] on which a function changes sign."""

    lo: float
    hi: float


class _Panel:
    """Running tanh-sinh sums over one panel [lo, hi], lo < (lo+hi)/2 < hi."""

    __slots__ = ("lo", "hi", "half", "level", "sums", "value", "previous", "error")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi
        self.half = 0.5 * (hi - lo)
        self.level = -1
        self.sums: list[float] = []
        self.value: list[float] = []
        self.previous: list[float] = []
        self.error: list[float] = []

    def refine(self, f: Integrand, upto: int) -> int:
        """Add the nodes of levels self.level + 1 .. upto -> number evaluated.

        f is called once per level; the running sums, the values of the
        last three levels and the error are brought up to date once, at
        upto (>= _MIN_LEVEL).
        """
        lo, hi, half = self.lo, self.hi, self.half
        first = self.level + 1
        news = []  # each level's sums, or None for a level without nodes
        nodes = []
        for level in range(first, upto + 1):
            us, ws = _TABLES[level]
            weights = _BOTH_SIDES[level]
            left = [lo + half * u for u in us]
            right = [hi - half * u for u in us]
            # keep nodes strictly inside: offsets shrink along the table, so
            # the ones that round onto an edge are at the end
            if left[-1] <= lo or right[-1] >= hi:
                while left and left[-1] <= lo:
                    left.pop()
                while right and right[-1] >= hi:
                    right.pop()
                weights = ws[: len(left)] + ws[: len(right)] + weights[2 * len(ws) :]
            xs = left + right
            if level == 0:
                xs.append(lo + half)
            news.append(f(xs, weights) if xs else None)
            nodes.append(xs)
        sums = self.sums
        # the values of levels upto - 2, upto - 1 and upto, oldest first
        values = [self.previous, self.value]
        for level, new in enumerate(news, first):
            if level == 0:
                sums = new
            else:
                # a level whose nodes all rounded onto the edges adds nothing
                sums = list(map(operator.add, sums, new or (0.0,) * len(sums)))
            scale = 2.0 ** -(level + 1) * half
            values.append([scale * s for s in sums])
        # a non-finite level sum makes every later running sum non-finite
        if not all(map(math.isfinite, sums)):
            for xs, new in zip(nodes, news):
                if new is not None and not all(map(math.isfinite, new)):
                    _raise_nonfinite(f, xs)
        self.level = upto
        self.sums = sums
        older, self.previous, self.value = values[-3:]
        # the error of v, the last of three levels p2, p1, v
        self.error = error = []
        for v, p1, p2 in zip(self.value, self.previous, older):
            e1 = abs(v - p1)
            e2 = abs(v - p2)
            if e1 and e2 and v:
                lv = log10(abs(v))
                l1 = log10(e1) - lv
                l2 = log10(e2) - lv
                # quadratic convergence has l1 ~ 2 l2; anything slower keeps d1
                if l1 <= 1.5 * l2 < 0.0:
                    e = abs(v) * 10.0 ** max(l1 * l1 / l2, 2.0 * l1, _LOG_FLOOR)
                    if e < e1:
                        e1 = e
            error.append(e1)
        return sum(map(len, nodes))


def _raise_nonfinite(f: Integrand, xs: list[float]) -> None:
    # the error path only: find the culprit one node at a time
    for x in xs:
        for c in f([x], [1.0]):
            if not math.isfinite(c):
                raise ValueError(f"integrand returned {c} at x = {x}")
    raise ValueError(f"integrand sum overflowed on the panel holding x = {xs[0]}")


def integrate_adaptive(
    f: Integrand,
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Integrate f over [lo, hi] with known awkward points split out.

    Parameters
    ----------
    f : callable
        f(xs, ws) gets the nodes xs that one level adds to one panel and
        their weights ws, and returns the tuple of sum(w * f_k(x)) over
        them, one per component f_k, added in node order; its length is
        fixed, and value and error_estimate are tuples of that length.
        All nodes of one call lie strictly inside one panel.  Sums must
        be finite: on NaN/inf, f is called again on each node alone, as
        f([x], [1.0]), and ValueError names the offending abscissa.
    breakpoints : sequence of float
        Abscissae (singularities, kinks, discontinuities) that become
        panel boundaries; they are never passed to f.
    rel_tol : float
        Target, per component, on summed error/|value| (an error below
        the smallest normal double always passes).  Each panel's error
        is the extrapolated estimate of its latest level, guarded as the
        module docstring describes, so a panel stops one level earlier
        than the difference of its last two levels would allow.  A
        panel stops at MAX_LEVEL, so a call makes at most PANEL_BUDGET
        evaluations per panel; if the target is not met by then, the
        best estimate is still returned with ``converged=False``.

    A non-finite lo, hi or breakpoint, reversed limits (hi < lo), or a
    rel_tol that is NaN, infinite or negative, raises ValueError before
    any evaluation.
    Finite breakpoints outside [lo, hi] are ignored.  Where no panel
    (between lo, the breakpoints and hi) has a double inside it, f is never
    called: evaluations is 0, and value and error_estimate are (), so
    callers test evaluations first.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and all(map(math.isfinite, breakpoints))):
        raise ValueError(f"limits [{lo}, {hi}] and breakpoints {list(breakpoints)} must be finite")
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol = {rel_tol} must be finite and non-negative")
    if hi < lo:
        raise ValueError(f"limits [{lo}, {hi}] are reversed")
    edges = [lo]
    for x in sorted(set(breakpoints)):
        if edges[-1] < x < hi:
            edges.append(x)
    edges.append(hi)
    # a panel without an interior double holds no node and contributes 0
    panels = [_Panel(a, b) for a, b in zip(edges[:-1], edges[1:]) if a < 0.5 * (a + b) < b]
    if not panels:
        return QuadratureResult((), (), 0, True)

    evals = 0
    for panel in panels:
        evals += panel.refine(f, _MIN_LEVEL)
    while True:
        # fsum for both: the builtin sum of floats rounds differently from
        # CPython 3.12 on, which would move convergence and refinement order
        value = [math.fsum(c) for c in zip(*(pn.value for pn in panels))]
        error = [math.fsum(c) for c in zip(*(pn.error for pn in panels))]
        tol = [max(rel_tol * abs(v), _TINY) for v in value]
        converged = all(map(operator.le, error, tol))
        if converged:
            break
        # refine the open panel with the largest error relative to its
        # component's tolerance; stop once no open panel has any error
        worst = None
        worst_share = 0.0
        for pn in panels:
            if pn.level < MAX_LEVEL:
                share = max(map(operator.truediv, pn.error, tol))
                if share > worst_share:
                    worst, worst_share = pn, share
        if worst is None:
            break
        evals += worst.refine(f, worst.level + 1)
    return QuadratureResult(tuple(value), tuple(error), evals, converged)


def _warn_skipped(n_bad: int) -> None:
    if n_bad:
        warnings.warn(f"sign scan skipped {n_bad} grid points with undefined values")


def scan_sign_changes(
    g: Callable[[float], float], grid: Sequence[float]
) -> list[Bracket]:
    """Every sign-change bracket of g on the whole grid, in grid order.

    Every grid point is evaluated.  Points where g is NaN (e.g.
    kinematically invalid abscissae) are skipped, and a warning counts
    them.  A bracket lies between two consecutive valid points with g of
    strictly opposite sign.
    """
    brackets: list[Bracket] = []
    n_bad = 0
    prev_x = prev_g = math.nan
    for x in grid:
        val = g(x)
        if math.isnan(val):
            n_bad += 1
            continue
        if prev_g < 0.0 < val or val < 0.0 < prev_g:
            brackets.append(Bracket(lo=prev_x, hi=x))
        prev_x, prev_g = x, val
    _warn_skipped(n_bad)
    return brackets


def find_root_bracketed(g: Callable[[float], float], br: Bracket) -> float:
    """Brent's method on a sign-changing bracket.

    The iterate never leaves [br.lo, br.hi].  Convergence is declared
    when the interval shrinks below _X_TOL * max(1, |x|), _X_TOL = 1e-12.
    """
    a, b = br.lo, br.hi
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"bracket [{a}, {b}] does not change sign")
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * _X_TOL * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = g(b)
    return b
