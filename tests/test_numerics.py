import bisect
import math
from operator import mul

import pytest

from relegas.numerics import (
    PANEL_BUDGET,
    Bracket,
    find_root_bracketed,
    integrate_adaptive,
    scan_sign_changes,
)
from relegas.responses import _first_zero
from conftest import per_node


def test_polynomial_exact_single_panel():
    res = integrate_adaptive(per_node(lambda x: x**3 - 2.0 * x + 1.0), 0.0, 2.0)
    assert abs(res.value[0] - 2.0) < 1e-14
    assert res.evaluations <= PANEL_BUDGET
    assert res.converged


def test_log_endpoint_singularity():
    res = integrate_adaptive(per_node(math.log), 0.0, 1.0, rel_tol=1e-12)
    assert abs(res.value[0] + 1.0) < 1e-12
    assert res.converged


def test_sqrt_kernel_closed_form():
    # int_1^3 sqrt(x^2-1) dx = [x sqrt(x^2-1) - log(x + sqrt(x^2-1))]/2
    want = 0.5 * (3.0 * math.sqrt(8.0) - math.log(3.0 + math.sqrt(8.0)))
    res = integrate_adaptive(per_node(lambda x: math.sqrt(max(x * x - 1.0, 0.0))), 1.0, 3.0)
    assert abs(res.value[0] - want) < 1e-12 * want


def test_breakpoints_are_never_evaluated():
    # refinement drives the nodes hugging the breakpoint down to ulp
    # distance; even then the singular abscissa must never be handed to f,
    # whether f has one component or two
    def f(x: float) -> float:
        assert x != 1.5
        return 1.0 / math.sqrt(abs(x - 1.5))

    def pair(x: float) -> tuple[float, float]:
        return f(x), x

    res = integrate_adaptive(per_node(f), 0.0, 3.0, breakpoints=(1.5,), rel_tol=1e-10)
    assert abs(res.value[0] - 4.0 * math.sqrt(1.5)) < 1e-6
    res = integrate_adaptive(per_node(pair), 0.0, 3.0, breakpoints=(1.5,), rel_tol=1e-10)
    assert abs(res.value[0] - 4.0 * math.sqrt(1.5)) < 1e-6
    assert abs(res.value[1] - 4.5) < 1e-12


@pytest.mark.parametrize("pair", [False, True], ids=["float", "tuple"])
def test_each_call_is_one_level_of_one_panel(pair):
    # the integrand gets one level of one panel per call: nodes strictly
    # between two consecutive edges, positive weights, and node counts
    # that add up to evaluations.  The panel next to 1.5 is 2**-50 wide,
    # so most of its offsets round onto its edges.  f returns one float
    # component, or a pair.
    calls = []

    def f(xs, ws):
        calls.append((xs, ws))
        vals = [1.0 / math.sqrt(abs(x - 1.5)) + math.log(abs(x - 2.5)) for x in xs]
        total = sum(map(mul, ws, vals))
        return (total, sum(ws)) if pair else (total,)

    thin = 1.5 + 2.0**-50
    res = integrate_adaptive(f, 0.0, 3.0, breakpoints=(2.5, thin, 1.5, -1.0, 4.0), rel_tol=1e-12)
    edges = [0.0, 1.5, thin, 2.5, 3.0]
    assert sum(len(xs) for xs, _ in calls) == res.evaluations
    panels = []
    for xs, ws in calls:
        assert len(xs) == len(ws) > 0
        assert all(w > 0.0 for w in ws)
        k = bisect.bisect_right(edges, xs[0]) - 1
        assert all(edges[k] < x < edges[k + 1] for x in xs), (edges[k], edges[k + 1], xs)
        panels.append(k)
    assert set(panels) == {0, 1, 2, 3}
    assert len(panels) > 2 * 4


def test_every_panel_opens_at_level_two():
    # each panel evaluates levels 0, 1 and 2 (13, 13 and 26 nodes) before
    # its first error test, so no panel stops on the difference of two
    # crude levels: the thin panel [0, 1e-9] too, though f = 1 agrees
    # to an ulp at level 1 already
    calls = {True: [], False: []}

    def f(xs, ws):
        calls[xs[0] < 1e-9].append(len(xs))
        return (sum(ws),)

    res = integrate_adaptive(f, 0.0, 1.0, breakpoints=(1e-9,))
    assert calls[True][:3] == calls[False][:3] == [13, 13, 26]
    assert res.evaluations == 104
    assert res.converged


def _never_called(xs, ws):
    raise AssertionError("the integrand was called")


@pytest.mark.parametrize(
    "lo, hi, breakpoints",
    [(math.nan, 1.0, ()), (0.0, math.inf, ()), (-math.inf, 1.0, ()), (0.0, 1.0, (0.5, math.nan))],
    ids=["nan-lo", "inf-hi", "minus-inf-lo", "nan-breakpoint"],
)
def test_non_finite_limits_and_breakpoints_are_refused(lo, hi, breakpoints):
    with pytest.raises(ValueError, match="must be finite"):
        integrate_adaptive(_never_called, lo, hi, breakpoints=breakpoints)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1e-10], ids=["nan", "inf", "negative"])
def test_invalid_rel_tol_is_refused(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        integrate_adaptive(_never_called, 0.0, 1.0, rel_tol=rel_tol)


def test_breakpoints_outside_range_ignored():
    res = integrate_adaptive(per_node(lambda x: x), 0.0, 1.0, breakpoints=(-1.0, 2.0))
    assert abs(res.value[0] - 0.5) < 1e-15


def test_nan_is_reported_with_location():
    def f(x: float) -> float:
        return math.nan if x > 0.7 else 1.0

    with pytest.raises(ValueError, match="x ="):
        integrate_adaptive(per_node(f), 0.0, 1.0)


def test_divergent_integral_flags_nonconverged():
    res = integrate_adaptive(per_node(lambda x: 1.0 / x), 0.0, 1.0)
    assert not res.converged
    assert res.evaluations <= PANEL_BUDGET


def test_requested_tolerance_is_met():
    want = math.sin(37.0) / 37.0 - math.sin(0.0)
    # clean oscillatory integrand: int_0^1 cos(37x) dx
    res = integrate_adaptive(per_node(lambda x: math.cos(37.0 * x)), 0.0, 1.0, rel_tol=1e-13)
    assert abs(res.value[0] - want) <= 1e-12 * abs(want) + 1e-15
    assert res.error_estimate[0] <= 1e-10 * abs(want) + 1e-15


def test_reversed_limits_are_refused():
    # every library call integrates upwards; a reversed one is refused
    # before any evaluation rather than mistaken for an empty domain
    with pytest.raises(ValueError, match="reversed"):
        integrate_adaptive(_never_called, 1.0, 0.0)


def test_empty_range_is_zero():
    res = integrate_adaptive(per_node(math.exp), 1.0, 1.0)
    assert res.value == ()


@pytest.mark.parametrize(
    "lo, hi, breakpoints",
    [(1.0, 1.0, ()), (1.0, math.nextafter(1.0, 2.0), ()),
     (1.0, 1.0 + 2.0**-51, (1.0 + 2.0**-52,))],
    ids=["point", "one-ulp", "two-one-ulp-panels"],
)
def test_empty_domain_never_calls_f(lo, hi, breakpoints):
    # no panel holds an interior double: f is never called, and value and
    # error_estimate are empty tuples
    def f(xs, ws):
        raise AssertionError("f called on an empty domain")

    res = integrate_adaptive(f, lo, hi, breakpoints=breakpoints)
    assert res == ((), (), 0, True)


def test_scan_finds_sine_roots():
    grid = [0.1 + 0.2 * k for k in range(50)]
    brackets = scan_sign_changes(math.sin, grid)
    roots = [k * math.pi for k in (1, 2, 3)]
    assert len(brackets) == 3
    for br, root in zip(brackets, roots):
        assert br.lo < root < br.hi


def test_scan_skips_undefined_points():
    def g(x: float) -> float:
        return math.nan if 0.9 < x < 1.1 else x - 0.5

    grid = [0.2 * k for k in range(10)]
    with pytest.warns(UserWarning, match="skipped 1 grid points"):
        brackets = scan_sign_changes(g, grid)
    assert len(brackets) == 1
    assert brackets[0].lo < 0.5 < brackets[0].hi


def test_lazy_scan_stops_at_first_bracket():
    # b = 0.1 puts every grid point but 0.0 above the light cone, and a
    # gate of 1 leaves no band to search: the walk starts at 0.2, stops
    # at the first root, evaluates nothing past its bracket, and warns
    # about the undefined points visited so far (0.2), not the later one
    seen = []

    def g(x: float) -> float:
        seen.append(x)
        return math.nan if x in (0.0, 0.2, 1.4) else math.sin(8.0 * x)

    grid = [0.2 * k for k in range(10)]
    with pytest.warns(UserWarning, match="skipped 1 grid points"):
        root, banded = _first_zero(g, grid, 0.1, 1.0, 0.0, 1e-3)
    assert abs(root - math.pi / 4.0) < 1e-12 and not banded
    hi = grid[4]
    assert grid[3] < root < hi
    # the timelike grid up to the bracket, then Brent inside it
    assert seen[:4] == grid[1:5]
    assert grid[0] not in seen
    assert max(seen) == hi


def test_scan_requires_strict_sign_change():
    brackets = scan_sign_changes(lambda x: x * x, [-1.0, 0.0, 1.0])
    assert brackets == []


def test_brent_cosine_root():
    seen = []

    def g(x: float) -> float:
        seen.append(x)
        return math.cos(x)

    root = find_root_bracketed(g, Bracket(1.0, 2.0))
    assert abs(root - math.pi / 2.0) < 1e-12
    for x in seen:
        assert 1.0 <= x <= 2.0


def test_brent_rejects_non_bracket():
    with pytest.raises(ValueError, match="change sign"):
        find_root_bracketed(math.exp, Bracket(0.0, 1.0))


def test_brent_accepts_endpoint_root():
    root = find_root_bracketed(lambda x: x - 1.0, Bracket(1.0, 2.0))
    assert root == 1.0


def _fermi_case(mu: float, t: float, breakpoints: tuple[float, ...]):
    # n(x) = 1/(e^u + 1), u = (x - mu)/t, with antiderivative
    # x - t log(1 + e^u), both written so that no exp overflows
    def n(x: float) -> float:
        u = (x - mu) / t
        if u > 0.0:
            q = math.exp(-u)
            return q / (1.0 + q)
        return 1.0 / (1.0 + math.exp(u))

    def prim(x: float) -> float:
        u = (x - mu) / t
        if u > 0.0:
            return mu - t * math.log1p(math.exp(-u))
        return x - t * math.log1p(math.exp(u))

    return n, 1.0, 3.0, breakpoints, prim(3.0) - prim(1.0)


def _soundness_cases():
    for mu, t in ((1.2, 1e-3), (1.2, 0.05), (1.3, 1e-2), (1.7, 0.2)):
        yield f"fermi({mu},{t})", _fermi_case(mu, t, ())
        yield f"fermi({mu},{t})|mu", _fermi_case(mu, t, (mu,))
    yield "log", (math.log, 0.0, 1.0, (), -1.0)
    yield "log|x-1.3|", (
        lambda x: math.log(abs(x - 1.3)), 0.0, 3.0, (1.3,),
        1.7 * math.log(1.7) + 1.3 * math.log(1.3) - 3.0,
    )
    yield "sqrt(x^2-1)", (
        lambda x: math.sqrt(x * x - 1.0), 1.0, 3.0, (),
        0.5 * (3.0 * math.sqrt(8.0) - math.log(3.0 + math.sqrt(8.0))),
    )
    yield "|x-1.5|^-1/2", (
        lambda x: 1.0 / math.sqrt(abs(x - 1.5)), 0.0, 3.0, (1.5,), 4.0 * math.sqrt(1.5),
    )
    yield "cos37x", (lambda x: math.cos(37.0 * x), 0.0, 1.0, (), math.sin(37.0) / 37.0)
    # int_0^40 e^-x x^5 dx = 5! (1 - e^-40 sum_k<=5 40^k/k!)
    tail = math.exp(-40.0) * sum(40.0**k / math.factorial(k) for k in range(6))
    yield "x^5 e^-x", (lambda x: math.exp(-x) * x**5, 0.0, 40.0, (), 120.0 * (1.0 - tail))


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_converged_error_is_within_tolerance(rel_tol):
    # the per-panel error estimate is extrapolated from the last three
    # levels; wherever a call reports convergence, the true error must
    # meet the request, including on integrands that converge slowly
    # (an inverse square root at a breakpoint) or not at all (a Fermi
    # step of width 1e-3 inside a panel)
    n_converged = 0
    for name, (f, lo, hi, breakpoints, want) in _soundness_cases():
        res = integrate_adaptive(per_node(f), lo, hi, breakpoints=breakpoints, rel_tol=rel_tol)
        if res.converged:
            n_converged += 1
            assert abs(res.value[0] - want) <= rel_tol * abs(want), name
    assert n_converged >= 10
