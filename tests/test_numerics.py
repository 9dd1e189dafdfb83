import math

import pytest

from relegas import (
    Bracket,
    find_root_bracketed,
    integrate_adaptive,
    scan_sign_changes,
)
from relegas.numerics import PANEL_BUDGET, iter_sign_changes


def test_polynomial_exact_single_panel():
    res = integrate_adaptive(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0)
    assert abs(res.value - 2.0) < 1e-14
    assert res.evaluations <= PANEL_BUDGET
    assert res.converged


def test_log_endpoint_singularity():
    res = integrate_adaptive(math.log, 0.0, 1.0, rel_tol=1e-12)
    assert abs(res.value + 1.0) < 1e-12
    assert res.converged


def test_sqrt_kernel_closed_form():
    # int_1^3 sqrt(x^2-1) dx = [x sqrt(x^2-1) - log(x + sqrt(x^2-1))]/2
    want = 0.5 * (3.0 * math.sqrt(8.0) - math.log(3.0 + math.sqrt(8.0)))
    res = integrate_adaptive(lambda x: math.sqrt(max(x * x - 1.0, 0.0)), 1.0, 3.0)
    assert abs(res.value - want) < 1e-12 * want


def test_breakpoints_are_never_evaluated():
    # refinement drives the nodes hugging the breakpoint down to ulp
    # distance; even then the singular abscissa must never be handed to f,
    # whether f returns a float or a tuple
    def f(x: float) -> float:
        assert x != 1.5
        return 1.0 / math.sqrt(abs(x - 1.5))

    def pair(x: float) -> tuple[float, float]:
        return f(x), x

    res = integrate_adaptive(f, 0.0, 3.0, breakpoints=(1.5,), rel_tol=1e-10)
    assert abs(res.value - 4.0 * math.sqrt(1.5)) < 1e-6
    res = integrate_adaptive(pair, 0.0, 3.0, breakpoints=(1.5,), rel_tol=1e-10)
    assert abs(res.value[0] - 4.0 * math.sqrt(1.5)) < 1e-6
    assert abs(res.value[1] - 4.5) < 1e-12


def test_breakpoints_outside_range_ignored():
    res = integrate_adaptive(lambda x: x, 0.0, 1.0, breakpoints=(-1.0, 2.0))
    assert abs(res.value - 0.5) < 1e-15


def test_nan_is_reported_with_location():
    def f(x: float) -> float:
        return math.nan if x > 0.7 else 1.0

    with pytest.raises(ValueError, match="x ="):
        integrate_adaptive(f, 0.0, 1.0)


def test_divergent_integral_flags_nonconverged():
    res = integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0)
    assert not res.converged
    assert res.evaluations <= PANEL_BUDGET


def test_requested_tolerance_is_met():
    want = math.sin(37.0) / 37.0 - math.sin(0.0)
    # clean oscillatory integrand: int_0^1 cos(37x) dx
    res = integrate_adaptive(lambda x: math.cos(37.0 * x), 0.0, 1.0, rel_tol=1e-13)
    assert abs(res.value - want) <= 1e-12 * abs(want) + 1e-15
    assert res.error_estimate <= 1e-10 * abs(want) + 1e-15


def test_reversed_limits_negate():
    fwd = integrate_adaptive(math.exp, 0.0, 1.0)
    rev = integrate_adaptive(math.exp, 1.0, 0.0)
    assert abs(fwd.value + rev.value) < 1e-14


def test_empty_range_is_zero():
    res = integrate_adaptive(math.exp, 1.0, 1.0)
    assert res.value == 0.0


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
    with pytest.warns(UserWarning, match="skipped"):
        brackets = scan_sign_changes(g, grid)
    assert len(brackets) == 1
    assert brackets[0].lo < 0.5 < brackets[0].hi


def test_lazy_scan_stops_at_first_bracket():
    # closing early evaluates nothing past the bracket and warns about
    # the undefined points visited so far (0.0 and 0.2), not the later one
    seen = []

    def g(x: float) -> float:
        seen.append(x)
        return math.nan if x in (0.0, 0.2, 1.4) else math.sin(8.0 * x)

    grid = [0.2 * k for k in range(10)]
    scan = iter_sign_changes(g, grid)
    br = next(scan)
    assert br.lo < math.pi / 4.0 < br.hi
    assert seen == grid[: grid.index(br.hi) + 1]
    with pytest.warns(UserWarning, match="skipped 2 grid points"):
        scan.close()


def test_scan_requires_strict_sign_change():
    brackets = scan_sign_changes(lambda x: x * x, [-1.0, 0.0, 1.0])
    assert brackets == []


def test_brent_cosine_root():
    seen = []

    def g(x: float) -> float:
        seen.append(x)
        return math.cos(x)

    root = find_root_bracketed(g, Bracket(1.0, 2.0), x_tol=1e-14)
    assert abs(root - math.pi / 2.0) < 1e-12
    for x in seen:
        assert 1.0 <= x <= 2.0


def test_brent_rejects_non_bracket():
    with pytest.raises(ValueError, match="change sign"):
        find_root_bracketed(math.exp, Bracket(0.0, 1.0))


def test_brent_accepts_endpoint_root():
    root = find_root_bracketed(lambda x: x - 1.0, Bracket(1.0, 2.0))
    assert root == 1.0
