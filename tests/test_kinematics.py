import math
import random
from fractions import Fraction

import pytest

from relegas import (
    InvalidPointError,
    KinematicPoint,
    LightConeError,
    PairThresholdError,
    RegionLabel,
    classify_region,
    derive_point,
    fermi_surface,
    kinematic_window,
    region_boundaries,
    zero_t_subregion,
)
from conftest import draw_valid_point


def test_derive_point_fields():
    p = derive_point(0.5, 1.0)
    assert p.c2 == -0.75
    assert p.gamma2 == 1.0 - 1.0 / p.c2
    assert p.d2 == p.c2 + p.b * p.b / p.c2


def test_derive_point_d2_identity():
    # d2 = a^2 - b^2*gamma2 must agree with c2 + b^2/c2
    rng = random.Random(11)
    for _ in range(200):
        p = draw_valid_point(rng)
        direct = p.a * p.a - p.b * p.b * p.gamma2
        assert abs(direct - p.d2) <= 1e-12 * max(1.0, abs(p.d2))


def test_light_cone_rejected():
    with pytest.raises(LightConeError, match="light cone"):
        derive_point(1.0, 1.0)
    with pytest.raises(LightConeError):
        derive_point(math.sqrt(1.0 + 5e-10), 1.0)


def test_bad_inputs_rejected():
    with pytest.raises(InvalidPointError):
        derive_point(0.5, 0.0)
    with pytest.raises(InvalidPointError):
        derive_point(0.5, -1.0)
    with pytest.raises(InvalidPointError):
        derive_point(-0.1, 1.0)
    with pytest.raises(InvalidPointError):
        derive_point(math.nan, 1.0)


@pytest.mark.parametrize(
    "a, b, match",
    [
        (0.5, 1e-300, "too small"),
        (0.5, 1e-155, "too small"),  # b**2 = 1e-310 is subnormal
        (0.0, 1e-160, "too small"),  # not a light-cone refusal: b**2 rounds to 0
        (1e200, 1e199, "too large"),  # c2 = inf - inf
        (1e200, 1.0, "too large"),
        (1.0, 1e160, "too large"),
    ],
)
def test_out_of_range_points_refused(a, b, match):
    # b**2 below the smallest normal double, or a c2 that is not finite,
    # would turn into a ZeroDivisionError, an OverflowError or inf/NaN later
    with pytest.raises(InvalidPointError, match=match):
        derive_point(a, b)
    # the smallest b whose square is normal, and the largest finite c2, pass
    assert derive_point(0.5, 1.5e-154).b == 1.5e-154
    assert math.isfinite(derive_point(1.3e154, 1.0).c2)


def test_classify_region_basic():
    assert classify_region(derive_point(0.5, 1.0)) is RegionLabel.I
    assert classify_region(derive_point(0.9, 0.7)) is RegionLabel.II
    assert classify_region(derive_point(2.0, 1.0)) is RegionLabel.III


def test_pair_threshold_rejected():
    p = KinematicPoint(a=1.1, b=0.458, c2=1.0 + 1e-13, gamma2=9e-14, d2=1.21)
    with pytest.raises(PairThresholdError):
        classify_region(p)


def test_nan_c2_rejected():
    # derive_point never makes one, but a KinematicPoint built by hand can
    # carry it; the vacuum term no longer checks c2, so classify_region
    # refuses it for scalars_zero_t
    from relegas import MediumState
    from relegas.medium_zero_t import scalars_zero_t

    p = KinematicPoint(a=0.5, b=1.0, c2=math.nan, gamma2=math.nan, d2=math.nan)
    with pytest.raises(InvalidPointError, match="must be finite"):
        classify_region(p)
    with pytest.raises(ValueError, match="must be finite"):
        scalars_zero_t(p, MediumState(t=0.0, xi=1.2))


@pytest.mark.parametrize("a", [1e8, 1e20])
def test_classify_region_refuses_huge_c2_for_every_caller(a):
    # classify_region is the one owner of the |c2| < 2**50 bound: every
    # public path that takes a point or (a, b) refuses with its text, the
    # t = 0 closed forms included, which lose Re C or fail out there
    from relegas import MediumState, scalars_at, tensors_at
    from relegas.medium_finite_t import im_scalars, re_scalars
    from relegas.medium_zero_t import scalars_zero_t
    from relegas.responses import evaluate_cell

    cold, warm = MediumState(t=0.0, xi=1.2), MediumState(t=0.05, xi=1.2)
    p = derive_point(a, 1.0)
    text = f"(a, b) = ({a}, 1.0) is too large: |c2| = {abs(p.c2):.3e} is not below 2**50"
    refusals = [
        lambda: classify_region(p),
        lambda: zero_t_subregion(p, fermi_surface(1.2)),
        lambda: scalars_zero_t(p, cold),
        lambda: re_scalars(p, warm),
        lambda: im_scalars(p, warm),
    ]
    for ms in (cold, warm):
        refusals += [lambda ms=ms: scalars_at(a, 1.0, ms), lambda ms=ms: tensors_at(a, 1.0, ms)]
    for call in refusals:
        with pytest.raises(InvalidPointError) as err:
            call()
        assert str(err.value) == text
    for ms in (cold, warm):
        assert evaluate_cell(a, 1.0, ms).reason == text


def test_region_sign_matches_exact_rationals():
    # the float classification must agree with exact rational arithmetic
    rng = random.Random(20240817)
    checked = 0
    for _ in range(2000):
        a = Fraction(rng.randrange(0, 400), 128)
        b = Fraction(rng.randrange(1, 400), 128)
        c2 = a * a - b * b
        if abs(float(c2)) < 1e-6 or abs(float(c2 - 1)) < 1e-6:
            continue
        region = classify_region(derive_point(float(a), float(b)))
        if c2 < 0:
            assert region is RegionLabel.I
        elif c2 < 1:
            assert region is RegionLabel.II
        else:
            assert region is RegionLabel.III
        checked += 1
    assert checked > 1500


def test_gamma2_sign_by_region():
    rng = random.Random(7)
    for _ in range(300):
        p = draw_valid_point(rng)
        region = classify_region(p)
        if region is RegionLabel.II:
            assert p.gamma2 < 0.0
        else:
            assert p.gamma2 > 0.0
        if region is RegionLabel.III:
            assert p.gamma2 < 1.0


def test_kinematic_window_edges():
    rng = random.Random(13)
    seen = 0
    for _ in range(500):
        p = draw_valid_point(rng)
        if p.gamma2 <= 0.0:
            with pytest.raises(ValueError):
                kinematic_window(p)
            continue
        lower, upper = kinematic_window(p)
        g = math.sqrt(p.gamma2)
        assert lower == abs(p.a - p.b * g)
        assert upper == p.a + p.b * g
        assert lower > 1.0 - 1e-9
        assert upper > lower
        seen += 1
    assert seen > 100


def test_zero_t_subregion_cases():
    # region I, window fully inside the sea
    sub = zero_t_subregion(derive_point(0.5, 1.0), fermi_surface(3.0))
    assert sub.label == "A"
    g = math.sqrt(derive_point(0.5, 1.0).gamma2)
    assert abs(sub.x_lower - (g - 0.5)) < 1e-14
    assert abs(sub.x_upper - (g + 0.5)) < 1e-14

    # region I, window straddling the Fermi surface
    sub = zero_t_subregion(derive_point(0.5, 1.0), fermi_surface(1.2))
    assert sub.label == "B"
    assert sub.x_upper == 1.2

    # region III analogues
    assert zero_t_subregion(derive_point(2.0, 1.0), fermi_surface(3.0)).label == "C"
    assert zero_t_subregion(derive_point(2.0, 1.0), fermi_surface(2.5)).label == "D"

    # region II never absorbs
    sub = zero_t_subregion(derive_point(0.9, 0.7), fermi_surface(2.0))
    assert sub.label == "NONE"
    assert math.isnan(sub.x_lower)

    # window entirely above the sea
    assert zero_t_subregion(derive_point(5.0, 0.1), fermi_surface(1.2)).label == "NONE"
    assert zero_t_subregion(derive_point(0.5, 1.0), fermi_surface(1.02)).label == "NONE"


def test_zero_t_subregion_boundary_tolerance():
    p = derive_point(0.5, 1.0)
    _, upper = kinematic_window(p)
    # xF exactly on the upper edge counts as the fully-contained case
    assert zero_t_subregion(p, fermi_surface(upper)).label == "A"
    assert zero_t_subregion(p, fermi_surface(upper - 1e-6)).label == "B"
    lower, _ = kinematic_window(p)
    assert zero_t_subregion(p, fermi_surface(lower)).label == "NONE"


def test_region_boundaries_examples():
    curves = region_boundaries(fermi_surface(3.0), 0.5)
    assert abs(curves["bbar_plus"] - (math.sqrt(2.0) + math.sqrt(0.75))) < 1e-12
    assert abs(curves["bbar_minus"] - (math.sqrt(2.0) - math.sqrt(0.75))) < 1e-12

    # at the mass-shell Fermi surface the outer curves merge
    curves = region_boundaries(fermi_surface(1.0), 0.3)
    assert abs(curves["b_plus"] - math.sqrt(0.3 * 1.3)) < 1e-14
    assert curves["b_plus"] == curves["b_minus"]

    # static limit
    fs = fermi_surface(2.0)
    curves = region_boundaries(fs, 0.0)
    assert abs(curves["bbar_minus"]) < 1e-14
    assert abs(curves["bbar_plus"] - fs.yF) < 1e-14


def test_region_boundaries_solve_their_conditions():
    fs = fermi_surface(3.0)
    a = 0.5

    def b_gamma(b: float) -> float:
        c2 = a * a - b * b
        return b * math.sqrt(1.0 - 1.0 / c2)

    curves = region_boundaries(fs, a)
    for key in ("b_plus", "b_minus"):
        assert abs(b_gamma(curves[key]) - a - fs.xF) < 1e-9
    for key in ("bbar_plus", "bbar_minus"):
        assert abs(b_gamma(curves[key]) + a - fs.xF) < 1e-9

    # pair-creation onset for a > xF
    fs_small = fermi_surface(1.2)
    a = 5.0

    def b_gamma_iii(b: float) -> float:
        c2 = a * a - b * b
        return b * math.sqrt(1.0 - 1.0 / c2)

    curves = region_boundaries(fs_small, a)
    for key in ("bprime_plus", "bprime_minus"):
        assert abs(a - b_gamma_iii(curves[key]) - fs_small.xF) < 1e-9


def test_region_boundaries_absent_when_curve_missing():
    # a(xF - a) > yF^2/4 leaves no inner boundary curves
    curves = region_boundaries(fermi_surface(3.0), 1.5)
    assert "bbar_plus" not in curves
    assert "bprime_minus" not in curves
    assert "b_plus" in curves


def test_fermi_surface_validation():
    with pytest.raises(ValueError):
        fermi_surface(0.99)
    fs = fermi_surface(1.2)
    assert abs(fs.yF - math.sqrt(1.2**2 - 1.0)) < 1e-16
    # NaN passed the old xF < 1 test, and inf or 1e300 overflowed yF and
    # the boundary curves; the bound is MediumState's at t = 0
    for xF in (math.nan, math.inf, 1e300, 2.0**50):
        with pytest.raises(ValueError, match=r"below 2\*\*50"):
            fermi_surface(xF)
    assert math.isfinite(fermi_surface(math.nextafter(2.0**50, 0.0)).yF)


def test_region_boundaries_refuse_non_finite_and_huge_frequencies():
    fs = fermi_surface(1.5)
    for a in (-0.1, math.nan, math.inf, 1e300, 2.0**50):
        with pytest.raises(ValueError, match=r"below 2\*\*50"):
            region_boundaries(fs, a)
    curves = region_boundaries(fs, math.nextafter(2.0**50, 0.0))
    assert curves and all(map(math.isfinite, curves.values()))
