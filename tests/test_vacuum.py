import math
import random

import pytest

from relegas import InvalidPointError, LightConeError, MediumState, PairThresholdError
from relegas.vacuum import c_star
from conftest import rel_err

MS = MediumState(t=0.0, xi=1.5)

# frozen values computed once with mpmath at 50 digits from the
# subtracted one-loop dispersion integral
REAL_TABLE = {
    -5.0: -0.0012223842209607581,
    -0.75: -0.00035960480710401185,
    -0.05: -3.0326280843530805e-05,
    -0.001: -6.191532121907987e-07,
    0.001: 6.196841425653721e-07,
    0.05: 3.165494890477738e-05,
    0.3: 0.0002150855296634802,
    0.9: 0.001147837530443669,
    0.999: 0.0019523510668192899,
    # next to the switch at |c2| = 0.05, from the 100-digit closed form of
    # tests/make_vacuum_reference.py: the closed form's own roundoff reaches
    # ~1e-13 relative here, so these pin its branch as it stands
    -0.1: -5.943452303310007e-05,
    -0.07: -4.2110026729780236e-05,
    -0.0501: -3.038567846907659e-05,
    0.0501: 3.17196719225773e-05,
    0.07: 4.4716749616090816e-05,
    0.1: 6.476540039719257e-05,
}

COMPLEX_TABLE = {
    1.001: (0.0020616344014101314, 0.00011528522405850347),
    1.5: (0.001021683363913387, 0.0018725015298157687),
    2.0: (0.00047122540044252075, 0.0021500031049825944),
    10.0: (-0.0014371329468294766, 0.0024230067596666557),
}


# the series branch |c2| <= 0.05: 50/70-digit mpmath quadratures of the
# one-loop integral, printed by tests/make_vacuum_reference.py
SERIES_REFERENCE = {
    -0.05: -3.0326280843530805e-05,
    -0.03667781255571899: -2.2369369312927955e-05,
    -0.002475034464821489: -1.5314583815774719e-06,
    -0.0017692727614431038: -1.0950901934260243e-06,
    -0.0010742376417756019: -6.650965420164533e-07,
    -0.0007831749664492959: -4.849503277329655e-07,
    -0.00038903378769435213: -2.4093456486913464e-07,
    -0.00010623957190185973: -6.580376232480347e-08,
    -2.7574495124904337e-05: -1.7079951118004143e-08,
    -2.6833974356039928e-05: -1.662126953476563e-08,
    -1.0285472223299496e-05: -6.3709838991007276e-09,
    -1.9067468082284938e-06: -1.1810733209463623e-09,
    -4.048659009598368e-07: -2.50781393683404e-10,
    -2.5602872862381556e-07: -1.5858891877695927e-10,
    -6.280302118528624e-08: -3.890135339117134e-11,
    -5.518496658201461e-08: -3.4182589521646015e-11,
    -4.870361333992655e-08: -3.016791946715884e-11,
    -1e-08: -6.194185174107154e-12,
    1e-08: 6.1941852272001695e-12,
    3.245373816812928e-08: 2.0102446746291332e-11,
    3.131674006683068e-07: 1.939817138898597e-10,
    4.840371974406763e-07: 2.998216666916558e-10,
    2.324545069876218e-05: 1.4398806116371357e-08,
    4.674901923452701e-05: 2.8957788491011644e-08,
    5.3502268128757644e-05: 3.314105566040109e-08,
    5.4243090531323603e-05: 3.3599955967113796e-08,
    8.493477831389827e-05: 5.2612089824606645e-08,
    0.00013017753775352084: 8.063887675014289e-08,
    0.00035580016754939144: 2.2042282653228593e-07,
    0.0013982393124227633: 8.666147597046314e-07,
    0.002871248689497974: 1.7806968574520946e-06,
    0.002961145881021942: 1.8365203921305225e-06,
    0.005769233815139604: 3.582436354080667e-06,
    0.016806168179136553: 1.0485787118498474e-05,
    0.04973548866891211: 3.148377722186343e-05,
    0.05: 3.165494890477738e-05,
}


def test_frozen_values_below_threshold():
    for c2, want in REAL_TABLE.items():
        got = c_star(c2, MS)
        assert rel_err(got.value.real, want) < 1e-12
        assert got.value.imag == 0.0


def test_frozen_values_above_threshold():
    for c2, (wr, wi) in COMPLEX_TABLE.items():
        got = c_star(c2, MS)
        assert rel_err(got.value.real, wr) < 1e-12
        assert rel_err(got.value.imag, wi) < 1e-12
        assert got.value.imag > 0.0


def test_branch_labels():
    assert c_star(-2.0, MS).branch == "spacelike"
    assert c_star(0.5, MS).branch == "subthreshold"
    assert c_star(3.0, MS).branch == "above_threshold"


def test_series_matches_closed_form_at_switchover():
    # the small-|c2| series hands over to the closed form at |c2| = 0.05;
    # the jump there is closed-form roundoff (the h*atan/h*atanh brackets
    # lose ~7 digits to cancellation at small |c2|)
    for c2 in (0.05, -0.05):
        inside = c_star(c2 * (1.0 - 1e-9), MS).value.real
        outside = c_star(c2 * (1.0 + 1e-9), MS).value.real
        assert rel_err(inside, outside) < 1e-7


def test_zero_argument_limit():
    # smallest arguments the light-cone cut admits
    assert abs(c_star(1e-8, MS).value) < 1e-10
    assert abs(c_star(-1e-8, MS).value) < 1e-10
    with pytest.raises(LightConeError):
        c_star(1e-12, MS)


def test_monotone_on_spacelike_side():
    rng = random.Random(5)
    pts = sorted(-(10.0 ** rng.uniform(-3, 1.5)) for _ in range(40))
    vals = [c_star(c2, MS).value.real for c2 in pts]
    for lo, hi in zip(vals, vals[1:]):
        assert lo < hi  # increases toward c2 -> 0^-
    assert all(v < 0.0 for v in vals)


def test_threshold_limit():
    want = 2.0 * MS.e2 / (9.0 * math.pi**2)
    assert rel_err(c_star(1.0 - 1e-10, MS).value.real, want) < 1e-4


def test_cut_arguments_rejected():
    with pytest.raises(LightConeError):
        c_star(0.0, MS)
    with pytest.raises(PairThresholdError):
        c_star(1.0, MS)


def test_huge_arguments_refused():
    # from |c2| ~ 4.5e15 on, k = sqrt(1 - 1/c2) rounds to 1 and the closed
    # form divides by k - 1 = 0 (or takes atanh(1)): refuse |c2| >= 2**50
    for c2 in (1e16, -1e16, 1e17, -1e17):
        with pytest.raises(InvalidPointError, match="too large"):
            c_star(c2, MS)
    for c2 in (0.99 * 2.0**50, -0.99 * 2.0**50):
        got = c_star(c2, MS).value
        assert math.isfinite(got.real) and math.isfinite(got.imag)


def test_linear_in_coupling():
    weak = c_star(0.3, MediumState(t=0.0, xi=1.5, alpha=0.01))
    strong = c_star(0.3, MediumState(t=0.0, xi=1.5, alpha=0.02))
    assert strong.value.real / weak.value.real == 2.0


def test_series_matches_the_high_precision_reference():
    # 36 points of the series branch, seeded in +-[1e-8, 0.05] and its ends;
    # the worst error measured is 3.3e-16
    assert len(SERIES_REFERENCE) >= 24
    worst = 0.0
    for c2, want in SERIES_REFERENCE.items():
        got = c_star(c2, MS)
        assert rel_err(got.value.real, want) <= 1e-14, c2
        assert got.value.imag == 0.0
        worst = max(worst, rel_err(got.value.real, want))
    assert worst <= 1e-15


def test_series_coefficients_are_the_exact_rationals():
    # the bracket is sum over k >= 1 of (-1)**k 4 (k + 2)/((2k + 1)(2k + 3)) s**k;
    # each literal of the degree-15 polynomial is the float of its rational,
    # and at the switch's |s| = 0.05/0.95 the first omitted term is below
    # 2**-60 of the leading one
    from fractions import Fraction

    from relegas.vacuum import _SERIES, _SERIES_SWITCH, _bracket_series

    def coefficient(k: int) -> Fraction:
        return Fraction((-1) ** k * 4 * (k + 2), (2 * k + 1) * (2 * k + 3))

    assert len(_SERIES) == 15
    for k, literal in enumerate(_SERIES, start=1):
        assert literal == float(coefficient(k)), k
    s = Fraction(_SERIES_SWITCH) / (1 - Fraction(_SERIES_SWITCH))
    assert abs(coefficient(16) * s**16) < Fraction(1, 2**60) * abs(coefficient(1) * s)
    # far outside the branch every term weighs (the last is 12 % of the
    # value at s = 1): the polynomial evaluated is the one of all 15 literals
    for c2 in (0.5, -1.0):
        s = Fraction(c2) / (1 - Fraction(c2))
        want = float(sum(coefficient(k) * s**k for k in range(1, 16)))
        assert rel_err(_bracket_series(c2), want) <= 1e-15, c2
