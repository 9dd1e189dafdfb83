import math
import random

import pytest

from relegas import (
    InvalidPointError,
    KinematicPoint,
    MediumState,
    SubregionBoundaryError,
    derive_point,
    fermi_surface,
    scalars_at,
)
from relegas.medium_zero_t import (
    _complex_branch_pieces,
    _real_branch_pieces,
    _z_coefficients,
    integrals_Ij,
    scalars_zero_t,
)
from relegas.numerics import integrate_adaptive
from conftest import biquadratic, complex_rel_err, draw_valid_point, per_node, rel_err

def _state(xf: float) -> MediumState:
    return MediumState(t=0.0, xi=xf)


def test_coefficients_exact_fractions():
    p = derive_point(0.5, 1.0)
    m_b, n_b, m_d, n_d, c_b, c_d = _z_coefficients(p.a * p.a, p.b * p.b, p.c2, p.gamma2, p.d2)
    assert rel_err(m_b, -305.0 / 72.0) < 1e-14
    assert rel_err(n_b, 625.0 / 144.0) < 1e-14
    assert rel_err(m_d, 3.75) < 1e-14
    assert rel_err(n_d, -625.0 / 144.0) < 1e-14
    assert c_b == 1.0 / 3.0
    assert c_d == 0.5 * (1.0 - 1.5)
    frak_a, frak_b, frak_c = biquadratic(p)
    assert rel_err(frak_a, 25.0 / 144.0) < 1e-13
    assert rel_err(frak_b, -253.0 / 72.0) < 1e-14
    assert rel_err(frak_c, 625.0 / 144.0) < 1e-14


def test_coefficient_identities():
    # discriminant of the biquadratic collapses to 16 a^2 b^2 gamma2
    rng = random.Random(314)
    branches = set()
    for _ in range(300):
        p = draw_valid_point(rng)
        frak_a, frak_b, frak_c = biquadratic(p)
        disc = frak_b**2 - 4.0 * frak_a * frak_c
        want = 16.0 * (p.a * p.b) ** 2 * p.gamma2
        scale = max(abs(disc), abs(want), frak_b**2)
        assert abs(disc - want) <= 1e-9 * scale
        # root midpoint
        mid = -frak_b / (2.0 * frak_c)
        direct = (p.d2 * (p.d2 + 1.0) - 2.0 * p.a**2) / (p.d2 * p.d2)
        assert abs(mid - direct) <= 1e-12 * max(1.0, abs(direct))
        # the library's branch pieces share the denominator's leading
        # coefficient and its roots: their mean squared root is the
        # midpoint on the real branch, and the complex pair's squared
        # modulus is sqrt(fA/fC)
        if p.gamma2 >= 0.0:
            *_, s_bar, got_c = _real_branch_pieces(p.a, p.b, p.gamma2, p.d2, 0.5)
            assert rel_err(s_bar, mid) <= 1e-12
        else:
            *_, m2, got_c = _complex_branch_pieces(p.a, p.b, p.gamma2, p.d2, 0.5)
            assert rel_err(m2, math.sqrt(frak_a / frak_c)) <= 1e-12
        assert got_c == frak_c
        branches.add(p.gamma2 >= 0.0)
    assert branches == {True, False}


FROZEN_IJ = {
    (0.5, 1.0, 3.0): (-0.250261365992621, -0.4387838502189866),
    (2.0, 1.0, 2.5): (-0.1867214679435258, -0.2755643928970494),
    (0.9, 0.7, 2.0): (0.29178829680648083, 0.10093892959812006),
    (0.3, 0.25, 1.5): (0.0994909816566926, 0.023508852144106255),
}


def test_frozen_master_integrals():
    for (a, b, xf), (want0, want2) in FROZEN_IJ.items():
        i0, i2 = integrals_Ij(derive_point(a, b), fermi_surface(xf))
        assert rel_err(i0, want0) < 1e-11
        assert rel_err(i2, want2) < 1e-11


def test_master_integrals_match_quadrature_when_pole_free():
    # direct quadrature of t^j/(fC t^4 + fB t^2 + fA) is legitimate only
    # when no denominator root lies inside (0, t_F): the complex branch,
    # or a real-branch point whose window misses the sea entirely.  At
    # a = 0 the two roots coincide at t0 = b/sqrt(1 + b**2), above t_F
    # here; d_g's weight in Z vanishes there, so the scalars hardly see
    # its limit and this test does
    cases = [(0.5, 1.0, 1.02), (0.9, 0.7, 2.0), (0.3, 0.25, 1.5),
             (0.0, 0.3, 1.02), (0.0, 1.0, 1.3), (0.0, 2.0, 1.2)]
    for a, b, xf in cases:
        p = derive_point(a, b)
        fs = fermi_surface(xf)
        frak_a, frak_b, frak_c = biquadratic(p)
        t_fermi = fs.yF / fs.xF

        def den(t: float) -> float:
            return frak_c * t**4 + frak_b * t**2 + frak_a

        q0 = integrate_adaptive(per_node(lambda t: 1.0 / den(t)), 0.0, t_fermi, rel_tol=1e-12)
        q2 = integrate_adaptive(per_node(lambda t: t * t / den(t)), 0.0, t_fermi, rel_tol=1e-12)
        i0, i2 = integrals_Ij(p, fs)
        assert rel_err(i0, q0.value) < 1e-8
        assert rel_err(i2, q2.value) < 1e-8


def test_master_integrals_even_in_frequency():
    p = derive_point(0.5, 1.0)
    mirrored = KinematicPoint(a=-p.a, b=p.b, c2=p.c2, gamma2=p.gamma2, d2=p.d2)
    fs = fermi_surface(3.0)
    i0, i2 = integrals_Ij(p, fs)
    j0, j2 = integrals_Ij(mirrored, fs)
    assert rel_err(i0, j0) < 5e-12
    assert rel_err(i2, j2) < 5e-12


def test_master_integrals_empty_sea():
    assert integrals_Ij(derive_point(0.5, 1.0), fermi_surface(1.0)) == (0.0, 0.0)


# frozen values: (a, b, xF) -> (B, D) with alpha = 1/137.036 and no vacuum
# term, computed once from these closed forms and verified against the
# finite-T quadrature path with a step occupation
FROZEN_BD = {
    (0.5, 1.0, 3.0): (
        complex(0.014871462960141527, 0.007769714766724588),
        complex(0.009459443750663021, -0.00060811271004213),
    ),
    (0.5, 1.0, 1.2): (
        complex(0.0004757228944825328, 0.0006740727938762495),
        complex(0.00019542509202843063, -0.00010488409879402337),
    ),
    (2.0, 1.0, 3.0): (
        complex(0.0007724264583034103, 0.0007723674755503665),
        complex(-0.0038303327831087967, -0.0034756536399766502),
    ),
    (2.0, 1.0, 2.5): (
        complex(0.00031068056562813794, 0.0006649020632111596),
        complex(-0.001679856508719841, -0.0028020240625620525),
    ),
    (0.5, 1.0, 1.02): (
        complex(3.225754822262604e-05, 0.0),
        complex(2.3266091832318586e-06, 0.0),
    ),
    (0.9, 0.7, 2.0): (
        complex(0.006113247887488691, 0.0),
        complex(-0.009644238828471909, 0.0),
    ),
    (0.3, 0.25, 1.5): (
        complex(0.024345333274932587, 0.0),
        complex(-0.03424284536031867, 0.0),
    ),
    (0.0, 0.4, 1.5): (
        complex(0.021917637813987555, 0.0),
        complex(0.009596626673099514, 0.0),
    ),
}


def test_frozen_scalar_values():
    for (a, b, xf), (want_b, want_d) in FROZEN_BD.items():
        p = derive_point(a, b)
        got = scalars_zero_t(p, _state(xf), include_vacuum=False)
        assert rel_err(got.B.real, want_b.real) < 5e-11
        assert rel_err(got.D.real, want_d.real) < 5e-11
        if want_b.imag == 0.0:
            assert got.B.imag == 0.0
            assert got.D.imag == 0.0
        else:
            assert rel_err(got.B.imag, want_b.imag) < 1e-10
            assert rel_err(got.D.imag, want_d.imag) < 1e-10


def test_near_pair_threshold_values():
    # c2 = 1 +- 1e-6: the absorptive parts must switch on continuously
    above = scalars_zero_t(derive_point(1.118034435963401, 0.5), _state(1.6), include_vacuum=False)
    below = scalars_zero_t(derive_point(1.11803354153621, 0.5), _state(1.6), include_vacuum=False)
    assert complex_rel_err(above.B, complex(0.0007005179212749196, 9.121673927276871e-07)) < 2e-6
    assert complex_rel_err(above.D, complex(-0.00440232310507689, -5.473009829370478e-06)) < 2e-6
    assert complex_rel_err(below.B, complex(0.000699609341037755, 0.0)) < 2e-6
    assert complex_rel_err(below.D, complex(-0.004396863872155405, 0.0)) < 2e-6
    assert below.B.imag == 0.0
    assert above.B.imag > 0.0


def test_im_bracket_identity():
    # at (0.5, 1.0, xF = 3) the cubic bracket evaluates to a known constant
    p = derive_point(0.5, 1.0)
    ms = _state(3.0)
    got = scalars_zero_t(p, ms).B.imag
    want = -ms.e2 / (48.0 * math.pi * p.b * p.c2) * 9.5825756949558398
    assert rel_err(got, want) < 1e-12


def test_im_window_length_rule():
    p = derive_point(2.0, 1.0)
    ms = _state(2.5)
    got = scalars_zero_t(p, ms).D.imag
    g = math.sqrt(p.gamma2)
    length = 2.5 - (p.a - p.b * g)  # straddling window, cut off at xF
    want = -ms.e2 * (1.0 + 2.0 * p.c2) / (32.0 * math.pi * p.b * p.c2) * length
    assert rel_err(got, want) < 1e-13


def test_im_zero_without_window_overlap():
    s = scalars_zero_t(derive_point(0.5, 1.0), _state(1.02))
    assert s.B.imag == 0.0
    assert s.D.imag == 0.0
    assert scalars_zero_t(derive_point(0.9, 0.7), _state(2.0)).B.imag == 0.0


def test_continuity_across_contained_straddling_boundary():
    p = derive_point(0.5, 1.0)
    upper = p.a + p.b * math.sqrt(p.gamma2)
    lo = scalars_zero_t(p, _state(upper - 1e-7), include_vacuum=False)
    hi = scalars_zero_t(p, _state(upper + 1e-7), include_vacuum=False)
    assert abs(lo.B - hi.B) < 1e-6 * max(1.0, abs(hi.B))
    assert abs(lo.D - hi.D) < 1e-6 * max(1.0, abs(hi.D))


def test_fermi_surface_on_window_edge_is_rejected():
    p = derive_point(0.5, 1.0)
    upper = p.a + p.b * math.sqrt(p.gamma2)
    with pytest.raises(SubregionBoundaryError, match="Fermi"):
        scalars_zero_t(p, _state(upper))


def test_small_point_off_every_boundary_is_evaluated():
    # at (a, b) ~ 1e-4 the four factors of the guard's products are
    # ~1e-8 and the products ~1e-15; a tolerance floored at 1e-14 refused
    # this point, whose window lies 2e-4 above xF.  The closed forms match
    # the step-occupation quadrature as criterion 1 does
    from relegas.medium_finite_t import im_scalars, re_scalars

    ms = _state(1.069)
    p, region, _, s = scalars_at(3.997667802843955e-05, 0.00011292377170355206, ms, False)
    assert region.value == "I"
    re_b, re_d = re_scalars(p, ms)
    assert rel_err(s.B.real, re_b) < 1e-6 and rel_err(s.D.real, re_d) < 1e-6
    assert (s.B.imag, s.D.imag) == im_scalars(p, ms) == (0.0, 0.0)


def test_fermi_logs_are_the_public_kernels_bit_for_bit(monkeypatch):
    # the guarded Fermi-surface logs take their logs from the guard's own
    # products, through the _factor_logs that _log_kernels calls: their
    # bits are r1(xF, p) and r2(xF, p) on 1,200 seeded points, in all three
    # regions and at a = 0, and each log takes its fallback (q <= -1/2, a
    # log of |ratio| in place of log1p) on at least 50 of them and its
    # log1p on at least 50
    from relegas import medium_finite_t
    from relegas.medium_finite_t import r1, r2
    from relegas.medium_zero_t import _fermi_logs

    taken: list[str] = []

    def recorded(name, fn):
        def wrapper(v):
            taken.append(name)
            return fn(v)

        return wrapper

    rng = random.Random(1717)
    n_points = 0
    n_fallback = [0, 0]
    while n_points < 1200:
        p = draw_valid_point(rng) if n_points % 100 else derive_point(0.0, rng.uniform(0.01, 3.0))
        fs = fermi_surface(rng.uniform(1.0, 4.0))
        taken.clear()
        with monkeypatch.context() as m:
            m.setattr(medium_finite_t, "log", recorded("log", math.log))
            m.setattr(medium_finite_t, "log1p", recorded("log1p", math.log1p))
            try:
                got = _fermi_logs(p, fs.xF, fs.yF)
            except SubregionBoundaryError:
                continue
        assert repr(got) == repr((r1(fs.xF, p), r2(fs.xF, p))), (p, fs)
        # r1's log is taken first, then r2's
        assert len(taken) == 2
        for i, name in enumerate(taken):
            n_fallback[i] += name == "log"
        n_points += 1
    assert min(n_fallback) >= 50 and max(n_fallback) <= n_points - 50, n_fallback


# 40-digit (Re B, Re D) at t = 0 without the vacuum term, (a, b, xF) ->
# values, from the step occupation integrated over [1, xF] by
# make_finite_t_reference.py --zero-t: a cell next to the light cone, then
# 14 seeded cells in regions I and II with b in [1e-4, 6e-3]
ZERO_T_REFERENCE = {
    (0.000111, 0.0001, 1.001): (24.234400840055482, -32.65224093945832),
    (1.152458238279346e-05, 0.00032001081901461694, 1.0078476893689234): (2626.0145876032766, 1314.9250644341532),
    (0.019275459002545774, 0.0005115607563040978, 1.0010516113027375): (1.4169381890947055e-07, -0.0003016859136514605),
    (5.54334280124343e-05, 0.00028309897630824895, 1.0256073870237616): (-1549.2842969935282, -562.8680299580778),
    (0.006453470674443304, 0.004066445490293264, 1.0170988341556628): (0.07771781127598593, -0.2537095405093043),
    (1.3286508591597088e-05, 0.00031929101763749875, 1.0126540093868444): (3425.1192151824584, 1715.8304074376354),
    (0.0033559570065757956, 0.0017515736294866308, 1.017685551358233): (0.17145551034242412, -0.8560050254796898),
    (0.0008773644525921538, 0.001112607648849475, 1.0019650626563166): (-0.6575024884563402, 0.28350474486805083),
    (0.003029413172498814, 0.0007420937004661157, 1.0453846522690176): (0.14616292208881368, -3.575604626248672),
    (0.00048005420012590234, 0.0007124664275593445, 1.0043586649466083): (-5.060960290392154, 0.8983817829956184),
    (0.7466351428975632, 0.0017245804596118467, 1.0095745016528281): (4.3642449304384024e-11, -1.227013938363672e-05),
    (5.2189547607603114e-05, 0.00026321350989078724, 1.024603035157991): (-3127.2566495349715, -1300.1058108444822),
    (0.023627043248514674, 0.0026994107796349687, 1.0015967089147753): (3.3109921658900694e-06, -0.0003788188574067543),
    (7.102516019533697e-05, 0.00013700817537311806, 1.0029774944935164): (-97.67843117078445, -9.697102397236462),
    (0.003994185650802702, 0.003049810515066205, 1.0068416392538866): (0.10895173485758919, -0.22524111256320392),
}


def test_zero_t_closed_forms_match_the_high_precision_reference():
    # at b <= 6e-3 the Fermi-surface logs are O(b) and the closed forms
    # divide them by b, so they need the kernels' relative accuracy; the
    # worst cell, (0.747, 1.7e-3) at xF = 1.0096, misses by 6.5e-8 where
    # Re B ~ 4e-11 is what is left of O(1) terms (ROADMAP item 3)
    assert len(ZERO_T_REFERENCE) >= 12
    for (a, b, xf), want in ZERO_T_REFERENCE.items():
        s = scalars_at(a, b, _state(xf), include_vacuum=False)[3]
        for got, w in zip((s.B.real, s.D.real), want):
            assert rel_err(got, w) <= 1.3e-7, (a, b, xf, got, w)


def test_empty_sea_gives_zero():
    s = scalars_zero_t(derive_point(0.5, 1.0), MediumState(t=0.0, xi=1.0))
    assert s.B.real == 0.0
    assert s.D.real == 0.0


def test_static_limit_continuity():
    # a -> 0 switches to the coincident-root evaluation; it must agree
    # with the generic path just off the limit
    at_zero = scalars_zero_t(derive_point(0.0, 0.4), _state(1.5))
    near_zero = scalars_zero_t(derive_point(1e-9, 0.4), _state(1.5))
    assert rel_err(at_zero.B.real, near_zero.B.real) < 1e-7
    assert rel_err(at_zero.D.real, near_zero.D.real) < 1e-7


def test_scalar_assembly():
    p = derive_point(0.5, 1.0)
    ms = _state(3.0)
    s = scalars_zero_t(p, ms, include_vacuum=False)
    assert s.C == 0.0
    want_a = s.D + (1.0 + 3.0 * p.c2 / (2.0 * p.b**2)) * s.B
    assert s.A == want_a
    s_vac = scalars_zero_t(p, ms, include_vacuum=True)
    assert s_vac.C != 0.0
    assert s_vac.B == s.B


def test_rejects_pair_threshold_input():
    # a hand-built point sitting on c2 = 1 must be refused, not evaluated
    p = KinematicPoint(a=1.1, b=0.458257569495584, c2=1.0, gamma2=0.0, d2=1.21)
    with pytest.raises(InvalidPointError):
        scalars_zero_t(p, _state(1.5))


# sha256 of the repr of tensors_at over _bit_pin_points(), one line each;
# a change that moves any t = 0 bit must change it on purpose
TENSORS_AT_DIGEST = "e2bfe00b801670bee876df73249a4eab41b7338b026648245558cb1bbf56b2b2"


def _bit_pin_points() -> list[tuple[float, float, float]]:
    """(a, b, xF) at t = 0: 40 in each of the subregions A-D, 30 with no
    absorption in each of regions I and III, 50 in region II (the complex
    root branch of Z; the others take the real one) and 30 at a = 0."""
    from relegas import classify_region, zero_t_subregion

    want = {"A": 40, "B": 40, "C": 40, "D": 40, "NONE-I": 30, "NONE-III": 30, "II": 50}
    want["a=0"] = 30
    got = dict.fromkeys(want, 0)
    points = []
    rng = random.Random(1818)
    while got != want:
        kind = rng.randrange(3)
        if kind == 0:  # regions I and II
            a, b = rng.uniform(0.0, 2.0), rng.uniform(0.01, 3.0)
        elif kind == 1:  # region III
            a = rng.uniform(1.0, 4.0)
            b = rng.uniform(0.01, a)
        else:
            a, b = 0.0, rng.uniform(0.01, 3.0)
        xf = rng.uniform(1.0, 5.0)
        try:
            p = derive_point(a, b)
            region = classify_region(p)
            label = zero_t_subregion(p, fermi_surface(xf), region).label
            scalars_zero_t(p, _state(xf))
        except (InvalidPointError, SubregionBoundaryError):
            continue
        key = "a=0" if a == 0.0 else "II" if region.value == "II" else label
        if key == "NONE":
            key = f"NONE-{region.value}"
        if got[key] < want[key]:
            got[key] += 1
            points.append((a, b, xf))
    return points


def test_zero_t_bits_are_pinned():
    # scalars_zero_t gives scalars_at's bits (repr tells -0.0 from 0.0),
    # and tensors_at gives the pinned bits
    import hashlib

    from relegas import tensors_at

    points = _bit_pin_points()
    assert len(points) >= 300
    lines = []
    for a, b, xf in points:
        ms = _state(xf)
        p, _, _, s = scalars_at(a, b, ms)
        assert repr(scalars_zero_t(p, ms)) == repr(s)
        lines.append(repr(tensors_at(a, b, ms)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TENSORS_AT_DIGEST
