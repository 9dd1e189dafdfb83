import json
import math
import random
from pathlib import Path

import pytest

from relegas import (
    InternalConsistencyError,
    InvalidPointError,
    MediumState,
    RootSample,
    SubregionBoundaryError,
    assemble,
    c_star,
    dispersion,
    metamaterial_scan,
    plasma_frequency_estimate,
    scalars_at,
    tensors_at,
    x_cutoff,
)
from relegas import medium_finite_t, responses
from relegas.kinematics import LIGHT_CONE_CUT, PAIR_THRESHOLD_CUT
from relegas.numerics import (
    PANEL_BUDGET,
    find_root_bracketed,
    integrate_adaptive,
    scan_sign_changes,
)
from relegas.responses import _extrapolate_to_zero_b, evaluate_cell
from conftest import draw_valid_point, rel_err

COLD = MediumState(t=0.0, xi=1.2)


def test_tensor_identities_cold():
    rng = random.Random(2718)
    ms = MediumState(t=0.0, xi=1.5)
    n = 0
    while n < 100:
        p = draw_valid_point(rng)
        try:
            _, _, _, tens = tensors_at(p.a, p.b, ms)
        except ValueError:
            continue
        scale = max(1.0, abs(tens.eps_prime))
        assert abs(tens.eps_prime + tens.nu_prime) <= 1e-14 * scale
        assert abs(tens.tau - tens.sigma) <= 1e-14 * max(1.0, abs(tens.tau))
        n += 1


def test_tensor_identities_warm():
    ms = MediumState(t=0.1, xi=1.1)
    for a, b in ((0.5, 1.0), (2.0, 1.0), (0.9, 0.7), (0.3, 0.25)):
        _, _, _, tens = tensors_at(a, b, ms)
        assert abs(tens.eps_prime + tens.nu_prime) <= 1e-14 * max(1.0, abs(tens.eps_prime))
        assert abs(tens.tau - tens.sigma) <= 1e-14 * max(1.0, abs(tens.tau))


def test_longitudinal_composition():
    # eps_L = 1 + C - (c2/b2) B, checked against independently frozen parts
    ms = MediumState(t=0.0, xi=3.0)
    _, _, _, tens = tensors_at(0.5, 1.0, ms)
    want = 1.0 + c_star(-0.75, ms).value - (-0.75) * complex(
        0.014871462960141515, 0.007769714766724586
    )
    assert abs(tens.eps_L - want) <= 1e-9 * abs(want)


def test_scalars_at_dispatch():
    # degenerate states use the closed forms, warm states the quadratures
    from relegas import (
        ResponseScalars,
        classify_region,
        derive_point,
        im_scalars,
        re_scalars,
        scalars_zero_t,
        zero_t_subregion,
    )

    def scalars_warm(p, ms):
        # the two public quadrature halves, joined as scalars_at joins its pass
        parts = re_scalars(p, ms) + im_scalars(p, ms)
        return ResponseScalars(*medium_finite_t._scalars(p, ms, parts, True))

    p = derive_point(0.5, 1.0)
    cold = MediumState(t=0.0, xi=1.5)
    _, _, _, got = scalars_at(0.5, 1.0, cold)
    want = scalars_zero_t(p, cold)
    assert got == want

    warm = MediumState(t=0.1, xi=1.5)
    _, _, _, got_w = scalars_at(0.5, 1.0, warm)
    want_w = scalars_warm(p, warm)
    assert got_w.B == want_w.B

    # the one-pass path classifies and evaluates exactly as the public parts
    rng = random.Random(4242)
    for i in range(300):
        p = draw_valid_point(rng)
        ms = MediumState(t=0.0, xi=rng.uniform(1.0, 3.0)) if i % 20 else warm
        got_p, region, sub, got = scalars_at(p.a, p.b, ms)
        assert got_p == p
        assert region is classify_region(p)
        if not ms.is_degenerate:
            assert sub is None
            assert got == scalars_warm(p, ms)
            continue
        assert sub == zero_t_subregion(p, ms.fermi_surface)
        assert got == scalars_zero_t(p, ms)


def test_public_records_agree_with_the_private_path():
    # scalars_at, tensors_at and evaluate_cell share one evaluation of
    # plain tuples; the records they return carry its bits, and the one
    # scalar builder, _scalars, rebuilds them from the four parts
    from relegas import GridCell, ResponseScalars, ResponseTensors, RegionLabel

    rng = random.Random(2424)
    regions = {"I": RegionLabel.I, "II": RegionLabel.II, "III": RegionLabel.III}
    n_checked = 0
    for t, per_region in ((0.0, 30), (0.05, 2)):
        for name, region in regions.items():
            for _ in range(per_region):
                ms = MediumState(t=t, xi=rng.uniform(1.0, 3.0))
                b = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
                # c2 = a**2 - b**2 below 0, in (0, 1), or above 1
                c2 = {"I": -rng.uniform(1e-3, 1.0) * b * b,
                      "II": rng.uniform(1e-3, 0.999),
                      "III": rng.uniform(1.001, 4.0)}[name]
                a = math.sqrt(b * b + c2)
                for vac in (True, False):
                    try:
                        p, reg, sub, s = scalars_at(a, b, ms, include_vacuum=vac)
                    except SubregionBoundaryError:
                        continue
                    assert reg is region
                    _, _, sub_t, tens = tensors_at(a, b, ms, include_vacuum=vac)
                    assert type(s) is ResponseScalars and type(tens) is ResponseTensors
                    assert repr(sub_t) == repr(sub)
                    assert repr(assemble(s, p)) == repr(tens)
                    parts = (s.B.real, s.D.real, s.B.imag, s.D.imag)
                    private = medium_finite_t._scalars(p, ms, parts, vac)
                    rebuilt = ResponseScalars(*map(complex, private))
                    assert repr(rebuilt) == repr(s)
                    cell = evaluate_cell(a, b, ms, include_vacuum=vac)
                    assert type(cell) is GridCell
                    assert (cell.re_eps_L, cell.im_eps_L) == (tens.eps_L.real, tens.eps_L.imag)
                    assert (cell.re_nu_L, cell.im_nu_L) == (tens.nu_L.real, tens.nu_L.imag)
                    assert cell.region == name and cell.reason == ""
                    assert cell.subregion == ("" if sub is None else sub.label)
                    assert cell.metamaterial == (tens.eps_L.real < 0.0 and tens.nu_L.real < 0.0)
                    if t > 0.0:
                        assert sub is None
                    elif region is RegionLabel.II:
                        assert sub.label == "NONE"
                        assert math.isnan(sub.x_lower) and math.isnan(sub.x_upper)
                    n_checked += 1
    assert n_checked >= 180


# region II at t = 0 and at three temperatures, with and without the vacuum
FLOAT_PATH_STATES = (
    MediumState(t=0.0, xi=1.2),
    MediumState(t=1e-3, xi=1.2),
    MediumState(t=0.05, xi=1.2),
    MediumState(t=1.0, xi=-1.1),
)


def _region_two_points(rng, n, ms):
    # (a, b) in region II: every other one with c2 = a**2 - b**2 in
    # (0, 1) and b log-uniform in [1e-3, 2], the rest in the plasmon band,
    # a log-uniform in [a_e/4, 4 a_e] and b in (0, a)
    a_e = plasma_frequency_estimate(ms)
    for i in range(n):
        if i % 2:
            a = a_e * math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            yield a, a * rng.uniform(1e-3, 0.999)
        else:
            b = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            yield math.sqrt(b * b + rng.uniform(1e-3, 0.999)), b


def _is_plus_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


def test_region_two_is_built_on_floats():
    # in region II the private path's scalars and tensors are floats; the
    # public records wrap them once, into complex fields with +0.0
    # imaginary parts and the real parts' bits
    from relegas import ResponseScalars
    from relegas.medium_zero_t import scalars_zero_t

    rng = random.Random(3535)
    n_checked = 0
    for ms in FLOAT_PATH_STATES:
        for a, b in _region_two_points(rng, 12, ms):
            for vac in (True, False):
                p, region, _, s = responses._evaluate(a, b, ms, vac)
                assert region is responses.RegionLabel.II
                assert all(type(x) is float for x in s), (ms, a, b, vac, s)
                tens = responses._assemble(s, p)
                assert all(type(x) is float for x in tens)
                if not vac:
                    assert s[3] == 0.0
                public_s = scalars_at(a, b, ms, include_vacuum=vac)[3]
                public_t = tensors_at(a, b, ms, include_vacuum=vac)[3]
                records = [public_s, public_t, assemble(s, p)]
                if ms.is_degenerate:
                    records.append(scalars_zero_t(p, ms, include_vacuum=vac))
                for record in records:
                    assert all(type(z) is complex for z in record)
                    assert all(_is_plus_zero(z.imag) for z in record), (ms, a, b, record)
                assert repr(public_s) == repr(ResponseScalars(*map(complex, s)))
                assert repr([z.real for z in public_t]) == repr(list(tens))
                # complex arithmetic on the same scalars, as every point ran
                # before region II was built on floats, gives the same bits
                complex_path = responses._assemble(tuple(map(complex, s)), p)
                assert repr(tuple(public_t)) == repr(complex_path)
                assert repr(public_t) == repr(assemble(s, p))
                vacuum = c_star(p.c2, ms).value
                assert type(vacuum) is complex and _is_plus_zero(vacuum.imag)
                if vac:
                    assert vacuum.real == s[3]
                n_checked += 1
    assert n_checked == 96


def test_float_path_keeps_the_dual_path_check():
    # B (1 + 1e-9) with A unchanged moves nu + nu' by -2 a**2/b**2 dB and
    # nu_L by c2/b**2 dB: where |c2/b**2 B| is a tenth or more of nu_L's
    # summed terms (in region II 2|D| is the largest, near 1.5 |c2/b**2 B|
    # in the plasmon band), the mismatch is above 1e-10 max(1, |nu_L|),
    # and the check at 1e-12 must trip on floats as on complex.  A NaN in
    # any scalar trips it too
    rng = random.Random(3536)
    n_dominant = 0
    for ms in FLOAT_PATH_STATES:
        for a, b in _region_two_points(rng, 12, ms):
            for vac in (True, False):
                p, _, _, s = responses._evaluate(a, b, ms, vac)
                s_b, s_d, s_a, s_c = s
                c2_b2_b = abs(p.c2 / (b * b) * s_b)
                if c2_b2_b >= 0.1 * (1.0 + 2.0 * abs(s_c) + 2.0 * abs(s_d) + c2_b2_b):
                    n_dominant += 1
                    with pytest.raises(InternalConsistencyError, match="nu_L composition"):
                        responses._assemble((s_b * (1.0 + 1e-9), s_d, s_a, s_c), p)
                for i in range(4):
                    bad = list(s)
                    bad[i] = math.nan
                    with pytest.raises(InternalConsistencyError, match="composition"):
                        responses._assemble(bad, p)
    assert n_dominant >= 24


def test_region_one_cells_without_absorption_stay_complex():
    # a region-I cell whose window lies above the Fermi sea (subregion
    # NONE) has Im B = Im D = 0 too, but its tensors carry -0.0 imaginary
    # parts that the CLI prints; it keeps the complex path and those zeros
    rng = random.Random(3537)
    n_none = 0
    for _ in range(100):
        b = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
        a = b * math.sqrt(1.0 - rng.uniform(1e-3, 1.0))
        try:
            p, region, sub, s = responses._evaluate(a, b, COLD, True)
        except SubregionBoundaryError:
            continue
        assert region is responses.RegionLabel.I
        if sub.label != "NONE":
            continue
        assert (s[0].imag, s[1].imag) == (0.0, 0.0)
        assert all(type(x) is complex for x in s)
        tens = tensors_at(a, b, COLD)[3]
        assert repr(tuple(tens)) == repr(responses._assemble(s, p))
        signs = {name: math.copysign(1.0, z.imag) for name, z in zip(tens._fields, tens)}
        assert signs["eps_prime"] == signs["nu_prime"] == -1.0, (a, b, tens)
        n_none += 1
    assert n_none >= 30


def _cell_from_tensors_at(a, b, ms, include_vacuum):
    """The GridCell of (a, b) built from tensors_at, as evaluate_cell documents it."""
    from relegas import GridCell

    try:
        _, region, sub, tens = tensors_at(a, b, ms, include_vacuum=include_vacuum)
    except ValueError as exc:
        return GridCell(a, b, "", "", math.nan, math.nan, math.nan, math.nan, False, str(exc))
    eps_l, nu_l = tens.eps_L, tens.nu_L
    return GridCell(
        a, b, region.value, "" if sub is None else sub.label,
        eps_l.real, eps_l.imag, nu_l.real, nu_l.imag,
        eps_l.real < 0.0 and nu_l.real < 0.0, "",
    )


def test_evaluate_cell_matches_tensors_at_bit_for_bit():
    # evaluate_cell evaluates and assembles a cell itself, without
    # tensors_at; every field of every cell, the reason of a refused one
    # included, is the one built from tensors_at
    from collections import Counter

    from relegas import GridCell, derive_point

    rng = random.Random(3434)
    refusals = ("light cone", "pair-creation threshold", "too small", "too large", "Fermi surface")
    kinds: Counter = Counter()
    for t, n_draws in ((0.0, 44), (1e-3, 3), (0.05, 3), (1.0, 3)):
        for _ in range(n_draws):
            xi = rng.uniform(1.0, 3.0) if t == 0.0 else rng.choice((1.2, 0.0, -1.1))
            ms = MediumState(t=t, xi=xi)
            b = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            cells = [
                (math.sqrt(b * b + c2), b)
                for c2 in (
                    -rng.uniform(1e-3, 1.0) * b * b,
                    rng.uniform(1e-3, 0.999),
                    rng.uniform(1.001, 4.0),
                )
            ]
            # refused: the light cone, the pair threshold, a subnormal b**2
            # and |c2| >= 2**50
            cells += [(b, b), (math.sqrt(1.0 + b * b), b), (0.5, 1e-160), (1e150, 1e100)]
            for a, b_cell in cells:
                vac = rng.random() < 0.5
                cell = evaluate_cell(a, b_cell, ms, vac)
                want = _cell_from_tensors_at(a, b_cell, ms, vac)
                assert type(cell) is GridCell
                assert repr(cell) == repr(want), (a, b_cell, t, xi, vac)
                kinds[cell.region or next(r for r in refusals if r in cell.reason)] += 1
            if t == 0.0:
                # a subregion boundary: the window's top edge on the Fermi surface
                p = derive_point(*cells[0])
                ms_edge = MediumState(t=0.0, xi=p.a + p.b * math.sqrt(p.gamma2))
                cell = evaluate_cell(p.a, p.b, ms_edge)
                assert repr(cell) == repr(_cell_from_tensors_at(p.a, p.b, ms_edge, True))
                kinds[cell.region or next(r for r in refusals if r in cell.reason)] += 1
    # the t > 0 cell whose integrand returns NaN: its reason is str(exc)
    ms = MediumState(t=1.0, xi=0.0)
    assert repr(evaluate_cell(*NAN_CELL, ms)) == repr(_cell_from_tensors_at(*NAN_CELL, ms, True))
    assert sum(kinds.values()) >= 400
    for kind in ("I", "II", "III", *refusals):
        assert kinds[kind] >= 40, kinds


def test_one_classification_per_point(monkeypatch):
    # a t = 0 point classifies its region, builds its subregion and the
    # Fermi-surface logs once, and never calls the public r1 and r2
    # kernels; the logs form the four Fermi-surface factors once and take
    # both logs from their products, without _log_kernels; a t > 0 point
    # classifies its region once
    from collections import Counter

    from relegas import kinematics, medium_zero_t, responses

    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for home, name in (
        (kinematics, "classify_region"),
        (kinematics, "zero_t_subregion"),
        (medium_zero_t, "_fermi_logs"),
        (medium_finite_t, "r1"),
        (medium_finite_t, "r2"),
        (medium_finite_t, "_factor_logs"),
        (medium_finite_t, "_log_kernels"),
    ):
        wrapper = counted(name, getattr(home, name))
        for mod in (kinematics, medium_finite_t, medium_zero_t, responses):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)

    for a, b in ((0.5, 1.0), (0.5, 0.3), (2.0, 1.0)):
        calls.clear()
        tensors_at(a, b, COLD)
        assert calls["classify_region"] == 1
        assert calls["zero_t_subregion"] == 1
        assert calls["_fermi_logs"] == 1
        assert calls["_factor_logs"] == 1
        assert calls["_log_kernels"] == 0
        assert calls["r1"] == 0
        assert calls["r2"] == 0
    calls.clear()
    tensors_at(0.5, 1.0, MediumState(t=0.05, xi=1.2))
    assert calls["classify_region"] == 1


def test_empty_sea_is_transparent():
    # xF = 1 holds no electrons: without the vacuum term the gas is vacuum
    ms = MediumState(t=0.0, xi=1.0)
    _, _, _, tens = tensors_at(0.5, 1.0, ms, include_vacuum=False)
    assert tens.eps_L == 1.0
    assert tens.nu_L == 1.0
    assert tens.eps == 1.0


def test_vacuum_toggle():
    _, _, _, without = tensors_at(0.5, 1.0, COLD, include_vacuum=False)
    _, _, _, with_vac = tensors_at(0.5, 1.0, COLD, include_vacuum=True)
    c = c_star(-0.75, COLD).value
    assert abs((with_vac.eps_L - without.eps_L) - c) < 1e-12
    assert with_vac.eps_L != without.eps_L


def test_subregion_annotation():
    _, region, sub, _ = tensors_at(0.5, 1.0, MediumState(t=0.0, xi=3.0))
    assert region.value == "I"
    assert sub is not None and sub.label == "A"
    _, _, sub_warm, _ = tensors_at(0.5, 1.0, MediumState(t=0.1, xi=1.5))
    assert sub_warm is None


def test_plasma_frequency_estimate_frozen():
    got = plasma_frequency_estimate(MediumState(t=0.0, xi=1.2))
    assert rel_err(got, 0.013722902697010606) < 1e-12


@pytest.mark.parametrize(
    "t, xi, want",
    [
        (0.05, 1.2, 0.014228572325299106707),
        (0.3, 0.5, 0.0090620218240542073706),
        (1.0, 0.0, 0.043289358164043467566),
        (0.2, -1.1, 0.016485364550529822091),
        (1e-3, -1.5, 0.026858699678873389896),
        (1e-4, 1.2, 0.013722904602731855191),
    ],
)
def test_plasma_frequency_estimate_at_finite_t(t, xi, want):
    # a_e**2 = e2/(4 pi**2) * integral of n_F y (1 - y**2/(3 x**2)) dx,
    # against mpmath quadratures of that moment at 30 digits
    got = plasma_frequency_estimate(MediumState(t=t, xi=xi))
    assert rel_err(got, want) < 1e-12
    if t == 1e-4:
        # the moments reduce to the t = 0 closed forms
        cold = plasma_frequency_estimate(MediumState(t=0.0, xi=xi))
        assert rel_err(got, cold) < 1e-6
        warm_m = responses.plasma_moments(MediumState(t=t, xi=xi))
        cold_m = responses.plasma_moments(MediumState(t=0.0, xi=xi))
        assert all(rel_err(w, c) < 1e-6 for w, c in zip(warm_m, cold_m))


@pytest.mark.parametrize(
    "t, xi", [(1e-3, 0.0), (5.6e-18, 1.0), (1e-30, 1.0)],
    ids=["underflow", "cutoff-1-ulp-up", "cutoff-on-1"],
)
def test_empty_thermal_sea_has_no_plasmon(t, xi):
    # n_F <= 2 exp(-1000) underflows to 0 at every x >= 1, or no double
    # lies inside [1, x_cutoff]: the moments are those of the t = 0 empty
    # sea, and a branch searched in a window has no root
    ms = MediumState(t=t, xi=xi)
    assert responses.plasma_moments(ms) == (0.0, 0.0, 0.0)
    assert responses.plasma_moments(MediumState(t=0.0, xi=1.0)) == (0.0, 0.0, 0.0)
    assert plasma_frequency_estimate(ms) == 0.0
    for mode in ("longitudinal", "transverse"):
        branch = dispersion(mode, [1e-3], ms, (1e-3, 0.1))
        assert branch.samples == () and math.isnan(branch.plasma_frequency)


def _degenerate_states(rng, n):
    # alternately a tiny t at |xi| ~ 1, and t ~ 1e-4 at |xi| ~ 1e14: each
    # kind puts 40 t on both sides of half an ulp of |xi|, so some
    # cutoffs round onto |xi|; xi takes both signs
    for i in range(n):
        if i % 2 == 0:
            t = math.exp(rng.uniform(math.log(1e-22), math.log(1e-12)))
            axi = rng.uniform(1.05, 4.0)
        else:
            t = math.exp(rng.uniform(math.log(1e-4), math.log(1e-3)))
            axi = math.exp(rng.uniform(math.log(1e14), math.log(1e15)))
        yield MediumState(t=t, xi=axi if i % 4 < 2 else -axi)


def test_degenerate_limit_matches_zero_t():
    # far below the Fermi energy n_F is a step, and the finite-t
    # quadrature must give the t = 0 closed forms at xF = |xi|.  Where
    # the cutoff rounded onto |xi|, the Fermi edge was dropped from the
    # cuts and the tail map integrated the n_F ~ 1 plateau away, so the
    # medium response read 0 (worst error 1.0)
    rng = random.Random(3201)
    n_rounded = n_cells = 0
    worst = 0.0
    for warm in _degenerate_states(rng, 8):
        cold = MediumState(t=0.0, xi=abs(warm.xi))
        n_rounded += x_cutoff(warm) == abs(warm.xi)
        for _ in range(6):
            p = draw_valid_point(rng)
            want = tensors_at(p.a, p.b, cold)[3]
            got = tensors_at(p.a, p.b, warm)[3]
            for name in ("eps_L", "nu_L"):
                z, z0 = getattr(got, name), getattr(want, name)
                worst = max(worst, abs(z - z0) / max(1.0, abs(z0)))
            n_cells += 1
    assert n_cells == 48 and 0 < n_rounded < 8
    # measured 4e-13
    assert worst < 1e-8
    warm_m = responses.plasma_moments(MediumState(t=1e-18, xi=1.2))
    cold_m = responses.plasma_moments(MediumState(t=0.0, xi=1.2))
    assert all(rel_err(w, c) < 1e-8 for w, c in zip(warm_m, cold_m))


def test_zero_t_plasma_moments_match_quadrature():
    # the closed forms against a quadrature over p in [0, yF] of
    # p**2/E (1 - v**2/3) and p**2/E (5 v**2/3 - v**4)
    rng = random.Random(2828)
    for _ in range(40):
        xf = rng.uniform(1.02, 3.0)
        ms = MediumState(t=0.0, xi=xf)

        def moments(ps, ws):
            s_p = s_1 = 0.0
            for p, w in zip(ps, ws):
                e2 = 1.0 + p * p
                v2 = p * p / e2
                base = w * p * p / math.sqrt(e2)
                s_p += base * (1.0 - v2 / 3.0)
                s_1 += base * (5.0 * v2 / 3.0 - v2 * v2)
            return s_p, s_1

        res = integrate_adaptive(moments, 0.0, math.sqrt(xf * xf - 1.0), rel_tol=1e-14)
        assert res.converged
        omega_p = math.sqrt(ms.e2 / math.pi**2 * res.value[0])
        omega_1 = math.sqrt(ms.e2 / math.pi**2 * res.value[1])
        got = responses.plasma_moments(ms)
        for g, w in zip(got, (omega_p, omega_1, omega_1 / omega_p)):
            assert rel_err(g, w) < 1e-12, (xf, got)


def test_longitudinal_dispersion_root():
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    branch = dispersion("longitudinal", [1e-3], ms, (0.25 * a_e, 4.0 * a_e))
    assert branch.mode == "longitudinal"
    assert len(branch.samples) == 1
    s = branch.samples[0]
    assert rel_err(s.root_a, a_e) < 0.01
    assert abs(s.residual) < 1e-9
    assert abs(s.im_at_root) == 0.0  # plasmon below particle-hole continuum
    assert math.isnan(branch.plasma_frequency)  # needs three b values


def test_transverse_dispersion_crosses_light_cone_pole():
    # at b = 4e-3 the scan range straddles a = b where nu_L diverges;
    # the walk starts above the light-cone cut, so it never meets the pole
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    branch = dispersion("transverse", [4e-3], ms, (0.25 * a_e, 4.0 * a_e))
    assert len(branch.samples) == 1
    root = branch.samples[0].root_a
    assert root > 4e-3  # above the light cone
    assert rel_err(root, 0.014326596) < 1e-3


@pytest.mark.parametrize(
    "t, xi", [(0.0, 1.2), (0.0, 3.0), (0.05, 1.2), (1.0, 0.0), (0.2, -1.1), (1e-3, -1.5)]
)
def test_both_branches_answer_timelike_and_undamped(t, xi):
    # from b = 0.01 a_e to 3 a_e: the transverse branch has a root at
    # every b; the longitudinal one ends near the light cone.  A walk that
    # began below the light cone raised InternalConsistencyError on the
    # transverse branch in all six states and kept spacelike roots.
    ms = MediumState(t=t, xi=xi)
    a_e = plasma_frequency_estimate(ms)
    b_grid = [0.01 * a_e * 300.0 ** (i / 7) for i in range(8)]
    for mode in ("longitudinal", "transverse"):
        branch = dispersion(mode, b_grid, ms, (0.25 * a_e, 4.0 * a_e))
        assert all(s.root_a > s.b and s.im_at_root == 0.0 for s in branch.samples), mode
        if mode == "transverse":
            assert [s.b for s in branch.samples] == b_grid


# worst |a - a_BS|/a_BS over both branches at the b of
# test_both_branches_answer_timelike_and_undamped, about twice the
# measured: 7.6e-5, 7.4e-4, 2.2e-4, 6.1e-3, 6.6e-4 and 2.2e-4, the larger
# ones where the longitudinal branch nears the light cone
_BS_BOUNDS = {
    (0.0, 1.2): 1.5e-4,
    (0.0, 3.0): 1.5e-3,
    (0.05, 1.2): 4.5e-4,
    (1.0, 0.0): 1.2e-2,
    (0.2, -1.1): 1.3e-3,
    (1e-3, -1.5): 4.5e-4,
}


@pytest.mark.parametrize("t, xi", list(_BS_BOUNDS))
def test_roots_match_braaten_segel(t, xi):
    # every root of both branches against the Braaten-Segel root of its
    # b.  The roots lie above it by an offset that is O(a_e**2), which
    # Braaten-Segel leaves out: at b = 0.01 a_e between 0.12 and 0.41
    # a_e**2 relative in these states.  The offset is pinned, not
    # folded into the bounds
    ms = MediumState(t=t, xi=xi)
    moments = responses.plasma_moments(ms)
    a_e = plasma_frequency_estimate(ms)
    assert a_e == 0.5 * moments[0]
    b_grid = [0.01 * a_e * 300.0 ** (i / 7) for i in range(8)]
    for mode in ("longitudinal", "transverse"):
        branch = dispersion(mode, b_grid, ms, (0.25 * a_e, 4.0 * a_e))
        assert len(branch.samples) >= 6
        for s in branch.samples:
            a_bs = responses._bs_root(mode, s.b, moments)
            assert abs(s.root_a - a_bs) <= _BS_BOUNDS[t, xi] * a_bs, (mode, s.b, s.root_a, a_bs)
        first = branch.samples[0]
        offset = (first.root_a / responses._bs_root(mode, first.b, moments) - 1.0) / a_e**2
        assert 0.1 < offset < 0.45, (mode, offset)


def test_braaten_segel_offset_is_order_a_e_squared():
    # at t = 0 and b = 0.01 a_e the relative offset of each root above
    # Braaten-Segel, over a_e**2, is O(1) once scaled by xF: measured
    # 0.386-0.494 over xF in [1.03, 2.95], while the unscaled offset
    # spreads from 0.13 to 0.47.  So the offset is the O(a_e**2) term that
    # the approximation leaves out, with an xF-dependent coefficient
    rng = random.Random(1478)
    xfs = [1.03, 2.95] + [rng.uniform(1.03, 2.95) for _ in range(10)]
    for mode in ("longitudinal", "transverse"):
        scaled, unscaled = [], []
        for xf in xfs:
            ms = MediumState(t=0.0, xi=xf)
            moments = responses.plasma_moments(ms)
            a_e = 0.5 * moments[0]
            b = 0.01 * a_e
            (sample,) = dispersion(mode, [b], ms, (0.25 * a_e, 4.0 * a_e)).samples
            offset = (sample.root_a / responses._bs_root(mode, b, moments) - 1.0) / a_e**2
            unscaled.append(offset)
            scaled.append(xf * offset)
        assert 0.3 <= min(scaled) and max(scaled) <= 0.6, (mode, scaled)
        assert max(scaled) / min(scaled) < 1.6, (mode, scaled)
        assert max(unscaled) / min(unscaled) > 2.5, (mode, unscaled)


# worst (a - a_BS)/a_BS over the seeded set of
# test_roots_match_braaten_segel_over_a_seeded_set, about twice the
# measured: 2.4e-3 longitudinal (at b = 0.88 a_e, near the branch's end)
# and 6.8e-4 transverse; the smallest was +9.4e-6
_BS_SEEDED_BOUNDS = {"longitudinal": 5e-3, "transverse": 1.4e-3}


def test_roots_match_braaten_segel_over_a_seeded_set():
    # every root of both branches at b and 2 b, b/a_e log-uniform in
    # [0.01, 1], against the Braaten-Segel root of its b, over 24 seeded
    # states: one in three at t = 0 (xF in [1.02, 3]), the others at t
    # log-uniform in [1e-3, 1] and xi uniform in [-2, 3].  Each root lies
    # above its Braaten-Segel root.  A state with a_e < 1e-3 is drawn
    # again: below a_e ~ 3e-5 the plasmon lies inside the light-cone cut
    # (|a**2 - b**2| < 1e-9), where every point is refused, and above it
    # the gap near a_e is roundoff at small b (ROADMAP item 3)
    rng = random.Random(1993)
    n_states = n_negative_xi = n_roots = 0
    while n_states < 24:
        if n_states % 3 == 0:
            t, xi = 0.0, rng.uniform(1.02, 3.0)
        else:
            t = math.exp(rng.uniform(math.log(1e-3), 0.0))
            xi = rng.uniform(-2.0, 3.0)
        f = math.exp(rng.uniform(math.log(0.01), 0.0))
        ms = MediumState(t=t, xi=xi)
        moments = responses.plasma_moments(ms)
        a_e = 0.5 * moments[0]
        if a_e < 1e-3:
            continue
        n_states += 1
        n_negative_xi += xi < 0.0
        for mode in ("longitudinal", "transverse"):
            branch = dispersion(mode, [f * a_e, 2.0 * f * a_e], ms, (0.25 * a_e, 4.0 * a_e))
            for s in branch.samples:
                a_bs = responses._bs_root(mode, s.b, moments)
                gap = s.root_a / a_bs - 1.0
                assert 0.0 < gap <= _BS_SEEDED_BOUNDS[mode], (mode, t, xi, s.b / a_e, gap)
                n_roots += 1
    assert n_negative_xi >= 6
    assert n_roots == 96


def _bs_relation(mode, a, b, moments):
    # the relations of ROADMAP item 11 as written there, in omega = 2 a
    # and k = 2 b, each rising through 0 at its root; the log as log1p,
    # since its argument is 1 + O(v k/omega)
    omega_p, _, v = moments
    w, k = 2.0 * a, 2.0 * b
    log = math.log1p(2.0 * v * k / (w - v * k))
    if mode == "longitudinal":
        return k * k - 3.0 * omega_p**2 / v**2 * (w / (2.0 * v * k) * log - 1.0)
    bracket = 1.0 - (w * w - v * v * k * k) / (2.0 * w * v * k) * log
    return w * w - k * k - 3.0 * omega_p**2 * w * w / (2.0 * v * v * k * k) * bracket


@pytest.mark.parametrize("t, xi", [(0.0, 1.2), (0.0, 3.0), (0.0, 1.001), (1.0, 0.0)])
def test_bs_root_solves_its_relation_in_few_steps(monkeypatch, t, xi):
    # _bs_root to 2e-6 relative in a, with at most 16 evaluations of h
    # (measured: 16, longitudinal at b = 10 a_e, xF = 1.2); far past the
    # end of the longitudinal branch its root is v_star b to rounding
    moments = responses.plasma_moments(MediumState(t=t, xi=xi))
    a_e = 0.5 * moments[0]
    h = responses._bs_h
    calls = []
    monkeypatch.setattr(responses, "_bs_h", lambda u: calls.append(u) or h(u))
    for mode in ("longitudinal", "transverse"):
        for ratio in (1e-3, 0.1, 1.0, 2.0, 3.0, 10.0, 30.0, 1e3):
            b = ratio * a_e
            calls.clear()
            a = responses._bs_root(mode, b, moments)
            assert 1 <= len(calls) <= 16, (mode, ratio, len(calls))
            if a <= moments[2] * b * (1.0 + 2e-6):
                assert mode == "longitudinal" and ratio >= 10.0, (mode, ratio)
                continue
            lo = _bs_relation(mode, a * (1.0 - 2e-6), b, moments)
            hi = _bs_relation(mode, a * (1.0 + 2e-6), b, moments)
            assert lo < 0.0 < hi, (mode, ratio, a, lo, hi)


def _calls_per_b(mode, b_grid, ms, window):
    # the branch, and the abscissae of the points dispersion evaluates at
    # each b (its calls of the evaluator behind tensors_at)
    from collections import defaultdict

    seen: dict = defaultdict(list)
    inner = responses._evaluate

    def counted(a, b, ms, include_vacuum):
        seen[b].append(a)
        return inner(a, b, ms, include_vacuum)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(responses, "_evaluate", counted)
        branch = dispersion(mode, b_grid, ms, window)
    return branch, seen


def test_dispersion_evaluates_each_abscissa_once():
    # Brent's bracket edges and the root's own tensors reuse what the
    # sign scan already evaluated at the same b
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    for mode in ("longitudinal", "transverse"):
        branch, seen = _calls_per_b(mode, [1e-3, 4e-3], ms, (0.25 * a_e, 4.0 * a_e))
        assert len(branch.samples) == 2
        assert all(len(set(calls)) == len(calls) for calls in seen.values())


def _full_scan_branch(mode, b_grid, ms, window, n_scan):
    # the rule without the band search and the early stop: scan the whole
    # timelike grid, refine every bracket, filter, and keep the smallest
    # accepted root, with the smaller |gap| of its bracket's edges
    longitudinal = mode == "longitudinal"
    samples = []
    for b in b_grid:

        def gap(a):
            try:
                tens = tensors_at(a, b, ms)[3]
            except (InvalidPointError, SubregionBoundaryError):
                return math.nan
            return tens.eps_L.real if longitudinal else tens.nu_L.real + 1.0

        step = (window[1] - window[0]) / n_scan
        grid = [window[0] + i * step for i in range(n_scan + 1)]
        grid = [a for a in grid if a * a - b * b >= LIGHT_CONE_CUT]
        roots = []
        for br in scan_sign_changes(gap, grid):
            root = find_root_bracketed(gap, br)
            edge = min(abs(gap(br.lo)), abs(gap(br.hi)))
            if abs(gap(root)) < edge:
                roots.append((root, edge))
        if roots:
            root, edge = min(roots)
            assert root > b, (b, root)
            tens = tensors_at(root, b, ms)[3]
            im_val = tens.eps_L.imag if longitudinal else tens.nu_L.imag
            samples.append((b, root, edge, im_val))
    return samples


# find_root_bracketed's default: each run ends within X_TOL max(1, |a|) of
# a zero, so two runs from different brackets agree to twice that
X_TOL = 1e-12
# at t = 0 and b <= NOISY_B a_e the gap near a root is roundoff noise
# (ROADMAP item 3), and two Brent runs may end on two of its crossings,
# up to NOISY_ROOT_TOL max(1, |a|) apart: twice the worst measured on
# the draws of the tests below, 4.7e-11 at b = 5.0e-4 a_e (the largest
# such b was 2.01e-3 a_e)
NOISY_B = 2.5e-3
NOISY_ROOT_TOL = 1e-10


def _extrapolation_gain(bs):
    # sum of |l_i(0)| over the Lagrange basis in b**2 through the three
    # smallest b: how much _extrapolate_to_zero_b can amplify root errors
    x1, x2, x3 = sorted(b * b for b in bs)[:3]
    return (
        abs(x2 * x3 / ((x1 - x2) * (x1 - x3)))
        + abs(x1 * x3 / ((x2 - x1) * (x2 - x3)))
        + abs(x1 * x2 / ((x3 - x1) * (x3 - x2)))
    )


def _gap_falls_between(mode, b, ms, a1, a2, n=12):
    # the gap on n + 1 even points from a1 to a2 is not increasing: a
    # rising gap has one zero, and two Brent runs end within 2 X_TOL of it
    lo, hi = min(a1, a2), max(a1, a2)
    vals = []
    for i in range(n + 1):
        tens = tensors_at(lo + (hi - lo) * i / n, b, ms)[3]
        vals.append(tens.eps_L.real if mode == "longitudinal" else tens.nu_L.real + 1.0)
    return any(x >= y for x, y in zip(vals, vals[1:]))


def _assert_matches_full_scan(mode, b_grid, ms, window):
    """True when compared; False when the full scan raised.

    The same b carry a root, with the same im_at_root, each root within
    2 X_TOL max(1, |a|) of the full scan's (all that two Brent runs from
    different brackets can promise), and each residual passing the full
    scan's residual test, below the edges of its bracket.  Where the gap
    is roundoff noise (NOISY_B), two roots may lie up to NOISY_ROOT_TOL
    apart if the gap between them is not increasing.
    """
    try:
        want = _full_scan_branch(mode, b_grid, ms, window, responses._N_SCAN)
    except InternalConsistencyError:
        # a bracket above the first accepted zero may trip the dual-path
        # check; the early stop never reaches it and may return instead
        return False
    branch = dispersion(mode, b_grid, ms, window)
    assert [s.b for s in branch.samples] == [w[0] for w in want], mode
    noisy_b = NOISY_B * plasma_frequency_estimate(ms) if ms.t == 0.0 else 0.0
    worst = 0.0
    for s, (b, root, edge, im_val) in zip(branch.samples, want):
        tol = 2.0 * X_TOL * max(1.0, abs(root))
        if abs(s.root_a - root) > tol and b <= noisy_b:
            assert _gap_falls_between(mode, b, ms, s.root_a, root), (mode, b, s.root_a, root)
            tol = NOISY_ROOT_TOL * max(1.0, abs(root))
        assert abs(s.root_a - root) <= tol, (mode, b, s.root_a, root)
        assert abs(s.residual) < edge, (mode, b, s.residual, edge)
        assert s.im_at_root == im_val, (mode, b)
        worst = max(worst, tol)
    ref_plasma = _extrapolate_to_zero_b(
        [RootSample(b=w[0], root_a=w[1], residual=0.0, im_at_root=w[3]) for w in want]
    )
    if math.isnan(ref_plasma):
        # fewer than three b, or two equal ones
        assert math.isnan(branch.plasma_frequency)
    else:
        gain = _extrapolation_gain([w[0] for w in want])
        assert abs(branch.plasma_frequency - ref_plasma) <= gain * worst, mode
    return True


@pytest.mark.filterwarnings("ignore:sign scan skipped")
def test_dispersion_early_stop_keeps_smallest_root():
    rng = random.Random(606)
    compared = 0
    for _ in range(24):
        xF = rng.uniform(1.02, 3.0)
        b0 = rng.uniform(5e-4, 3e-3)
        ms = MediumState(t=0.0, xi=xF)
        a_e = plasma_frequency_estimate(ms)
        for mode in ("longitudinal", "transverse"):
            compared += _assert_matches_full_scan(
                mode, [b0, 2.0 * b0, 4.0 * b0], ms, (0.25 * a_e, 4.0 * a_e)
            )
    # none of these 48 timelike full scans trips the dual-path check; over
    # the whole grid, 9 did, near the light cone
    assert compared == 48
    # the window straddles the light-cone pole, which lies below the walk
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    assert _assert_matches_full_scan("transverse", [4e-3], ms, (0.25 * a_e, 4.0 * a_e))
    warm = MediumState(t=0.05, xi=1.2)
    for mode in ("longitudinal", "transverse"):
        assert _assert_matches_full_scan(mode, [1e-3, 2e-3, 4e-3], warm, (0.003, 0.06))


def _band(grid, b, gate):
    # region II off the light-cone and pair-threshold cuts, a <= gate * b
    b2 = b * b
    return [
        a
        for a in grid
        if a * a - b2 >= LIGHT_CONE_CUT
        and a * a - b2 - 1.0 < -PAIR_THRESHOLD_CUT
        and a <= gate * b
    ]


# (xF, b0) whose t = 0 rise breaks just above the gate on the 160-step
# grid, at b = b0: Re eps_L at 3.90 gates on the first, Re nu_L at 4.85
# on the second.  The seeded draws span b0 over 12 e-folds and seldom
# put the band's top there, so they pass with the gate raised 4.5 times.
_NEAR_GATE_DRAWS = (
    (1.0011170495753678, 2.7861704619474233e-06),
    (1.0016110986012516, 1.113151328303638e-06),
)


def _rise_draws(t, n_draws):
    # (xF, b0): the draws of seed 1901, then at t = 0 the stored ones
    rng = random.Random(1901)
    for _ in range(n_draws):
        xF = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))
        a_e = plasma_frequency_estimate(MediumState(t=0.0, xi=xF))
        yield xF, a_e * math.exp(rng.uniform(math.log(1e-5), math.log(2.0)))
    if t == 0.0:
        yield from _NEAR_GATE_DRAWS


def _assert_gap_rises(component, t, n_draws, n_scan):
    # the premise of the band search: Im = 0 and Re strictly increasing
    # on every grid point the gate of dispersion admits, over the draws
    # of _rise_draws.  At t > 0 the rise is checked up to three gates:
    # measured on the 160-step grid, it first breaks at a/b = 7.2e6-1.1e7,
    # 2,900 gates or more, and on a 10x finer grid at 2.0e6-2.7e6
    n_points = 0
    for xF, b0 in _rise_draws(t, n_draws):
        a_e = plasma_frequency_estimate(MediumState(t=0.0, xi=xF))
        ms = MediumState(t=t, xi=xF)
        gate = responses._band_gate(responses.plasma_moments(ms)[2])
        if t > 0.0:
            gate *= 3.0
        step = 3.75 * a_e / n_scan
        grid = [0.25 * a_e + i * step for i in range(n_scan + 1)]
        for b in (b0, 2.0 * b0, 4.0 * b0):
            prev = -math.inf
            for a in _band(grid, b, gate):
                val = getattr(tensors_at(a, b, ms)[3], component)
                assert val.imag == 0.0, (xF, b, a)
                assert val.real > prev, (xF, b, a, prev, val.real)
                prev = val.real
                n_points += 1
    assert n_points >= 10 * n_draws


@pytest.mark.parametrize("t, n_draws, n_scan", [(0.0, 40, 160), (0.05, 4, 40), (1.0, 4, 40)])
def test_longitudinal_gap_rises_across_the_band(t, n_draws, n_scan):
    # without the gate the t = 0 closed forms break the rise at
    # a > ~100 b for xF near 1
    _assert_gap_rises("eps_L", t, n_draws, n_scan)


@pytest.mark.parametrize("t, n_draws, n_scan", [(0.0, 40, 160), (0.05, 4, 40), (1.0, 4, 40)])
def test_transverse_gap_rises_across_the_band(t, n_draws, n_scan):
    # the transverse search rests on Re nu_L rising like Re eps_L; no
    # Kramers-Kronig argument is at hand, so this test is the premise
    _assert_gap_rises("nu_L", t, n_draws, n_scan)


@pytest.mark.filterwarnings("ignore:sign scan skipped")
def test_dispersion_band_search_keeps_smallest_root():
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    window = (0.25 * a_e, 4.0 * a_e)
    warm = MediumState(t=0.05, xi=1.2)
    for mode, warm_grid in (
        ("longitudinal", [2e-4, 1e-3, 4e-3, 1.2e-2]),
        ("transverse", [2e-4, 1e-3, 2e-3, 4e-3]),
    ):
        assert _compare_band_search_draws(mode) == 48
        # a b grid that is not monotone, with its middle b below the
        # band's reach (gate * 1e-5 < a_e)
        assert _assert_matches_full_scan(mode, [4e-3, 1e-5, 4e-3], ms, window)
        # warm: the band is transparent at every t; at 2e-4 the root lay
        # above a gate of 32, and lies below 32 (v*/0.05)**1.5
        for b_grid in (warm_grid, warm_grid[::-1]):
            assert _assert_matches_full_scan(mode, b_grid, warm, (0.003, 0.06))
    # a b grid that is not monotone, with its middle b above a_e, where
    # the Braaten-Segel root lies below the light cone
    assert _assert_matches_full_scan("longitudinal", [1e-3, 2e-2, 1e-3], ms, window)
    # xF near 1, where the rise breaks near a = 20 b: a gate of 32 kept
    # a "root" with residual -0.037 (longitudinal) and -1.7e-5
    # (transverse) here; the gate that shrinks with v_F keeps the roots
    # of the full scan
    for mode, xF, b0 in (
        ("longitudinal", 1.0000883889880614, 1.8570059631587826e-06),
        ("transverse", 1.0000857151416338, 1.4895586194768785e-06),
    ):
        near_one = MediumState(t=0.0, xi=xF)
        a_e = plasma_frequency_estimate(near_one)
        window = (0.25 * a_e, 4.0 * a_e)
        assert _assert_matches_full_scan(mode, [b0, 2.0 * b0, 4.0 * b0], near_one, window)


def _compare_band_search_draws(mode):
    rng = random.Random(1902)
    compared = below_gate = above_gate = 0
    for _ in range(16):
        xF = rng.uniform(1.02, 3.0)
        ms = MediumState(t=0.0, xi=xF)
        a_e = plasma_frequency_estimate(ms)
        window = (0.25 * a_e, 4.0 * a_e)
        # b on both sides of the gate: the root at ~a_e lies in the band
        # or above its top, gate * b; ascending and descending.  These are
        # the draws of a gate of 32, scaled to the state's gate.
        gate = responses._band_gate(responses.plasma_moments(ms)[2])
        b0 = a_e * math.exp(rng.uniform(math.log(2e-3), math.log(0.2))) * 32.0 / gate
        below_gate += gate * b0 > a_e
        above_gate += gate * 4.0 * b0 < a_e
        compared += _assert_matches_full_scan(mode, [b0, 2.0 * b0, 4.0 * b0], ms, window)
        compared += _assert_matches_full_scan(mode, [4.0 * b0, 2.0 * b0, b0], ms, window)
        # b above the window's start: the walk starts above its region-I prefix
        # and the light-cone pole
        b0 = a_e * rng.uniform(0.3, 1.5)
        compared += _assert_matches_full_scan(mode, [b0, 2.0 * b0], ms, window)
    assert below_gate >= 3 and above_gate >= 3
    return compared


def test_band_bracket_holds_the_crossing_from_any_guess():
    # a gap rising through 0 at cross, below, inside and above the band
    # [a_min, a_max]; guesses below, inside and above it
    a_min, a_max = 3.0, 30.0
    for cross in [2.0 + 0.37 * k for k in range(85)]:
        for guess in [0.5, 2.9, 3.0, 3.1, 5.0, 10.0, 16.3, 29.9, 30.0, 45.0]:
            probed = []

            def g(a):
                probed.append(a)
                return a - cross

            neg, pos = responses._band_bracket(g, a_min, a_max, guess, responses._BAND_STEP)
            start = min(max(guess, a_min), a_max)
            assert probed[0] == start
            assert all(a_min <= a <= a_max for a in probed)
            # steps of _BAND_STEP * start, doubling: the probes grow with
            # the log of the distance to the crossing
            far = abs(cross - start) / (responses._BAND_STEP * start)
            assert len(probed) <= 2 + math.log2(1.0 + far), (cross, guess)
            if cross < a_min:
                assert (neg, pos) == (None, None)
            elif cross > a_max:
                assert (neg, pos) == (a_max, None)
            else:
                assert a_min <= neg < cross < pos <= a_max, (cross, guess, neg, pos)


def _line_grid():
    # b = 0.1 puts the band of this grid between the light cone and the
    # pair threshold: grid[lo:hi + 1]
    b = 0.1
    grid = [0.05 * i for i in range(48)]
    band = _band(grid, b, responses._BAND_GATE)
    lo, hi = grid.index(band[0]), grid.index(band[-1])
    assert 0 < lo and hi < len(grid) - 1
    return b, grid, lo, hi


def _full_scan_root(g, grid):
    # the smallest accepted root of the brackets of the whole grid
    for br in scan_sign_changes(g, grid):
        root = find_root_bracketed(g, br)
        if abs(g(root)) < min(abs(g(br.lo)), abs(g(br.hi))):
            return root
    return None


@pytest.mark.filterwarnings("ignore:sign scan skipped")
@pytest.mark.parametrize("bad_value", [math.nan, 0.0])
def test_band_search_falls_back_at_an_undefined_or_zero_probe(bad_value):
    # wherever the sign change lies, from any guess, and whichever probe
    # of the band search is spoilt, the search finds the root that
    # refining the brackets of the full timelike grid gives; after the
    # spoilt probe it walks the grid from the last negative point
    b, grid, lo, hi = _line_grid()
    guesses = [0.05, grid[lo], 0.333, 0.5, 0.71, grid[hi], 2.0]
    for cross in range(lo - 2, len(grid)):

        def line(a):
            return a / 0.05 - cross - 0.5

        for guess in guesses:
            clean = []
            responses._band_bracket(
                lambda a: clean.append(a) or line(a),
                grid[lo],
                grid[hi],
                guess,
                responses._BAND_STEP,
            )
            for k, bad in enumerate(clean):
                probed = []

                def g(a):
                    probed.append(a)
                    return bad_value if a == bad else line(a)

                want = _full_scan_root(g, grid[lo:])
                probed = []
                step = responses._BAND_STEP
                got, _ = responses._first_zero(g, grid, b, responses._BAND_GATE, guess, step)
                if want is None:
                    assert got is None, (cross, guess, k)
                else:
                    assert abs(got - want) <= 2.0 * X_TOL * max(1.0, abs(want)), (cross, guess, k)
                # the clean probes up to the spoilt one, and no point below
                # the light cone
                assert probed[: k + 1] == clean[: k + 1]
                assert min(probed) >= grid[lo]
                negs = [a for a in clean[:k] if line(a) < 0.0]
                resume = min(a for a in grid if a > max(negs)) if negs else grid[lo]
                walked = [a for a in probed[k + 1 :] if a in grid and a not in negs]
                assert walked[0] == resume, (cross, guess, k)


@pytest.mark.filterwarnings("ignore:sign scan skipped")
def test_band_root_that_fails_the_residual_test_falls_back_to_the_walk():
    # NaN strictly inside the bracket the band search finds: Brent ends
    # on an undefined point or on the bracket's edge, the residual test
    # rejects it, and the walk from lo takes the full scan's brackets and
    # gives its answer
    b, grid, lo, hi = _line_grid()
    for cross in (lo, lo + 0.3, hi - 2.2, hi - 1):
        for guess in (grid[lo], 0.333, 0.71, grid[hi]):

            def line(a):
                return a / 0.05 - cross - 0.5

            neg, pos = responses._band_bracket(
                line, grid[lo], grid[hi], guess, responses._BAND_STEP
            )
            assert pos is not None
            probed = []

            def g(a):
                probed.append(a)
                return math.nan if neg < a < pos else line(a)

            want = _full_scan_root(g, grid[lo:])
            probed = []
            step = responses._BAND_STEP
            got, _ = responses._first_zero(g, grid, b, responses._BAND_GATE, guess, step)
            assert got == want, (cross, guess)
            # the walk starts at lo after Brent's probes
            first_nan = next(k for k, a in enumerate(probed) if neg < a < pos)
            assert grid[lo] in probed[first_nan:], (cross, guess)


def test_dispersion_scan_stops_at_first_accepted_root():
    # the band search from the Braaten-Segel root probes it and one step
    # of 1e-3 of it, and Brent needs three more calls
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    for mode in ("longitudinal", "transverse"):
        branch, seen = _calls_per_b(mode, [1e-3, 4e-3], ms, (0.25 * a_e, 4.0 * a_e))
        assert len(branch.samples) == 2
        for s in branch.samples:
            calls = seen[s.b]
            assert len(calls) <= 5, (mode, s.b, len(calls))
            assert all(abs(a - s.root_a) <= 2e-3 * s.root_a for a in calls), (mode, s.b)


def _seeded_guess(mode, b, b_prev, root_prev, ms):
    # the Braaten-Segel root of b, times the ratio of the previous root
    # to its own Braaten-Segel root
    moments = responses.plasma_moments(ms)
    return responses._bs_root(mode, b, moments) * root_prev / responses._bs_root(
        mode, b_prev, moments
    )


def test_seeded_step_scales_with_the_jump_in_b():
    # a b whose previous root came from the band search starts at that
    # root's Braaten-Segel offset, with a step that grows with the jump in
    # b: on jumps of 4 and 16 up and 4 down it takes no more calls than
    # the search of that b alone, and at most the 5 that
    # test_dispersion_scan_stops_at_first_accepted_root pins.  A fixed
    # step of 5e-6 took 6 calls on the 4x jump at xF = 3, and up to 10
    # on the 16x jumps
    for t, xi in ((0.0, 1.2), (0.0, 3.0), (0.05, 1.2)):
        ms = MediumState(t=t, xi=xi)
        a_e = plasma_frequency_estimate(ms)
        window = (0.25 * a_e, 4.0 * a_e)
        b0 = 0.03 * a_e
        for mode in ("longitudinal", "transverse"):
            for jump in (4.0, 16.0, 0.25):
                b = jump * b0
                branch, seen = _calls_per_b(mode, [b0, b], ms, window)
                alone, seen_alone = _calls_per_b(mode, [b], ms, window)
                first, second = branch.samples
                assert len(seen[b]) <= min(5, len(seen_alone[b])), (t, xi, mode, jump)
                assert seen[b][0] == _seeded_guess(mode, b, b0, first.root_a, ms)
                root = alone.samples[0].root_a
                assert abs(second.root_a - root) <= 2.0 * X_TOL * max(1.0, root)


@pytest.mark.filterwarnings("ignore:sign scan skipped")
def test_only_a_band_root_seeds_the_next_b():
    # a root that the grid walk found, and a b without a root, leave the
    # next b to the unseeded search: its root and the abscissae it
    # evaluates equal those of that b alone.  The root of the first b of
    # each case lies above the band's top, gate * b, so the walk found
    # it: a clean one at xF = 1.2 and t = 0.05, and at xF = 1.0001 roots
    # on the roundoff noise of ROADMAP item 3: |residual| 1.7e-5 and
    # 4.0e-5 at b = 1e-4 a_e, and 5.5e-7 for the transverse root at
    # b = 9.4e-8 (2e-3 a_e), whose residual in the window (0.01, 3) once
    # read 34.  Longitudinally, b = 2e-2 > a_e has no root
    cases = []
    for t, xi, b_walk, b_next in ((0.0, 1.2, 1e-5, 4e-3), (0.05, 1.2, 5e-6, 4e-3)):
        cases += [(t, xi, mode, b_walk, b_next) for mode in ("longitudinal", "transverse")]
    a_near_one = plasma_frequency_estimate(MediumState(t=0.0, xi=1.0001))
    for mode in ("longitudinal", "transverse"):
        cases.append((0.0, 1.0001, mode, 1e-4 * a_near_one, 0.5 * a_near_one))
    cases.append((0.0, 1.0001, "transverse", 9.359317149878399e-08, 0.5 * a_near_one))
    cases.append((0.0, 1.2, "longitudinal", 2e-2, 4e-3))
    n_walk = 0
    for t, xi, mode, b_first, b_next in cases:
        ms = MediumState(t=t, xi=xi)
        a_e = plasma_frequency_estimate(ms)
        window = (0.25 * a_e, 4.0 * a_e)
        branch, seen = _calls_per_b(mode, [b_first, b_next], ms, window)
        alone, seen_alone = _calls_per_b(mode, [b_next], ms, window)
        assert branch.samples[-1] == alone.samples[0], (t, xi, mode)
        assert seen[b_next] == seen_alone[b_next], (t, xi, mode)
        if branch.samples[0].b == b_first:
            gate = responses._band_gate(responses.plasma_moments(ms)[2])
            assert gate * b_first < branch.samples[0].root_a, (t, xi, mode)
            n_walk += 1
    assert n_walk == len(cases) - 1


@pytest.mark.parametrize("t, xi", [(0.05, 1.2), (1.0, 0.0), (0.2, -1.1)])
def test_finite_t_roots_take_few_evaluations(t, xi):
    # at t > 0 the band gate is 32 (v*/0.05)**1.5, about 1,300-2,600
    # here, so the band search finds the root at every b from 1e-3 a_e:
    # at most 8 derive_point calls per root (measured 4.4-6.0).  A gate of
    # 32 left every b below a_e/32 to the grid walk, ~20 calls per root
    ms = MediumState(t=t, xi=xi)
    a_e = plasma_frequency_estimate(ms)
    b_grid = [1e-3 * a_e * 1e3 ** (i / 7) for i in range(8)]
    for mode in ("longitudinal", "transverse"):
        branch, seen = _calls_per_b(mode, b_grid, ms, (0.25 * a_e, 4.0 * a_e))
        assert [s.b for s in branch.samples] == b_grid, mode
        per_root = sum(map(len, seen.values())) / len(branch.samples)
        assert per_root <= 8.0, (mode, per_root)


@pytest.mark.parametrize("t, xi", [(1.0, 0.0), (0.2, -1.1)])
def test_finite_t_band_roots_match_the_full_scan(t, xi):
    # b below a_e/32, where a gate of 32 left the roots to the grid walk:
    # the band search's roots lie within Brent's tolerance of the full
    # scan's, at the same b
    ms = MediumState(t=t, xi=xi)
    a_e = plasma_frequency_estimate(ms)
    for mode in ("longitudinal", "transverse"):
        b_grid = [1e-3 * a_e, 4e-3 * a_e, 1.6e-2 * a_e]
        assert _assert_matches_full_scan(mode, b_grid, ms, (0.25 * a_e, 4.0 * a_e))


def test_dispersion_searches_the_band_above_32_b():
    # at xF = 2 the roots lie near a = 90 b, 45 b and 22 b: a gate of 32
    # left the first two to the linear scan (85 longitudinal and 77
    # transverse calls in all); the gate set by v_F holds them in the band
    ms = MediumState(t=0.0, xi=2.0)
    a_e = plasma_frequency_estimate(ms)
    b_grid = [5e-4, 1e-3, 2e-3]
    window = (0.25 * a_e, 4.0 * a_e)
    for mode, most in (("longitudinal", 18), ("transverse", 18)):
        branch, seen = _calls_per_b(mode, b_grid, ms, window)
        assert [s.b for s in branch.samples] == b_grid
        assert branch.samples[0].root_a > 80.0 * b_grid[0]
        assert sum(map(len, seen.values())) <= most, (mode, {b: len(v) for b, v in seen.items()})
        assert _assert_matches_full_scan(mode, b_grid, ms, window)


def test_dispersion_extrapolations_agree():
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    grid = [1e-3, 2e-3, 4e-3]
    lo = dispersion("longitudinal", grid, ms, (0.25 * a_e, 4.0 * a_e))
    tr = dispersion("transverse", grid, ms, (0.25 * a_e, 4.0 * a_e))
    assert rel_err(lo.plasma_frequency, a_e) < 1e-3
    assert rel_err(tr.plasma_frequency, a_e) < 1e-3
    assert rel_err(lo.plasma_frequency, tr.plasma_frequency) < 1e-4


def test_dispersion_validation():
    ms = MediumState(t=0.0, xi=1.2)
    with pytest.raises(ValueError, match="mode"):
        dispersion("sideways", [1e-3], ms, (0.001, 0.1))
    with pytest.raises(ValueError, match="range"):
        dispersion("longitudinal", [1e-3], ms, (0.1, 0.001))
    for a_range in ((0.003, math.inf), (0.003, math.nan), (-math.inf, 0.1)):
        with pytest.raises(ValueError, match="range"):
            dispersion("longitudinal", [1e-3], ms, a_range)
    # b = 0 once returned the other b's root and warned about 161 points;
    # a NaN or infinite b vanished without a warning
    for bad_b in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"b = {bad_b!r} must be finite and positive"):
            dispersion("longitudinal", [bad_b, 1e-3], ms, (0.005, 0.12))


def test_metamaterial_band_below_plasma_root():
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    cells = metamaterial_scan([0.5 * a_e, 1.5 * a_e], [1e-3], ms)
    assert len(cells) == 2
    assert cells[0].metamaterial
    assert not cells[1].metamaterial
    assert cells[0].re_eps_L < 0.0 and cells[0].re_nu_L < 0.0
    assert cells[1].re_eps_L > 0.0


def test_scan_ordering_row_major():
    ms = MediumState(t=0.0, xi=1.2)
    cells = metamaterial_scan([0.01, 0.02], [0.5, 0.6], ms)
    assert [(c.a, c.b) for c in cells] == [
        (0.01, 0.5),
        (0.02, 0.5),
        (0.01, 0.6),
        (0.02, 0.6),
    ]


def test_scan_skips_invalid_cells_with_reason():
    cell = evaluate_cell(0.5, 0.5, COLD)  # on the light cone
    assert math.isnan(cell.re_eps_L)
    assert not cell.metamaterial
    assert "light cone" in cell.reason
    good = evaluate_cell(0.5, 1.0, COLD)
    assert good.reason == ""
    assert good.region == "I"
    assert good.subregion == "B"
    # b**2 = 1e-310 is subnormal: a refusal, not re_eps_L = inf, im_eps_L = nan
    tiny = evaluate_cell(0.5, 1e-155, COLD)
    assert math.isnan(tiny.re_eps_L) and math.isnan(tiny.im_eps_L)
    assert "too small" in tiny.reason


@pytest.mark.parametrize(
    "a, b, t",
    [
        (1e150, 1e100, 0.0),  # (c2 - b yF)**2 overflowed at the Fermi surface
        (1e150, 1e100, 0.05),  # the integrand returned NaN
        (1e20, 5e19, 0.0),  # the vacuum's atanh(kappa) met kappa = 1
        (1e8, 2e8, 0.05),  # the vacuum's k - 1 was 0
    ],
)
def test_huge_points_refused(a, b, t):
    ms = MediumState(t=t, xi=1.2)
    with pytest.raises(InvalidPointError, match="too large"):
        tensors_at(a, b, ms)
    cell = evaluate_cell(a, b, ms)
    assert math.isnan(cell.re_eps_L) and "too large" in cell.reason


def test_large_points_below_the_refusal_are_finite():
    # |c2| just below 2**50 = 1.13e15, in regions I and III, cold and warm
    for t in (0.0, 0.05):
        ms = MediumState(t=t, xi=1.2)
        for a, b in ((3.3e7, 1e6), (1e6, 3.3e7), (3e7, 2e7)):
            eps_l, nu_l = tensors_at(a, b, ms)[3][6:]
            parts = (eps_l.real, eps_l.imag, nu_l.real, nu_l.imag)
            assert all(map(math.isfinite, parts)), (t, a, b, parts)


# a region-I cell hugging the light cone (a/b = 0.999) at large a, where
# the t > 0 integrand returns NaN and the quadrature raises ValueError
NAN_CELL = (3162.2776601683795, 3165.443103271651)


def test_failed_cell_becomes_a_reason():
    ms = MediumState(t=1.0, xi=0.0)
    with pytest.raises(ValueError, match="integrand returned nan"):
        tensors_at(*NAN_CELL, ms)
    cell = evaluate_cell(*NAN_CELL, ms)
    assert (cell.a, cell.b) == NAN_CELL
    assert math.isnan(cell.re_eps_L) and math.isnan(cell.im_nu_L)
    assert not cell.metamaterial
    assert cell.reason == "integrand returned nan at x = 3.244459510319254"
    # the cell beside it is evaluated as before
    assert metamaterial_scan([3000.0, NAN_CELL[0]], [NAN_CELL[1]], ms)[0].reason == ""


def test_consistency_failure_still_propagates(monkeypatch):
    # only ValueError becomes a reason: a failed dual-path check of the
    # tensors is a fault of the program and must stop the scan
    def broken(s, p):
        raise InternalConsistencyError("eps_L composition mismatch")

    monkeypatch.setattr(responses, "_assemble", broken)
    with pytest.raises(InternalConsistencyError):
        evaluate_cell(0.5, 1.0, COLD)


def test_long_wavelength_cell_ends_within_budget(monkeypatch):
    # at b = 1e-7 roundoff keeps the quadrature from ever meeting its
    # tolerance; the level cap must still end the call.  The fused pass
    # has at most four panels, so a runaway shows as an exceeded count
    # instead of a hang.  calls counts the nodes handed to the integrand.
    calls = evals = 0
    integrate = medium_finite_t.integrate_adaptive

    def counted_integrate(f, *args, **kwargs):
        nonlocal evals

        def counted(xs, ws):
            nonlocal calls
            calls += len(xs)
            assert calls <= 4 * PANEL_BUDGET, "evaluation budget exceeded"
            return f(xs, ws)

        result = integrate(counted, *args, **kwargs)
        evals += result.evaluations
        return result

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", counted_integrate)
    cell = evaluate_cell(0.002, 1e-7, MediumState(t=0.05, xi=1.2))
    assert 0 < evals == calls <= 4 * PANEL_BUDGET
    assert cell.reason == ""
    assert math.isfinite(cell.re_eps_L)
    assert cell.region == "II"
    assert cell.im_eps_L == 0.0
    assert cell.im_nu_L == 0.0


def test_long_wavelength_cells_converge_onto_their_plateau(monkeypatch):
    # every t > 0 cell of the benchmark's long_wavelength pool, the 40
    # that stalled at relegas 0.1.0 included: each quadrature converges,
    # and a deep cell (b <= 1e-3 a) gives the eps_L and nu_L of b = 1e-3 a
    # to 1e-3, in the benchmark's |z - z_ref| / max(1, |z_ref|).  The
    # squared-form kernels left 11 cells unconverged and missed by 4e4.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "long_wavelength.json"
    pool = json.loads(path.read_text())
    results = []
    integrate = medium_finite_t.integrate_adaptive

    def recorded_integrate(*args, **kwargs):
        result = integrate(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", recorded_integrate)
    cells = [cell for cell in pool["cells"] + pool["stalled"] if cell[2] > 0.0]
    assert len(cells) == 181
    deep = 0
    for a, b, t, xi in cells:
        ms = MediumState(t=t, xi=xi)
        results.clear()
        cell = evaluate_cell(a, b, ms)
        assert cell.reason == "" and results, (a, b, t, xi)
        assert all(r.converged for r in results), (a, b, t, xi)
        if b <= 1e-3 * a:
            deep += 1
            plateau = evaluate_cell(a, 1e-3 * a, ms)
            for got, want in (
                (complex(cell.re_eps_L, cell.im_eps_L), complex(plateau.re_eps_L, plateau.im_eps_L)),
                (complex(cell.re_nu_L, cell.im_nu_L), complex(plateau.re_nu_L, plateau.im_nu_L)),
            ):
                assert abs(got - want) <= 1e-3 * max(1.0, abs(want)), (a, b, t, xi, got, want)
    assert deep == 143


@pytest.mark.parametrize(
    "a, b, t, xi, most",
    [(0.5, 1.0, 0.05, 1.2, 250), (0.5, 1.0, 1.0, 0.0, 202), (0.8, 0.3, 0.05, 1.2, 150)],
    ids=["warm_I", "hot_I", "warm_II"],
)
def test_warm_probe_evaluation_counts(monkeypatch, a, b, t, xi, most):
    # the benchmark's warm probe points (PROBES in perfbench/worker.py):
    # with the extrapolated panel error, each panel stops as soon as its
    # latest level meets the tolerance
    evals = 0
    integrate = medium_finite_t.integrate_adaptive

    def counted_integrate(*args, **kwargs):
        nonlocal evals
        result = integrate(*args, **kwargs)
        evals += result.evaluations
        return result

    monkeypatch.setattr(medium_finite_t, "integrate_adaptive", counted_integrate)
    tensors_at(a, b, MediumState(t=t, xi=xi))
    assert 0 < evals <= most


def test_assemble_consistency_check_fires_on_corrupt_scalars():
    from relegas import InternalConsistencyError, derive_point
    from relegas.medium_finite_t import ResponseScalars

    p = derive_point(0.5, 1.0)
    bad = ResponseScalars(B=0.01 + 0j, D=0.02 + 0j, A=0.5 + 0j, C=0j)
    with pytest.raises(InternalConsistencyError, match="composition"):
        assemble(bad, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_assemble_consistency_check_fires_on_non_finite_scalars(bad):
    # abs(nan - nan) > tol is False: a NaN tensor passed the check
    from relegas import InternalConsistencyError, derive_point
    from relegas.medium_finite_t import ResponseScalars

    p = derive_point(0.5, 1.0)
    for i in range(4):
        parts = [0.01 + 0j, 0.02 + 0j, 0.03 + 0j, 0.04 + 0j]
        parts[i] = complex(bad, 0.0)
        with pytest.raises(InternalConsistencyError, match="composition"):
            assemble(ResponseScalars(*parts), p)
