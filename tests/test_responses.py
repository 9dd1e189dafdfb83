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
)
from relegas import medium_finite_t, responses
from relegas.kinematics import LIGHT_CONE_CUT, PAIR_THRESHOLD_CUT
from relegas.numerics import (
    PANEL_BUDGET,
    find_root_bracketed,
    iter_sign_changes,
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
        return ResponseScalars.from_parts(p, ms, parts, include_vacuum=True)

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


def test_one_classification_per_point(monkeypatch):
    # a t = 0 point classifies its region, builds its subregion and the
    # Fermi-surface logs once, and never calls the public r1 and r2
    # kernels; a t > 0 point classifies its region once
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
    ):
        wrapper = counted(name, getattr(home, name))
        for mod in (kinematics, medium_finite_t, medium_zero_t, responses):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)

    tensors_at(0.5, 1.0, COLD)
    assert calls["classify_region"] == 1
    assert calls["zero_t_subregion"] == 1
    assert calls["_fermi_logs"] == 1
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
    # the pole must be filtered out, leaving the true root
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    branch = dispersion("transverse", [4e-3], ms, (0.25 * a_e, 4.0 * a_e))
    assert len(branch.samples) == 1
    root = branch.samples[0].root_a
    assert root > 4e-3  # above the light cone
    assert rel_err(root, 0.014326596) < 1e-3


def test_dispersion_evaluates_each_abscissa_once(monkeypatch):
    # Brent's bracket edges, the pole filter and the root's own tensors
    # reuse what the sign scan already evaluated at the same b
    from collections import Counter

    seen: Counter = Counter()
    inner = responses.tensors_at

    def counted(a, b, ms, include_vacuum=True):
        seen[(a, b)] += 1
        return inner(a, b, ms, include_vacuum=include_vacuum)

    monkeypatch.setattr(responses, "tensors_at", counted)
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    for mode in ("longitudinal", "transverse"):
        seen.clear()
        branch = dispersion(mode, [1e-3, 4e-3], ms, (0.25 * a_e, 4.0 * a_e))
        assert len(branch.samples) == 2
        assert max(seen.values()) == 1


def _full_scan_branch(mode, b_grid, ms, window, n_scan=160):
    # the rule without the early stop: scan the whole grid, refine every
    # bracket, filter, and keep the smallest accepted root
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
        roots = []
        for br in scan_sign_changes(gap, grid):
            root = find_root_bracketed(gap, br)
            g_root = gap(root)
            if root <= 0.0 or math.isnan(g_root):
                continue
            if abs(g_root) >= min(abs(gap(br.lo)), abs(gap(br.hi))):
                continue
            roots.append(root)
        if roots:
            root = min(roots)
            tens = tensors_at(root, b, ms)[3]
            im_val = tens.eps_L.imag if longitudinal else tens.nu_L.imag
            samples.append((b, root, gap(root), im_val))
    return samples


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def _assert_matches_full_scan(mode, b_grid, ms, window, n_scan=160):
    """True when compared; False when the full scan raised."""
    try:
        want = _full_scan_branch(mode, b_grid, ms, window, n_scan)
    except InternalConsistencyError:
        # a bracket above the first accepted zero may trip the dual-path
        # check; the early stop never reaches it and may return instead
        return False
    branch = dispersion(mode, b_grid, ms, window, n_scan=n_scan)
    got = [(s.b, s.root_a, s.residual, s.im_at_root) for s in branch.samples]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(_same(x, y) for x, y in zip(g, w)), (mode, g, w)
    ref_plasma = _extrapolate_to_zero_b(
        [RootSample(b=w[0], root_a=w[1], residual=w[2], im_at_root=w[3]) for w in want]
    )
    assert _same(branch.plasma_frequency, ref_plasma)
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
    # 9 of these 48 full scans trip the dual-path check (ROADMAP item 3)
    assert compared >= 36
    # the first bracket here is the light-cone pole, which is rejected
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    assert _assert_matches_full_scan("transverse", [4e-3], ms, (0.25 * a_e, 4.0 * a_e))
    warm = MediumState(t=0.05, xi=1.2)
    for mode in ("longitudinal", "transverse"):
        assert _assert_matches_full_scan(
            mode, [1e-3, 2e-3, 4e-3], warm, (0.003, 0.06), n_scan=40
        )


def _band(grid, b):
    # region II off the light-cone and pair-threshold cuts, a <= gate * b
    b2 = b * b
    return [
        a
        for a in grid
        if a * a - b2 >= LIGHT_CONE_CUT
        and a * a - b2 - 1.0 < -PAIR_THRESHOLD_CUT
        and a <= responses._BAND_GATE * b
    ]


def _assert_gap_rises(component, t, n_draws, n_scan):
    # the premise of the band search: Im = 0 and Re strictly increasing
    # on every grid point the gate admits, over the draws of seed 1901
    rng = random.Random(1901)
    n_points = 0
    for _ in range(n_draws):
        xF = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))
        a_e = plasma_frequency_estimate(MediumState(t=0.0, xi=xF))
        ms = MediumState(t=t, xi=xF)
        b0 = a_e * math.exp(rng.uniform(math.log(1e-5), math.log(2.0)))
        step = 3.75 * a_e / n_scan
        grid = [0.25 * a_e + i * step for i in range(n_scan + 1)]
        for b in (b0, 2.0 * b0, 4.0 * b0):
            prev = -math.inf
            for a in _band(grid, b):
                val = getattr(tensors_at(a, b, ms)[3], component)
                assert val.imag == 0.0, (xF, b, a)
                assert val.real > prev, (xF, b, a, prev, val.real)
                prev = val.real
                n_points += 1
    assert n_points >= 10 * n_draws


@pytest.mark.parametrize("t, n_draws, n_scan", [(0.0, 40, 160), (0.05, 4, 40)])
def test_longitudinal_gap_rises_across_the_band(t, n_draws, n_scan):
    # without the gate the t = 0 closed forms break the rise at
    # a > ~100 b for xF near 1
    _assert_gap_rises("eps_L", t, n_draws, n_scan)


@pytest.mark.parametrize("t, n_draws, n_scan", [(0.0, 40, 160), (0.05, 4, 40)])
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
    # the transverse full scan trips the dual-path check near the light
    # cone (ROADMAP item 5): on every draw with a region-I prefix, and
    # warm at b = 1.2e-2, so fewer of those compare
    for mode, at_least, warm_grid in (
        ("longitudinal", 44, [2e-4, 1e-3, 4e-3, 1.2e-2]),
        ("transverse", 24, [2e-4, 1e-3, 2e-3, 4e-3]),
    ):
        assert _compare_band_search_draws(mode) >= at_least
        # the previous root lies above the next b's band (32 b < a_e)
        assert _assert_matches_full_scan(mode, [4e-3, 2e-4, 4e-3], ms, window)
        # warm: the band is transparent at every t; 2e-4 puts the root above the gate
        for b_grid in (warm_grid, warm_grid[::-1]):
            assert _assert_matches_full_scan(mode, b_grid, warm, (0.003, 0.06), n_scan=40)
    # the previous root lies below the next b's light cone (b > a_e)
    assert _assert_matches_full_scan("longitudinal", [1e-3, 2e-2, 1e-3], ms, window)


def _compare_band_search_draws(mode):
    rng = random.Random(1902)
    compared = below_gate = above_gate = 0
    for _ in range(16):
        xF = rng.uniform(1.02, 3.0)
        ms = MediumState(t=0.0, xi=xF)
        a_e = plasma_frequency_estimate(ms)
        window = (0.25 * a_e, 4.0 * a_e)
        # b on both sides of the gate: the root at ~a_e lies in the band
        # or above its top, 32 b; descending, each search starts above
        # the next b's root
        b0 = a_e * math.exp(rng.uniform(math.log(2e-3), math.log(0.2)))
        below_gate += responses._BAND_GATE * b0 > a_e
        above_gate += responses._BAND_GATE * 4.0 * b0 < a_e
        compared += _assert_matches_full_scan(mode, [b0, 2.0 * b0, 4.0 * b0], ms, window)
        compared += _assert_matches_full_scan(mode, [4.0 * b0, 2.0 * b0, b0], ms, window)
        # b above the window's start: a region-I prefix, then the light-cone pole
        b0 = a_e * rng.uniform(0.3, 1.5)
        compared += _assert_matches_full_scan(mode, [b0, 2.0 * b0], ms, window)
    assert below_gate >= 3 and above_gate >= 3
    return compared


def _synthetic_gap(n, cross, bad=None, bad_value=math.nan):
    # strictly increasing, negative up to index cross, positive above it
    values = [float(i - cross) - 0.5 for i in range(n)]
    if bad is not None:
        values[bad] = bad_value
    return values


def test_band_resume_finds_the_same_index_from_any_start():
    n, lo, hi = 40, 3, 30
    grid = [float(i) for i in range(n)]
    for cross in range(lo, n):
        values = _synthetic_gap(n, cross)
        want = responses._band_resume(lambda a: values[int(a)], grid, lo, hi)
        assert want == min(cross, hi)
        for start in [None, *range(lo - 2, hi + 3)]:
            probed = []

            def g(a):
                probed.append(int(a))
                return values[int(a)]

            assert responses._band_resume(g, grid, lo, hi, start) == want, (cross, start)
            assert all(lo < k <= hi for k in probed)
            if start is not None and lo < start <= hi:
                assert probed[0] == start


@pytest.mark.filterwarnings("ignore:sign scan skipped")
@pytest.mark.parametrize("bad_value", [math.nan, 0.0])
def test_band_resume_stops_at_an_undefined_or_zero_probe(bad_value):
    # b = 0.1 puts the band of this grid between the light cone and the
    # pair threshold; wherever the bad point and the sign change lie, and
    # from any start, the walk meets the brackets of the full grid
    b = 0.1
    grid = [0.05 * i for i in range(48)]
    index = {a: i for i, a in enumerate(grid)}
    band = _band(grid, b)
    lo, hi = index[band[0]], index[band[-1]]
    assert 0 < lo and hi < len(grid) - 1
    for cross in range(lo, len(grid)):
        for bad in range(lo + 1, hi + 1):
            values = _synthetic_gap(len(grid), cross, bad, bad_value)
            want = list(iter_sign_changes(lambda a: values[index[a]], grid))
            for start in [None, *range(lo - 2, hi + 3)]:
                probed = []

                def g(a):
                    probed.append(index[a])
                    return values[index[a]]

                j = responses._band_resume(g, grid, lo, hi, start)
                assert lo <= j <= hi and values[j] < 0.0, (cross, bad, start, j)
                if bad in probed:
                    # the bad probe ends the search at the last negative one
                    assert probed[-1] == bad and j < bad
                    assert j == max(k for k in [lo, *probed] if values[k] < 0.0)
                else:
                    assert j == hi or values[j + 1] > 0.0
                root = None if start is None else grid[start] + 0.01
                probed = []
                walk = responses._band_walk(g, grid, b, root)
                assert list(iter_sign_changes(g, walk)) == want, (cross, bad, start)
                if start is not None and lo < start <= hi:
                    # the prefix up to lo, lo again, then the previous root's interval
                    assert probed[lo + 2] == start


def test_dispersion_scan_stops_at_first_accepted_root(monkeypatch):
    from collections import defaultdict

    seen: dict = defaultdict(list)
    inner = responses.tensors_at

    def counted(a, b, ms, include_vacuum=True):
        seen[b].append(a)
        return inner(a, b, ms, include_vacuum=include_vacuum)

    monkeypatch.setattr(responses, "tensors_at", counted)
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    a_lo, a_hi = 0.25 * a_e, 4.0 * a_e
    step = (a_hi - a_lo) / 160
    grid = [a_lo + i * step for i in range(161)]
    # the band search probes above the root's bracket, and at 4e-3 starts
    # from the 1e-3 root; the linear scan up to the bracket took 39 and
    # 71 transverse calls, the longitudinal search from the band's foot
    # 19 and 17
    most = {"longitudinal": (19, 9), "transverse": (18, 42)}
    for mode in ("longitudinal", "transverse"):
        seen.clear()
        branch = dispersion(mode, [1e-3, 4e-3], ms, (a_lo, a_hi))
        assert len(branch.samples) == 2
        for s, cap in zip(branch.samples, most[mode]):
            calls = seen[s.b]
            assert len(calls) <= 80, (mode, s.b, len(calls))
            hi = min(x for x in grid if x > s.root_a)
            scanned = set(calls) & set(grid)
            assert hi in scanned, (mode, s.b)
            assert len(calls) <= cap, (mode, s.b, len(calls))
            if mode == "longitudinal":
                assert len(calls) <= 24, (mode, s.b, len(calls))


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
    for n_scan in (0, -3, 2.5):
        with pytest.raises(ValueError, match="n_scan"):
            dispersion("transverse", [1e-3], ms, (0.001, 0.1), n_scan=n_scan)


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
    def broken(a, b, ms, include_vacuum=True):
        raise InternalConsistencyError("eps_L composition mismatch")

    monkeypatch.setattr(responses, "tensors_at", broken)
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
