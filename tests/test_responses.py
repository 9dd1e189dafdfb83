import math
import random

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
from relegas import medium_finite_t
from relegas.numerics import PANEL_BUDGET, find_root_bracketed, scan_sign_changes
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
        classify_region,
        derive_point,
        fermi_surface,
        im_B_zero,
        im_D_zero,
        re_B_zero,
        re_D_zero,
        scalars_zero_t,
        zero_t_subregion,
    )
    from relegas.medium_finite_t import scalars as scalars_warm

    p = derive_point(0.5, 1.0)
    cold = MediumState(t=0.0, xi=1.5)
    _, _, _, got = scalars_at(0.5, 1.0, cold)
    want = scalars_zero_t(p, fermi_surface(1.5), cold)
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
        fs = ms.fermi_surface
        assert sub == zero_t_subregion(p, fs)
        want = scalars_zero_t(p, fs, ms)
        assert got == want
        assert want.B == complex(re_B_zero(p, fs, ms), im_B_zero(p, fs, ms))
        assert want.D == complex(re_D_zero(p, fs, ms), im_D_zero(p, fs, ms))


def test_one_classification_per_point(monkeypatch):
    # a t = 0 point builds its subregion and the Fermi-surface r1 once, a
    # t > 0 point classifies its region once
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
        (medium_finite_t, "r1"),
    ):
        wrapper = counted(name, getattr(home, name))
        for mod in (kinematics, medium_finite_t, medium_zero_t, responses):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)

    tensors_at(0.5, 1.0, COLD)
    assert calls["zero_t_subregion"] == 1
    assert calls["r1"] == 1
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

    from relegas import responses

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


def test_dispersion_scan_stops_at_first_accepted_root(monkeypatch):
    from collections import defaultdict

    from relegas import responses

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
    for mode in ("longitudinal", "transverse"):
        seen.clear()
        branch = dispersion(mode, [1e-3, 4e-3], ms, (a_lo, a_hi))
        assert len(branch.samples) == 2
        for s in branch.samples:
            calls = seen[s.b]
            assert len(calls) <= 80, (mode, s.b, len(calls))
            hi = min(x for x in grid if x > s.root_a)
            scanned = set(calls) & set(grid)
            assert max(scanned) == hi, (mode, s.b)


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


def test_long_wavelength_cell_ends_within_budget(monkeypatch):
    # at b = 1e-7 roundoff keeps the quadrature from ever meeting its
    # tolerance; the level cap must still end the call.  The fused pass
    # has at most four panels and evaluates n_F once per node, so a
    # runaway shows as an exceeded count instead of a hang.
    evals = 0
    n_fermi = medium_finite_t.n_fermi

    def counted(x, ms):
        nonlocal evals
        evals += 1
        assert evals <= 4 * PANEL_BUDGET, "evaluation budget exceeded"
        return n_fermi(x, ms)

    monkeypatch.setattr(medium_finite_t, "n_fermi", counted)
    cell = evaluate_cell(0.002, 1e-7, MediumState(t=0.05, xi=1.2))
    assert cell.reason == ""
    assert math.isfinite(cell.re_eps_L)
    assert cell.region == "II"
    assert cell.im_eps_L == 0.0
    assert cell.im_nu_L == 0.0


def test_assemble_consistency_check_fires_on_corrupt_scalars():
    from relegas import InternalConsistencyError, derive_point
    from relegas.medium_finite_t import ResponseScalars

    p = derive_point(0.5, 1.0)
    bad = ResponseScalars(B=0.01 + 0j, D=0.02 + 0j, A=0.5 + 0j, C=0j)
    with pytest.raises(InternalConsistencyError, match="composition"):
        assemble(bad, p)
