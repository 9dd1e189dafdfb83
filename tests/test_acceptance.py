"""End-to-end acceptance checks.

Each test is one numbered criterion with an explicit tolerance and,
where stated, a runtime budget enforced with time.monotonic.  The
criteria pin the package's independent evaluation paths against each
other (closed forms vs adaptive quadrature), against textbook limits
(Lindhard, vacuum threshold, Drude), and against structural guarantees
(transparency, tensor identities, passivity).
"""

import csv
import io
import math
import random
import time
import warnings

import pytest

from relegas import (
    InvalidPointError,
    MediumState,
    derive_point,
    dispersion,
    fermi_surface,
    metamaterial_scan,
    plasma_frequency_estimate,
)
from relegas.cli import main
from relegas.kinematics import RegionLabel, classify_region, kinematic_window, zero_t_subregion
from relegas.medium_finite_t import im_scalars
from relegas.medium_zero_t import _im_parts, integrals_Ij, scalars_zero_t
from relegas.numerics import integrate_adaptive
from relegas.responses import scalars_at, tensors_at
from relegas.vacuum import c_star
from conftest import biquadratic, per_node
from lindhard import NRPoint, nr_im_B


def test_criterion_01_zero_t_absorption_matches_quadrature():
    # 1000 random absorbing points across subregions A-D, xF in
    # {1.2, 1.5, 3.0}: closed-form Im B, Im D vs step-occupancy
    # quadrature, 1e-10 relative, under 30 s
    start = time.monotonic()
    rng = random.Random(101)
    counts = {"A": 0, "B": 0, "C": 0, "D": 0}
    caps = {"A": 1000, "B": 350, "C": 1000, "D": 350}
    worst = 0.0
    total = 0
    while total < 1000:
        xf = (1.2, 1.5, 3.0)[total % 3]
        a = rng.uniform(0.02, 3.0)
        b = rng.uniform(0.02, 3.0)
        c2 = a * a - b * b
        if abs(c2) < 1e-3 or abs(c2 - 1.0) < 1e-3 or 0.0 < c2 < 1.0:
            continue
        p = derive_point(a, b)
        fs = fermi_surface(xf)
        sub = zero_t_subregion(p, fs)
        if sub.label == "NONE" or sub.x_upper - sub.x_lower < 1e-3:
            continue
        if counts[sub.label] >= caps[sub.label]:
            continue
        ms = MediumState(t=0.0, xi=xf)
        quad_b, quad_d = im_scalars(p, ms)
        closed = scalars_zero_t(p, ms, include_vacuum=False)
        closed_b, closed_d = closed.B.imag, closed.D.imag
        worst = max(
            worst,
            abs(quad_b - closed_b) / abs(closed_b),
            abs(quad_d - closed_d) / abs(closed_d),
        )
        counts[sub.label] += 1
        total += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert all(counts[label] >= 100 for label in "ABCD"), counts
    assert elapsed < 30.0


def test_criterion_02_master_integrals_match_quadrature():
    # closed I0, I2 vs direct adaptive quadrature, 1e-8 relative, 100
    # points per branch; denominator roots stay positive on the real
    # branch; under 10 s.  The closed forms are principal values when a
    # root falls inside (0, t_F), so the real-branch comparison samples
    # Fermi surfaces below the kinematic window (pole-free)
    start = time.monotonic()
    rng = random.Random(202)
    done_real = done_complex = root_checks = 0
    worst = 0.0
    while done_real < 100 or done_complex < 100 or root_checks < 500:
        a = rng.uniform(0.02, 3.0)
        b = rng.uniform(0.02, 3.0)
        c2 = a * a - b * b
        if abs(c2) < 1e-3 or abs(c2 - 1.0) < 1e-3:
            continue
        p = derive_point(a, b)
        if p.gamma2 >= 0.0:
            lower, _ = kinematic_window(p)
            if lower - 1.0 < 1e-3:
                continue
            if root_checks < 500:
                # absorbing configurations exercise root positivity
                integrals_Ij(p, fermi_surface(rng.uniform(1.001, 3.0)))
                root_checks += 1
            if done_real >= 100:
                continue
            xf = 1.0 + (lower - 1.0) * rng.uniform(0.1, 0.85)
        else:
            if done_complex >= 100:
                continue
            xf = rng.uniform(1.01, 3.0)
        fs = fermi_surface(xf)
        frak_a, frak_b, frak_c = biquadratic(p)
        t_fermi = fs.yF / fs.xF

        def den(t: float) -> float:
            return frak_c * t**4 + frak_b * t**2 + frak_a

        q0 = integrate_adaptive(per_node(lambda t: 1.0 / den(t)), 0.0, t_fermi, rel_tol=1e-12)
        q2 = integrate_adaptive(per_node(lambda t: t * t / den(t)), 0.0, t_fermi, rel_tol=1e-12)
        i0, i2 = integrals_Ij(p, fs)
        worst = max(
            worst,
            abs(i0 - q0.value[0]) / abs(q0.value[0]),
            abs(i2 - q2.value[0]) / abs(q2.value[0]),
        )
        if p.gamma2 >= 0.0:
            done_real += 1
        else:
            done_complex += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_03_low_t_matches_zero_t():
    # B and D at t = 1e-3, xF = 1.5, 20 points per region, against the
    # zero-temperature closed forms: max(1e-3 relative, 1e-8 absolute),
    # and against the closed forms plus the Sommerfeld t**2 term
    # (pi**2/6) t**2 d2F/dxF2 (a central difference with step h) within
    # 1e-6 relative; under 1 min.  Points keep 0.03 away from
    # window-edge/Fermi-surface collisions, where the t -> 0 limit is
    # nonuniform
    start = time.monotonic()
    xf = 1.5
    h = 2e-3
    cold, cold_lo, cold_hi = (MediumState(t=0.0, xi=x) for x in (xf, xf - h, xf + h))
    warm = MediumState(t=1e-3, xi=xf)
    sommerfeld = math.pi**2 / 6.0 * warm.t**2 / h**2
    rng = random.Random(303)

    def draw(region: RegionLabel):
        while True:
            a = rng.uniform(0.05, 2.8)
            b = rng.uniform(0.05, 2.8)
            c2 = a * a - b * b
            if abs(c2) < 0.05 or abs(c2 - 1.0) < 0.05:
                continue
            p = derive_point(a, b)
            if classify_region(p) is not region:
                continue
            if p.gamma2 > 0.0:
                lower, upper = kinematic_window(p)
                if abs(lower - xf) < 0.03 or abs(upper - xf) < 0.03:
                    continue
            return p

    for region in (RegionLabel.I, RegionLabel.II, RegionLabel.III):
        for _ in range(20):
            p = draw(region)
            w = scalars_at(p.a, p.b, warm, include_vacuum=False)[3]
            c, lo, hi = (
                scalars_zero_t(p, ms, include_vacuum=False) for ms in (cold, cold_lo, cold_hi)
            )
            for warm_val, cold_val, lo_val, hi_val in zip(w[:2], c[:2], lo[:2], hi[:2]):
                limit = max(1e-3 * abs(cold_val), 1e-8)
                assert abs(warm_val - cold_val) <= limit, (p.a, p.b, region)
                bridged = cold_val + sommerfeld * (hi_val - 2.0 * cold_val + lo_val)
                assert abs(warm_val - bridged) <= 1e-6 * abs(cold_val), (p.a, p.b, region)
    assert time.monotonic() - start < 60.0


def test_criterion_04_region_two_exactly_transparent():
    # 10^4 random points with 0 < c2 < 1 give identically zero Im B and
    # Im D, for degenerate and hot states alike: exact equality, not a
    # tolerance
    rng = random.Random(404)
    states = [
        MediumState(t=0.0, xi=1.0),
        MediumState(t=0.0, xi=1.2),
        MediumState(t=1e-3, xi=1.5),
        MediumState(t=0.1, xi=0.7),
        MediumState(t=0.3, xi=-0.5),
    ]
    for n in range(10000):
        c2 = rng.uniform(0.005, 0.995)
        b = rng.uniform(0.05, 2.5)
        p = derive_point(math.sqrt(c2 + b * b), b)
        ms = states[n % len(states)]
        assert im_scalars(p, ms) == (0.0, 0.0)
        if ms.is_degenerate:
            closed = scalars_zero_t(p, ms, include_vacuum=False)
            assert closed.B.imag == 0.0
            assert closed.D.imag == 0.0


def test_criterion_05_lindhard_limit():
    # relativistic Im B at xF = 1.0005 vs the nonrelativistic Lindhard
    # values on a 20x20 (omega, q) grid, within 2% wherever Lindhard is
    # nonzero, under 30 s.  Cells whose Fermi momentum sits within
    # 0.1 q of the absorption-onset boundary are not compared: both
    # values vanish linearly at slightly offset edges there, so the
    # relative difference is unbounded for any faithful implementation
    start = time.monotonic()
    xf = 1.0005
    fs = fermi_surface(xf)
    ms = MediumState(t=0.0, xi=xf)

    def lin(lo: float, hi: float, n: int) -> list[float]:
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    compared = skipped = 0
    worst = 0.0
    for omega in lin(2e-4, 1.2e-3, 20):
        for q in lin(0.01, 0.05, 20):
            nr = nr_im_B(NRPoint(omega=omega, q=q, pF=fs.yF), ms)
            if nr == 0.0:
                continue
            onset = abs(omega - 0.5 * q * q) / q
            if fs.yF - onset < 0.1 * q:
                skipped += 1
                continue
            rel = scalars_zero_t(derive_point(0.5 * omega, 0.5 * q), ms).B.imag
            worst = max(worst, abs(rel - nr) / nr)
            compared += 1
    elapsed = time.monotonic() - start
    assert worst < 0.02
    assert compared >= 300
    assert skipped <= 10
    assert elapsed < 30.0


def test_criterion_06_tensor_identities():
    # at every evaluated point: eps' + nu' = 0 and tau = sigma at
    # machine precision, A - D - (1 + 3c2/(2b2)) B = 0, and the two
    # independent eps_L/nu_L compositions agree to 1e-12 (checked
    # inside assemble, which raises on violation)
    rng = random.Random(606)
    cold = MediumState(t=0.0, xi=1.5)
    warm = MediumState(t=0.1, xi=1.1)
    checked = 0
    while checked < 200:
        a = rng.uniform(0.02, 3.0)
        b = rng.uniform(0.02, 3.0)
        c2 = a * a - b * b
        if abs(c2) < 1e-3 or abs(c2 - 1.0) < 1e-3:
            continue
        p, _, _, tens = tensors_at(a, b, cold)
        scale = max(1.0, abs(tens.eps_prime))
        assert abs(tens.eps_prime + tens.nu_prime) <= 1e-14 * scale
        assert abs(tens.tau - tens.sigma) <= 1e-14 * max(1.0, abs(tens.tau))
        s = scalars_zero_t(p, cold)
        residual = s.A - s.D - (1.0 + 3.0 * p.c2 / (2.0 * b * b)) * s.B
        assert abs(residual) <= 1e-14 * max(1.0, abs(s.A))
        checked += 1
    for a, b in ((0.5, 1.0), (2.0, 1.0), (0.9, 0.7), (0.3, 0.25), (1.6, 0.9)):
        _, _, _, tens = tensors_at(a, b, warm)
        assert abs(tens.eps_prime + tens.nu_prime) <= 1e-14 * max(1.0, abs(tens.eps_prime))
        assert abs(tens.tau - tens.sigma) <= 1e-14 * max(1.0, abs(tens.tau))


def test_criterion_07_vacuum_scalar_limits():
    # the vacuum scalar vanishes as c2 -> 0 (series path, within 1e-10),
    # carries no absorption below the pair threshold (50 samples,
    # exactly zero), and reaches 2 e2/(9 pi^2) at the threshold: direct
    # evaluation at c2 = 1 - 2e-12 within 1e-8, and a two-point
    # sqrt-law extrapolation within 1e-8 relative
    ms = MediumState(t=0.0, xi=1.5)
    assert abs(c_star(1e-8, ms)) < 1e-10
    assert abs(c_star(-1e-8, ms)) < 1e-10

    rng = random.Random(707)
    for _ in range(50):
        c2 = rng.uniform(-5.0, 1.0 - 1e-6)
        if abs(c2) < 1e-8:
            continue
        assert c_star(c2, ms).imag == 0.0

    limit = 2.0 * ms.e2 / (9.0 * math.pi**2)
    direct = c_star(1.0 - 2e-12, ms).real
    assert abs(direct - limit) <= 1e-8
    near = c_star(1.0 - 1e-10, ms).real
    far = c_star(1.0 - 4e-10, ms).real
    extrapolated = 2.0 * near - far  # cancels the sqrt(1 - c2) cusp term
    assert abs(extrapolated - limit) <= 1e-8 * limit


def test_criterion_08_plasmon_degeneracy_and_drude():
    # xF = 1.2, t = 0: the b -> 0 extrapolated longitudinal (eps_L = 0)
    # and transverse (nu_L = -1) roots agree within 0.5%, and Re eps_L(a)
    # at b = 1e-3 follows the Drude shape 1 - a_hat^2/a^2 with residual
    # below 1e-2; under 1 min
    start = time.monotonic()
    ms = MediumState(t=0.0, xi=1.2)
    a_e = plasma_frequency_estimate(ms)
    grid = [1e-3, 2e-3, 4e-3]
    window = (0.25 * a_e, 4.0 * a_e)
    lon = dispersion("longitudinal", grid, ms, window)
    tra = dispersion("transverse", grid, ms, window)
    assert len(lon.samples) == 3 and len(tra.samples) == 3
    p_l = lon.plasma_frequency
    p_t = tra.plasma_frequency
    assert abs(p_l - p_t) <= 0.005 * p_l
    assert abs(p_l - a_e) <= 0.005 * a_e

    a_hat, residual = _drude_fit(ms, a_e, 1e-3)
    assert abs(a_hat - a_e) <= 0.01 * a_e
    assert residual < 1e-2
    assert time.monotonic() - start < 60.0


def _drude_fit(ms, a_e, b):
    # the least-squares Drude weight a_hat**2 of Re eps_L = 1 - a_hat**2/a**2
    # over 25 points from 1.1 a_e to 3 a_e at b: a_hat and the worst residual
    pts = []
    num = den = 0.0
    for i in range(25):
        a = 1.1 * a_e + (3.0 * a_e - 1.1 * a_e) * i / 24
        re = tensors_at(a, b, ms)[3].eps_L.real
        pts.append((a, re))
        num += (1.0 - re) / a**2
        den += 1.0 / a**4
    a_hat2 = num / den
    return math.sqrt(a_hat2), max(abs(re - (1.0 - a_hat2 / a**2)) for a, re in pts)


@pytest.mark.parametrize("t, xi", [(0.05, 1.2), (1.0, 0.0)])
def test_criterion_08_at_finite_t(capsys, t, xi):
    # criterion 8 at t > 0, through `relegas dispersion` without
    # --a-range (the window a_e/4 to 4 a_e): both branches have a root at
    # each of 8 log-spaced b in [1e-3, 1] a_e, their b -> 0
    # extrapolations agree within 0.5% and lie within 0.5% of a_e, and
    # Re eps_L at b = 0.05 a_e follows the Drude shape.  Measured: the
    # extrapolations agree to 2e-10 and lie 7.8e-5 (t = 0.05) and 2.3e-4
    # (t = 1) above a_e; the Drude fit is within 8.9e-4 and its residual
    # below 2.8e-4
    ms = MediumState(t=t, xi=xi)
    a_e = plasma_frequency_estimate(ms)
    argv = ["dispersion", "--b-range", repr(1e-3 * a_e), repr(a_e), "8", "--log-b"]
    assert main(argv + ["--t", repr(t), "--xi", repr(xi)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    limit = {}
    for mode in ("longitudinal", "transverse"):
        roots = [r for r in rows if r["mode"] == mode and float(r["b"]) > 0.0]
        assert len(roots) == 8, mode
        assert all(float(r["root_a"]) > float(r["b"]) for r in roots), mode
        (row,) = [r for r in rows if r["mode"] == mode and float(r["b"]) == 0.0]
        limit[mode] = float(row["root_a"])
    p_l, p_t = limit["longitudinal"], limit["transverse"]
    assert abs(p_l - p_t) <= 0.005 * p_l
    assert abs(p_l - a_e) <= 0.005 * a_e

    a_hat, residual = _drude_fit(ms, a_e, 0.05 * a_e)
    assert abs(a_hat - a_e) <= 0.01 * a_e
    assert residual < 1e-2


def test_criterion_09_metamaterial_band():
    # the paper's threshold claim: the collective mode bounds the
    # metamaterial regime.  Over the timelike part of (a_e/4, 4 a_e),
    # cells with Re eps_L < 0 and Re nu_L < 0 exist, and the largest lies
    # within one scan step below the longitudinal plasmon, at t = 0 and
    # t > 0 (xi < 0 included).  A branch that kept a spacelike root put
    # it 25-177 steps below the band's top, in 6 of the 14 cases at
    # b >= 0.05 a_e.  The window is the one `relegas dispersion` takes
    # without --a-range; at t > 0, b = 0.02 a_e lies below a_e/32, where
    # a band gate of 32 left the root to the grid walk.
    cases = [(0.0, xF, f, 1000) for xF in (1.2, 3.0) for f in (0.05, 0.2, 0.5, 0.9)]
    cases += [
        (t, xi, f, 200)
        for t, xi in ((0.05, 1.2), (1.0, 0.0), (0.2, -1.1))
        for f in (0.02, 0.2, 0.9)
    ]
    for t, xi, b_over_a_e, n_steps in cases:
        ms = MediumState(t=t, xi=xi)
        a_e = plasma_frequency_estimate(ms)
        b = b_over_a_e * a_e
        lo, hi = 0.25 * a_e, 4.0 * a_e
        step = (hi - lo) / n_steps
        a_grid = [a for a in (lo + i * step for i in range(n_steps + 1)) if a > b]
        marked = [c.a for c in metamaterial_scan(a_grid, [b], ms) if c.metamaterial]
        assert marked, ("no metamaterial band found", t, xi, b_over_a_e)
        (sample,) = dispersion("longitudinal", [b], ms, (lo, hi)).samples
        assert sample.root_a > b and sample.im_at_root == 0.0, (t, xi, b_over_a_e)
        assert sample.root_a - step <= max(marked) < sample.root_a, (t, xi, b_over_a_e)


def test_criterion_10_passivity():
    # Im eps_L >= -1e-12 on 10^4 random points with a > 0, across
    # degenerate, warm, and pair-dominated states: absorption never
    # turns into gain under the adopted sign conventions
    rng = random.Random(1010)
    states = [
        MediumState(t=0.0, xi=1.2),
        MediumState(t=0.0, xi=2.0),
        MediumState(t=0.05, xi=1.2),
        MediumState(t=0.3, xi=0.5),
        MediumState(t=0.1, xi=0.0),
        MediumState(t=1.0, xi=-1.0),
    ]
    n = 0
    floor = 0.0
    while n < 10000:
        a = rng.uniform(1e-4, 3.0)
        b = rng.uniform(1e-4, 3.0)
        c2 = a * a - b * b
        if abs(c2) < 1e-3 or abs(c2 - 1.0) < 1e-3:
            continue
        ms = states[n % len(states)]
        p = derive_point(a, b)
        if ms.is_degenerate:
            im_b = scalars_zero_t(p, ms, include_vacuum=False).B.imag
        else:
            im_b, _ = im_scalars(p, ms)
        im_c = c_star(c2, ms).imag
        im_eps_l = im_c - (c2 / (b * b)) * im_b
        floor = min(floor, im_eps_l)
        n += 1
    assert floor >= -1e-12


def test_criterion_12_vacuum_kramers_kronig():
    # Re C below the pair threshold from the absorptive part above it:
    # C(0) = 0 and C is analytic in the upper half plane (retarded, so
    # Im C >= 0 on the pair cut), and the once-subtracted relation reads
    #   Re C(c2) = (c2/pi) int_1^inf Im C(s)/(s (s - c2)) ds
    #            = (c2/pi) int_0^1 Im C(1/v)/(1 - c2 v) dv,  s = 1/v.
    # Im C comes from c_star above the threshold; Re C from c_star, and
    # from scalars_at in regions I and II, the series branch included.
    # c_star refuses 1/v at v < 2**-50 and within 1e-12 of v = 1, so the
    # quadrature runs over [2**-49, 1 - 1e-11]: what it drops is below
    # 1e-14 of |Re C|.  Measured agreement: 5e-14 relative
    start = time.monotonic()
    ms = MediumState(t=0.0, xi=1.2)
    rng = random.Random(1704)

    def kk(c2: float) -> float:
        def f(vs, ws):
            total = 0.0
            for v, w in zip(vs, ws):
                total += w * (c_star(1.0 / v, ms).imag / (1.0 - c2 * v))
            return (total,)

        res = integrate_adaptive(f, 2.0**-49, 1.0 - 1e-11)
        assert res.converged
        return c2 / math.pi * res.value[0]

    c2s = (
        [rng.uniform(-5.0, -0.05) for _ in range(6)]
        + [rng.uniform(0.05, 0.95) for _ in range(6)]
        + [s * 10.0 ** rng.uniform(-6.0, math.log10(0.05)) for s in (-1.0, 1.0) * 3]
    )
    series = 0
    for c2 in c2s:
        want = kk(c2)
        got = c_star(c2, ms).real
        assert abs(got - want) <= 1e-9 * abs(want), (c2, got, want)
        b = rng.uniform(0.1, 2.0) + math.sqrt(max(0.0, -c2))
        p, region, _, s = scalars_at(math.sqrt(b * b + c2), b, ms)
        assert region is (RegionLabel.I if c2 < 0.0 else RegionLabel.II)
        want = kk(p.c2)
        assert abs(s.C.real - want) <= 1e-9 * abs(want), (p, s.C, want)
        series += abs(c2) <= 0.05
    assert series == 6
    assert time.monotonic() - start < 0.5


def test_criterion_12_medium_kramers_kronig():
    # Re (c2 D) of the medium at a region-II point from its absorptive
    # part in regions I and III, at t = 0 without the vacuum term:
    #   Re (c2 D)(a) = (2/pi) int a' Im (c2 D)(a') / (a'**2 - a**2) da',
    # no principal value, as Im D = 0 at a.  Im (c2 D) is c2 times the
    # t = 0 closed form over the subregion's window (_im_parts, which
    # scalars_at uses too; the real half refuses nodes next to a window
    # edge on the Fermi surface).  It is 0 on the light-cone and pair-
    # threshold cuts, where the window leaves the sea or shrinks to a
    # point.  A window edge x = xF solves (xF -+ a)**2 c2 = b**2 (c2 - 1),
    # which factors into a**2 -+ xF a + b (yF - b) = 0 and
    # a**2 -+ xF a - b (b + yF) = 0; the largest root ends the absorption.
    # Measured agreement: 3e-15 relative
    start = time.monotonic()
    rng = random.Random(1978)

    def crossings(b, fs):
        roots = []
        for k in (b * (fs.yF - b), -b * (b + fs.yF)):
            disc = fs.xF * fs.xF - 4.0 * k
            if disc >= 0.0:
                r = math.sqrt(disc)
                roots += [s * (fs.xF + r) / 2.0 for s in (1.0, -1.0)]
                roots += [s * (fs.xF - r) / 2.0 for s in (1.0, -1.0)]
        return sorted(x for x in roots if x > 0.0)

    def im_c2_d(a, b, ms):
        try:
            p = derive_point(a, b)
            return p.c2 * _im_parts(p, zero_t_subregion(p, ms.fermi_surface), ms)[1]
        except InvalidPointError:
            return 0.0

    n = 0
    for xf in (1.2, 2.0):
        ms = MediumState(t=0.0, xi=xf)
        for _ in range(6):
            b = rng.uniform(0.05, 0.5)
            a = math.sqrt(b * b + rng.uniform(0.05, 0.95))
            p, region, _, s = scalars_at(a, b, ms, include_vacuum=False)
            assert region is RegionLabel.II
            want = p.c2 * s.D.real

            def f(xs, ws):
                total = 0.0
                for x, w in zip(xs, ws):
                    total += w * x * im_c2_d(x, b, ms) / (x * x - a * a)
                return (total,)

            cuts = crossings(b, ms.fermi_surface)
            edges = [b, math.sqrt(1.0 + b * b)] + cuts
            res = integrate_adaptive(f, 0.0, cuts[-1], breakpoints=edges)
            assert res.converged
            got = 2.0 / math.pi * res.value[0]
            assert abs(got - want) <= 1e-9 * abs(want), (xf, a, b, got, want)
            n += 1
    assert n == 12
    assert time.monotonic() - start < 0.5
