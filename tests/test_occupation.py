import math
import random

import pytest

from relegas import MediumState, n_fermi, x_cutoff
from relegas.occupation import _n_fermi_nodes


def test_state_validation():
    with pytest.raises(ValueError):
        MediumState(t=-0.1, xi=1.2)
    with pytest.raises(ValueError, match="xi >= 1"):
        MediumState(t=0.0, xi=0.5)
    with pytest.raises(ValueError):
        MediumState(t=0.1, xi=1.2, alpha=0.0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            MediumState(t=0.1, xi=1.2, alpha=alpha)
    # a finite alpha whose e2 = 4 pi alpha overflows made every tensor NaN
    with pytest.raises(ValueError, match="e2 = 4 pi alpha"):
        MediumState(t=0.1, xi=1.2, alpha=1e308)
    assert math.isfinite(MediumState(t=0.0, xi=1.2, alpha=1e307).e2)
    MediumState(t=0.1, xi=-2.0)  # negative chemical potential is fine at t > 0
    # the t = 0 closed forms overflow (plasma_moments from xF ~ 5.6e102)
    # or return inf/nan (tensors_at at xF = 1e154) far above the bound
    # that kinematics sets on |c2|; at t > 0 any finite xi is a state
    for xi in (2.0**50, 1e120, 1e154):
        with pytest.raises(ValueError, match=r"xi < 2\*\*50"):
            MediumState(t=0.0, xi=xi)
    MediumState(t=0.0, xi=math.nextafter(2.0**50, 0.0))
    MediumState(t=0.1, xi=1e154)


def test_coupling():
    ms = MediumState(t=0.0, xi=1.5)
    assert abs(ms.e2 - 4.0 * math.pi / 137.036) < 1e-15
    ms2 = MediumState(t=0.0, xi=1.5, alpha=1.0)
    assert ms2.e2 == 4.0 * math.pi


def test_degenerate_flag_and_surface():
    ms = MediumState(t=0.0, xi=1.5)
    assert ms.is_degenerate
    assert ms.fermi_surface.xF == 1.5
    assert ms.fermi_surface is ms.fermi_surface  # built once per state
    assert ms == MediumState(t=0.0, xi=1.5)
    hot = MediumState(t=0.2, xi=1.5)
    assert not hot.is_degenerate
    for _ in range(2):  # a failed access caches nothing
        with pytest.raises(ValueError):
            hot.fermi_surface


def test_step_occupancy():
    ms = MediumState(t=0.0, xi=1.5)
    assert n_fermi(1.2, ms) == 1.0
    assert n_fermi(1.5, ms) == 0.5
    assert n_fermi(1.7, ms) == 0.0


def test_occupancy_bounds_and_monotone():
    rng = random.Random(42)
    for _ in range(50):
        t = 10.0 ** rng.uniform(-3, 0.5)
        xi = rng.uniform(-2.0, 3.0)
        ms = MediumState(t=t, xi=xi)
        xs = [1.0 + 0.05 * k for k in range(120)]
        vals = [n_fermi(x, ms) for x in xs]
        for v in vals:
            assert 0.0 <= v <= 2.0
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-15


def test_occupancy_includes_antiparticles():
    # at xi = 0 particles and antiparticles contribute equally
    ms = MediumState(t=0.5, xi=0.0)
    x = 1.3
    single = 1.0 / (math.exp(x / 0.5) + 1.0)
    assert abs(n_fermi(x, ms) - 2.0 * single) < 1e-15


def test_occupancy_xi_symmetry():
    # swapping xi -> -xi swaps the particle and antiparticle factors,
    # leaving the sum unchanged
    ms_plus = MediumState(t=0.3, xi=0.8)
    ms_minus = MediumState(t=0.3, xi=-0.8)
    for x in (1.0, 1.1, 1.7, 2.5, 6.0):
        assert n_fermi(x, ms_plus) == n_fermi(x, ms_minus)


def test_occupancy_t_to_zero():
    cold = MediumState(t=1e-6, xi=1.5)
    frozen = MediumState(t=0.0, xi=1.5)
    for x in (1.1, 1.4, 1.6, 2.0):
        assert abs(n_fermi(x, cold) - n_fermi(x, frozen)) < 1e-12


def test_cutoff_controls_tail():
    for t, xi in ((0.0, 1.5), (0.1, 1.2), (0.5, 0.0), (0.2, -2.0)):
        ms = MediumState(t=t, xi=xi)
        xc = x_cutoff(ms)
        assert xc >= 1.0
        if t == 0.0:
            assert xc == xi
        else:
            assert n_fermi(xc, ms) <= 1e-16


def test_extreme_argument_does_not_overflow():
    ms = MediumState(t=1e-4, xi=1.0)
    assert n_fermi(500.0, ms) == 0.0


def test_node_occupations_are_n_fermi_bit_for_bit():
    # the quadratures' one builder of n_F at a level's nodes keeps only the
    # larger Fermi term once min(2|xi|, 1 + |xi|) > 40 t, which at x >= 1
    # rounds to n_fermi's two-term sum; checked on both sides of that rule
    # and of the exp clip at |u| = 700, u = (x - |xi|)/t
    rng = random.Random(3131)
    seen = set()
    for _ in range(400):
        t = 10.0 ** rng.uniform(-4.0, 1.0)
        xi = rng.uniform(-3.0, 3.0)
        ms = MediumState(t=t, xi=xi)
        axi = abs(xi)
        us = [rng.uniform(-760.0, 760.0) for _ in range(20)]
        us += [rng.uniform(-5.0, 5.0) for _ in range(20)]
        xs = [1.0] + [x for x in (axi + t * u for u in us) if x >= 1.0]
        xs += [rng.uniform(1.0, x_cutoff(ms)) for _ in range(10)]
        got = _n_fermi_nodes(ms)(xs)
        assert list(map(float.hex, got)) == [n_fermi(x, ms).hex() for x in xs], ms
        one_term = min(2.0 * axi, 1.0 + axi) > 40.0 * t
        for x in xs:
            u = (x - axi) / t
            seen.add((one_term, -1 if u < -700.0 else 1 if u > 700.0 else 0))
    # a two-term state has u >= (1 - |xi|)/t > -40 at every x >= 1
    assert seen == {(o, s) for o in (True, False) for s in (-1, 0, 1)} - {(False, -1)}


def test_n_fermi_is_the_clipped_two_term_sum():
    # at t > 0 n_fermi is the nodes' two-term builder at one x; it keeps the
    # bits of the sum of two clipped Fermi factors, written out here, at any
    # x: below the mass shell, on both sides of the exp clip at |u| = 700,
    # and NaN
    def factor(u):
        if u > 700.0:
            return 0.0
        if u < -700.0:
            return 1.0
        return 1.0 / (math.exp(u) + 1.0)

    rng = random.Random(2718)
    seen = set()
    for _ in range(200):
        t = 10.0 ** rng.uniform(-4.0, 1.0)
        xi = rng.uniform(-3.0, 3.0)
        ms = MediumState(t=t, xi=xi)
        xs = [rng.uniform(-2.0, 1.0) for _ in range(10)]
        xs += [rng.uniform(1.0, x_cutoff(ms)) for _ in range(10)]
        xs += [s * xi + t * (c + d) for s in (1.0, -1.0) for c in (700.0, -700.0)
               for d in (-1e-6, 0.0, 1e-6)]
        xs.append(math.nan)
        for x in xs:
            u, v = (x - xi) / t, (x + xi) / t
            assert repr(n_fermi(x, ms)) == repr(factor(u) + factor(v)), (ms, x)
            seen.update(-1 if w < -700.0 else 1 if w > 700.0 else 0 for w in (u, v))
    assert seen == {-1, 0, 1}
