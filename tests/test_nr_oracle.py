import math

import pytest

from relegas import MediumState
from relegas.medium_zero_t import scalars_zero_t
from relegas.responses import scalars_at
from relegas.kinematics import derive_point, fermi_surface
from conftest import rel_err
from lindhard import NRPoint, nr_case, nr_im_B, nr_re_eps

MS = MediumState(t=0.0, xi=1.5)


def test_validation():
    with pytest.raises(ValueError):
        NRPoint(omega=0.1, q=0.0, pF=0.3)
    with pytest.raises(ValueError):
        NRPoint(omega=-0.1, q=0.1, pF=0.3)
    with pytest.raises(ValueError):
        NRPoint(omega=0.1, q=0.1, pF=0.0)
    for bad in (math.nan, math.inf):
        for kwargs in ({"omega": bad}, {"q": bad}, {"pF": bad}):
            with pytest.raises(ValueError, match="finite"):
                NRPoint(**{"omega": 0.1, "q": 0.1, "pF": 0.3, **kwargs})


def test_case_classification():
    # eps_q = 0.005 at q = 0.1
    assert nr_case(NRPoint(omega=0.002, q=0.1, pF=0.3)) == "2c"
    assert nr_case(NRPoint(omega=0.002, q=0.1, pF=0.05)) == "2b"
    assert nr_case(NRPoint(omega=0.002, q=0.1, pF=0.01)) == "2a"
    assert nr_case(NRPoint(omega=0.02, q=0.1, pF=0.3)) == "1c"
    assert nr_case(NRPoint(omega=0.02, q=0.1, pF=0.2)) == "1b"
    assert nr_case(NRPoint(omega=0.02, q=0.1, pF=0.1)) == "1a"


def test_full_strip_value():
    p = NRPoint(omega=0.002, q=0.1, pF=0.3)
    assert rel_err(nr_im_B(p, MS), MS.e2 / math.pi) < 1e-14


def test_forbidden_region_zero():
    assert nr_im_B(NRPoint(omega=0.002, q=0.1, pF=0.01), MS) == 0.0


def test_continuity_at_bc_boundary():
    # pF = (omega + eps_q)/q separates subcases b and c
    omega, q = 0.002, 0.1
    hi = (omega + 0.5 * q * q) / q
    below = nr_im_B(NRPoint(omega=omega, q=q, pF=hi * (1.0 - 1e-8)), MS)
    above = nr_im_B(NRPoint(omega=omega, q=q, pF=hi * (1.0 + 1e-8)), MS)
    assert rel_err(below, above) < 1e-6


def test_vanishes_at_ab_boundary():
    omega, q = 0.002, 0.1
    lo = abs(omega - 0.5 * q * q) / q
    just_inside = nr_im_B(NRPoint(omega=omega, q=q, pF=lo * (1.0 + 1e-8)), MS)
    full = nr_im_B(NRPoint(omega=omega, q=q, pF=0.3), MS)
    assert just_inside < 1e-6 * full


def test_relativistic_limit_reduces_to_lindhard():
    # a = omega/2, b = q/2, pF = yF: for a barely-relativistic sea the
    # exact absorptive part must land on the Lindhard value up to
    # corrections of relative order pF ~ 3e-2
    xf = 1.0005
    fs = fermi_surface(xf)
    ms = MediumState(t=0.0, xi=xf)
    for omega, q in ((0.0005, 0.02), (0.0002, 0.03), (0.001, 0.025)):
        nr = nr_im_B(NRPoint(omega=omega, q=q, pF=fs.yF), ms)
        if nr == 0.0:
            continue
        rel = scalars_zero_t(derive_point(0.5 * omega, 0.5 * q), ms).B.imag
        assert rel_err(rel, nr) < 2e-2


def test_zero_t_eps_L_reduces_to_lindhard_at_order_yF2():
    # eps_L - 1 = -(c2/b**2) B of the medium at a = omega/2, b = q/2 against
    # Lindhard's eps - 1, both parts measured on the scale e2 yF/(pi**2 q**2)
    # of the static screening: the relativistic corrections are O(yF**2).
    # A 25 x 25 grid, q in [0.05, 2.45] yF and omega in [0.001, 0.061] yF,
    # without the points within 0.05 of the log singularities
    # |z -+ u| = 1 (z = q/(2 yF), u = omega/(q yF)), where a shift of the
    # edges by O(yF**2) moves the real part without bound.  The imaginary
    # part is compared in subregion B only: subregion A's Im B misses the
    # occupation above the window by O(yF**2) of its own (the region-I
    # Im B defect)
    for xf in (1.0005, 1.0002, 1.00005):
        y_f = fermi_surface(xf).yF
        ms = MediumState(t=0.0, xi=xf)
        worst_re = worst_im = 0.0
        compared = absorbing = 0
        for i in range(25):
            q = (0.05 + 0.1 * i) * y_f
            for j in range(25):
                omega = (0.001 + 0.0025 * j) * y_f
                z, u = q / (2.0 * y_f), omega / (q * y_f)
                if min(abs(abs(z - u) - 1.0), abs(abs(z + u) - 1.0)) < 0.05:
                    continue
                p, _, sub, s = scalars_at(0.5 * omega, 0.5 * q, ms, include_vacuum=False)
                eps = -(p.c2 / p.b**2) * s.B
                nr = NRPoint(omega=omega, q=q, pF=y_f)
                scale = ms.e2 * y_f / (math.pi**2 * q * q) * y_f**2
                worst_re = max(worst_re, abs(eps.real - nr_re_eps(nr, ms)) / scale)
                compared += 1
                if sub.label == "B":
                    worst_im = max(worst_im, abs(eps.imag - nr_im_B(nr, ms)) / scale)
                    absorbing += 1
        assert compared >= 580 and absorbing >= 180
        assert worst_re < 4.0
        assert worst_im < 8.0
