import math

import pytest

from relegas import MediumState, NRPoint, nr_case, nr_im_B
from relegas.medium_zero_t import scalars_zero_t
from relegas.kinematics import derive_point, fermi_surface
from conftest import rel_err

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
