"""Electromagnetic response of a relativistic electron gas.

Finite-temperature and zero-temperature polarization scalars, dielectric
tensors, plasmon dispersion and metamaterial-band detection, all in the
dimensionless variables a = omega/2m, b = |q|/2m, t = k_B T/m,
xi = mu/m.
"""

from .kinematics import (
    FermiSurface,
    InternalConsistencyError,
    InvalidPointError,
    KinematicPoint,
    LightConeError,
    PairThresholdError,
    RegionLabel,
    SubregionLabel,
    classify_region,
    derive_point,
    fermi_surface,
    kinematic_window,
    region_boundaries,
    zero_t_subregion,
)
from .medium_finite_t import ResponseScalars, im_scalars, r1, r2, re_scalars
from .medium_zero_t import (
    SubregionBoundaryError,
    ZeroTCoefficients,
    integrals_Ij,
    scalars_zero_t,
    zero_t_coefficients,
)
from .nr_oracle import NRPoint, nr_case, nr_im_B
from .numerics import (
    Bracket,
    QuadratureResult,
    find_root_bracketed,
    integrate_adaptive,
    scan_sign_changes,
)
from .occupation import MediumState, n_fermi, x_cutoff
from .responses import (
    DispersionBranch,
    GridCell,
    ResponseTensors,
    RootSample,
    assemble,
    dispersion,
    metamaterial_scan,
    plasma_frequency_estimate,
    plasma_moments,
    scalars_at,
    tensors_at,
)
from .vacuum import VacuumScalar, c_star

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "DispersionBranch",
    "FermiSurface",
    "GridCell",
    "InternalConsistencyError",
    "InvalidPointError",
    "KinematicPoint",
    "LightConeError",
    "MediumState",
    "NRPoint",
    "PairThresholdError",
    "QuadratureResult",
    "RegionLabel",
    "ResponseScalars",
    "ResponseTensors",
    "RootSample",
    "SubregionBoundaryError",
    "SubregionLabel",
    "VacuumScalar",
    "ZeroTCoefficients",
    "assemble",
    "c_star",
    "classify_region",
    "derive_point",
    "dispersion",
    "fermi_surface",
    "find_root_bracketed",
    "im_scalars",
    "integrals_Ij",
    "integrate_adaptive",
    "kinematic_window",
    "metamaterial_scan",
    "n_fermi",
    "nr_case",
    "nr_im_B",
    "plasma_frequency_estimate",
    "plasma_moments",
    "r1",
    "r2",
    "re_scalars",
    "region_boundaries",
    "scalars_at",
    "scalars_zero_t",
    "scan_sign_changes",
    "tensors_at",
    "x_cutoff",
    "zero_t_coefficients",
    "zero_t_subregion",
    "__version__",
]
