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
from .medium_finite_t import ResponseScalars
from .medium_zero_t import SubregionBoundaryError
from .nr_oracle import NRPoint, nr_case, nr_im_B
from .numerics import Bracket, QuadratureResult, find_root_bracketed, integrate_adaptive
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
    "assemble",
    "classify_region",
    "derive_point",
    "dispersion",
    "fermi_surface",
    "find_root_bracketed",
    "integrate_adaptive",
    "kinematic_window",
    "metamaterial_scan",
    "n_fermi",
    "nr_case",
    "nr_im_B",
    "plasma_frequency_estimate",
    "plasma_moments",
    "region_boundaries",
    "scalars_at",
    "tensors_at",
    "x_cutoff",
    "zero_t_subregion",
    "__version__",
]
