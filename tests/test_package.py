"""The names the package exports: the paper's quantities and their records.

Helpers that only tests or the benchmark's tracer reach stay public in
their modules (relegas.vacuum.c_star, relegas.medium_zero_t.integrals_Ij,
the quadrature and root engines of relegas.numerics, ...), not in the
package namespace.  The nonrelativistic Lindhard oracle is a test module,
tests/lindhard.py, and no part of the package.
"""

import importlib.util

import relegas

PACKAGE_NAMES = {
    "DispersionBranch",
    "FermiSurface",
    "GridCell",
    "InternalConsistencyError",
    "InvalidPointError",
    "KinematicPoint",
    "LightConeError",
    "MediumState",
    "PairThresholdError",
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
    "kinematic_window",
    "metamaterial_scan",
    "n_fermi",
    "plasma_frequency_estimate",
    "plasma_moments",
    "region_boundaries",
    "scalars_at",
    "tensors_at",
    "x_cutoff",
    "zero_t_subregion",
    "__version__",
}


def test_package_exports_the_paper_quantities():
    assert len(relegas.__all__) == len(PACKAGE_NAMES) == 31
    assert set(relegas.__all__) == PACKAGE_NAMES
    for name in relegas.__all__:
        assert hasattr(relegas, name), name
    assert importlib.util.find_spec("relegas.nr_oracle") is None
