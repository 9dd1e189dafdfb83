"""The names the package exports: the paper's quantities and their records.

Helpers that only tests or the benchmark's tracer reach stay public in
their modules (relegas.vacuum.c_star, relegas.medium_zero_t.integrals_Ij,
...), not in the package namespace.
"""

import relegas

PACKAGE_NAMES = {
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
}


def test_package_exports_the_paper_quantities():
    assert len(relegas.__all__) == len(PACKAGE_NAMES) == 38
    assert set(relegas.__all__) == PACKAGE_NAMES
    for name in relegas.__all__:
        assert hasattr(relegas, name), name
