"""The benchmark's own result checks on the first ops of each workload.

Every op of the four ``perfbench`` workloads passes at this version, so
the first ten ops of the seed-1 pass must pass their checks, including
the 1e-6 (t = 0) and 1e-5 (t > 0) comparisons with the stored reference
values.  ``perfbench`` is imported read-only: no bytecode is written.
"""

import importlib
import random
import sys
import warnings
from pathlib import Path

import pytest

import relegas.responses as rl

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize("name", ["cold_map", "warm_map", "dispersion", "long_wavelength"])
def test_first_ops_pass_their_checks(workloads, name):
    wl = workloads.WORKLOADS[name](rl)
    ops = next(wl.passes(random.Random(1)))[:10]
    assert len(ops) == 10
    with warnings.catch_warnings():
        # the sign scan warns about light-cone points it skips
        warnings.simplefilter("ignore")
        for op in ops:
            assert op.check(op.run()) == ""
