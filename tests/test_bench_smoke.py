"""The benchmark's own result checks on the first ops of each workload.

Every op of the four ``perfbench`` workloads passes at this version, so
the first ten ops of the seed-1 pass must pass their checks, including
the 1e-6 (t = 0) and 1e-5 (t > 0) comparisons with the stored reference
values, and every function the traced run reports on is still there.
``perfbench`` is imported read-only: no bytecode is written.
"""

import importlib
import inspect
import random
import sys
import warnings
from pathlib import Path

import pytest

import relegas.responses as rl

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _import_read_only(name: str):
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def workloads():
    return _import_read_only("workloads")


def test_traced_functions_are_public_functions_of_their_module():
    # the traced run reports a metric of a function it cannot find as
    # null, so each function it names must stay a public function of
    # its relegas module, as Tracer.install finds them
    worker = _import_read_only("worker")
    tracing = _import_read_only("tracing")
    names = [func for func, _ in worker.FUNCTION_METRICS] + sorted(tracing.COUNT_ONLY)
    for name in names:
        layer, attr = name.split(".")
        assert layer in tracing.LAYERS, name
        mod = importlib.import_module(f"relegas.{layer}")
        fn = getattr(mod, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == mod.__name__, name


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


def test_stored_dispersion_defects_pass_their_checks(workloads):
    # the 33 draws that failed at relegas 0.1.0: 24 transverse branches
    # raised at the light cone, and 9 longitudinal ones kept a spacelike
    # root; the walk that starts above the light cone answers all of them
    ops = workloads.dispersion_defects(rl)
    assert len(ops) == 33
    failed = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, op in enumerate(ops):
            try:
                reason = op.check(op.run())
            except rl.InternalConsistencyError as exc:
                reason = str(exc)
            if reason:
                failed.append((i, reason))
    assert failed == []
