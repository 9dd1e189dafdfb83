"""Time two checkouts against each other in one interpreter.

    python3 tests/ab_timing.py ROOT_A ROOT_B WORKLOAD [PAIRS]

Imports ``src/relegas`` of each root under its own package name
(``relegas_a``, ``relegas_b``) and builds the ops of one seed-1 pass of
WORKLOAD (a name of ``perfbench/workloads.py``) for each, from ROOT_A's
``perfbench``.  After one warm-up pass each, it times PAIRS (default 20)
pairs of passes, the two passes of a pair in random order, and prints
the speed-up of B over A: the ratio A/B of the fastest passes, of the
median passes, and the number of pairs in which B's pass was faster.
Before the timed passes, one untimed pass of each counts its
``derive_point`` calls, the points the pass evaluates.

WORKLOAD may also be ``warm_dispersion``, a pass built here and not in
``perfbench``: both plasmon branches at 8 log-spaced b in [1e-3, 1] a_e,
in the window (a_e/4, 4 a_e), at (t, xi) = (0.05, 1.2), (1, 0) and
(0.2, -1.1), one op per branch.

Both packages share the interpreter, its caches and the load of the
machine at each moment, so the pairs resolve gains that separate runs
of ``perfbench/run.py`` cannot: on a 2-CPU shared VM those timed the
same code at 71-129 ms per ``dispersion`` pass.  pytest does not collect
this file.  ``perfbench`` is imported read-only: no bytecode is written.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import random
import statistics
import sys
import time
import types
import warnings
from pathlib import Path


def load_responses(root: Path, name: str):
    """relegas.responses of root, imported as the package name."""
    pkg = root / "src" / "relegas"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.responses")


def load_workloads(root: Path):
    bench = str(root / "perfbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


# (t, xi) of the warm_dispersion pass
WARM_DISPERSION_STATES = ((0.05, 1.2), (1.0, 0.0), (0.2, -1.1))


def warm_dispersion_ops(rl) -> list:
    """The ops of the warm_dispersion pass, one dispersion call each."""
    ops = []
    for t, xi in WARM_DISPERSION_STATES:
        ms = rl.MediumState(t=t, xi=xi)
        a_e = rl.plasma_frequency_estimate(ms)
        b_grid = [1e-3 * a_e * 1e3 ** (i / 7) for i in range(8)]
        window = (0.25 * a_e, 4.0 * a_e)
        for mode in ("longitudinal", "transverse"):
            run = functools.partial(rl.dispersion, mode, b_grid, ms, window)
            ops.append(types.SimpleNamespace(run=run))
    return ops


def counted_pass(responses, ops) -> int:
    """derive_point calls of one pass of ops, through the responses module."""
    inner = responses.derive_point
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return inner(a, b)

    responses.derive_point = counted
    try:
        timed_pass(ops)
    finally:
        responses.derive_point = inner
    return calls


def timed_pass(ops) -> float:
    t0 = time.perf_counter()
    for op in ops:
        op.run()
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root_a, root_b = (Path(r).resolve() for r in argv[1:3])
    workload = argv[3]
    pairs = int(argv[4]) if len(argv) > 4 else 20
    sys.dont_write_bytecode = True
    workloads = load_workloads(root_a).WORKLOADS
    if workload == "warm_dispersion":
        build = warm_dispersion_ops
    elif workload in workloads:
        def build(rl):
            return next(workloads[workload](rl).passes(random.Random(1)))
    else:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    modules = {
        label: load_responses(root, f"relegas_{label}")
        for label, root in (("a", root_a), ("b", root_b))
    }
    passes = {label: build(rl) for label, rl in modules.items()}
    times: dict[str, list[float]] = {"a": [], "b": []}
    rng = random.Random(0)
    with warnings.catch_warnings():
        # the sign scan warns about light-cone points it skips
        warnings.simplefilter("ignore")
        calls = {label: counted_pass(modules[label], ops) for label, ops in passes.items()}
        for ops in passes.values():
            timed_pass(ops)
        for _ in range(pairs):
            order = ["a", "b"]
            rng.shuffle(order)
            for label in order:
                times[label].append(timed_pass(passes[label]))
    wins = sum(tb < ta for ta, tb in zip(times["a"], times["b"]))
    n_ops = len(passes["a"])
    for label, root in (("A", root_a), ("B", root_b)):
        ts = times[label.lower()]
        print(f"{label} {root}: min {min(ts) * 1e3:.2f} ms, median "
              f"{statistics.median(ts) * 1e3:.2f} ms per pass of {n_ops} ops, "
              f"{calls[label.lower()]} derive_point calls")
    print(f"{workload}: B/A speed-up {min(times['a']) / min(times['b']):.3f}x on the minimum, "
          f"{statistics.median(times['a']) / statistics.median(times['b']):.3f}x on the median; "
          f"B faster in {wins} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
