"""Time two checkouts against each other in one interpreter.

    python3 tests/ab_timing.py ROOT_A ROOT_B WORKLOAD [PAIRS]

Imports ``src/relegas`` of each root under its own package name
(``relegas_a``, ``relegas_b``) and builds the ops of one seed-1 pass of
WORKLOAD (a name of ``perfbench/workloads.py``) for each, from ROOT_A's
``perfbench``.  After one warm-up pass each, it times PAIRS (default 20)
pairs of passes, the two passes of a pair in random order, and prints
the speed-up of B over A: the ratio A/B of the fastest passes, of the
median passes, and the number of pairs in which B's pass was faster.

Both packages share the interpreter, its caches and the load of the
machine at each moment, so the pairs resolve gains that separate runs
of ``perfbench/run.py`` cannot: on a 2-CPU shared VM those timed the
same code at 71-129 ms per ``dispersion`` pass.  pytest does not collect
this file.  ``perfbench`` is imported read-only: no bytecode is written.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
import statistics
import sys
import time
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
    workloads = load_workloads(root_a)
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[workload]
    passes = {
        label: next(make(load_responses(root, f"relegas_{label}")).passes(random.Random(1)))
        for label, root in (("a", root_a), ("b", root_b))
    }
    times: dict[str, list[float]] = {"a": [], "b": []}
    rng = random.Random(0)
    with warnings.catch_warnings():
        # the sign scan warns about light-cone points it skips
        warnings.simplefilter("ignore")
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
              f"{statistics.median(ts) * 1e3:.2f} ms per pass of {n_ops} ops")
    print(f"{workload}: B/A speed-up {min(times['a']) / min(times['b']):.3f}x on the minimum, "
          f"{statistics.median(times['a']) / statistics.median(times['b']):.3f}x on the median; "
          f"B faster in {wins} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
