"""Spans and call counts around relegas's public functions.

``Tracer.install`` wraps every public function of the traced layers and
puts the wrapper into every ``relegas`` module namespace that holds the
function, so calls between modules are seen too.  Each call becomes a
span (name, parent, start, end) kept in one flat integer array; the
hottest kernels only get a call count.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "kinematics",
    "occupation",
    "numerics",
    "vacuum",
    "medium_finite_t",
    "medium_zero_t",
    "responses",
    "cli",
)
# called ~10^4 times per warm cell: a span each would swamp the timing
COUNT_ONLY = frozenset({"occupation.n_fermi", "medium_finite_t.r1", "medium_finite_t.r2"})
OP = "op"  # name of the benchmark's own per-op root span
QUADRATURE = "numerics.integrate_adaptive"
_FIELDS = 4  # name id, parent index, start ns, end ns


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.spans = array("q")
        self.stack: list[int] = [-1]
        self.counts: dict[str, list[int]] = {}
        self.evals: dict[int, int] = {}  # integrate_adaptive span -> evaluations
        self.unconverged: set[int] = set()
        self.roots: dict[int, int] = {}  # dispersion span -> roots found
        self.present: set[str] = set()  # "layer.func" names that were wrapped
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------ installation

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"relegas.{layer}")
            except ImportError:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.present.add(name)
                if name in COUNT_ONLY:
                    wrappers[fn] = self._counter(fn, name)
                else:
                    wrappers[fn] = self._span(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "relegas" and not modname.startswith("relegas."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved.clear()

    def _counter(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        observe = {
            QUADRATURE: self._observe_quadrature,
            "responses.dispersion": self._observe_dispersion,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // _FIELDS
            # one extend call, so a deadline signal cannot split a record
            spans.extend((nid, stack[-1], clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 3] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, result)
            return result

        return wrapper

    def _observe_quadrature(self, idx: int, result) -> None:
        evals = getattr(result, "evaluations", None)
        if evals is not None:
            self.evals[idx] = evals
        if getattr(result, "converged", True) is False:
            self.unconverged.add(idx)

    def _observe_dispersion(self, idx: int, result) -> None:
        samples = getattr(result, "samples", None)
        if samples is not None:
            self.roots[idx] = len(samples)

    # ------------------------------------------------------- op bracket

    def open_op(self) -> int:
        idx = len(self.spans) // _FIELDS
        self.spans.extend((0, -1, time.perf_counter_ns(), 0))
        self.stack[:] = [-1, idx]
        return idx

    def close_op(self, idx: int, interrupted: bool) -> None:
        """End the op span; after a deadline, also close the spans it cut."""
        now = time.perf_counter_ns()
        self.spans[idx * _FIELDS + 3] = now
        self.stack[:] = [-1]
        if not interrupted:
            return
        quad = self.names.index(QUADRATURE) if QUADRATURE in self.names else None
        for i in range(idx, self.n_spans):
            if self.spans[i * _FIELDS + 3] == 0:
                self.spans[i * _FIELDS + 3] = now
                if self.spans[i * _FIELDS] == quad:
                    self.unconverged.add(i)  # cut off before converging

    @property
    def n_spans(self) -> int:
        return len(self.spans) // _FIELDS

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    # ------------------------------------------------------- summaries

    def summarize(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per name over spans [first, last): calls, self_ns, evals, unconverged, roots."""
        sp = self.spans
        n = last - first
        child = [0] * n
        for i in range(first, last):
            k = i * _FIELDS
            p = sp[k + 1]
            if p >= first:
                child[p - first] += sp[k + 3] - sp[k + 2]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0, "evals": 0, "unconverged": 0, "roots": 0}
        )
        for i in range(first, last):
            k = i * _FIELDS
            rec = out[self.names[sp[k]]]
            rec["calls"] += 1
            rec["self_ns"] += sp[k + 3] - sp[k + 2] - child[i - first]
            rec["evals"] += self.evals.get(i, 0)
            rec["unconverged"] += i in self.unconverged
            rec["roots"] += self.roots.get(i, 0)
        return out

    def write(self, path: Path) -> None:
        """Write every span as tab-separated name, parent, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        sp = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(self.n_spans):
                k = i * _FIELDS
                fh.write(f"{i}\t{self.names[sp[k]]}\t{sp[k + 1]}\t{sp[k + 2]}\t{sp[k + 3]}\n")
