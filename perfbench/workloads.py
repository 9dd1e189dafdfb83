"""Inputs, operations and result checks of the four benchmark workloads.

Every workload yields a stream of ops.  An op is a zero-argument
callable into relegas's public API plus a check that decides whether
its result is correct.  Each workload's pool of inputs (and, for the
maps, reference values) is stored in ``data/`` and was produced by
``make_reference.py``; the run's seed sets the order of the ops.  The
draws on which relegas 0.1.0 fails or stalls are stored apart and run
only as probes of the traced run, so every op of a workload passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

DATA_DIR = Path(__file__).resolve().parent / "data"

# Reference comparison: |z - z_ref| <= tol * max(1, |z_ref|) on eps_L and
# nu_L.  At t = 0 the closed forms and the independent t = 0 quadrature
# agree to ~1e-9 on the cold pool; at t > 0 the stored values differ from
# a rel_tol = 1e-12 quadrature by at most ~6e-7 (t = 1e-3 Fermi edge).
# Both tolerances leave >= 15x room for a quadrature or kernel rewrite
# of equal accuracy, and are far below any physics-level change.
ZERO_T_TOL = 1e-6
FINITE_T_TOL = 1e-5
# Below this b only invariants are checked: the long-wavelength values
# are known to be inaccurate, so a later accuracy fix must not read as
# "wrong".
REFERENCE_MIN_B = 1e-3
PASSIVITY_FLOOR = -1e-12

# Distances within which a typed refusal is the documented behaviour.
# The library cuts at |c2| < 1e-9, |c2 - 1| <= 1e-12 and window edges
# within ~1e-14 of xF; the margins here are wider than those cuts.
LIGHT_CONE_NEAR = 2e-9
PAIR_THRESHOLD_NEAR = 1e-11
BOUNDARY_NEAR = 1e-9

# Criterion 8: both b -> 0 extrapolations within 0.5% of the estimate.
# The quadratic-in-b**2 extrapolation only holds while every b of the
# grid is below a_e; beyond that, the roots found are checked, but a root
# may lie outside the search window and the limit is not checked.
PLASMA_REL_TOL = 0.005
ROOT_RESIDUAL_TOL = 1e-6

FINE_STRUCTURE = 1.0 / 137.036


@dataclass
class Op:
    """One benchmark operation and the check of its result."""

    run: Callable[[], object]
    check: Callable[[object], str]  # "" when correct, else a failure kind


@dataclass
class Workload:
    name: str
    deadline_s: float  # per-op wall-time limit
    trace_ops: int  # ops in the traced run (0: one whole pass)
    warmup: Op
    passes: Callable[[random.Random], Iterator[list[Op]]]


# ---------------------------------------------------------------- checks


def plasma_frequency(xF: float) -> float:
    """a_e of a cold gas, a_e**2 = e2 yF**3 / (12 pi**2 xF)."""
    e2 = 4.0 * math.pi * FINE_STRUCTURE
    yF = math.sqrt(xF * xF - 1.0)
    return math.sqrt(e2 * yF**3 / (12.0 * math.pi**2 * xF))


def refusal_expected(a: float, b: float, t: float, xi: float) -> bool:
    """True where a typed refusal (light cone, threshold, boundary) is documented."""
    c2 = a * a - b * b
    if abs(c2) < LIGHT_CONE_NEAR or abs(c2 - 1.0) < PAIR_THRESHOLD_NEAR:
        return True
    if t != 0.0 or 0.0 < c2 < 1.0:
        return False
    g = b * math.sqrt(1.0 - 1.0 / c2)
    return min(abs(abs(a - g) - xi), abs(a + g - xi)) <= BOUNDARY_NEAR * xi


def check_cell(cell, a: float, b: float, t: float, xi: float, ref) -> str:
    """Check one GridCell; ref is (re_eps, im_eps, re_nu, im_nu) or None."""
    if cell.reason:
        return "" if refusal_expected(a, b, t, xi) else "refusal"
    vals = (cell.re_eps_L, cell.im_eps_L, cell.re_nu_L, cell.im_nu_L)
    if not all(math.isfinite(v) for v in vals):
        return "wrong"
    if a > 0.0 and cell.im_eps_L < PASSIVITY_FLOOR:
        return "wrong"
    c2 = a * a - b * b
    if 0.0 < c2 < 1.0 and (cell.im_eps_L != 0.0 or cell.im_nu_L != 0.0):
        return "wrong"
    if b >= REFERENCE_MIN_B and ref is not None:
        tol = ZERO_T_TOL if t == 0.0 else FINITE_T_TOL
        for got, want in (
            (complex(vals[0], vals[1]), complex(ref[0], ref[1])),
            (complex(vals[2], vals[3]), complex(ref[2], ref[3])),
        ):
            if abs(got - want) > tol * max(1.0, abs(want)):
                return "wrong"
    return ""


# ------------------------------------------------------------ cold_map


def cold_row_grid(b: float, xF: float) -> list[float]:
    """a grid of one cold_map row: 31 linear points plus the light cone a = b.

    It runs from region I (a < b) across the light cone into region II,
    past the plasma frequency, and for large b into region III, so rows
    cross the subregion boundaries as well.
    """
    a_e = plasma_frequency(xF)
    lo = 0.1 * min(b, a_e)
    hi = 2.5 * max(b, a_e)
    return sorted([lo + (hi - lo) * i / 30 for i in range(31)] + [b])


def _cold_row_op(rl, row: dict) -> Op:
    b, xF = row["b"], row["xF"]
    grid = cold_row_grid(b, xF)
    ms = rl.MediumState(t=0.0, xi=xF)
    refs = row["ref"]

    def run():
        return rl.metamaterial_scan(grid, [b], ms)

    def check(cells) -> str:
        if len(cells) != len(grid):
            return "wrong"
        for cell, a, ref in zip(cells, grid, refs):
            kind = check_cell(cell, a, b, 0.0, xF, ref)
            if kind:
                return kind
        return ""

    return Op(run, check)


def load_pool(name: str) -> dict:
    with open(DATA_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _pool_passes(rounds: list[list[Op]]) -> Callable[[random.Random], Iterator[list[Op]]]:
    # a pass is the whole pool, rounds and the ops within each round in
    # seeded order; runs take whole passes, so every run has the same mix
    def passes(rng: random.Random) -> Iterator[list[Op]]:
        while True:
            order = list(range(len(rounds)))
            rng.shuffle(order)
            ops: list[Op] = []
            for r in order:
                chunk = list(rounds[r])
                rng.shuffle(chunk)
                ops.extend(chunk)
            yield ops

    return passes


def cold_map(rl) -> Workload:
    pool = load_pool("cold_map")
    rounds = [[_cold_row_op(rl, row) for row in rnd] for rnd in pool["rounds"]]
    return Workload(
        name="cold_map",
        deadline_s=1.0,
        trace_ops=100,
        warmup=rounds[0][0],
        passes=_pool_passes(rounds),
    )


# ------------------------------------------------------------ warm_map


def _cell_op(rl, a: float, b: float, t: float, xi: float, ref) -> Op:
    ms = rl.MediumState(t=t, xi=xi)

    def run():
        return rl.evaluate_cell(a, b, ms)

    def check(cell) -> str:
        return check_cell(cell, a, b, t, xi, ref)

    return Op(run, check)


def warm_map(rl) -> Workload:
    pool = load_pool("warm_map")
    states = pool["states"]
    rounds = [
        [_cell_op(rl, a, b, *states[s], ref) for s, a, b, ref in rnd]
        for rnd in pool["rounds"]
    ]
    return Workload(
        name="warm_map",
        deadline_s=2.0,
        trace_ops=300,
        warmup=rounds[0][0],
        passes=_pool_passes(rounds),
    )


# ---------------------------------------------------------- dispersion


def _dispersion_op(rl, mode: str, xF: float, b0: float) -> Op:
    ms = rl.MediumState(t=0.0, xi=xF)
    a_e = plasma_frequency(xF)
    window = (0.25 * a_e, 4.0 * a_e)
    grid = [b0, 2.0 * b0, 4.0 * b0]

    def run():
        return rl.dispersion(mode, grid, ms, window)

    def check(branch) -> str:
        if not branch.samples or branch.samples[0].b != grid[0]:
            return "wrong"  # the smallest b always has its root in the window
        for s in branch.samples:
            if s.b not in grid or not window[0] < s.root_a < window[1]:
                return "wrong"
            _, _, _, tens = rl.tensors_at(s.root_a, s.b, ms)
            gap = tens.eps_L.real if mode == "longitudinal" else tens.nu_L.real + 1.0
            if not abs(gap) <= ROOT_RESIDUAL_TOL:
                return "wrong"
        # a plasmon is timelike and undamped (region II); the branch keeps
        # a spacelike zero inside the particle-hole continuum whenever it
        # is the smallest root
        if any(s.root_a <= s.b or s.im_at_root != 0.0 for s in branch.samples):
            return "continuum_root"
        if grid[-1] > a_e:
            return ""  # a root may leave the window, and the limit does not hold
        if len(branch.samples) != len(grid):
            return "wrong"
        if abs(branch.plasma_frequency - a_e) > PLASMA_REL_TOL * a_e:
            return "wrong"
        return ""

    return Op(run, check)


DISPERSION_DEADLINE_S = 2.0


def dispersion(rl) -> Workload:
    pool = load_pool("dispersion")
    rounds = [[_dispersion_op(rl, *draw) for draw in rnd] for rnd in pool["rounds"]]
    return Workload(
        name="dispersion",
        deadline_s=DISPERSION_DEADLINE_S,
        trace_ops=24,
        warmup=_dispersion_op(rl, "longitudinal", 1.2, 1e-3),
        passes=_pool_passes(rounds),
    )


def dispersion_defects(rl) -> list[Op]:
    """The stored draws on which relegas 0.1.0 fails (traced run only)."""
    defects = load_pool("dispersion")["defects"]
    return [_dispersion_op(rl, mode, xF, b0) for mode, xF, b0, _ in defects]


# ----------------------------------------------------- long_wavelength

LONG_WAVELENGTH_DEADLINE_S = 2.0
# A stalled cell did not end within half the deadline at relegas 0.1.0
# (most never end); the traced run's probe gives each this long.
STALL_PROBE_S = 0.25


def long_wavelength(rl) -> Workload:
    cells = load_pool("long_wavelength")["cells"]
    return Workload(
        name="long_wavelength",
        deadline_s=LONG_WAVELENGTH_DEADLINE_S,
        trace_ops=0,
        warmup=_cell_op(rl, 0.5, 1e-4, 0.05, 1.2, None),
        passes=_pool_passes([[_cell_op(rl, *cell, None) for cell in cells]]),
    )


def long_wavelength_stalls(rl) -> list[Op]:
    """The stored cells that relegas 0.1.0 does not finish in time (traced run only)."""
    return [_cell_op(rl, *cell, None) for cell in load_pool("long_wavelength")["stalled"]]


WORKLOADS = {
    "cold_map": cold_map,
    "warm_map": warm_map,
    "dispersion": dispersion,
    "long_wavelength": long_wavelength,
}
