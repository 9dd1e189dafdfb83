"""Regenerate the stored input pools and reference values in ``data/``.

    python3 perfbench/make_reference.py

The pools are drawn from a fixed seed, evaluated with the relegas in
``src/`` and stored with eps_L and nu_L to 10 significant digits (the
checks compare at 1e-6 and 1e-5 relative).  Draws on which relegas fails
(dispersion) or does not finish within a tenth of the workload's deadline
(long_wavelength) are stored apart, as the traced run's defect probes,
so that every op of a workload passes.  Regenerating replaces the
reference: do it only when a change of the reference values is intended
and explained.
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import relegas.responses as rl  # noqa: E402

import worker as wk  # noqa: E402
import workloads as w  # noqa: E402

POOL_SEED = 1704
# (t, xi) of the finite-temperature states shared by warm_map and
# long_wavelength: warm, hot, intermediate, two near-degenerate, xi < 0.
WARM_STATES = (
    (0.05, 1.2),
    (1.0, 0.0),
    (0.3, 0.5),
    (0.01, 1.2),
    (1e-3, 1.2),
    (0.2, -1.1),
)
COLD_STATE = (0.0, 1.2)
CELL_A = (1e-3, 4.0)
COLD_ROUNDS = 8
COLD_B = (1e-3, 1.5)
COLD_XF = (1.02, 3.0)
COLD_B_BINS = 6
COLD_XF_BINS = 4
WARM_ROUNDS = 20
WARM_BINS = 4  # per axis, log-uniform a and b in CELL_A
DISPERSION_ROUNDS = 8
DISPERSION_MODES = ("longitudinal", "transverse")
DISPERSION_XF = (1.02, 3.0)
DISPERSION_B0 = (5e-4, 3e-3)
DISPERSION_BINS = 4  # per drawn coordinate
LONG_WAVELENGTH_B = (1e-8, 1e-3)
LONG_WAVELENGTH_PER_DECADE = 6  # cells per state and decade of b
LONG_WAVELENGTH_SEED = 20170417
# the cell on which integrate_adaptive is known never to end
HANG_REPRO = (0.002, 1e-7, 0.05, 1.2)
KNOWN_DISPERSION_DEFECTS = ("exception:InternalConsistencyError", "continuum_root")


def log_uniform(rng: random.Random, lo: float, hi: float, k: int, n: int) -> float:
    """Log-uniform draw within bin k of n equal log-bins of [lo, hi]."""
    llo, lhi = math.log(lo), math.log(hi)
    width = (lhi - llo) / n
    return math.exp(llo + width * (k + rng.random()))


def _sig(x: float) -> float:
    return float(f"{x:.10g}")


def _ref(cell) -> list[float] | None:
    if cell.reason:
        return None
    return [_sig(v) for v in (cell.re_eps_L, cell.im_eps_L, cell.re_nu_L, cell.im_nu_L)]


def cold_pool(rng: random.Random) -> dict:
    rounds = []
    for _ in range(COLD_ROUNDS):
        rnd = []
        for i in range(COLD_XF_BINS):
            for j in range(COLD_B_BINS):
                lo, hi = COLD_XF
                xF = lo + (hi - lo) * (i + rng.random()) / COLD_XF_BINS
                b = log_uniform(rng, *COLD_B, j, COLD_B_BINS)
                ms = rl.MediumState(t=0.0, xi=xF)
                grid = w.cold_row_grid(b, xF)
                cells = rl.metamaterial_scan(grid, [b], ms)
                for cell, a in zip(cells, grid):
                    if w.check_cell(cell, a, b, 0.0, xF, None):
                        raise SystemExit(f"cold cell fails its own check: {cell}")
                rnd.append({"b": b, "xF": xF, "ref": [_ref(c) for c in cells]})
        rounds.append(rnd)
    return {"rounds": rounds}


def warm_pool(rng: random.Random) -> dict:
    rounds = []
    for _ in range(WARM_ROUNDS):
        rnd = []
        for s, (t, xi) in enumerate(WARM_STATES):
            ms = rl.MediumState(t=t, xi=xi)
            for i in range(WARM_BINS):
                for j in range(WARM_BINS):
                    a = log_uniform(rng, *CELL_A, i, WARM_BINS)
                    b = log_uniform(rng, *CELL_A, j, WARM_BINS)
                    cell = rl.evaluate_cell(a, b, ms)
                    if w.check_cell(cell, a, b, t, xi, None):
                        raise SystemExit(f"warm cell fails its own check: {cell}")
                    rnd.append([s, a, b, _ref(cell)])
        rounds.append(rnd)
        print(f"warm round {len(rounds)}/{WARM_ROUNDS}", file=sys.stderr)
    return {"states": [list(s) for s in WARM_STATES], "rounds": rounds}


def dispersion_pool(rng: random.Random) -> dict:
    rounds, defects = [], []
    lo, hi = DISPERSION_XF
    for _ in range(DISPERSION_ROUNDS):
        rnd = []
        for mode in DISPERSION_MODES:
            for i in range(DISPERSION_BINS):
                for j in range(DISPERSION_BINS):
                    xF = lo + (hi - lo) * (i + rng.random()) / DISPERSION_BINS
                    b0 = log_uniform(rng, *DISPERSION_B0, j, DISPERSION_BINS)
                    op = w._dispersion_op(rl, mode, xF, b0)
                    kind, result, _ = wk.run_op(op, w.DISPERSION_DEADLINE_S)
                    kind = kind or wk.check(op, result)
                    if not kind:
                        rnd.append([mode, xF, b0])
                    elif kind in KNOWN_DISPERSION_DEFECTS:
                        defects.append([mode, xF, b0, kind])
                    else:
                        raise SystemExit(f"dispersion draw fails ({kind}): {mode} {xF} {b0}")
        rounds.append(rnd)
    return {"rounds": rounds, "defects": defects}


def long_wavelength_pool() -> dict:
    """Per state, six cells in each decade of b, plus the hang repro."""
    rng = random.Random(LONG_WAVELENGTH_SEED)
    decades = round(math.log10(LONG_WAVELENGTH_B[1] / LONG_WAVELENGTH_B[0]))
    draws = []
    for t, xi in WARM_STATES + (COLD_STATE,):
        for k in range(decades):
            for _ in range(LONG_WAVELENGTH_PER_DECADE):
                b = log_uniform(rng, *LONG_WAVELENGTH_B, k, decades)
                a = log_uniform(rng, *CELL_A, 0, 1)
                draws.append([a, b, t, xi])
    draws.append(list(HANG_REPRO))
    cells, stalled = [], []
    for a, b, t, xi in draws:
        op = w._cell_op(rl, a, b, t, xi, None)
        kind, result, _ = wk.run_op(op, 0.5 * w.LONG_WAVELENGTH_DEADLINE_S)
        kind = kind or wk.check(op, result)
        if not kind:
            cells.append([a, b, t, xi])
        elif kind == "timeout":
            stalled.append([a, b, t, xi])
        else:
            raise SystemExit(f"long_wavelength cell fails ({kind}): {a} {b} {t} {xi}")
    return {"cells": cells, "stalled": stalled}


def main() -> int:
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGALRM, wk._on_alarm)
    rng = random.Random(POOL_SEED)
    w.DATA_DIR.mkdir(exist_ok=True)
    pools = (
        ("cold_map", cold_pool),
        ("warm_map", warm_pool),
        ("dispersion", dispersion_pool),
        ("long_wavelength", lambda _: long_wavelength_pool()),
    )
    for name, build in pools:
        pool = build(rng)
        with open(w.DATA_DIR / f"{name}.json", "w") as fh:
            json.dump(pool, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
