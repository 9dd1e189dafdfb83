"""Digests of every stored benchmark result and of a set of CLI runs.

    python3 tests/fingerprint.py [ROOT]
    python3 tests/fingerprint.py ROOT_A ROOT_B

Prints one sha256 per stored pool of ``perfbench/data`` (the four
workloads, the dispersion defects and the long-wavelength stalls), each
over the ``repr`` of every op's result, or of the type and message of
the exception it raised, in the order of one seed-0 pass.  Then one
line per command of ``CLI_COMMANDS``, named ``cli.NN`` by its index, gives
the command's exit status, the digest of its argv, exit status and
stdout, and the command itself; so a change that moves only the
``t > 0`` commands shows the ``t = 0`` ones unchanged.  Two checkouts
whose lines are equal give bit-identical results on all of them; ROOT
(default: the checkout holding this script) selects the relegas sources
and pools to run, so a commit without this script can be compared too.
With two roots, each is fingerprinted in its own interpreter, only the
lines that differ are printed (``<`` for ROOT_A, ``>`` for ROOT_B), and
the exit status is 1 on any difference, 0 when every line is equal.
pytest does not collect this file.  ``perfbench`` is imported
read-only: no bytecode is written.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

# the commands whose stdout earlier bit-identity checks compared: one
# point in json, csv, warm, region III, eV and on the light cone; cold
# and warm scans serial and parallel (and a refused --jobs 0); cold and
# warm dispersion, including runs that exit 4; nr-scan and boundaries;
# a warm point whose occupation cutoff is 1 ulp above the mass shell;
# points whose b**2 is subnormal or whose c2 is not finite, refused; a
# longitudinal branch whose b runs from below the band-search gate
# (root above a = 32 b) to above the window's start (a region-I prefix
# and the light-cone pole); points with |c2| >= 2**50, refused; both
# branches over a descending b grid; both branches at xF = 2, whose
# roots lie near a = 90 b, above a gate of 32 and below one set by the
# Fermi velocity; every
# scalar and tensor of two points where the vacuum term is its series
# (|c2| <= 0.05), one in region II (json) and one in subregion B (csv);
# both warm branches over a descending b grid;
# two t = 0 points whose Fermi-surface logs are O(b): a deep region-II
# cell, and a small region-I cell whose window lies 2e-4 above xF (a
# guard with an absolute floor refused it); both warm branches without
# --a-range, in the window (a_e/4, 4 a_e)
CLI_COMMANDS = [
    ["response", "--a", "0.5", "--b", "1.0", "--xf", "1.2"],
    ["response", "--a", "0.5", "--b", "1.0", "--xf", "1.2", "--format", "csv"],
    ["response", "--a", "0.5", "--b", "1.0", "--t", "0.05", "--xi", "1.2"],
    ["response", "--a", "2.0", "--b", "1.0", "--t", "0.1", "--xi", "1.5", "--format", "csv"],
    ["response", "--a", "2.0", "--b", "1.0", "--xf", "1.5"],
    ["response", "--a", "0.5", "--b", "0.5", "--xf", "1.2"],
    ["response", "--a", "300000", "--b", "500000", "--xf", "600000", "--units", "ev"],
    ["scan", "--a-range", "0.01", "0.05", "8", "--b-range", "1e-3", "5e-3", "4", "--xf", "1.2"],
    ["scan", "--a-range", "0.01", "0.05", "8", "--b-range", "1e-3", "5e-3", "4", "--xf", "1.2",
     "--jobs", "2"],
    ["scan", "--a-range", "0.01", "0.05", "8", "--b-range", "1e-3", "5e-3", "4", "--xf", "1.2",
     "--jobs", "0"],
    ["scan", "--a-range", "0.01", "0.05", "6", "--b-range", "1e-3", "5e-3", "3", "--t", "0.05",
     "--xi", "1.2"],
    ["scan", "--a-range", "0.01", "0.05", "6", "--b-range", "1e-3", "5e-3", "3", "--t", "0.05",
     "--xi", "1.2", "--jobs", "2"],
    ["dispersion", "--mode", "both", "--b-range", "1e-3", "4e-3", "4", "--xf", "1.5"],
    ["dispersion", "--mode", "both", "--b-range", "1e-3", "4e-3", "3", "--log-b", "--xf", "1.2"],
    ["dispersion", "--mode", "both", "--b-range", "1e-3", "4e-3", "4", "--xf", "2.5",
     "--no-vacuum"],
    ["dispersion", "--mode", "longitudinal", "--b-range", "1e-3", "4e-3", "3", "--log-b",
     "--t", "0.05", "--xi", "1.2", "--a-range", "0.003", "0.06"],
    ["dispersion", "--mode", "both", "--b-range", "1e-3", "4e-3", "3", "--log-b",
     "--t", "0.05", "--xi", "1.2", "--a-range", "0.003", "0.06"],
    ["dispersion", "--mode", "transverse", "--b-range", "0.0023440953085322224",
     "0.00937638123412889", "3", "--log-b", "--xf", "1.0756775835320047"],
    ["nr-scan", "--omega-range", "2e-4", "1.2e-3", "20", "--q-range", "0.01", "0.05", "20",
     "--pf", "0.0316"],
    ["boundaries", "--xf", "1.5", "--a-range", "0", "2", "21"],
    ["response", "--a", "0.5", "--b", "0.3", "--t", "5.6e-18", "--xi", "1.0"],
    ["response", "--a", "0.5", "--b", "1e-300", "--xf", "1.2"],
    ["scan", "--a-range", "0.5", "0.6", "2", "--b-range", "1e-300", "1e-300", "1", "--xf", "1.2"],
    ["response", "--a", "1e200", "--b", "1e199", "--xf", "1.2"],
    ["dispersion", "--mode", "longitudinal", "--b-range", "2e-4", "2e-2", "5", "--log-b",
     "--xf", "1.2"],
    ["response", "--a", "1e150", "--b", "1e100", "--xf", "1.2"],
    ["scan", "--a-range", "1e150", "1e151", "2", "--b-range", "1e100", "1e100", "1", "--xf", "1.2"],
    ["dispersion", "--mode", "both", "--b-range", "4e-3", "1e-3", "3", "--xf", "1.2"],
    ["dispersion", "--mode", "both", "--b-range", "5e-4", "2e-3", "3", "--log-b", "--xf", "2"],
    ["response", "--a", "0.02", "--b", "0.001", "--xf", "1.2"],
    ["response", "--a", "0.3", "--b", "0.32", "--xf", "3", "--format", "csv"],
    ["dispersion", "--mode", "both", "--b-range", "4e-3", "1e-3", "3", "--t", "0.05",
     "--xi", "1.2", "--a-range", "0.003", "0.06"],
    ["response", "--a", "0.986", "--b", "1e-5", "--xf", "1.2"],
    ["response", "--a", "3.997667802843955e-05", "--b", "0.00011292377170355206",
     "--xf", "1.069"],
    ["dispersion", "--mode", "both", "--b-range", "1e-3", "4e-3", "2", "--t", "0.05",
     "--xi", "1.2"],
]


def outcome(run) -> str:
    try:
        return repr(run())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def pools(root: Path) -> dict[str, list]:
    """Every stored pool's ops, by name, in the order of one seed-0 pass."""
    sys.path.insert(0, str(root / "src"))
    import relegas.responses as rl

    bench = str(root / "perfbench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    out = {
        name: next(make(rl).passes(random.Random(0)))
        for name, make in workloads.WORKLOADS.items()
    }
    out["dispersion_defects"] = workloads.dispersion_defects(rl)
    out["long_wavelength_stalls"] = workloads.long_wavelength_stalls(rl)
    return out


def cli_runs(root: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for argv in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "relegas.cli", *argv],
            env=env, cwd=root, capture_output=True, text=True,
        )
        yield argv, proc.returncode, f"{argv} -> {proc.returncode}\n{proc.stdout}"


def compare(roots: list[Path]) -> int:
    """Fingerprint both roots concurrently; print the lines that differ."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, str(root)], env=env, stdout=subprocess.PIPE, text=True
        )
        for root in roots
    ]
    outs = [proc.communicate()[0].splitlines() for proc in procs]
    for root, proc in zip(roots, procs):
        if proc.returncode:
            print(f"error: fingerprint of {root} exited with {proc.returncode}", file=sys.stderr)
            return 2
    # lines are keyed by their name, the first column
    by_name = [{line.split()[0]: line for line in out} for out in outs]
    names = list(dict.fromkeys(name for lines in by_name for name in lines))
    n_diff = 0
    for name in names:
        line_a, line_b = (lines.get(name, f"{name} (missing)") for lines in by_name)
        if line_a != line_b:
            n_diff += 1
            print(f"< {line_a}\n> {line_b}")
    print(f"{n_diff} of {len(names)} lines differ", file=sys.stderr)
    return 1 if n_diff else 0


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        return compare([Path(r).resolve() for r in argv[1:3]])
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.dont_write_bytecode = True
    with warnings.catch_warnings():
        # the sign scan warns about light-cone points it skips
        warnings.simplefilter("ignore")
        for name, ops in pools(root).items():
            print(f"{name:24s} {len(ops):5d} {digest(outcome(op.run) for op in ops)}", flush=True)
    for i, (argv, status, line) in enumerate(cli_runs(root)):
        print(f"{f'cli.{i:02d}':24s} {status:5d} {digest([line])}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
