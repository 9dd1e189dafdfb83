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
Under each pool line that differs, a ``~`` line counts the ops whose
results differ and gives the worst |dz|/max(1, |z|) over the numbers of
their reprs, z from ROOT_A (a complex literal is one number); ``inf``
there means that some result differs in more than its numbers.
pytest does not collect this file.  ``perfbench`` is imported
read-only: no bytecode is written.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
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
# --a-range, in the window (a_e/4, 4 a_e); six points of the vacuum
# series branch whose output prints ReC itself, a move of one ulp that
# the pool digests do not see: c2 ~ +-1e-6, +-3e-3 and just inside +-0.05;
# empty thermal seas (an occupation that underflows to 0 at t = 1e-3,
# xi = 0, and a cutoff 1 ulp above the mass shell at t = 5.6e-18), whose
# dispersion runs once crashed: with a window, and without one, where
# the default window (0, 0) is refused; two warm points whose cutoff
# rounds onto |xi| (t = 1e-18 at xi = 1.2, t = 0.1 at xi = 1e18), whose
# medium response once read 0; a cold dispersion at xF = 1e120 and a
# cold scan at xF = 1e200, which once overflowed with a traceback and
# are refused; boundaries at a NaN, infinite or huge xF or a huge a, and
# a point and a warm scan at alpha = 1e308, whose e2 overflows, which
# once printed NaN or inf and exited 0 and are refused; two region-II
# points, whose scalars and tensors are built on floats and printed from
# the complex public records: a warm one in json, and a cold one
# without the vacuum term; two warm region-I points at small t: one whose
# isolated Fermi edge the Gauss-Fermi rule integrates (its thermal tail
# was 4.5e-8 off), and one whose window edge lies 10 t below |xi|, which
# keeps the thermal tail; both warm branches without --a-range over b
# from 1e-4 to 4e-3, across a_e/32, below which a band gate of 32 left
# the roots to the grid walk; a warm region-II point and scan at
# xi = 1e300, whose Gauss-Fermi gate once overflowed with a traceback;
# three points at a = 0, where the two roots of the master integrals'
# denominator coincide: a cold one in subregion A, a cold one whose window
# lies above xF (csv), and a warm one
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
    # the nr-scan subcommand is gone, so this run exits 2; it keeps index
    # 18 so that the later indices keep their meaning
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
    ["response", "--a", "0.5", "--b", "0.499999", "--xf", "1.2"],
    ["response", "--a", "0.5", "--b", "0.500001", "--xf", "1.2"],
    ["response", "--a", "0.5", "--b", "0.497", "--xf", "1.2"],
    ["response", "--a", "0.5", "--b", "0.503", "--xf", "1.2"],
    ["response", "--a", "0.5", "--b", "0.4473", "--xf", "1.2"],
    ["response", "--a", "0.5", "--b", "0.5477", "--xf", "1.2"],
    ["dispersion", "--b-range", "1e-3", "2e-3", "2", "--t", "1e-3", "--xi", "0"],
    ["dispersion", "--b-range", "1e-3", "2e-3", "2", "--t", "1e-3", "--xi", "0",
     "--a-range", "0.001", "0.1"],
    ["dispersion", "--b-range", "1e-3", "2e-3", "2", "--t", "5.6e-18", "--xi", "1.0",
     "--a-range", "0.001", "0.1"],
    ["response", "--a", "0.02", "--b", "0.001", "--t", "1e-18", "--xi", "1.2", "--format", "csv"],
    ["response", "--a", "0.5", "--b", "1.0", "--t", "0.1", "--xi", "1e18", "--format", "csv"],
    ["dispersion", "--b-range", "1e-3", "2e-3", "2", "--xf", "1e120"],
    ["scan", "--a-range", "0.1", "0.2", "2", "--b-range", "1", "1", "1", "--xf", "1e200"],
    ["boundaries", "--xf", "nan", "--a-range", "0.1", "0.2", "2"],
    ["boundaries", "--xf", "inf", "--a-range", "0.1", "0.2", "2"],
    ["boundaries", "--xf", "1e300", "--a-range", "0.1", "0.2", "2"],
    ["boundaries", "--xf", "1.5", "--a-range", "1e300", "1e300", "1"],
    ["response", "--a", "0.5", "--b", "1", "--xi", "1.2", "--alpha", "1e308", "--format", "csv"],
    ["scan", "--a-range", "0.5", "0.5", "1", "--b-range", "1", "1", "1", "--xi", "1.2",
     "--t", "0.1", "--alpha", "1e308"],
    ["response", "--a", "0.8", "--b", "0.3", "--t", "0.05", "--xi", "1.2"],
    ["response", "--a", "0.5", "--b", "0.3", "--xf", "1.2", "--no-vacuum"],
    ["response", "--a", "0.0128", "--b", "0.0524", "--t", "0.00138", "--xi", "2.2"],
    ["response", "--a", "0.5", "--b", "1.0", "--t", "0.005", "--xi", "1.9775"],
    ["dispersion", "--mode", "both", "--b-range", "1e-4", "4e-3", "6", "--log-b",
     "--t", "0.05", "--xi", "1.2"],
    ["response", "--a", "0.5", "--b", "0.3", "--t", "1", "--xi", "1e300"],
    ["scan", "--a-range", "0.5", "0.6", "2", "--b-range", "0.3", "0.3", "1", "--t", "1",
     "--xi", "1e300"],
    ["response", "--a", "0", "--b", "0.3", "--xf", "1.5"],
    ["response", "--a", "0", "--b", "2", "--xf", "1.2", "--format", "csv"],
    ["response", "--a", "0", "--b", "0.3", "--t", "0.05", "--xi", "1.2"],
]


def outcome(run) -> str:
    try:
        return repr(run())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# a real as repr prints it, and a number of a repr: a complex literal
# (re+imj), or a real with an optional j
_REAL = r"(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)"
_NUMBER = re.compile(
    rf"\(([-+]?{_REAL})([-+]{_REAL})j\)|(?<![\w.])([-+]?{_REAL})(j?)(?![\w.])"
)


def numbers(text: str) -> tuple[str, list[complex]]:
    """The repr with its numbers replaced by #, and the numbers in order."""
    found = []

    def take(m: re.Match) -> str:
        re_part, im_part, real, j = m.groups()
        if re_part is not None:
            found.append(complex(float(re_part), float(im_part)))
        else:
            found.append(complex(0.0, float(real)) if j else complex(float(real)))
        return "#"

    return _NUMBER.sub(take, text), found


def worst_change(a: str, b: str) -> float:
    """Worst |zb - za|/max(1, |za|) over the numbers of two reprs.

    0 when they are equal, inf when they differ in more than their
    numbers or a number is NaN on one side only.
    """
    if a == b:
        return 0.0
    (shape_a, zs_a), (shape_b, zs_b) = numbers(a), numbers(b)
    if shape_a != shape_b:
        return math.inf
    worst = 0.0
    for za, zb in zip(zs_a, zs_b):
        if repr(za) != repr(zb):
            d = abs(zb - za) / max(1.0, abs(za))
            worst = max(worst, math.inf if math.isnan(d) else d)
    return worst


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


def pool_change(dumps: list[Path], name: str) -> str:
    """How many ops of one pool differ between two dumps, and by how much."""
    outs = []
    for dump in dumps:
        path = dump / f"{name}.jsonl"
        if not path.exists():
            return "~ not comparable: the pool is missing on one side"
        outs.append([json.loads(line) for line in path.read_text().splitlines()])
    if len(outs[0]) != len(outs[1]):
        return "~ not comparable: the pools differ in length"
    n_moved = sum(a != b for a, b in zip(*outs))
    worst = max(map(worst_change, *outs))
    return f"~ {n_moved} of {len(outs[0])} ops differ, worst |dz|/max(1,|z|) = {worst:.3g}"


def compare(roots: list[Path]) -> int:
    """Fingerprint both roots concurrently; print the lines that differ."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [Path(tmp) / str(i) for i in range(len(roots))]
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, str(root), "--dump", str(dump)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for root, dump in zip(roots, dumps)
        ]
        outs = [proc.communicate()[0].splitlines() for proc in procs]
        for root, proc in zip(roots, procs):
            if proc.returncode:
                print(f"error: fingerprint of {root} exited with {proc.returncode}",
                      file=sys.stderr)
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
                if not name.startswith("cli."):
                    print(pool_change(dumps, name))
    print(f"{n_diff} of {len(names)} lines differ", file=sys.stderr)
    return 1 if n_diff else 0


def main(argv: list[str]) -> int:
    dump = None
    if "--dump" in argv:
        # each pool's outcomes, one JSON string a line, for compare
        i = argv.index("--dump")
        dump = Path(argv[i + 1])
        dump.mkdir(parents=True)
        argv = argv[:i] + argv[i + 2:]
    if len(argv) > 2:
        return compare([Path(r).resolve() for r in argv[1:3]])
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.dont_write_bytecode = True
    with warnings.catch_warnings():
        # the sign scan warns about light-cone points it skips
        warnings.simplefilter("ignore")
        for name, ops in pools(root).items():
            outs = [outcome(op.run) for op in ops]
            if dump is not None:
                (dump / f"{name}.jsonl").write_text("".join(json.dumps(o) + "\n" for o in outs))
            print(f"{name:24s} {len(ops):5d} {digest(outs)}", flush=True)
    for i, (argv, status, line) in enumerate(cli_runs(root)):
        print(f"{f'cli.{i:02d}':24s} {status:5d} {digest([line])}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
