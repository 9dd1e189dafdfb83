"""Command-line interface.

Subcommands:

* ``response``    one (a, b) point -> JSON (or flat CSV) record,
* ``scan``        (a, b) grid -> CSV map of eps_L, nu_L and the
  metamaterial flag,
* ``dispersion``  plasmon branches over a b grid -> CSV, including the
  b -> 0 extrapolated plasma frequency,
* ``nr-scan``     nonrelativistic Lindhard case map -> CSV,
* ``boundaries``  zero-temperature subregion boundary curves -> CSV.

Inputs are dimensionless by default (energies in units of 2m for a and
b, of m for t and xi); ``--units ev`` switches all of them to
electron-volts.  Exit status: 0 on success, 2 for invalid input, 3 when
the output cannot be written, 4 when a numerical consistency check
failed (the dual-path check of the tensors).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .kinematics import InternalConsistencyError, fermi_surface, region_boundaries
from .nr_oracle import NRPoint, nr_case, nr_im_B
from .occupation import MediumState
from .responses import (
    GridCell,
    assemble,
    dispersion,
    evaluate_cell,
    plasma_frequency_estimate,
    scalars_at,
)

ELECTRON_MASS_EV = 510998.95
OUTPUT_DIR_ENV = "RELEGAS_OUTPUT_DIR"

SCAN_COLUMNS = GridCell._fields


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError("log spacing needs positive endpoints")
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


def _range_arg(parser: argparse.ArgumentParser, name: str, help_text: str) -> None:
    parser.add_argument(
        name,
        nargs=3,
        metavar=("LO", "HI", "N"),
        type=float,
        help=help_text,
    )


def _grid_from_range(rng: list[float], log: bool = False) -> list[float]:
    lo, hi, n_float = rng
    if not math.isfinite(n_float):
        raise ValueError(f"grid size {n_float} must be finite")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid range {lo} to {hi} must be finite")
    n = int(round(n_float))
    if n < 1:
        raise ValueError(f"grid size {n_float} must be >= 1")
    return _geomspace(lo, hi, n) if log else _linspace(lo, hi, n)


def _medium_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t", type=float, default=0.0, help="temperature (default 0)")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--xi", type=float, help="chemical potential")
    group.add_argument("--xf", type=float, dest="xi", help="alias for --xi (Fermi energy at t = 0)")
    sub.add_argument("--alpha", type=float, default=1.0 / 137.036, help="fine-structure constant")
    sub.add_argument("--no-vacuum", action="store_true", help="drop the vacuum polarization term")
    sub.add_argument("--units", choices=("m", "ev"), default="m", help="input units (default dimensionless)")


def _output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", help="output file (default stdout); relative paths honor $" + OUTPUT_DIR_ENV)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relegas",
        description="Electromagnetic response of a relativistic electron gas.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    resp = subs.add_parser("response", help="evaluate one (a, b) point")
    resp.add_argument("--a", type=float, required=True, help="frequency omega/2m")
    resp.add_argument("--b", type=float, required=True, help="momentum |q|/2m")
    _medium_args(resp)
    resp.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    _output_args(resp)

    scan = subs.add_parser("scan", help="map eps_L/nu_L over an (a, b) grid")
    _range_arg(scan, "--a-range", "frequency grid: LO HI N")
    _range_arg(scan, "--b-range", "momentum grid: LO HI N")
    _medium_args(scan)
    scan.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _output_args(scan)

    disp = subs.add_parser("dispersion", help="trace plasmon branches over b")
    disp.add_argument(
        "--mode",
        choices=("longitudinal", "transverse", "both"),
        default="both",
    )
    _range_arg(disp, "--b-range", "momentum grid: LO HI N")
    disp.add_argument("--log-b", action="store_true", help="log-spaced b grid")
    disp.add_argument(
        "--a-range",
        nargs=2,
        metavar=("LO", "HI"),
        type=float,
        help="root search window in a (default: a_e/4 to 4 a_e, a_e the plasma estimate)",
    )
    _medium_args(disp)
    _output_args(disp)

    nr = subs.add_parser("nr-scan", help="nonrelativistic Lindhard case map")
    _range_arg(nr, "--omega-range", "frequency grid: LO HI N")
    _range_arg(nr, "--q-range", "momentum grid: LO HI N")
    nr.add_argument("--pf", type=float, required=True, help="Fermi momentum")
    nr.add_argument("--alpha", type=float, default=1.0 / 137.036)
    _output_args(nr)

    bnd = subs.add_parser("boundaries", help="T = 0 subregion boundary curves b(a)")
    bnd.add_argument("--xf", type=float, required=True, help="Fermi energy")
    _range_arg(bnd, "--a-range", "frequency grid: LO HI N")
    _output_args(bnd)

    return parser


def _resolve_units(args: argparse.Namespace) -> tuple[float, float]:
    """Return (energy_scale_ab, energy_scale_txi): divisors for inputs."""
    if getattr(args, "units", "m") == "ev":
        return 2.0 * ELECTRON_MASS_EV, ELECTRON_MASS_EV
    return 1.0, 1.0


def _medium_state(args: argparse.Namespace) -> MediumState:
    _, scale_txi = _resolve_units(args)
    return MediumState(t=args.t / scale_txi, xi=args.xi / scale_txi, alpha=args.alpha)


def _float_cell(x: float) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_float_cell(v) for v in row])
    return buf.getvalue()


def _cmd_response(args: argparse.Namespace) -> str:
    scale_ab, _ = _resolve_units(args)
    a = args.a / scale_ab
    b = args.b / scale_ab
    ms = _medium_state(args)
    include_vacuum = not args.no_vacuum
    p, region, sub, s = scalars_at(a, b, ms, include_vacuum=include_vacuum)
    tens = assemble(s, p)
    record = {
        "inputs": {
            "a": a,
            "b": b,
            "t": ms.t,
            "xi": ms.xi,
            "alpha": ms.alpha,
            "include_vacuum": include_vacuum,
            "units": args.units,
        },
        "region": region.value,
        "subregion": sub.label if sub is not None else None,
        "scalars": {
            key: part
            for name, val in zip(s._fields, s)
            for key, part in ((f"Re{name}", val.real), (f"Im{name}", val.imag))
        },
        "tensors": {
            name: {"re": val.real, "im": val.imag} for name, val in zip(tens._fields, tens)
        },
    }
    if args.fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    header = ["a", "b", "region", "subregion"]
    row: list = [a, b, region.value, sub.label if sub is not None else ""]
    for key, val in record["scalars"].items():
        header.append(key)
        row.append(val)
    for name, pair in record["tensors"].items():
        header.extend((f"re_{name}", f"im_{name}"))
        row.extend((pair["re"], pair["im"]))
    return _csv_text(tuple(header), [tuple(row)])


def _scan_row(ab: tuple[float, float], ms: MediumState, include_vacuum: bool) -> GridCell:
    """The scan cell at ab = (a, b), its flag spelled as in the CSV."""
    cell = evaluate_cell(*ab, ms, include_vacuum=include_vacuum)
    return cell._replace(metamaterial="true" if cell.metamaterial else "false")


def _cmd_scan(args: argparse.Namespace) -> str:
    scale_ab, _ = _resolve_units(args)
    a_grid = [a / scale_ab for a in _grid_from_range(args.a_range)]
    b_grid = [b / scale_ab for b in _grid_from_range(args.b_range)]
    row = functools.partial(_scan_row, ms=_medium_state(args), include_vacuum=not args.no_vacuum)
    cells = [(a, b) for b in b_grid for a in a_grid]
    # the pool may start every worker at once, so never ask for more than
    # there are cells or CPUs
    jobs = min(args.jobs, len(cells), os.cpu_count() or 1)
    if jobs == 1:
        rows = list(map(row, cells))
    else:
        # imported here: multiprocessing adds ~2 MB and start-up time to
        # every command, and only a parallel scan uses it
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(cells) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, cells, chunksize=chunk))
    return _csv_text(SCAN_COLUMNS, rows)


def _cmd_dispersion(args: argparse.Namespace) -> str:
    scale_ab, _ = _resolve_units(args)
    b_grid = [b / scale_ab for b in _grid_from_range(args.b_range, log=args.log_b)]
    ms = _medium_state(args)
    include_vacuum = not args.no_vacuum
    if args.a_range is not None:
        a_lo, a_hi = (v / scale_ab for v in args.a_range)
    else:
        guess = plasma_frequency_estimate(ms)
        a_lo, a_hi = 0.25 * guess, 4.0 * guess
    modes = ("longitudinal", "transverse") if args.mode == "both" else (args.mode,)
    rows: list[tuple] = []
    for mode in modes:
        branch = dispersion(
            mode, b_grid, ms, (a_lo, a_hi), include_vacuum=include_vacuum
        )
        for s in branch.samples:
            rows.append((s.b, mode, s.root_a, s.residual, s.im_at_root))
        rows.append((0.0, mode, branch.plasma_frequency, math.nan, math.nan))
    return _csv_text(("b", "mode", "root_a", "residual", "im_at_root"), rows)


def _cmd_nr_scan(args: argparse.Namespace) -> str:
    omega_grid = _grid_from_range(args.omega_range)
    q_grid = _grid_from_range(args.q_range)
    ms = MediumState(t=0.0, xi=1.0, alpha=args.alpha)
    rows = []
    for q in q_grid:
        for omega in omega_grid:
            point = NRPoint(omega=omega, q=q, pF=args.pf)
            rows.append((omega, q, nr_case(point), nr_im_B(point, ms)))
    return _csv_text(("omega", "q", "case", "im_b"), rows)


def _cmd_boundaries(args: argparse.Namespace) -> str:
    fs = fermi_surface(args.xf)
    keys = ("b_plus", "b_minus", "bbar_plus", "bbar_minus", "bprime_plus", "bprime_minus")
    rows = []
    for a in _grid_from_range(args.a_range):
        curves = region_boundaries(fs, a)
        rows.append((a, *(curves.get(k, math.nan) for k in keys)))
    return _csv_text(("a",) + keys, rows)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = output
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    with open(path, "w", newline="") as fh:
        fh.write(text)


_DISPATCH = {
    "response": _cmd_response,
    "scan": _cmd_scan,
    "dispersion": _cmd_dispersion,
    "nr-scan": _cmd_nr_scan,
    "boundaries": _cmd_boundaries,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        print(f"error: --jobs {jobs} must be >= 1", file=sys.stderr)
        return 2
    try:
        text = _DISPATCH[args.command](args)
    except ValueError as exc:  # InvalidPointError and SubregionBoundaryError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        _write_output(text, args.output)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
