"""One workload in a fresh interpreter: set-up, then the timed or traced phase.

Started by ``run.py``.  It imports relegas from the checkout's ``src``,
builds the workload's inputs from the seed and runs one warm-up op, then
prints ``ready``.  With ``--setup-only`` it exits there; otherwise it
waits for a line on stdin and prints one JSON line with its results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# tensors_at(a, b, MediumState(t, xi)) with the evaluation counts they
# are pinned to: a t = 0 point uses no quadrature at all
PROBES = {
    "cold_I": (0.5, 1.0, 0.0, 1.2),
    "warm_I": (0.5, 1.0, 0.05, 1.2),
    "hot_I": (0.5, 1.0, 1.0, 0.0),
    "warm_II": (0.8, 0.3, 0.05, 1.2),
}
# t = 0 transverse branch whose Brent search reaches |c2| ~ 1.5e-9 and
# makes assemble raise InternalConsistencyError out of the CLI
CLI_REPRO = [
    "dispersion", "--mode", "transverse",
    "--b-range", "0.0023440953085322224", "0.00937638123412889", "3",
    "--log-b", "--xf", "1.0756775835320047",
]
PROBE_REPEATS = 3
# the reference kernel: REFERENCE_STEPS iterations take about REFERENCE_S
# on an idle core of the shared 2-core 2.1 GHz x86-64 VM it was tuned on
REFERENCE_STEPS = 700
REFERENCE_S = 0.65e-3
CALIBRATE_EVERY_S = 0.02
TRACE_SHARE = 0.5  # cap on the traced phase, as a share of --seconds

# metrics of single functions: (function, fields reported per op)
FUNCTION_METRICS = (
    ("numerics.integrate_adaptive", ("calls", "evals", "self_ms", "unconverged")),
    ("kinematics.derive_point", ("calls", "self_ms")),
    ("kinematics.classify_region", ("calls", "self_ms")),
    ("kinematics.zero_t_subregion", ("calls", "self_ms")),
    ("medium_zero_t.scalars_zero_t", ("self_ms",)),
    ("vacuum.c_star", ("self_ms",)),
    ("responses.assemble", ("self_ms",)),
    ("responses.tensors_at", ("calls",)),
    ("responses.dispersion", ("self_ms",)),
    ("numerics.scan_sign_changes", ("calls",)),
    ("numerics.find_root_bracketed", ("calls",)),
    ("medium_finite_t.re_scalars", ("self_ms",)),
    ("medium_finite_t.im_scalars", ("self_ms",)),
)
SELF_TIME_LAYERS = (
    "kinematics",
    "occupation",
    "numerics",
    "vacuum",
    "medium_finite_t",
    "medium_zero_t",
    "responses",
)


class Deadline(BaseException):
    """An op ran past its wall-time limit (BaseException: no library handler catches it)."""


_armed = False


def _on_alarm(signum, frame) -> None:
    if _armed:
        raise Deadline()


def run_op(op, limit: float) -> tuple[str, object, float]:
    """Run op.run() under a wall-time limit -> (failure kind or "", result, seconds)."""
    global _armed
    t0 = time.perf_counter()
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = op.run()
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except Deadline:
        _armed = False
        return "timeout", None, time.perf_counter() - t0
    except Exception as exc:  # every unexpected exception is a failed op
        return f"exception:{type(exc).__name__}", None, time.perf_counter() - t0
    return "", result, time.perf_counter() - t0


def check(op, result) -> str:
    try:
        return op.check(result)
    except Exception as exc:
        return f"check:{type(exc).__name__}"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile q in [0, 100] of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def outcome(kinds: Counter, attempted: int) -> dict:
    failed = sum(kinds.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_kinds": dict(kinds),
        # every op of a workload passed at relegas 0.1.0
        "correct": attempted > 0 and failed == 0,
    }


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c2: float


def _point(a: float, b: float) -> _Point:
    return _Point(a, b, a * a - b * b)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It mixes what relegas spends its time on: calls, frozen-dataclass
    construction, attribute loads and libm float functions.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_STEPS):
        p = _point(1.0 + i * 1e-3, 0.5)
        acc += math.log(p.a) * math.sqrt(p.c2) / (p.b + 1.0)
    return time.perf_counter() - t0


def machine_scale(samples: list[float]) -> list[float]:
    """REFERENCE_S / reference time, smoothed by a running median of 3 samples."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - 1): i + 2]
        out.append(REFERENCE_S / statistics.median(window))
    return out


def timed_phase(wl, stream, seconds: float) -> dict:
    """Run new ops for --seconds; report times scaled to a quiet machine.

    Other tenants of a shared VM slow this process by up to 1.7x, in
    phases that last seconds.  The reference kernel runs every
    CALIBRATE_EVERY_S of op time and slows by about the same factor as
    relegas, so the wall time of each op that ends by itself is multiplied
    by REFERENCE_S over the kernel's time around it.  The workload's list
    runs whole, and once more only while another list fits in --seconds.
    A failed op is charged the deadline on top of its time, so it misses
    every limit.  Latency percentiles are over every run of every op, each
    taken at the median time of that op in this phase.
    """
    ops: list = []
    kinds: list[str] = []
    times: list[float] = []
    slot: list[int] = []  # reference sample taken just before each op
    samples = [reference_kernel()]
    busy = since = 0.0

    def run(op) -> None:
        nonlocal busy, since
        if since >= CALIBRATE_EVERY_S:
            samples.append(reference_kernel())
            since = 0.0
        kind, result, dt = run_op(op, wl.deadline_s)
        ops.append(op)
        kinds.append(kind or check(op, result))
        times.append(dt)
        slot.append(len(samples) - 1)
        busy += dt
        since += dt

    lists = 0
    for chunk in stream:
        if lists and busy * (lists + 1) / lists > seconds:
            break  # another list would not fit
        for op in chunk:
            run(op)
        lists += 1
    samples.append(reference_kernel())
    scale = machine_scale(samples)
    # a timeout lasts the deadline, a wall-clock limit: it is not scaled
    times = [
        dt if kind == "timeout" else dt * 0.5 * (scale[c] + scale[c + 1])
        for kind, dt, c in zip(kinds, times, slot)
    ]

    n_ok = kinds.count("")
    latencies = [dt if not kind else wl.deadline_s + dt for kind, dt in zip(kinds, times)]
    # an op recurs once per list; each run of it counts with the median
    # over its runs, so a burst of contention does not move the tail
    runs: dict[int, list[float]] = defaultdict(list)
    for op, lat in zip(ops, latencies):
        runs[id(op)].append(lat)
    typical = {key: statistics.median(lats) for key, lats in runs.items()}
    latencies = [typical[id(op)] for op in ops]
    out = outcome(Counter(k for k in kinds if k), len(ops))
    out["metrics"] = {
        "ops_per_s": n_ok / sum(times),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "ok_frac": n_ok / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return out


def run_cli(argv: list[str]) -> int:
    """relegas.cli.main in-process, with the exit status a process would have."""
    import relegas.cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return relegas.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return 1  # an uncaught exception ends the interpreter with status 1


def traced_phase(wl, stream, seconds: float, rl, spans_path: Path) -> dict:
    from tracing import COUNT_ONLY, Tracer

    tracer = Tracer()
    n_target = wl.trace_ops
    ops = []
    for chunk in stream:
        ops.extend(chunk)
        if n_target == 0:  # one whole pass
            break
        if len(ops) >= n_target:
            del ops[n_target:]
            break

    tracer.install()
    traced_s = 0.0
    results = []
    first = tracer.n_spans
    for op in ops:
        idx = tracer.open_op()
        kind, result, dt = run_op(op, wl.deadline_s)
        tracer.close_op(idx, kind == "timeout")
        traced_s += dt
        results.append((op, kind, result))
        if traced_s >= TRACE_SHARE * seconds:
            break
    last = tracer.n_spans
    counts = {name: tracer.count(name) for name in COUNT_ONLY}

    probe_spans = {}
    for name, (a, b, t, xi) in PROBES.items():
        ms = rl.MediumState(t=t, xi=xi)
        idx = tracer.open_op()
        rl.tensors_at(a, b, ms)
        tracer.close_op(idx, False)
        probe_spans[name] = (idx, tracer.n_spans)
    idx = tracer.open_op()
    cli_status = run_cli(CLI_REPRO)
    tracer.close_op(idx, False)
    tracer.uninstall()

    # the known defects, counted on the stored draws that show them
    import workloads

    disp_failed = 0
    for op in workloads.dispersion_defects(rl):
        kind, result, _ = run_op(op, workloads.DISPERSION_DEADLINE_S)
        disp_failed += bool(kind or check(op, result))
    stalls = sum(
        run_op(op, workloads.STALL_PROBE_S)[0] == "timeout"
        for op in workloads.long_wavelength_stalls(rl)
    )

    # the same ops untraced, for the cost of tracing itself
    plain_s = 0.0
    for op, _, _ in results:
        plain_s += run_op(op, wl.deadline_s)[2]

    kinds: Counter = Counter()
    for op, kind, result in results:
        kind = kind or check(op, result)
        if kind:
            kinds[kind] += 1
    out = outcome(kinds, len(results))

    n_ops = len(results)
    summary = tracer.summarize(first, last)
    m: dict[str, float | None] = {}
    for func, fields in FUNCTION_METRICS:
        rec = summary.get(func, {"calls": 0, "self_ns": 0, "evals": 0, "unconverged": 0})
        present = func in tracer.present
        for field in fields:
            value = rec["self_ns"] / 1e6 if field == "self_ms" else rec[field]
            m[f"{func}.{field}_per_op"] = value / n_ops if present else None
    quad = summary.get("numerics.integrate_adaptive")
    m["numerics.integrate_adaptive.us_per_eval"] = (
        quad["self_ns"] / 1e3 / quad["evals"] if quad and quad["evals"] else 0.0
    ) if "numerics.integrate_adaptive" in tracer.present else None
    for func in sorted(COUNT_ONLY):
        m[f"{func}.calls_per_op"] = counts.get(func, 0) / n_ops if func in tracer.present else None
    disp = summary.get("responses.dispersion")
    tensors = summary.get("responses.tensors_at", {"calls": 0})["calls"]
    m["responses.dispersion.tensors_at_per_root"] = (
        tensors / disp["roots"] if disp and disp["roots"] else 0.0
    ) if "responses.dispersion" in tracer.present else None
    for layer in SELF_TIME_LAYERS:
        names = [n for n in tracer.present if n.startswith(layer + ".")]
        m[f"{layer}.self_ms_per_op"] = (
            sum(summary[n]["self_ns"] for n in names if n in summary) / 1e6 / n_ops
            if names else None
        )
    m["trace.overhead_ratio"] = traced_s / plain_s

    for name, (a, b, t, xi) in PROBES.items():
        lo, hi = probe_spans[name]
        m[f"probe.{name}.evals"] = sum(tracer.evals.get(i, 0) for i in range(lo, hi))
        ms = rl.MediumState(t=t, xi=xi)
        m[f"probe.{name}.ms"] = _median_ms(lambda: rl.tensors_at(a, b, ms))
    m["probe.cli_repro.exit_code"] = cli_status
    m["probe.cli_repro.ms"] = _median_ms(lambda: run_cli(CLI_REPRO))
    m["probe.dispersion_defects.failed"] = disp_failed
    m["probe.long_wavelength_stalls.timeouts"] = stalls

    tracer.write(spans_path)
    out["metrics"] = m
    return out


def _median_ms(fn) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import relegas
    import relegas.cli  # the command-line start-up path is part of set-up
    import relegas.responses as rl

    if Path(relegas.__file__).resolve().parent != ROOT / "src" / "relegas":
        print(f"error: imported relegas from {relegas.__file__}", file=sys.stderr)
        return 2
    import workloads

    # scan_sign_changes warns about skipped light-cone points on stderr
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = workloads.WORKLOADS[args.workload](rl)
    stream = wl.passes(random.Random(args.seed))
    kind, result, _ = run_op(wl.warmup, wl.deadline_s)
    if kind or check(wl.warmup, result):
        print(f"error: warm-up op of {wl.name} failed", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdin.readline()

    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
        out = traced_phase(wl, stream, args.seconds, rl, spans)
    else:
        out = timed_phase(wl, stream, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
