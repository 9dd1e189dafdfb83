"""relegas benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cold_map --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/relegas``.  Set-up is
measured on fresh interpreters (``worker.py --setup-only``), half of them
before and half after the measured run, and reported as the median; one
interpreter goes on to the timed phase (``--trace 0``, end-to-end
metrics) or the traced phase (``--trace 1``, per-layer metrics).  A
summary for people goes to stderr; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import REFERENCE_S, reference_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_map", "warm_map", "dispersion", "long_wavelength")
SETUP_RUNS = 15
REFERENCE_SAMPLES = 3  # reference kernel runs before and after each set-up
BUDGET_S = 170.0  # every worker is killed after this, so the run never hangs

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_per_op") or name.endswith(".ms"):
        return "ms"
    if name.endswith("us_per_eval"):
        return "us"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("exit_code"):
        return "code"
    return "count"


class Worker:
    """A worker.py process; set-up time is Popen until its "ready" line."""

    def __init__(self, args: argparse.Namespace, deadline: float, setup_only: bool) -> None:
        cmd = [
            sys.executable, "-I", str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        before = [reference_kernel() for _ in range(REFERENCE_SAMPLES)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline()
        raw = time.perf_counter() - t0
        after = [reference_kernel() for _ in range(REFERENCE_SAMPLES)]
        # scaled to a quiet machine, as the worker scales op times
        self.setup_s = raw * REFERENCE_S / statistics.median(before + after)
        self.ready = ready.strip() == "ready"

    def finish(self, go: bool) -> str | None:
        """Let the worker run to the end -> its stdout after "ready", None on failure."""
        try:
            out, _ = self.proc.communicate("go\n" if go else "")
        finally:
            self.timer.cancel()
        return out if self.ready and self.proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "relegas" / "__init__.py").is_file():
        print(f"error: no relegas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    setups = []

    def setup_runs(n: int) -> bool:
        for _ in range(n):
            w = Worker(args, deadline, setup_only=True)
            if w.finish(go=False) is None:
                print("error: set-up run failed", file=sys.stderr)
                return False
            setups.append(w.setup_s)
        return True

    # set-up runs go before and after the measured run, so that one
    # burst of load on the machine does not set their median
    extra = 0 if args.trace else SETUP_RUNS - 1
    if not setup_runs(extra // 2):
        return 1
    w = Worker(args, deadline, setup_only=False)
    setups.append(w.setup_s)
    out = w.finish(go=True)
    lines = out.strip().splitlines() if out else []
    if not lines:
        print("error: workload run failed", file=sys.stderr)
        return 1
    if not setup_runs(extra - extra // 2):
        return 1
    res = json.loads(lines[-1])
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    else:
        units = {name: layer_unit(name) for name in values}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    fail_frac = res["failed"] / res["attempted"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted={res['attempted']} failed={res['failed']} "
        f"fail_frac={fail_frac:.4f} kinds={res['fail_kinds']} correct={res['correct']}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
