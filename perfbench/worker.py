"""One workload process: set up, report READY, then run the closed loop.

Started by ``run.py``, never by hand.  After set-up it prints ``READY`` and
waits for one line on stdin: ``go`` runs the measurement and prints one
JSON result line, anything else exits at once (a set-up-time sample).
One caller, one op at a time, each op waiting for the previous one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import tncuts as tc
import stats
import tracing
import workloads

IMPORT_SAMPLES = 5


class LoopResult:
    def __init__(self):
        self.latencies = array("d")  # seconds; inf for a failed op
        self.busy = 0.0  # seconds spent inside ops
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.retried = 0


def run_pass(workload, res: LoopResult, tracer=None) -> None:
    """Run pass number ``res.passes`` of the workload, recording into ``res``."""
    for op in workload.pass_ops(res.passes):
        res.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                value = op.run()
            else:
                with tracer.op(res.attempted):
                    value = op.run()
            elapsed = perf_counter() - t0
            status = op.check(value)
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = perf_counter() - t0
            status = "fail"
            if res.failed == 0:
                traceback.print_exc()
        res.busy += elapsed
        if status == "fail":
            res.failed += 1
            if res.failed == 1:
                print(f"first failed op: {op.kind} in pass {res.passes}", file=sys.stderr)
            res.latencies.append(float("inf"))
        else:
            res.retried += status == "retried"
            res.latencies.append(elapsed)
    res.passes += 1


def time_is_up(start: float, passes: int, seconds: float) -> bool:
    """True at the pass boundary nearest to ``seconds`` (at least one pass)."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes / 2 >= seconds


def end_to_end(workload, seconds) -> dict:
    loop = LoopResult()
    start = perf_counter()
    while True:
        run_pass(workload, loop)
        if time_is_up(start, loop.passes, seconds):
            break
    # read before the statistics below allocate their own copies
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    ms = [lat * 1000 for lat in loop.latencies]
    fallback = seconds * 1000
    tail, pct, beyond = stats.tail(ms)
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "retried": loop.retried,
        "passes": loop.passes,
        "tail_percentile": pct,
        "tail_samples": len(ms),
        "tail_beyond": beyond,
        "metrics": {
            "ops_per_s": (loop.attempted - loop.failed) / loop.busy,
            "op_p50_ms": stats.finite_or(stats.p50(ms), fallback),
            "op_tail_ms": stats.finite_or(tail, fallback),
            "peak_rss_mib": rss_kib / 1024,
        },
    }


def _fresh_python(code: str, root: Path) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


def traced(workload, seconds, root: Path, trace_path: Path) -> dict:
    """Each pass traced, then the same pass untraced, so drift cancels in the overhead."""
    tracer = tracing.Tracer()
    loop, plain = LoopResult(), LoopResult()
    start = perf_counter()
    while True:
        with tracing.installed(tracer):
            run_pass(workload, loop, tracer)
        run_pass(workload, plain)
        if time_is_up(start, loop.passes, seconds):
            break
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["oracle.retried_frac"] = loop.retried / loop.attempted
    metrics["trace.overhead_frac"] = loop.busy / plain.busy - 1

    import_s = statistics.median(_fresh_python("import tncuts", root) for _ in range(IMPORT_SAMPLES))
    metrics["cli.import_s"] = import_s
    metrics["cli.bare_start_s"] = statistics.median(_fresh_python("pass", root) for _ in range(IMPORT_SAMPLES))
    golden_s = 0.0
    if isinstance(workload, workloads.CliMix):
        golden = []
        for op in workload.golden_ops():
            loop.attempted += 1
            t0 = perf_counter()
            try:
                result = op.run()
                golden.append(perf_counter() - t0)
                loop.failed += op.check(result) != "ok"
            except Exception:  # counted like a failed op of the loop
                traceback.print_exc()
                loop.failed += 1
        golden_s = statistics.median(golden) if golden else 0.0
    metrics["cli.golden_op_s"] = golden_s
    metrics["cli.import_share"] = import_s / golden_s if golden_s else 0.0
    tracer.write(trace_path)
    return {
        "attempted": loop.attempted + plain.attempted,
        "failed": loop.failed + plain.failed,
        "retried": loop.retried + plain.retried,
        "passes": loop.passes,
        "metrics": metrics,
    }


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend": tc.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "prime": tc.DEFAULT_PRIME,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.root, args.seed, args.work_dir / args.workload, in_process=bool(args.trace))
    workload.warm_up()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    if args.trace:
        trace_path = args.work_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        result = traced(workload, args.seconds, args.root, trace_path)
    else:
        result = end_to_end(workload, args.seconds)
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
