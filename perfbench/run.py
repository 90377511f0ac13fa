#!/usr/bin/env python3
"""tncuts benchmark: one workload, one closed loop, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0

Workloads: oracle_sweep, flatten_wide, cut_corpus, cli_mix (see
perfbench/rationale.json for why each one exists); ``--workload all``
runs the four one after another, each printing its own block and
result line.  With ``--trace 0``
the end-to-end metrics are measured with tracing off; with ``--trace 1``
the per-layer metrics come from spans around calls into each tncuts
module.  Metric names and units are those in BENCHMARK.json.

The workload runs in a child process started ``SETUP_SPAWNS`` times: every
start is timed from spawn to READY (interpreter start, ``import tncuts``,
input generation, warm-up) and the median is ``setup_s``; the last start
then runs the measurement.  Children run one at a time, single-threaded.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full run record is also written to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
WORKLOADS = ("oracle_sweep", "flatten_wide", "cut_corpus", "cli_mix")
SETUP_SPAWNS = 3
# The whole run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
SETUP_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, go: bool, deadline: float) -> tuple[float, str]:
    """Start one workload process; return (set-up seconds, its result line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), "--work-dir", str(WORK_DIR),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    # The watchdog kills a child that overruns; reads then see end of file.
    watchdog = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"{args.workload} process did not get ready")
        out, _ = proc.communicate("go\n" if go else "quit\n")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} process exited with code {proc.returncode}")
    return setup, out.strip().splitlines()[-1] if go else ""


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def load_metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer"] if trace else spec["end_to_end"]


def split_line(v: dict) -> str:
    """Shares of traced op time that rationale.json predicts per workload."""
    op_s = v["trace.op_s"] or float("nan")
    sampling = v["rng.residues_s"] + v["fieldmath.matmul_s"] + v["oracle.sample_self_s"]
    cuts = v["cuts.mono_s"] + v["cuts.colour_s"] + v["cuts.product_s"] + v["cuts.verify_s"]
    return (f"split of trace.op_s: sampling {sampling / op_s:.3f}, rank_large {v['fieldmath.rank_large_s'] / op_s:.3f},"
            f" cuts {cuts / op_s:.3f}; cli.import_share {v['cli.import_share']:.3f}")


def run_workload(args, specs: list[dict]) -> int:
    """Measure one workload; print its block and result line, write its record."""
    deadline = monotonic() + DEADLINE_S

    setups = []
    try:
        for _ in range(SETUP_SPAWNS - 1 if not args.trace else 0):
            setup, _ = spawn(args, go=False, deadline=min(deadline, monotonic() + SETUP_TIMEOUT_S))
            setups.append(setup)
        setup, line = spawn(args, go=True, deadline=deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    result = json.loads(line)
    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"error: the run did not produce {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        **result["environment"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "retried": result["retried"],
        "passes": result["passes"],
        "setup_samples_s": setups,
        "tail_percentile": result.get("tail_percentile"),
        "tail_samples": result.get("tail_samples"),
        "tail_beyond": result.get("tail_beyond"),
        "metrics": metrics,
    }
    records = WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  backend {env['backend']}  prime {env['prime']}"
          f"  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    for spec in specs:
        print(f"  {spec['name']:<30} {values[spec['name']]:>14.6g} {spec['unit']}")
    if args.trace:
        print("  " + split_line(values))
    else:
        print(f"  {'failed_frac':<30} {failed / attempted:>14.6g} frac"
              f"  ({failed} of {attempted} ops)")
        print(f"  op_tail_ms is p{record['tail_percentile']:g} of {record['tail_samples']} ops")
    print(f"  record: {records / name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tncuts" / "__init__.py").is_file():
        print(f"error: no tncuts sources under {ROOT / 'src'}; run from a tncuts checkout", file=sys.stderr)
        return 2
    specs = load_metric_specs(args.trace)
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), specs)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
