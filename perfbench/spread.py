#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

Runs ``run.py`` on one workload with seeds first-seed, first-seed + 1, ...,
one run at a time, and reports for each end-to-end metric the median and
the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), against the metric's bound in
BENCHMARK.json.  Exits 1 if any spread other than ``setup_s`` reaches its
bound.

    python3 perfbench/spread.py --workload cut_corpus --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 2
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
            return 2
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={result['metrics'][name]['value']:.5g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    worst = 0.0
    summary = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        share = stats.spread(values[name])
        summary[name] = {"median": statistics.median(values[name]), "spread": share, "bound": bound, "values": values[name]}
        print(f"{name:<14} median {summary[name]['median']:<12.6g} spread {share:.4f}  bound {bound}"
              f"  ({share / bound:.2f} of bound)")
        if name != "setup_s":
            worst = max(worst, share / bound)
    out_dir = ROOT / ".perfbench" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
