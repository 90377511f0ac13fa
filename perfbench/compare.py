#!/usr/bin/env python3
"""Compare two run records written by run.py.

    python3 perfbench/compare.py .perfbench/records/A.json .perfbench/records/B.json

Prints each metric of the first record (the base) against the second.
Records made with different rank backends, workloads or trace modes are
not comparable; the script refuses them and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MUST_MATCH = ("backend", "workload", "trace")


class IncomparableRecords(ValueError):
    pass


def compare(base: dict, new: dict) -> list[tuple[str, float, float, str]]:
    """(metric, base value, new value, unit) rows; raises on incomparable records."""
    for key in MUST_MATCH:
        if base.get(key) != new.get(key):
            raise IncomparableRecords(f"records differ in {key}: {base.get(key)!r} vs {new.get(key)!r}")
    rows = []
    for name, entry in base["metrics"].items():
        if name in new["metrics"]:
            rows.append((name, entry["value"], new["metrics"][name]["value"], entry["unit"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    try:
        rows = compare(base, new)
    except IncomparableRecords as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'metric':<30} {'base':>14} {'new':>14}  new/base")
    for name, old, cur, unit in rows:
        ratio = f"{cur / old:.4f}" if old else "-"
        print(f"{name:<30} {old:>14.6g} {cur:>14.6g}  {ratio}  {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
