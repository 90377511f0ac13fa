"""Tiny runs of every workload through run.py, as the benchmark is invoked.

Each run is one pass (``--seconds 1``); the cli_mix ones take the longest,
about ten seconds each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_appears_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][s["name"]]["value"] > 0 for s in specs)
        assert "failed_frac" in out.stdout

    record = json.loads((ROOT / ".perfbench" / "records" / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("git_sha", "backend", "python", "numpy", "nproc", "cpu_model", "prime", "seed"):
        assert key in record
    assert record["backend"] in ("compiled", "pure")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("oracle_sweep", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_compare_refuses_records_of_different_backends():
    base = {"backend": "pure", "workload": "cli_mix", "trace": 0, "metrics": {"x": {"value": 2.0, "unit": "s"}}}
    same = dict(base, metrics={"x": {"value": 1.0, "unit": "s"}})
    assert compare.compare(base, same) == [("x", 2.0, 1.0, "s")]
    with pytest.raises(compare.IncomparableRecords):
        compare.compare(base, dict(same, backend="compiled"))
