"""Smoke test of the benchmark on the L = 15 variants of every workload.

Each workload runs untraced and traced for one second; the run must succeed,
pass its correctness checks (at L = 15 the Gaussian requests succeed too, so
nothing may fail) and report every metric BENCHMARK.json names, with its
unit.  Run from the repository root:

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload]
        + ["--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
