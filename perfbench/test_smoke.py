"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Each run must exit 0, pass its output checks and print every metric that
BENCHMARK.json names for its mode, by name and with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in table} == {k: v["unit"] for k, v in result["metrics"].items()}
    for m in table:
        assert any(line.startswith(f"metric {m['name']} ") and line.split()[3] == m["unit"] for line in lines)
