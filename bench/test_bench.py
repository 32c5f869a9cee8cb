"""Smoke test of the benchmark at its smallest size.

Runs every workload once untraced and once traced with ``--size smoke`` and
checks that each metric BENCHMARK.json declares is printed with its unit and
that no job fails on the current code.  Run it with

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_no_job_fails(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error rate 0 on the current code
    assert result["correct"] is True
