"""A one-second run of each benchmark workload: every op's report must pass
the benchmark's own checks, among them the sha256 digests in
perfbench/reference.json that pin each sampled draw and census verdict."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["census-cold", "census-warm", "sampled"])
def test_benchmark_workload_runs_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
    assert summary["attempted"] > 0
