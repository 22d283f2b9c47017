"""The benchmark's workloads, each run for one second with its output checks.

A broken usage line or a stdout that no longer matches perfbench/reference.json
then fails the tests, not only a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["smoke", "table_rank", "lookup"])
def test_benchmark_workload_passes_its_checks(workload):
    options = ["--workload", workload, "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *options],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
