"""The benchmark's traced workloads run clean against the current API.

Traced runs patch library functions by name, so a removed or renamed name
the benchmark uses fails here.  micro-trace is left out for its run time;
the simulator tests and the demos cover start()/step().
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["eval-golden", "device-session"])
def test_traced_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
