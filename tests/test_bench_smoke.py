"""The benchmark's workloads run clean against the current API.

Traced runs patch library functions by name, so a removed or renamed name
the benchmark uses fails here.  micro-trace runs untraced, for its run time:
its checks compare the per-clock path's logits, cycle splits and images with
the fast path and the cycle model, and no other test runs them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_clean(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr


@pytest.mark.parametrize("workload", ["eval-golden", "device-session"])
def test_traced_workload_runs_clean(workload):
    _run_clean(workload, trace=1)


def test_untraced_micro_trace_runs_clean():
    _run_clean("micro-trace", trace=0)
