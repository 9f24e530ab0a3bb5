"""Benchmark of the scgaccel software twin.

Usage, from the root of a checkout:

    python3 bench/run.py --workload eval-golden --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead.  Earlier lines hold the environment record and,
with ``--trace 0``, the end-to-end host times before normalization.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("eval-golden", "device-session", "micro-trace")


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "scgaccel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/scgaccel or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # device-session's host and device threads hand over to each other on
    # every request.  Between two CPUs of a shared virtual machine that
    # hand-over can cost as much as the request and varies from minute to
    # minute.  No workload keeps two threads busy at once, so one CPU serves.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "usable_cores": len(cores),
        "pinned_cpu": max(cores),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
    }}), flush=True)

    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    names = {m["name"] for m in wanted}
    unknown = set(result.metrics) - names
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    if not args.trace and names - set(result.metrics):
        raise RuntimeError(f"end-to-end metrics not measured: "
                           f"{sorted(names - set(result.metrics))}")
    for note in result.notes:
        print(f"failed: {note}", file=sys.stderr)
    if result.raw is not None:
        print(json.dumps({"raw": result.raw}))
    # a layer the workload leaves idle reads 0
    metrics = {m["name"]: {"value": float(result.metrics.get(m["name"], 0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
