"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/summary.py

Runs ``run.py`` once untraced and once traced per workload, on the default
seed and for the ``run_seconds`` of ``BENCHMARK.json``, prints the
environment (git rev, Python, NumPy, nproc, BLAS threads, CPU model) and one
line per metric.  Exits non-zero if any run failed its output checks.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run  # first: pins the BLAS threads before NumPy loads

import numpy as np  # noqa: E402


def environment() -> dict[str, str]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown (not a git checkout)"
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [l.split(":", 1)[1].strip() for l in cpuinfo.read_text().splitlines() if l.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
    }


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for key, value in environment().items():
        print(f"{key:14s} {value}")
    ok = True
    for workload in run.wl.WORKLOADS:
        for mode in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(run.checks.DEFAULT_SEED),
                 "--seconds", str(seconds), "--trace", str(mode)],
                cwd=run.ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} trace={mode}: no result (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"\n{workload} trace={mode}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:24s} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
