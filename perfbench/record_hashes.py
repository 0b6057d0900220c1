"""Record the SHA-256 of every file each workload writes, for every recorded seed.

    python3 perfbench/record_hashes.py

Writes ``expected_sha256.json``, keyed by seed and then by workload, for the
seeds 0 .. ``checks.RECORDED_SEEDS`` - 1; ``run.py`` checks every pass of a
run against it.  Each recorded pass also passes the independent
recomputation of ``checks.py``.  Re-record only when a change is meant to
alter output bytes, and say which bytes change and why.
"""

import json
import sys

import run  # first: pins the BLAS threads before NumPy loads

from checks import EXPECTED, RECORDED_SEEDS


def main() -> int:
    recorded = {}
    for seed in range(RECORDED_SEEDS):
        for workload in run.wl.WORKLOADS:
            with run.BenchRun(workload, seed) as bench:
                bench.reference = None
                p = bench.run("process")
                bench.recompute_first_pass()
            if bench.failed:
                print(f"error: {workload} failed on seed {seed}; nothing recorded", file=sys.stderr)
                return 1
            recorded.setdefault(str(seed), {})[workload] = dict(sorted(p.hashes.items()))
    EXPECTED.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
