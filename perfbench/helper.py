"""Memory-heavy benchmark steps, run in a process of their own by ``run.py``.

    python3 perfbench/helper.py generate WORKLOAD SEED INPUTS
    python3 perfbench/helper.py recompute WORKLOAD SEED INPUTS OUT

``generate`` writes the workload's inputs; ``recompute`` prints, as a JSON
list, the problems the independent recomputation finds in a pass's outputs.
A child's ``ru_maxrss`` includes the peak of the process that spawned it (the
kernel keeps the larger of the two at ``exec``), so ``run.py`` keeps this
work out of its own process to stay smaller than the CLI processes it
measures.
"""

import json
import sys
from pathlib import Path

import checks
import workloads


def main(argv: list[str]) -> int:
    step, workload, seed, inputs, *out = argv
    if step == "generate":
        workloads.GENERATORS[workload](int(seed), Path(inputs))
    else:
        print(json.dumps(checks.SEMANTIC[workload](int(seed), Path(inputs), Path(*out))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
