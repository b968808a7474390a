"""Regenerate ``references.json``: every workload's output digest for seeds 0 and 1.

    PYTHONPATH=src python3 benchmarks/perf/references.py

Run it only in a change that is meant to alter the workloads' outputs;
the benchmark counts any other difference as a failed operation.
"""

import json
from pathlib import Path

from workloads import WORKLOADS

SEEDS = (0, 1)

if __name__ == "__main__":
    references = {
        str(seed): {name: w.digest(w.run(w.build(seed)))
                    for name, w in WORKLOADS.items()}
        for seed in SEEDS
    }
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
