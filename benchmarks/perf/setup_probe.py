"""Set-up probe: what a fresh process pays before its first rep.

``python setup_probe.py WORKLOAD SEED`` imports ``repro`` (through the
workload module), builds the workload's inputs and prints the build
seconds as JSON.  ``run.py`` times the whole process and, when tracing,
adds ``-X importtime``; nothing else is imported first, so the import
breakdown is the one a user's process sees.
"""

import json
import sys
from time import perf_counter

from workloads import WORKLOADS

if __name__ == "__main__":
    start = perf_counter()
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    print(json.dumps({"build_s": perf_counter() - start}))
