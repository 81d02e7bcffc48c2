"""Set-up probe: import tannolab and build one workload's inputs, then report.

Started in a fresh interpreter by run.py, which times it from spawn to the
"ready" line.  Usage: python3 perfbench/setup_probe.py <workload> <seed>
(with the repository's src/ on PYTHONPATH).
"""

import sys

from bench_workloads import build

build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
