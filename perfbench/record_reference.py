"""Regenerate reference.json: each suite workload's check records at seed 7.

Run from the repository root after a change that is meant to alter check
results, and review the diff:

    PYTHONPATH=src python3 perfbench/record_reference.py

The gate accepts a run at any seed when every check keeps the recorded
status and verdict and its max_residual stays within the check's tolerance
of the recorded value.
"""

import json

from bench_workloads import REFERENCE_PATH, WORKLOADS, SuiteWorkload

SEED = 7


def main():
    reference = {}
    for name, make in WORKLOADS.items():
        wl = make(SEED)
        if not isinstance(wl, SuiteWorkload):
            continue
        report = wl.iterate(0)
        reference[name] = {
            "seed": SEED,
            "verdict": report.verdict,
            "checks": {r.name: {"status": r.status, "passed": r.passed,
                                "max_residual": r.max_residual,
                                "tolerance": r.tolerance}
                       for r in report.checks},
        }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
