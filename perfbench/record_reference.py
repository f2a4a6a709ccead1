"""Record reference.json: one run of every workload on every datum seed.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit the reference describes.  It
refuses to write when a workload does not behave as the benchmark expects
on some seed (the sweep must cross at eps = 0.2 only, picard must converge,
verify must pass every check), since such a seed does not belong in
workloads.DATUM_SEEDS.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from check import REFERENCE_PATH
from run import run_child
from workloads import DATUM_SEEDS, WORKLOADS, summarize

EXPECTED = {
    "simulate-k32": lambda s: s["statuses"] == ["completed"],
    "sweep-modified-k512": lambda s: s["statuses"] == ["blowup", "completed", "completed"],
    "picard-modified": lambda s: s["converged"],
    "verify": lambda s: s["passed"] == s["total"],
}


def main() -> int:
    root = os.getcwd()
    runs_dir = os.path.join(root, ".perfbench_runs", "reference")
    reference = {}
    bad = []
    try:
        for name in WORKLOADS:
            reference[name] = {}
            for seed in DATUM_SEEDS:
                run_dir = os.path.join(runs_dir, f"{name}-{seed}")
                result, stdout = run_child(root, "run", name, seed, run_dir, 600)
                summary = summarize(name, result["exit"], stdout, run_dir)
                shutil.rmtree(run_dir)
                if result["exit"] != 0 or not EXPECTED[name](summary):
                    bad.append(f"{name} seed {seed}: {summary}")
                reference[name][str(seed)] = summary
                print(f"{name} seed {seed}: work {summary['work']}", flush=True)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    if bad:
        print("not written; these runs do not behave as expected:", *bad,
              sep="\n", file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"workloads": reference}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
