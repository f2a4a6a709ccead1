"""Smoke run of the benchmark harness at tiny sizes, so it cannot rot.

    python3 perfbench/smoke.py

Run from the root of a checkout; takes a few seconds.  Each workload runs
shrunk (a few steps, small K, a short picard horizon on few nodes) once
untraced and twice traced, and its set-up runs once at full size.  It
checks that every child succeeds, that the outputs parse into a summary,
and that the traced runs pass their self-checks and repeat their counts.
It does not compare against reference.json, which holds full-size runs.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import ChildFailed, _counts, run_child, trace_self_check
from workloads import DATUM_SEEDS, WORKLOADS, summarize

TINY = {
    "simulate-k32": ["--n-modes", "8", "--t-end", "0.005"],
    "sweep-modified-k512": ["--n-modes", "16", "--t-end", "0.2"],
    "picard-modified": ["--n-modes", "8", "--n-nodes", "9", "--t-horizon", "0.0004"],
    "verify": ["--n-modes", "8", "--fields", "2"],
}


def smoke(root: str, name: str) -> list:
    seed = DATUM_SEEDS[0]
    runs_dir = os.path.join(root, ".perfbench_runs", f"smoke-{name}-{os.getpid()}")
    problems = []
    traced = []
    try:
        run_child(root, "setup", name, seed, os.path.join(runs_dir, "setup"), 120)
        for i, mode in enumerate(("run", "trace", "trace")):
            run_dir = os.path.join(runs_dir, str(i))
            result, stdout = run_child(root, mode, name, seed, run_dir, 120, TINY[name])
            if result["exit"] != 0:
                problems.append(f"{mode} exit code {result['exit']}")
                continue
            summary = summarize(name, result["exit"], stdout, run_dir)
            if summary["work"] <= 0:
                problems.append(f"{mode} did no work: {summary}")
            if mode == "trace":
                problems += trace_self_check(result, summary)
                traced.append(_counts(result["layers"]))
    except (ChildFailed, OSError, KeyError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    if len(traced) == 2 and traced[0] != traced[1]:
        problems.append("counts differ between the two traced runs")
    return problems


def main() -> int:
    root = os.getcwd()
    failures = 0
    for name in WORKLOADS:
        problems = smoke(root, name)
        failures += bool(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    try:
        os.rmdir(os.path.join(root, ".perfbench_runs"))
    except OSError:
        pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
