"""wavereg benchmark: drive `wavereg.cli.main(argv)` on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Every measurement runs in a fresh interpreter (child.py), one at a time,
with BLAS/OpenMP pools pinned to one thread, and every run's outputs are
checked against reference.json.  Iterations repeat until the next one would
end after `--seconds`; the metrics are medians over the iterations.

Every time is scaled to a reference host speed with a calibration loop
timed next to it (see CALIBRATION_REF_S).

--trace 0 reports the end-to-end metrics: wall_s (time in cli.main),
work_per_s (steps, reduced right-hand sides or checks passed, per second
of wall_s), setup_s (a fresh interpreter importing wavereg.cli and
building the inputs, at least three times per run) and peak_rss_mb.
--trace 1 alternates untraced and traced runs and reports the per-module
metrics of tracer.py plus trace.overhead_s.

Stdout ends with a record line (environment, argv, why the workload was
chosen, every sample) and then the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from check import compare, load_reference
from workloads import WORKLOADS, datum_seed, summarize

HERE = os.path.dirname(os.path.abspath(__file__))

THREAD_PINNING = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
# Times are reported at a reference host speed: each measured time is
# multiplied by CALIBRATION_REF_S / (the calibration loop's time next to
# it).  A shared host's speed can drift by 2x within minutes; the ratio
# drifts far less.  Raw times stay in the record.
CALIBRATION_REF_S = 0.07
MIN_SETUPS = 3
MIN_TRACED = 2  # the count self-check compares traced runs with each other
HARD_LIMIT_S = 165.0  # every run must end within 180 s
SUM_TOL = 1e-6  # self times must add up to the root span, relative
REMAINDER_TOL = 0.01  # untraced time in the traced wall_s, relative


class ChildFailed(Exception):
    pass


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pinning": THREAD_PINNING,
        "platform": platform.platform(),
    }


def run_child(root, mode, name, seed, run_dir, timeout, extra=()):
    """Run child.py once in run_dir; return (result, stdout without it)."""
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_PINNING)
    env.pop("WAVEREG_OUTPUT_DIR", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode, name, str(seed),
             json.dumps(list(extra))],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    try:
        return json.loads(lines[-1]), "\n".join(lines[:-1])
    except (json.JSONDecodeError, IndexError) as exc:
        raise ChildFailed(f"{mode} printed no result") from exc


def trace_self_check(result: dict, summary: dict) -> list:
    """Self times add up to the traced wall_s; step counts match outputs."""
    problems = []
    self_sum = sum(result["self_by_module"].values())
    root, wall = result["root_s"], result["wall_s"]
    if abs(self_sum - root) > SUM_TOL * root:
        problems.append(f"self times sum to {self_sum!r}, spans cover {root!r}")
    if not 0.0 <= wall - root <= REMAINDER_TOL * wall:
        problems.append(f"untraced remainder {wall - root!r} of wall_s {wall!r}")
    accepted = result["layers"]["integrate.accepted_steps"]
    if "rows" in summary or "accepted_steps" in summary:
        if accepted != summary["work"]:
            problems.append(f"traced accepted steps {accepted} != outputs {summary['work']}")
    return problems


def _counts(layers: dict) -> dict:
    """The metrics that must repeat exactly between traced runs.  Not the
    bytes written: each manifest records its own wall time, whose printed
    length varies by a digit or two."""
    return {key: value for key, value in layers.items()
            if not key.endswith("self_s") and key != "cli.bytes_written"}


def measure(root: str, name: str, seed: int, seconds: float, trace: bool):
    """Run one workload for `seconds`; return (result line, record)."""
    workload = WORKLOADS[name]
    dseed = datum_seed(seed)
    expected = load_reference()["workloads"][name][str(dseed)]
    runs_dir = os.path.join(root, ".perfbench_runs", f"{name}-{os.getpid()}")
    started = perf_counter()
    deadline = started + seconds
    samples = {"setup": [], "run": [], "trace": []}
    problems = []
    attempted = failed = 0

    def attempt(mode):
        nonlocal attempted, failed
        attempted += 1
        run_dir = os.path.join(runs_dir, str(attempted))
        timeout = max(1.0, started + HARD_LIMIT_S - perf_counter())
        try:
            result, stdout = run_child(root, mode, name, dseed, run_dir, timeout)
            if mode != "setup":
                summary = summarize(name, result["exit"], stdout, run_dir)
                mismatches = compare(summary, expected)
                if mode == "trace":
                    mismatches += trace_self_check(result, summary)
                if mismatches:
                    raise ChildFailed(f"{mode} output check: " + "; ".join(mismatches))
                result["work"] = summary["work"]
                result["summary"] = summary
        except (ChildFailed, OSError, KeyError, ValueError, IndexError) as exc:
            failed += 1
            problems.append(f"{type(exc).__name__}: {exc}")
            return
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        samples[mode].append(result)

    modes = ("run", "trace") if trace else ("setup", "run")
    iterations = 0
    try:
        while True:
            began = perf_counter()
            for mode in modes:
                attempt(mode)
            iterations += 1
            cost = perf_counter() - began
            if perf_counter() + cost > started + HARD_LIMIT_S:
                break
            if iterations >= (MIN_TRACED if trace else 1) and perf_counter() + cost > deadline:
                break
        for _ in range(0 if trace else MIN_SETUPS - iterations):
            attempt("setup")
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runs_dir))
        except OSError:
            pass

    traced = samples["trace"]
    if traced and any(_counts(s["layers"]) != _counts(traced[0]["layers"]) for s in traced):
        problems.append("counts differ between traced runs of the same seed")

    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "datum_seed": dseed,
        "argv": workload.argv(dseed),
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "samples": samples,
        "problems": problems,
    }
    runs = samples["run"]
    if not runs or (trace and not traced) or (not trace and not samples["setup"]):
        return None, record

    def scaled(sample, seconds):
        return seconds * CALIBRATION_REF_S / sample["calibration_s"]

    def median_time(rows, key):
        return statistics.median(scaled(row, row[key]) for row in rows)

    if trace:
        metrics = {}
        for key, value in traced[0]["layers"].items():
            if key.endswith("self_s"):
                value = statistics.median(scaled(s, s["layers"][key]) for s in traced)
                unit = "s"
            else:
                unit = "bytes" if key == "cli.bytes_written" else "count"
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": median_time(traced, "wall_s") - median_time(runs, "wall_s"), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": median_time(runs, "wall_s"), "unit": "s"},
            "work_per_s": {
                "value": statistics.median(r["work"] / scaled(r, r["wall_s"]) for r in runs),
                "unit": "1/s"},
            "setup_s": {"value": median_time(samples["setup"], "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
        }
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wavereg", "cli.py")):
        print(f"error: no wavereg sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    line, record = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    if line is None:
        print("error: no successful run to report: " + "; ".join(record["problems"]),
              file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
