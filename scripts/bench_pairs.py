"""Run the benchmark on two trees in alternating pairs and record the result.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
        --pairs N --seconds S --seed K --out FILE

Each tree runs its own `perfbench/run.py --workload W --seed K --seconds S
--trace 0` from its own root, one process at a time.  Pair i (from 1) runs
the parent first when i is odd and the change first when i is even, so a
drift of the host's speed falls on both sides alike.

FILE is a JSON object; the runs land in FILE["workloads"][W] under the key
"trace0_seed<K>_<S>s", next to whatever FILE already holds:
- "pairs": each pair's order and both result lines, as run.py prints them;
- "median": per side, the median over the pairs of wall_s, work_per_s,
  setup_s and peak_rss_mb, and "parent_iqr", the distance between the
  parent's quartiles of each;
- "difference": per pair, change minus parent of each metric;
- "change_lower" / "change_higher": per metric, the number of pairs in
  which the change read lower / higher than the parent.

A result line with `correct: false` or `failed > 0`, or a run that prints
none, stops the script with exit status 1 and leaves FILE as it was.
Standard library only; nothing under perfbench/ is edited.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("wall_s", "work_per_s", "setup_s", "peak_rss_mb")


class Refused(Exception):
    """A run whose result the comparison must not use."""


def run_benchmark(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `perfbench/run.py --trace 0` run in tree."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Refused(f"{tree}: run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def _checked(side: str, pair: int, line: dict) -> dict:
    if line.get("correct") is not True or line.get("failed", 1) > 0:
        raise Refused(f"pair {pair}, {side}: correct={line.get('correct')} "
                      f"failed={line.get('failed')}")
    return line


def _value(line: dict, metric: str) -> float:
    return line["metrics"][metric]["value"]


def summarize(pairs: list) -> dict:
    """Medians, the parent's quartile distances, differences and counts of
    a list of {"pair", "first", "parent", "change"} entries."""
    values = {side: {m: [_value(p[side], m) for p in pairs] for m in METRICS}
              for side in ("parent", "change")}
    differences = [{m: _value(p["change"], m) - _value(p["parent"], m) for m in METRICS}
                   for p in pairs]

    def iqr(xs):
        if len(xs) < 2:
            return 0.0
        low, _, high = statistics.quantiles(xs, n=4)
        return high - low

    return {
        "pairs": pairs,
        "median": {side: {m: statistics.median(values[side][m]) for m in METRICS}
                   for side in values},
        "parent_iqr": {m: iqr(values["parent"][m]) for m in METRICS},
        "difference": differences,
        "change_lower": {m: sum(d[m] < 0 for d in differences) for m in METRICS},
        "change_higher": {m: sum(d[m] > 0 for d in differences) for m in METRICS},
    }


def run_pairs(parent: str, change: str, workload: str, n_pairs: int, seconds: float,
              seed: int) -> dict:
    trees = {"parent": parent, "change": change}
    pairs = []
    for pair in range(1, n_pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        entry = {"pair": pair, "first": order[0]}
        for side in order:
            line = run_benchmark(trees[side], workload, seed, seconds)
            entry[side] = _checked(side, pair, line)
        pairs.append(entry)
        print(f"{workload} pair {pair}: wall_s parent {_value(entry['parent'], 'wall_s'):.5f} "
              f"change {_value(entry['change'], 'wall_s'):.5f}", file=sys.stderr)
    return summarize(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        result = run_pairs(args.parent, args.change, args.workload, args.pairs,
                           args.seconds, args.seed)
    except Refused as exc:
        print(f"error: {exc}; {args.out} not written", file=sys.stderr)
        return 1
    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            record = json.load(handle)
    key = f"trace0_seed{args.seed}_{args.seconds:g}s"
    record.setdefault("workloads", {}).setdefault(args.workload, {})[key] = result
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    median = result["median"]
    print(f"{args.workload} {key}: wall_s {median['parent']['wall_s']:.5f} -> "
          f"{median['change']['wall_s']:.5f}, change lower in "
          f"{result['change_lower']['wall_s']} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
