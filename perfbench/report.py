"""Run every workload and print each metric by name with its unit.

    python3 perfbench/report.py [--seconds 30] [--seed 1] [--trace 0|1|both]
                                [--label TEXT] [--out FILE]

Run from the root of a checkout.  Besides the benchmark's metrics it prints
error_rate (failed runs / attempted runs) and, for simulate-k32, the
energy_drift of the run, max |E - E0| / |E0| over the CSV's energy column.
--out writes everything, records included, as JSON; baseline.json was made
this way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import measure
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", help="write the results as JSON here")
    args = parser.parse_args(argv)

    root = os.getcwd()
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    results = {}
    ok = True
    for name in WORKLOADS:
        entry = results[name] = {}
        for trace in modes:
            line, record = measure(root, name, args.seed, args.seconds, trace)
            key = "per_layer" if trace else "end_to_end"
            entry[f"{key}_record"] = record
            if line is None:
                print(f"{name}: no successful run: {record['problems']}")
                ok = False
                continue
            ok = ok and line["correct"]
            entry[key] = line
            metrics = dict(line["metrics"])
            metrics["error_rate"] = {"value": line["failed"] / line["attempted"],
                                     "unit": "ratio"}
            runs = record["samples"]["run"]
            if not trace and runs and "energy_drift" in runs[0]["summary"]:
                metrics["energy_drift"] = {"value": runs[0]["summary"]["energy_drift"],
                                           "unit": "ratio"}
            for metric, value in metrics.items():
                number = value["value"]
                text = f"{number:.6g}" if isinstance(number, float) else str(number)
                print(f"{name:20s} {metric:38s} {text:24s} {value['unit']}")
            print(f"{name:20s} {'correct':38s} {line['correct']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"label": args.label, "seed": args.seed, "seconds": args.seconds,
                       "results": results}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
