"""Write the CLI's outputs on a fixed list of cases, for a byte-level diff.

    python3 scripts/cli_outputs.py [--digest] OUT_DIR

OUT_DIR must not exist yet.  Runs each case in this process through
`wavereg.cli.main`, taking `wavereg` from the `src/` next to this script.
For a case NAME it writes OUT_DIR/NAME/exit, stdout and stderr, with the
run's output directory written as <output-dir>, and the files the run
wrote under OUT_DIR/NAME/files/.  Manifests (*.json) are rewritten without
`wall_time_seconds` and `config.output_dir`, the two entries that vary from
run to run and from place to place; every other byte is the CLI's own.

To check that a change keeps the CLI's outputs, run the script from a
checkout of each commit (copy it into a checkout that predates it) and
compare:

    diff -r OUT_PARENT OUT_CHANGE

With --digest the script prints, in place of each case's exit code, one
line per recorded file, sorted by path: its sha256 and its path under
OUT_DIR, in the format of sha256sum.  The digests of the current record are
committed beside this script,

    python3 scripts/cli_outputs.py --digest OUT_DIR > scripts/cli_outputs.sha256

and a test in tests/test_cli.py records the cases again and compares.

The cases take about 2 s (Python 3.11, numpy 2.4, one 2-core host).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from unittest import mock

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))

from wavereg.cli import main as cli_main  # noqa: E402

_COMMANDS = ("simulate", "verify", "sweep", "growth", "continue", "picard")

_MODIFIED_SWEEP = [
    "sweep", "--system", "modified", "--pressure", "p0", "--lambda", "0.2",
    "--n-modes", "64", "--epsilons", "0.2,0.1,0.05", "--time-scale", "eps_squared",
    "--dt", "0.02", "--t-end", "3.0", "--rho-max", "0.152", "--seed", "3",
]
# the benchmark's sweep-modified-k512 workload at its first datum seed
_MODIFIED_SWEEP_K512 = [
    "sweep", "--system", "modified", "--pressure", "p0", "--lambda", "0.2",
    "--n-modes", "512", "--epsilons", "0.2,0.1,0.05", "--time-scale", "eps_squared",
    "--dt", "0.02", "--t-end", "3.0", "--rho-max", "0.152", "--seed", "5",
]
# the benchmark's simulate-k32 workload at its first datum seed
_SIMULATE_K32 = [
    "simulate", "--system", "regularized", "--pressure", "p1", "--epsilon", "0.1",
    "--alpha", "0.5", "--seed", "5",
]
_P1_SWEEP = [
    "sweep", "--pressure", "p1", "--alpha", "0.5", "--epsilons", "0.2,0.1,0.05",
    "--n-modes", "16", "--dt", "0.005", "--t-end", "0.05", "--seed", "11",
]

# name -> argv; cases that write files get --output-dir appended
CASES = {
    "help": ["--help"],
    **{f"help-{command}": [command, "--help"] for command in _COMMANDS},
    "error-unknown-command": ["simulat"],
    "error-option-of-another-command": ["verify", "--epsilon", "0.1"],
    "simulate-p1-alpha": ["simulate", "--pressure", "p1", "--epsilon", "0.1",
                          "--alpha", "0.5"],
    "simulate-modified": ["simulate", "--system", "modified", "--epsilon", "0.1"],
    "simulate-p2-theorem": ["simulate", "--pressure", "p2", "--epsilon", "0.1",
                            "--theorem-scaling"],
    "simulate-store-every-ragged": ["simulate", "--epsilon", "0.1", "--store-every",
                                    "7", "--t-end", "0.1234"],
    "simulate-k32": _SIMULATE_K32,
    "simulate-modified-crossing": [
        "simulate", "--system", "modified", "--epsilon", "0.2", "--seed", "3",
        "--rho-max", "0.152", "--dt", "0.0008", "--t-end", "0.12"],
    "sweep-modified-k64": _MODIFIED_SWEEP,
    "sweep-modified-k512": _MODIFIED_SWEEP_K512,
    "sweep-p1": _P1_SWEEP,
    "sweep-p1-jobs2": _P1_SWEEP + ["--jobs", "2"],
    "picard-modified": ["picard", "--system", "modified", "--epsilon", "0.2"],
    # the benchmark's picard-modified workload at its first datum seed
    "picard-modified-seed5": ["picard", "--system", "modified", "--epsilon", "0.2",
                              "--seed", "5"],
    "picard-p0": ["picard", "--epsilon", "0.2", "--seed", "4"],
    "picard-p1": ["picard", "--pressure", "p1", "--epsilon", "0.2", "--seed", "5"],
    "picard-p2": ["picard", "--pressure", "p2", "--epsilon", "0.2", "--seed", "6"],
    "growth-defaults": ["growth"],
    "continue": ["continue", "--rho", "0.5", "--epsilon", "0.003", "--alpha", "0"],
    "verify": ["verify"],
    # the benchmark's verify workload at its first datum seed
    "verify-seed5": ["verify", "--seed", "5"],
    # K = 16 runs the cancellation legs in blocks of 31 rows: 31 + 9
    "verify-k16-two-blocks": ["verify", "--seed", "2", "--n-modes", "16",
                              "--fields", "40"],
    # K = 64 blocks hold 7 rows, so 8 fields are one block and one row
    "verify-fields8": ["verify", "--fields", "8"],
    # seeds where a change in the order of a norm's reduction moves the
    # printed lemma_m value
    "verify-seed3": ["verify", "--seed", "3"],
    "verify-seed10": ["verify", "--seed", "10"],
    "verify-k8-seed3": ["verify", "--n-modes", "8", "--seed", "3"],
    "error-simulate-rho-max": ["simulate", "--epsilon", "0.1", "--rho-max", "0"],
    "error-sweep-rho-max": ["sweep", "--epsilons", "0.2,0.1,0.05", "--rho-max", "0"],
    "error-simulate-target-norm": ["simulate", "--epsilon", "0.1",
                                   "--target-norm", "0.2"],
    "error-sweep-target-norm": ["sweep", "--epsilons", "0.2,0.1,0.05",
                                "--target-norm", "0.2"],
    "error-picard-target-norm": ["picard", "--epsilon", "0.2", "--target-norm", "0.2"],
    "error-modified-p1": ["simulate", "--system", "modified", "--pressure", "p1",
                          "--epsilon", "0.1"],
    # 0.2**1000 underflows the datum amplitude to 0
    "error-sweep-amplitude-underflow": ["sweep", "--epsilons", "0.2,0.1,0.05",
                                        "--alpha", "1000", "--n-modes", "8"],
    # the step count passes its check; the budget after the first step has
    # no finite square
    "error-continue-rho-overflow": ["continue", "--rho", "1.2e154", "--epsilon", "0.5",
                                    "--alpha", "1", "--growth-constant", "100",
                                    "--step-constant", "1e-300"],
    # 12 * growth_constant * rho overflows to inf, which would write
    # Infinity budgets into continue.json
    "error-continue-budget-inf": ["continue", "--rho", "1e154", "--epsilon", "0.5",
                                  "--alpha", "1", "--growth-constant", "1e154",
                                  "--step-constant", "1e-150"],
    # u_star**2 is past the float range
    "error-growth-u-star-overflow": ["growth", "--u-star", "1e160"],
    # p'(u_star) is inf, which would write nan rates
    "error-growth-nan-rate": ["growth", "--u-star", "1e154"],
    # 1/eps^3 = 1e300 is finite, but the mode symbol of |k| = 32 is not
    "error-simulate-mode-symbol-overflow": ["simulate", "--epsilon", "1e-100",
                                            "--t-end", "0.002"],
}

_TOKEN = "<output-dir>"


def _strip_manifest(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest.pop("wall_time_seconds", None)
    manifest.get("config", {}).pop("output_dir", None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_case(name: str, argv: list, out_dir: str) -> int:
    case_dir = os.path.join(out_dir, name)
    files = os.path.join(case_dir, "files")
    os.makedirs(files)
    if argv[0] in _COMMANDS and argv[0] != "verify" and "--help" not in argv:
        argv = argv + ["--output-dir", files]
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps help and usage text to the width it reads from COLUMNS
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = cli_main(argv)
    for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        with open(os.path.join(case_dir, stream), "w", encoding="utf-8") as handle:
            handle.write(text.replace(files, _TOKEN))
    with open(os.path.join(case_dir, "exit"), "w", encoding="utf-8") as handle:
        handle.write(f"{code}\n")
    for entry in os.listdir(files):
        if entry.endswith(".json"):
            _strip_manifest(os.path.join(files, entry))
    return code


def digest_lines(out_dir: str) -> list:
    """'<sha256>  <path>' for every file under out_dir, sorted by its path
    relative to out_dir, with / between the parts."""
    paths = sorted(
        os.path.relpath(os.path.join(root, name), out_dir).replace(os.sep, "/")
        for root, _, names in os.walk(out_dir) for name in names
    )
    lines = []
    for path in paths:
        with open(os.path.join(out_dir, path), "rb") as handle:
            lines.append(f"{hashlib.sha256(handle.read()).hexdigest()}  {path}")
    return lines


def main(args: list) -> int:
    digest = args[:1] == ["--digest"]
    args = args[1:] if digest else args
    if len(args) != 1:
        print("usage: python3 scripts/cli_outputs.py [--digest] OUT_DIR", file=sys.stderr)
        return 1
    out_dir = os.path.abspath(args[0])
    if os.path.exists(out_dir):
        print(f"{out_dir} exists; give a new directory", file=sys.stderr)
        return 1
    for name, argv in CASES.items():
        code = run_case(name, argv, out_dir)
        if not digest:
            print(f"{name}: exit {code}")
    if digest:
        print("\n".join(digest_lines(out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
