"""Compare two records written by scripts/cli_outputs.py, number by number.

    python3 scripts/compare_outputs.py [--floor ABS] OLD NEW

A case's `exit` and `stderr` files are compared whole: an exit code or an
error line is not a measurement.  Every other file is split into numeric
tokens (decimal or exponent notation, with an optional sign) and the text
between them.  For every such file whose bytes differ, the script prints
the largest absolute and the largest relative difference of its numeric
tokens, each with the line and the two tokens where it occurs; relative
means |a - b| / max(|a|, |b|).  It ends with the largest of each over all
files.  With --floor ABS the relative differences leave out every pair of
tokens that are both below ABS in magnitude, so a residual at the rounding
floor (1e-18 that moves to 3e-18) does not hide a real move elsewhere; a
file whose differing pairs all lie below the floor reports no relative
difference.  The absolute differences keep every pair.

Exit status: 0 when the two records hold the same files and differ in
numeric tokens only; 1 when a file is missing on one side, an `exit` or
`stderr` file differs, a file's token count differs, or any non-numeric
token differs (a status word, a column name); 2 on a usage error.
Standard library only.
"""

from __future__ import annotations

import math
import os
import re
import sys

# files compared whole, never number by number
_WHOLE = ("exit", "stderr")
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _files(root: str) -> set:
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def _tokens(text: str) -> list:
    """Alternating text and numeric tokens: text at even positions, numbers
    at odd ones."""
    return _NUMBER.split(text)


def compare_file(old_text: str, new_text: str, floor: float = 0.0):
    """(problem, largest absolute, largest relative) for one file.

    problem is None when the files differ in numeric tokens only, else a
    one-line reason.  Each largest entry is (difference, line, old token,
    new token), or None when no numeric token differs; the relative one
    skips pairs whose tokens are both below floor in magnitude."""
    old, new = _tokens(old_text), _tokens(new_text)
    if len(old) != len(new):
        counts = f"{len(old) // 2} vs {len(new) // 2} numbers"
        return f"token counts differ: {counts}", None, None
    largest_abs = largest_rel = None
    line = 1
    for i, (a, b) in enumerate(zip(old, new)):
        if i % 2 == 0:  # text between numbers
            if a != b:
                return f"text differs at line {line}: {a!r} vs {b!r}", None, None
            line += a.count("\n")
        elif a != b:
            absolute = abs(float(a) - float(b))
            scale = max(abs(float(a)), abs(float(b)))
            relative = absolute / scale if scale > 0.0 else 0.0
            if largest_abs is None or absolute > largest_abs[0]:
                largest_abs = (absolute, line, a, b)
            if scale < floor:  # both tokens below the floor
                continue
            if largest_rel is None or relative > largest_rel[0]:
                largest_rel = (relative, line, a, b)
    return None, largest_abs, largest_rel


def _describe(label: str, largest) -> str:
    if largest is None:
        return f"  no {label} difference above the floor"
    value, line, a, b = largest
    return f"  largest {label} difference {value:.3e} at line {line}: {a} -> {b}"


def main(args: list) -> int:
    floor = 0.0
    if args[:1] == ["--floor"]:
        try:
            floor = float(args[1])
        except (IndexError, ValueError):
            floor = math.nan
        args = args[2:]
    if len(args) != 2 or not 0.0 <= floor < math.inf:
        print("usage: python3 scripts/compare_outputs.py [--floor ABS] OLD NEW",
              file=sys.stderr)
        return 2
    old_root, new_root = args
    for root in args:
        if not os.path.isdir(root):
            print(f"{root} is not a directory", file=sys.stderr)
            return 2
    old_files, new_files = _files(old_root), _files(new_root)
    failed = False
    for name in sorted(old_files ^ new_files):
        side = "OLD" if name in old_files else "NEW"
        print(f"{name}: only in {side}")
        failed = True
    overall_abs = overall_rel = None
    for name in sorted(old_files & new_files):
        texts = []
        for root in (old_root, new_root):
            with open(os.path.join(root, name), encoding="utf-8",
                      errors="surrogateescape") as handle:
                texts.append(handle.read())
        if texts[0] == texts[1]:
            continue
        if os.path.basename(name) in _WHOLE:
            print(f"{name}: differs")
            failed = True
            continue
        problem, largest_abs, largest_rel = compare_file(*texts, floor)
        if problem is not None:
            print(f"{name}: {problem}")
            failed = True
            continue
        print(f"{name}: numbers differ")
        print(_describe("absolute", largest_abs))
        print(_describe("relative", largest_rel))
        if overall_abs is None or largest_abs[0] > overall_abs[1][0]:
            overall_abs = (name, largest_abs)
        if largest_rel is not None and (overall_rel is None
                                        or largest_rel[0] > overall_rel[1][0]):
            overall_rel = (name, largest_rel)
    if overall_abs is None:
        print("no numeric differences")
    else:
        print(f"overall largest absolute difference {overall_abs[1][0]:.3e} "
              f"in {overall_abs[0]}")
        if overall_rel is None:
            print("no relative difference above the floor")
        else:
            print(f"overall largest relative difference {overall_rel[1][0]:.3e} "
                  f"in {overall_rel[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
