"""The CRITERION lines of tests/test_acceptance.py against their committed
record, scripts/criteria.txt.

tests/conftest.py keeps each line that the acceptance tests print through
their report() in this session, and runs this check after them, so the
criteria run once; a criterion that did not run in the session runs here.
The record holds the lines with each run time and budget masked, criteria
3 and 7 as they print, FAIL included.  A change that moves a criterion's
value regenerates the record in the same change:

    python -m pytest tests/test_acceptance.py tests/test_criteria_record.py --write-criteria

The record holds for the platform of scripts/cli_outputs.sha256: Python
3.11.7 and numpy 2.4 on x86-64 Linux.
"""

import re
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "scripts" / "criteria.txt"

# a run time and its budget, "0.02s (budget 1s)"
_TIMING = re.compile(r"\d+(?:\.\d+)?s \(budget \d+s\)")


def masked(line: str) -> str:
    return _TIMING.sub("*s (budget *s)", line)


def number(line: str) -> int:
    """The criterion number of "CRITERION  3: ..."."""
    return int(line.split(":")[0].split()[1])


def test_masked_lines_keep_every_value_but_time():
    line = "CRITERION  1: PASS - worst 7.28e-12 (tol 1e-10), K=64, 0.02s (budget 1s)"
    assert masked(line) == "CRITERION  1: PASS - worst 7.28e-12 (tol 1e-10), K=64, *s (budget *s)"
    assert number(line) == 1


def test_criteria_match_their_record(criterion_lines, pytestconfig):
    printed = {n: masked(line) for n, line in criterion_lines.items()}
    if pytestconfig.getoption("--write-criteria"):
        RECORD.write_text("".join(printed[n] + "\n" for n in sorted(printed)))
    recorded = {number(line): line for line in RECORD.read_text().splitlines()}
    differ = [f"criterion {n}:\n  recorded {recorded.get(n)}\n  printed  {printed.get(n)}"
              for n in sorted(recorded.keys() | printed.keys())
              if recorded.get(n) != printed.get(n)]
    assert not differ, "\n".join(differ)
