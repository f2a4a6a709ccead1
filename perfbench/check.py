"""Output check: a run's summary against the reference recorded from the
seed commit (reference.json, written by record_reference.py).

Exit codes, statuses, row counts, iterate counts, step counts and verify
verdicts must match exactly.  Floats must match within REL_TOL relative:
the loosest source of rounding drift is the blow-up bisection, which stops
at a bracket of 1e-3 of the crossing time, and verify prints 4 significant
digits.  Two kinds of float are bounded instead of matched:

* residuals at the rounding floor (FLOOR_KEYS) have no reproducible
  digits; they may grow up to FLOOR_FACTOR times their reference;
* the simulate energy drift (UPPER_KEYS) guards against a faster but less
  accurate step; it may shrink, but not grow beyond REL_TOL.
"""

from __future__ import annotations

import json
import os

REL_TOL = 2e-3
FLOOR_FACTOR = 10.0
FLOOR_KEYS = frozenset({
    "max_cancellation_residual",
    "legs.lemma_m.value",
    "legs.cancellation_plain.value",
    "legs.cancellation_conjugated.value",
    "legs.jet_worked_values.value",
})
UPPER_KEYS = frozenset({"energy_drift"})

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def compare(got, want, path: str = "") -> list:
    """Every mismatch between a summary and its reference, as text."""
    where = path or "summary"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [m for key in want
                for m in compare(got[key], want[key], f"{path}.{key}" if path else key)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number (reference {want!r})"]
        if path in FLOOR_KEYS:
            ok = 0.0 <= got <= FLOOR_FACTOR * want
        elif path in UPPER_KEYS:
            ok = got <= want * (1.0 + REL_TOL)
        else:
            ok = abs(got - want) <= REL_TOL * abs(want)
        return [] if ok else [f"{where}: {got!r} vs reference {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]
