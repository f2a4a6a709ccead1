"""The benchmark's workloads: the exact CLI argv of each, why it was chosen,
how its inputs are built for the set-up measurement, and how much work a
run did, read from the run's own outputs.

The benchmark seed picks a datum seed from DATUM_SEEDS, which is passed to
the CLI as `--seed`.  The pool holds the datum seeds on which the sweep
does what it is here to do: with the horizon below, the eps = 0.2 run
crosses the threshold between steps 20 and 50, and the eps = 0.1 and 0.05
runs complete.  Other seeds cross within 12 steps, at step 73 (seed 7) or
439 (seed 1), never, or make eps = 0.1 cross too (seed 4); they would
change what a sweep does, or how much work it does, from seed to seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

DATUM_SEEDS = (3, 5, 6, 10, 11, 12, 14, 16, 17, 23, 24)

# sweep horizon and step in natural time units; eps_squared scales both by
# eps**2, so every epsilon gets T_END / DT = 150 steps
SWEEP_T_END = 3.0
SWEEP_DT = 0.02
SWEEP_EPSILONS = (0.2, 0.1, 0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple  # CLI argv without --seed
    setup: Callable  # (datum_seed) -> None, builds the run's inputs

    def argv(self, datum_seed: int) -> list:
        return [*self.args, "--seed", str(datum_seed)]


def datum_seed(seed: int) -> int:
    return DATUM_SEEDS[seed % len(DATUM_SEEDS)]


# -- set-up: import, grid, certified datum, system or setting, and for the
# full systems one cold step at the run's dt (it builds the propagator) ----


def _setup_simulate(seed: int) -> None:
    from wavereg import DatumSpec, NormalFormSetting, PressureLaw, SystemSpec, make_datum
    from wavereg.integrate import step_full
    from wavereg.spectral import Grid

    eps = 0.1
    amp = eps**0.5
    profile = make_datum(Grid(32), DatumSpec(seed, 0.15, PressureLaw.P1, (1, 8), False))
    system = SystemSpec("regularized", eps, rescaled=True, amplitude=amp)
    NormalFormSetting(eps, False, PressureLaw.P1, amp)
    step_full(system, PressureLaw.P1, amp * profile, 0.0, 1e-3)


def _setup_sweep(seed: int) -> None:
    from wavereg import DatumSpec, PressureLaw, SystemSpec, make_datum
    from wavereg.integrate import step_full
    from wavereg.spectral import Grid

    eps, amp = SWEEP_EPSILONS[0], 0.2
    profile = make_datum(Grid(512), DatumSpec(seed, 0.15, PressureLaw.P0, (1, 8), True))
    system = SystemSpec("modified", eps, rescaled=True, amplitude=amp)
    step_full(system, PressureLaw.P0, amp * profile, 0.0, SWEEP_DT * eps**2)


def _setup_picard(seed: int) -> None:
    from wavereg import DatumSpec, NormalFormSetting, PressureLaw, make_datum, to_normal_coords
    from wavereg.spectral import Grid

    profile = make_datum(Grid(16), DatumSpec(seed, 0.12, PressureLaw.P0, (1, 8), True))
    to_normal_coords(NormalFormSetting(0.2, True, PressureLaw.P0, 0.2), profile)


def _setup_verify(seed: int) -> None:
    import numpy as np

    from wavereg import NormalFormSetting, PressureLaw, State
    from wavereg.spectral import Grid, random_field, remove_mean

    grid = Grid(64)
    rng = np.random.default_rng(seed + 1)
    for conjugated in (False, True):
        NormalFormSetting(0.1, conjugated, PressureLaw.P0, 1.0)
        for _ in range(100):
            State(remove_mean(0.1 * random_field(grid, rng, band=(1, 64))),
                  remove_mean(0.1 * random_field(grid, rng, band=(1, 64))))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-k32",
            "Small-K stepping bound by per-call overhead plus per-row CSV "
            "post-processing; regularized branches only, so folding the "
            "modified system should not move it.",
            ("simulate", "--system", "regularized", "--pressure", "p1",
             "--epsilon", "0.1", "--alpha", "0.5"),
            _setup_simulate,
        ),
        Workload(
            "sweep-modified-k512",
            "Large-K stepping of the conjugated system, where the per-mode 4x4 "
            "loop and expm propagator builds dominate; eps=0.2 crosses, so "
            "bisection and cold propagators run.",
            ("sweep", "--system", "modified", "--pressure", "p0", "--lambda", "0.2",
             "--n-modes", "512", "--epsilons", ",".join(map(str, SWEEP_EPSILONS)),
             "--time-scale", "eps_squared", "--dt", str(SWEEP_DT),
             "--t-end", str(SWEEP_T_END), "--rho-max", "0.152"),
            _setup_sweep,
        ),
        Workload(
            "picard-modified",
            "The normal-form workload: the iterative conjugated to_normal_coords "
            "inside remainder_R dominates, then quadrature and the per-node loop.",
            ("picard", "--system", "modified", "--epsilon", "0.2"),
            _setup_picard,
        ),
        Workload(
            "verify",
            "The only workload that reaches jets_ibp (f_n, verify_fn_bound, "
            "implicit_residual), with lemma_m_suite, Linf norms and a short "
            "step_reduced run.",
            ("verify",),
            _setup_verify,
        ),
    )
}


# -- what a run produced -----------------------------------------------------


def _read_csv(path: str):
    """(rows as dicts, trailing `# key = value` lines) of a CLI table."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    meta = dict(
        (part.strip() for part in line[1:].split("=", 1))
        for line in lines if line.startswith("#")
    )
    body = [line.split(",") for line in lines if line and not line.startswith("#")]
    return [dict(zip(body[0], cells)) for cells in body[1:]], meta


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _steps_to(t_end: float, dt: float) -> int:
    """Steps `integrate.solve` takes to reach t_end, by its own loop rule."""
    t, steps = 0.0, 0
    while t < t_end - 1e-12 * max(1.0, t_end):
        t += min(dt, t_end - t)
        steps += 1
    return steps


def summarize(name: str, exit_code: int, stdout: str, run_dir: str) -> dict:
    """The run's observable results: everything the output check compares,
    plus `work`, the workload's unit of work done by the run."""
    out = {"exit": exit_code}
    if name == "simulate-k32":
        rows, _ = _read_csv(os.path.join(run_dir, "simulate.csv"))
        energies = [float(r["energy"]) for r in rows]
        last = rows[-1]
        out.update(
            rows=len(rows),
            statuses=sorted({r["status"] for r in rows}),
            final={key: float(last[key]) for key in
                   ("t", "norm_w1_H1", "norm_w2_L2", "norm_u1_H1", "norm_u2_L2", "energy")},
            energy_drift=max(abs(e - energies[0]) for e in energies) / abs(energies[0]),
            max_cancellation_residual=max(float(r["cancellation_residual"]) for r in rows),
        )
        # store_every = 1: every accepted step leaves one row after the datum's
        out["work"] = len(rows) - 1
    elif name == "sweep-modified-k512":
        rows, meta = _read_csv(os.path.join(run_dir, "sweep.csv"))
        config = _read_json(os.path.join(run_dir, "sweep.json"))["config"]
        work = 0
        for row in rows:
            eps = float(row["epsilon"])
            scale = eps**2 if config["time_scale"] == "eps_squared" else 1.0
            dt = config["dt"] * scale
            if row["status"] == "blowup":
                # the crossing lies inside the step after the last accepted one
                work += int(float(row["time"]) / dt + 1e-9)
            else:
                work += _steps_to(config["t_end"] * scale, dt)
        out.update(
            statuses=[r["status"] for r in rows],
            times=[float(r["time"]) if r["time"] else None for r in rows],
            final_norm1=[float(r["final_norm1"]) for r in rows],
            final_norm2=[float(r["final_norm2"]) for r in rows],
            message=meta.get("message", ""),
            accepted_steps=work,
        )
        out["work"] = work
    elif name == "picard-modified":
        manifest = _read_json(os.path.join(run_dir, "picard.json"))
        out.update(
            iterates=manifest["iterates"],
            converged=manifest["converged"],
            final_residual=manifest["final_residual"],
            contraction_ratios=manifest["contraction_ratios"],
        )
        # one reduced right-hand side per quadrature node per iterate
        out["work"] = manifest["config"]["n_nodes"] * manifest["iterates"]
    elif name == "verify":
        legs = {}
        passed = total = None
        for line in stdout.splitlines():
            if line.startswith("verify: "):
                counts = line.split()[1].split("/")
                passed, total = int(counts[0]), int(counts[1])
            elif "(threshold" in line:
                leg, rest = line.split(": ", 1)
                parts = rest.replace("(", " ").replace(")", " ").split()
                legs[leg] = {"value": float(parts[0]), "threshold": float(parts[2]),
                             "verdict": parts[3]}
        out.update(passed=passed, total=total, legs=legs)
        out["work"] = passed or 0
    return out
