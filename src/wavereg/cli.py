"""Run, sweep, and verification commands behind one entry point: an adapter
that owns the options, the output files and the exit codes, while every
number it prints comes from one library call.  It imports no private name.

Configuration is an optional flat key=value file plus command-line flags,
and flags win.  The option table is the one place an option is declared:
`_OPTIONS` gives each key its converter and help, each command's defaults
dict names the keys it reads (in flag order, `_REQUIRED` marking a key
without a default), and `_COMMANDS` ties a command to its handler and
defaults.  The parser, the config-file keys and the defaults are generated
from it, so a command accepts a flag exactly when it reads the key.  Flags
are never abbreviated.

Every output file is written atomically (temp file in the destination
directory, then rename) with floats at 17 significant digits, so a fixed
configuration and seed reproduce each table byte for byte.  The default
output directory comes from WAVEREG_OUTPUT_DIR when set, else the working
directory.

Exit codes: 0 success, 1 bad configuration / unknown flags / I/O trouble,
2 a verification that ran and failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import time

from . import __version__
from .experiments import (
    DatumSpec,
    continuation_schedule,
    existence_run,
    growth_experiment,
    make_datum,
    normal_frame_columns,
    scaling_sweep,
    verify_legs,
)
from .integrate import IntegratorConfig, picard_solve
from .model import PressureLaw, SystemSpec
from .normalform import NormalFormSetting, to_normal_coords
from .spectral import Grid

_LAWS = {"p0": PressureLaw.P0, "p1": PressureLaw.P1, "p2": PressureLaw.P2}

# alpha pinned by the boundedness statements when --theorem-scaling is set
_THEOREM_ALPHA = {"p0": 0.0, "p1": 0.5, "p2": 0.25}


class CliError(Exception):
    """Anything that should abort with exit code 1 and a one-line message."""


# --------------------------------------------------------------------------
# Serialization helpers.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path via a sibling temp file and an atomic rename."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wavereg-tmp-")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CliError(f"cannot write {path}: {exc}") from exc


def _csv_text(header, rows, meta=None) -> str:
    """Render a comma-separated table; meta becomes trailing comment lines.
    Each row is formatted by one template per sequence of cell types, which
    spells _fmt for each cell: floats as .17g, None as nothing."""
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "" if kind is type(None) else f"{{{i}:.17g}}" if issubclass(kind, float)
                else f"{{{i}!s}}" for i, kind in enumerate(kinds))
        lines.append(template.format(*row))
    for key, value in (meta or {}).items():
        lines.append(f"# {key} = {_fmt(value) if value is not None else 'none'}")
    return "\n".join(lines) + "\n"


_WALL_SLOT = "@wall_time_seconds@"

# a whole cell that .17g made of a non-finite float: inf, -inf or nan
_NON_FINITE_CELL = re.compile(r"(?<![^,\n])-?(?:inf|nan)(?![^,\n])")


def _require_finite_cells(command: str, header, text: str) -> None:
    """Refuse a rendered table with a non-finite cell, naming its column;
    the trailing comment lines are not cells."""
    end = text.find("\n#")
    cell = _NON_FINITE_CELL.search(text, 0, len(text) if end < 0 else end)
    if cell:
        line = text.rfind("\n", 0, cell.start()) + 1
        column = header[text.count(",", line, cell.start())]
        raise CliError(f"{command}: column {column} holds the non-finite value "
                       f"{cell.group()}; no file written")


def _write_outputs(cfg: dict, command: str, started: float, extras: dict, table=None):
    """Write <tag>.csv from table = (header, rows[, meta]) when given, then
    the <tag>.json manifest of cfg, extras (JSON-native values) and the wall
    time since the perf_counter reading `started`; the tag defaults to the
    command name.  Returns (csv_path or None, json_path).  A non-finite
    number in a table cell or in the manifest, which neither CSV readers
    nor JSON take, is a CliError, and then neither file is written."""
    wall = time.perf_counter() - started
    out = cfg["output_dir"] or os.environ.get("WAVEREG_OUTPUT_DIR", ".")
    tag = cfg["tag"] or command
    csv_path = None if table is None else os.path.join(out, f"{tag}.csv")
    if table is not None:
        csv_text = _csv_text(*table)
        _require_finite_cells(command, table[0], csv_text)
    json_path = os.path.join(out, f"{tag}.json")
    # every manifest's wall time is a fixed-width number, so a manifest's
    # size does not vary with the clock
    payload = {"command": command, "config": cfg, "version": __version__, **extras,
               "outputs": [] if table is None else [os.path.basename(csv_path)],
               "wall_time_seconds": _WALL_SLOT}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # inf or nan: JSON has no token for either
        raise CliError(f"{command}: the manifest holds a non-finite number; "
                       f"no file written") from None
    text = text.replace(f'"wall_time_seconds": "{_WALL_SLOT}"',
                        f'"wall_time_seconds": {wall:.6e}', 1)
    if table is not None:
        _atomic_write(csv_path, csv_text)
    _atomic_write(json_path, text)
    return csv_path, json_path


# --------------------------------------------------------------------------
# Configuration plumbing: converters, file loader, flag/file/default merge.


def _to_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise CliError(f"expected a finite number, got {text!r}")
    return value


def _to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"expected an integer, got {text!r}")


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


def _one_of(*choices):
    def convert(text: str) -> str:
        if text not in choices:
            raise CliError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text

    return convert


def _band(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"band must be 'lo,hi', got {text!r}")
    return (_to_int(parts[0]), _to_int(parts[1]))


def _list_of(convert, noun: str):
    def convert_list(text: str):
        values = tuple(convert(part) for part in text.split(",") if part.strip())
        if not values:
            raise CliError(f"expected a comma-separated list of {noun}")
        return values

    return convert_list


# Every option, key -> (converter, help).  A command's defaults dict (next
# to its handler) picks the keys it reads, in flag order; its --help lists
# them with these strings unless _HELP overrides one for that command.
_OPTIONS = {
    "system": (_one_of("regularized", "modified"), "regularized or modified"),
    "pressure": (_one_of("p0", "p1", "p2"), "p0, p1, or p2"),
    "epsilon": (_to_float, "dispersion parameter in (0,1)"),
    "alpha": (_to_float, "datum amplitude exponent (regularized)"),
    "lam": (_to_float, "fixed datum amplitude (modified system)"),
    "n_modes": (_to_int, "retained band half-width"),
    "n_points": (_to_int, "collocation points (0 = alias-free default)"),
    "seed": (_to_int, "datum random seed"),
    "target_norm": (_to_float, "datum norm target, below 1/6"),
    "band": (_band, "datum mode band 'lo,hi'"),
    "theorem_scaling": (
        _to_bool, "pin alpha to the boundedness-statement value for the law"),
    "epsilons": (_list_of(_to_float, "numbers"), "comma-separated epsilon list"),
    "dt": (_to_float, "time step"),
    "t_end": (_to_float, "integration horizon"),
    "rho_max": (_to_float, "blow-up threshold in profile units"),
    "store_every": (_to_int, "sample stride for stored rows"),
    "time_scale": (_one_of("fixed", "eps_squared"), "'fixed' or 'eps_squared'"),
    "jobs": (_to_int, "parallel worker processes"),
    "u_star": (_to_float, "base state"),
    "wavenumbers": (_list_of(_to_int, "integers"), "comma-separated integer list"),
    "n_samples": (_to_int, "time samples for the rate fit"),
    "rho": (_to_float, "initial norm budget"),
    "growth_constant": (_to_float, "per-step growth constant"),
    "step_constant": (_to_float, "step-length constant"),
    "t_horizon": (_to_float, "iteration horizon (default 0.1 * eps^2)"),
    "max_iter": (_to_int, "iteration cap"),
    "n_nodes": (_to_int, "quadrature nodes"),
    "fields": (_to_int, "random fields per suite"),
    # the file itself: a flag of every command, a key of none
    "config": (str, "flat key=value configuration file"),
    "output_dir": (str, "where files go (default $WAVEREG_OUTPUT_DIR or .)"),
    "tag": (str, "basename for output files"),
}

# help strings that mean something else in one command
_HELP = {
    ("verify", "n_modes"): "band half-width",
    ("verify", "seed"): "random seed",
    ("sweep", "dt"): "time step (scaled by eps^2 if requested)",
    ("sweep", "t_end"): "horizon per run",
    ("sweep", "store_every"): "sample stride",
    ("growth", "epsilon"): "dispersion strength, >= 0",
    ("continue", "alpha"): "amplitude exponent in the step grain",
}

# marks a defaults entry that has no default: the key must be given
_REQUIRED = object()

_IO_DEFAULTS = {"output_dir": None, "tag": None}


def _flag(key: str) -> str:
    """The command-line spelling of a key: dashes, and 'lam' -> '--lambda'."""
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


_KEY_OF_NAME = {_flag(key)[2:].replace("-", "_"): key for key in _OPTIONS}


def _load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' comments and blank lines ignored.

    Keys use underscores or dashes interchangeably ('t-end' == 't_end'),
    and a key may be spelled as its flag ('lambda' == 'lam').
    """
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                values[_KEY_OF_NAME.get(key, key)] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args, defaults: dict) -> dict:
    """Merge flag values over config-file values over the command's defaults.

    A key present in none of the three is an error when its default is
    _REQUIRED; a default of None means 'optional, decided later'.
    """
    file_values = {}
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            names = ", ".join(sorted(unknown))
            raise CliError(f"unknown config key(s) for this command: {names}")
    resolved = {}
    for key, default in defaults.items():
        convert = _OPTIONS[key][0]
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = convert(flag) if isinstance(flag, str) else flag
        elif key in file_values:
            resolved[key] = convert(file_values[key])
        elif default is not _REQUIRED:
            resolved[key] = default
        else:
            raise CliError(
                f"{key} is required (give {_flag(key)} or set it in a config file)"
            )
    return resolved


def _check_epsilon(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise CliError(f"epsilon must lie strictly between 0 and 1, got {eps}")


def _amplitude_rule(cfg: dict) -> tuple[float | None, float | None]:
    """The datum prefactor as (exponent, fixed): eps**alpha for the
    regularized system (exponent = alpha), a fixed lambda for the modified
    one (fixed = lambda).  --theorem-scaling pins alpha per law.  Every
    command uses this rule, so each rejects the other system's flag."""
    conjugated = cfg["system"] == "modified"
    if conjugated and cfg["pressure"] != "p0":
        raise CliError("the modified system requires pressure law p0")
    alpha, lam = cfg["alpha"], cfg["lam"]
    if (alpha if conjugated else lam) is not None:
        hint = ("alpha does not apply to the modified system; use --lambda"
                if conjugated else
                "lambda only applies to the modified system; use --alpha")
        if alpha is not None and lam is not None:
            hint = f"give at most one of --alpha and --lambda ({hint})"
        raise CliError(hint)
    if conjugated:
        return None, 0.2 if lam is None else lam
    if cfg["theorem_scaling"]:
        pinned = _THEOREM_ALPHA[cfg["pressure"]]
        if alpha is not None and alpha != pinned:
            raise CliError(
                f"theorem scaling pins alpha = {pinned} for {cfg['pressure']}, "
                f"got alpha = {alpha}"
            )
        alpha = pinned
    if alpha is None:
        alpha = 0.0
    if alpha < 0.0:
        raise CliError(f"alpha must be nonnegative, got {alpha}")
    return alpha, None


def _model(cfg: dict) -> tuple[PressureLaw, DatumSpec, float | None, float | None]:
    """The model keys of simulate, sweep and picard as (law, datum recipe,
    exponent, fixed), checked in one order: each epsilon (sweep's
    `epsilons`, else `epsilon`), then _amplitude_rule, then the recipe, so
    a modified system with p1 prints the amplitude rule's message and not
    the recipe's."""
    for eps in cfg["epsilons"] if "epsilons" in cfg else (cfg["epsilon"],):
        _check_epsilon(eps)
    exponent, fixed = _amplitude_rule(cfg)
    law = _LAWS[cfg["pressure"]]
    spec = DatumSpec(cfg["seed"], cfg["target_norm"], law, cfg["band"], exponent is None)
    return law, spec, exponent, fixed


# --------------------------------------------------------------------------
# Subcommands.

_TRAJECTORY_COLUMNS = (
    "t",
    "norm_w1_H1",
    "norm_w2_L2",
    "norm_u1_H1",
    "norm_u2_L2",
    "energy",
    "mean_abs_u1",
    "mean_abs_u2",
    "cancellation_residual",
    "status",
)

# the system, amplitude and datum keys of simulate, sweep and picard
_MODEL_DEFAULTS = {
    "system": "regularized",
    "pressure": "p0",
    "epsilon": _REQUIRED,
    "alpha": None,
    "lam": None,
    "n_modes": 32,
    "n_points": 0,
    "seed": 1,
    "target_norm": 0.15,
    "band": (1, 8),
    "theorem_scaling": False,
}


def _without(defaults: dict, *keys: str) -> dict:
    return {key: value for key, value in defaults.items() if key not in keys}


_SIMULATE_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "dt": 1e-3,
    "t_end": 0.5,
    "rho_max": 1.0,
    "store_every": 1,
    **_IO_DEFAULTS,
}


def _cmd_simulate(cfg: dict) -> int:
    law, spec, exponent, fixed = _model(cfg)
    amp = fixed if exponent is None else cfg["epsilon"] ** exponent

    started = time.perf_counter()
    profile = make_datum(Grid(cfg["n_modes"], cfg["n_points"]), spec)
    system = SystemSpec(cfg["system"], cfg["epsilon"], rescaled=True, amplitude=amp)
    setting = NormalFormSetting(cfg["epsilon"], spec.conjugated, law, amp)
    run_config = IntegratorConfig(
        dt=cfg["dt"], t_end=cfg["t_end"], store_every=cfg["store_every"]
    )
    trajectory = existence_run(system, law, amp * profile, run_config, cfg["rho_max"])

    norms_v1, norms_v2, residuals = normal_frame_columns(setting, trajectory)
    rows = [
        (t, norm_v1, norm_v2, diag["norm1_h1"], diag["norm2_l2"], diag["energy"],
         diag["mean_abs_1"], diag["mean_abs_2"], residual, trajectory.terminal_status)
        for t, norm_v1, norm_v2, diag, residual in zip(
            trajectory.times, norms_v1, norms_v2, trajectory.diagnostics, residuals
        )
    ]

    csv_path, json_path = _write_outputs(cfg, "simulate", started, {
        "amplitude": amp,
        "terminal_status": trajectory.terminal_status,
        "blowup_time": trajectory.blowup_time,
        "samples": len(rows),
    }, (_TRAJECTORY_COLUMNS, rows))
    print(
        f"simulate: status={trajectory.terminal_status} samples={len(rows)} "
        f"wrote {csv_path} and {json_path}"
    )
    return 0


_SWEEP_DEFAULTS = {
    **_without(_MODEL_DEFAULTS, "epsilon", "n_points"),
    "epsilons": _REQUIRED,
    "dt": 1e-3,
    "t_end": 0.5,
    "rho_max": 1.0,
    "store_every": 16,
    "time_scale": "fixed",
    "jobs": None,
    **_IO_DEFAULTS,
}


def _cmd_sweep(cfg: dict) -> int:
    law, spec, exponent, fixed = _model(cfg)

    started = time.perf_counter()
    result = scaling_sweep(
        law,
        cfg["system"],
        cfg["epsilons"],
        spec,
        amplitude_exponent=exponent,
        amplitude=fixed,
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        time_scale=cfg["time_scale"],
        rho_max=cfg["rho_max"],
        n_modes=cfg["n_modes"],
        store_every=cfg["store_every"],
        jobs=cfg["jobs"],
    )

    rows = [
        (row.epsilon, row.time, row.status, row.final_norm1, row.final_norm2)
        for row in result.rows
    ]
    meta = {
        "slope": result.slope,
        "intercept": result.intercept,
        "residual": result.residual,
        "message": result.message,
    }
    header = ("epsilon", "time", "status", "final_norm1", "final_norm2")
    csv_path, _ = _write_outputs(cfg, "sweep", started, {
        **meta,
        "runs": len(rows),
        "statuses": [row.status for row in result.rows],
    }, (header, rows, meta))
    slope_text = "none" if result.slope is None else f"{result.slope:.4f}"
    suffix = f" ({result.message})" if result.message else ""
    print(f"sweep: {len(rows)} runs, slope={slope_text}{suffix}, wrote {csv_path}")
    return 0


_GROWTH_DEFAULTS = {
    "pressure": "p0",
    "u_star": 0.0,
    "wavenumbers": (1, 2, 4, 8),
    "epsilon": 0.0,
    "n_samples": 20001,
    **_IO_DEFAULTS,
}


def _cmd_growth(cfg: dict) -> int:
    law = _LAWS[cfg["pressure"]]
    started = time.perf_counter()
    measurements = growth_experiment(
        law,
        cfg["u_star"],
        cfg["wavenumbers"],
        epsilon=cfg["epsilon"],
        n_samples=cfg["n_samples"],
    )
    rows = [(m.wavenumber, m.measured, m.predicted) for m in measurements]
    csv_path, _ = _write_outputs(cfg, "growth", started, {},
                                 (("wavenumber", "measured", "predicted"), rows))
    print(f"growth: {len(rows)} wavenumbers, wrote {csv_path}")
    return 0


_CONTINUE_DEFAULTS = {
    "rho": _REQUIRED,
    "epsilon": _REQUIRED,
    "alpha": 0.5,
    "growth_constant": 1.0,
    "step_constant": 1.0,
    **_IO_DEFAULTS,
}


def _cmd_continue(cfg: dict) -> int:
    _check_epsilon(cfg["epsilon"])
    started = time.perf_counter()
    schedule = continuation_schedule(
        cfg["rho"],
        cfg["epsilon"],
        cfg["alpha"],
        growth_constant=cfg["growth_constant"],
        step_constant=cfg["step_constant"],
    )
    _, json_path = _write_outputs(cfg, "continue", started, {
        "rho_sequence": schedule.rho_sequence,
        "time_sequence": schedule.time_sequence,
        "j_formula": schedule.j_formula,
        "j_star": schedule.j_star,
        "t_star": schedule.t_star,
    })
    print(
        f"continue: j_formula={schedule.j_formula} j_star={schedule.j_star} "
        f"t_star={_fmt(schedule.t_star)} wrote {json_path}"
    )
    return 0


_PICARD_DEFAULTS = {
    **_without(_MODEL_DEFAULTS, "n_points"),
    "n_modes": 16,
    # smaller than the simulate default: the fixed-point guard needs the
    # slow-frame datum below 1/6 after the near-identity map inflates it
    "target_norm": 0.12,
    "t_horizon": None,
    "max_iter": 50,
    "n_nodes": 257,
    **_IO_DEFAULTS,
}


def _cmd_picard(cfg: dict) -> int:
    law, spec, exponent, fixed = _model(cfg)
    amp = fixed if exponent is None else cfg["epsilon"] ** exponent
    horizon = cfg["t_horizon"]
    if horizon is None:
        horizon = 0.1 * cfg["epsilon"] ** 2
    if horizon <= 0.0:
        raise CliError(f"t_horizon must be positive, got {horizon}")

    started = time.perf_counter()
    profile = make_datum(Grid(cfg["n_modes"]), spec)
    setting = NormalFormSetting(cfg["epsilon"], spec.conjugated, law, amp)
    v0 = to_normal_coords(setting, profile)
    _, report = picard_solve(
        v0.u1, v0.u2, law, setting, horizon,
        max_iter=cfg["max_iter"], n_nodes=cfg["n_nodes"],
    )

    _, json_path = _write_outputs(cfg, "picard", started, {
        "t_horizon": horizon,
        "iterates": report.iterates,
        "final_residual": report.final_residual,
        "contraction_ratios": report.contraction_ratios,
        "converged": report.converged,
    })
    worst = max(report.contraction_ratios) if report.contraction_ratios else None
    print(
        f"picard: iterates={report.iterates} "
        f"final_residual={report.final_residual:.3e} "
        f"worst_ratio={_fmt(worst) or 'n/a'} converged={report.converged} "
        f"wrote {json_path}"
    )
    return 0 if report.converged else 2


_VERIFY_DEFAULTS = {"n_modes": 64, "seed": 1, "fields": 100}


def _cmd_verify(cfg: dict) -> int:
    if cfg["n_modes"] < 8:
        raise CliError(f"verify needs n_modes >= 8, got {cfg['n_modes']}")
    if cfg["fields"] < 1:
        raise CliError(f"fields must be positive, got {cfg['fields']}")
    legs = verify_legs(cfg["n_modes"], cfg["seed"], cfg["fields"])
    failures = 0
    for name, measured, threshold, ok in legs:
        verdict = "PASS" if ok else "FAIL"
        print(f"{name}: {measured:.3e} (threshold {threshold:.3e}) {verdict}")
        failures += 0 if ok else 1
    total = len(legs)
    print(f"verify: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 2


# --------------------------------------------------------------------------
# Parser assembly.


_COMMANDS = {
    "simulate": (_cmd_simulate, "one trajectory -> CSV + manifest", _SIMULATE_DEFAULTS),
    "verify": (_cmd_verify, "identity suites -> pass/fail report", _VERIFY_DEFAULTS),
    "sweep": (_cmd_sweep, "existence times across epsilon -> CSV", _SWEEP_DEFAULTS),
    "growth": (_cmd_growth, "linearized growth rates -> CSV", _GROWTH_DEFAULTS),
    "continue": (_cmd_continue, "norm-budget schedule -> JSON", _CONTINUE_DEFAULTS),
    "picard": (_cmd_picard, "fixed-point iteration -> report", _PICARD_DEFAULTS),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `only` a command's name, one
    whose other commands have no options: each command is still added, so
    the top-level help and the error for an unknown command are the same,
    and a run parses one command's options only."""
    parser = argparse.ArgumentParser(
        prog="wavereg",
        description="Dispersive-regularization simulations, sweeps, and checks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, summary, defaults) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary, allow_abbrev=False)
        if only not in (None, name):
            continue
        # --config goes just before the output keys, which close a defaults dict
        keys = [key for key in defaults if key not in _IO_DEFAULTS]
        keys += ["config", *(key for key in _IO_DEFAULTS if key in defaults)]
        for key in keys:
            switch = key == "theorem_scaling"
            command.add_argument(
                _flag(key), dest=key, help=_HELP.get((name, key), _OPTIONS[key][1]),
                **({"action": argparse.BooleanOptionalAction} if switch else {}),
            )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its own message (--help exits 0, errors 2)
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        handler, _, defaults = _COMMANDS[args.command]
        return handler(_resolve(args, defaults))
    except (CliError, ValueError) as exc:
        # a ValueError is validation raised by the library layer
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
