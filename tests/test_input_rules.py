"""One table of the library's input rules.

Each row hands one library entry one bad value of one argument and expects
ValueError with the message of the one function that spells its rule,
which names the argument: "{name} must be finite, got {value}", and likewise
"must be positive", "must be nonnegative", "must lie in (0, 1)", "must
lie in [0, 1]" and, for a datum profile's size, "must lie in (0, 1/6)",
"{name} must be an integer, got {value!r}"; for a count,
"{name} must be at least {minimum}, got {value}" and, under a cap, "must be
at most {maximum}"; "{name} must be one of {choices}, got {value!r}"; for a
band of wavenumbers, "{name} must be a pair (lo, hi), got {band!r}" and
"{name} must satisfy {lowest} <= lo <= hi <= {highest}, got {band}"; and
"fields live on different grids" (spectral.py); "the modified
system is defined with law P0 only, got {law}" (model._require_law) and
"law must be the setting's law {law}, got {law}"
(model._require_setting_law).  Where an argument must be both finite and
positive (or nonnegative), a value that breaks both rules, -inf, is named
not finite.

The rows hold every value of these kinds that the entries rejected before
the rules were shared, so a dropped check fails a row.  HOLES names the
rows that earlier versions did not reject with ValueError: they either
accepted the value (growth_experiment filed the rate of k = 1.5 under
k = 1, and so did linear_growth_rate, simpson_uniform integrated with
dx = nan, Grid.points(0) gave no points, a count or seed of True was
read as 1, norm(f, "Hs", nan) gave nan, and a nan Sobolev index or
tolerance of lemma_m_suite passed every identity or failed them all, and
verify_legs ran at n_modes = 7, below the 8 that only the CLI asked for) or
failed later with TypeError (a seed of 1.5, in numpy's SeedSequence, a
jet depth of 1.5, in numpy's zeros, and a band that is no sequence, in
its unpacking).  RESPELLED names the rows that earlier versions rejected
with ValueError in another text: the count, band, grid, choice, law and
scheme rules each had up to five spellings, a wavenumber outside the band
had its own, verify_legs(8, 1, 1.5) named n_fields, f_n(u, 16) named the
jet depth 17, a band of one or three ends failed on its unpacking,
continuation_schedule's alpha rule gave no value and the sweep asked for
"at least three epsilon values".
"""

import math
from unittest import mock

import numpy as np
import pytest

from wavereg import experiments
from wavereg.experiments import (
    DatumSpec,
    continuation_schedule,
    existence_run,
    existence_time,
    growth_experiment,
    lemma_m_suite,
    scaling_sweep,
    sobolev_constant,
    verify_legs,
)
from wavereg.experiments import make_datum
from wavereg.integrate import IntegratorConfig, picard_solve, solve, step_full, step_reduced
from wavereg.jets_ibp import (
    IbpCoefficients,
    _jets,
    choose_n,
    f_n,
    f_n_directional,
    implicit_residual,
    verify_fn_bound,
)
from wavereg.model import PressureLaw, State, SystemSpec, linear_growth_rate
from wavereg.normalform import NormalFormSetting, ReducedState, _phases
from wavereg.quadrature import cumulative_weighted_simpson, simpson_uniform
from wavereg.spectral import (
    Grid,
    SpectralField,
    derivative,
    from_modes,
    norm,
    random_field,
    to_physical,
    to_spectral,
    zeros,
)

NAN, INF = math.nan, math.inf
P0, P1, P2 = PressureLaw.P0, PressureLaw.P1, PressureLaw.P2

MESSAGES = {
    "finite": "{} must be finite, got {}",
    "positive": "{} must be positive, got {}",
    "nonnegative": "{} must be nonnegative, got {}",
    "unit": "{} must lie in (0, 1), got {}",
    "closed unit": "{} must lie in [0, 1], got {}",
    "profile norm": "{} must lie in (0, 1/6), got {}",
    "integer": "{} must be an integer, got {!r}",
    "law": "the modified system is defined with law P0 only, got {1.name}",
    "setting law": "{0} must be the setting's law P0, got {1.name}",
    "grid": "fields live on different grids",
}

# the bad values of each kind of argument, each with the rule it breaks
BAD = {
    "finite": [(NAN, "finite"), (INF, "finite"), (-INF, "finite")],
    # inf passes: an infinite threshold disables what it bounds
    "positive": [(0.0, "positive"), (-1.0, "positive"), (NAN, "positive")],
    "positive, finite": [(0.0, "positive"), (-1.0, "positive"), (NAN, "finite"),
                         (INF, "finite"), (-INF, "finite")],
    "nonnegative": [(-1, "nonnegative")],
    "nonnegative, finite": [(-0.5, "nonnegative"), (NAN, "finite"), (INF, "finite"),
                            (-INF, "finite")],
    "unit": [(value, "unit") for value in (0.0, 1.0, -0.5, 1.5, NAN, INF, -INF)],
    "closed unit": [(value, "closed unit") for value in (-0.5, 1.5, NAN, INF, -INF)],
    "profile norm": [(value, "profile norm") for value in (0, -0.1, 1 / 6, 0.2, NAN, INF)],
    "integer": [(value, "integer") for value in (1.5, 2.0, NAN, "8")],
    "law": [(P1, "law"), (P2, "law")],
    "setting law": [(P1, "setting law"), (P2, "setting law")],
    # operator.index reads True as 1; a few entries stand for every caller
    "not bool": [(True, "integer")],
}

# a count: an integer of at least its minimum, and at most a cap if it has one
for minimum in (0, 1, 3, 8, 17, 101):
    rule = f"at least {minimum}"
    MESSAGES[rule] = f"{{}} must be at least {minimum}, got {{}}"
    BAD[f"count from {minimum}"] = [(v, rule) for v in dict.fromkeys((minimum - 1, -1))]
    BAD[f"count from {minimum}"] += BAD["integer"]
    # a count of samples, which is len() of an array and so an int
    BAD[f"samples from {minimum}"] = [(v, rule) for v in dict.fromkeys((minimum - 1, 0))]
for maximum in (8, 15, 16):
    MESSAGES[f"at most {maximum}"] = f"{{}} must be at most {maximum}, got {{}}"
    BAD[f"count from 0 to {maximum}"] = BAD["count from 0"] + [(maximum + 1, f"at most {maximum}")]
# a wavenumber of the band |k| <= 8
MESSAGES["at least -8"] = "{} must be at least -8, got {}"
BAD["wavenumber"] = [(-9, "at least -8"), (9, "at most 8")] + BAD["integer"]

# one of a fixed set of choices
CHOICES = {
    "scheme": ("exp_rk2", "exp_euler"),
    "system kind": ("regularized", "modified"),
    "norm kind": ("L2", "Hs", "Linf"),
    "time_scale": ("fixed", "eps_squared"),
    "direction": ("forward", "backward"),
}
for kind, choices in CHOICES.items():
    MESSAGES[kind] = f"{{}} must be one of {choices}, got {{!r}}"
    BAD[kind] = [(value, kind) for value in ("rk4" if kind == "scheme" else "bogus", "", None)]

# a band of wavenumbers: integer ends with lowest <= lo <= hi, and hi <= highest if given
for lowest, highest in ((0, 8), (1, 8), (1, None)):
    rule = f"band from {lowest}" + ("" if highest is None else f" to {highest}")
    top = "" if highest is None else f" <= {highest}"
    MESSAGES[rule] = f"{{}} must satisfy {lowest} <= lo <= hi{top}, got {{}}"
    BAD[rule] = [(band, rule) for band in ((lowest - 1, 3), (5, 3))]
    if highest is not None:
        BAD[rule] += [(band, rule) for band in ((1, highest + 1), (3, 12))]
# make_datum reads a band that DatumSpec accepted, so only its hi can break the rule
BAD["band from 1 to 8"] = BAD["band from 1 to 8"][-2:]
MESSAGES["pair"] = "{} must be a pair (lo, hi), got {!r}"
BAD["pair"] = [(band, "pair") for band in ((1, 2, 3), (1,), 5)]

GRID = Grid(8)
ZERO = zeros(GRID)
U = from_modes(GRID, {1: 0.1, -2: 0.05})
OTHER = zeros(Grid(4))
BAD["grid"] = [(OTHER, "grid")]
SYSTEM = SystemSpec("regularized", 0.2)
MODIFIED = SystemSpec("modified", 0.2)
SETTING = NormalFormSetting(0.2)
SPEC = DatumSpec(1, 0.15, P1)
COEFFS = IbpCoefficients(1, 0.1, 0.2, 2.0)


def sweep(**overrides):
    """A three-run sweep of one step each, with the arguments overridden; the
    sweep checks them all before it builds the profile."""
    kwargs = dict(epsilons=(0.2, 0.1, 0.05), amplitude_exponent=0.5, t_end=1e-3, dt=1e-3,
                  n_modes=8)
    kwargs.update(overrides)
    past_the_checks = AssertionError("the sweep built its profile")
    with mock.patch.object(experiments, "make_datum", side_effect=past_the_checks):
        return scaling_sweep(P1, "regularized", kwargs.pop("epsilons"), SPEC, **kwargs)


def existence(entry, rho_max):
    state = State(ZERO, ZERO)
    return entry(SYSTEM, P1, state, IntegratorConfig(1e-3, 1e-2), rho_max=rho_max)


# (entry, argument as its message names it, kind of argument, call on a value)
ENTRIES = [
    ("Grid", "n_modes", "count from 0", lambda v: Grid(v)),
    ("Grid", "n_modes", "not bool", lambda v: Grid(v)),
    ("Grid", "n_points", "count from 17", lambda v: Grid(8, n_points=v)),
    ("Grid.points", "n_points", "count from 1", lambda v: GRID.points(v)),
    ("Grid.index", "wavenumber", "wavenumber", lambda v: GRID.index(v)),
    ("from_modes", "wavenumber", "wavenumber", lambda v: from_modes(GRID, {v: 1.0})),
    ("SpectralField.coeff", "wavenumber", "wavenumber", lambda v: U.coeff(v)),
    ("to_physical", "n_points", "count from 17", lambda v: to_physical(U, v)),
    ("to_spectral", "n_samples", "samples from 17", lambda v: to_spectral(GRID, np.ones(v))),
    ("derivative", "order", "count from 0", lambda v: derivative(U, v)),
    ("norm", "kind", "norm kind", lambda v: norm(U, v)),
    ("norm", "s", "finite", lambda v: norm(U, "Hs", v)),
    ("random_field lo", "band", "integer",
     lambda v: random_field(GRID, np.random.default_rng(1), band=(v, 3))),
    ("random_field hi", "band", "integer",
     lambda v: random_field(GRID, np.random.default_rng(1), band=(1, v))),
    ("random_field", "band", "band from 0 to 8",
     lambda v: random_field(GRID, np.random.default_rng(1), band=v)),
    ("random_field", "band", "pair",
     lambda v: random_field(GRID, np.random.default_rng(1), band=v)),
    ("SpectralField +", "other", "grid", lambda v: U + v),
    ("State", "u2", "grid", lambda v: State(U, v)),
    ("ReducedState", "w2", "grid", lambda v: ReducedState(ZERO, v, 0.0)),
    ("SystemSpec", "kind", "system kind", lambda v: SystemSpec(v, 0.2)),
    ("SystemSpec", "epsilon", "unit", lambda v: SystemSpec("regularized", v)),
    ("SystemSpec", "amplitude", "positive, finite",
     lambda v: SystemSpec("regularized", 0.2, amplitude=v)),
    ("NormalFormSetting", "epsilon", "unit", lambda v: NormalFormSetting(v)),
    ("NormalFormSetting", "amplitude", "positive, finite",
     lambda v: NormalFormSetting(0.2, amplitude=v)),
    ("NormalFormSetting", "law", "law", lambda v: NormalFormSetting(0.2, True, v)),
    ("_phases", "direction", "direction", lambda v: _phases(0.0, 0.2, v)),
    ("linear_growth_rate", "u_star", "finite", lambda v: linear_growth_rate(P0, v, 1)),
    ("linear_growth_rate", "k", "integer", lambda v: linear_growth_rate(P0, 0.0, v)),
    ("IntegratorConfig", "dt", "positive, finite", lambda v: IntegratorConfig(v, 1.0)),
    ("IntegratorConfig", "t_end", "positive, finite", lambda v: IntegratorConfig(1e-3, v)),
    ("IntegratorConfig", "blowup_threshold", "positive",
     lambda v: IntegratorConfig(1e-3, 1.0, blowup_threshold=v)),
    ("IntegratorConfig", "store_every", "count from 1",
     lambda v: IntegratorConfig(1e-3, 1.0, store_every=v)),
    ("IntegratorConfig", "store_every", "not bool",
     lambda v: IntegratorConfig(1e-3, 1.0, store_every=v)),
    ("IntegratorConfig", "scheme", "scheme", lambda v: IntegratorConfig(1e-3, 1.0, scheme=v)),
    ("step_full", "dt", "positive, finite",
     lambda v: step_full(SYSTEM, P1, State(ZERO, ZERO), 0.0, v)),
    ("step_reduced", "dt", "positive, finite",
     lambda v: step_reduced(SETTING, ReducedState(ZERO, ZERO, 0.0), v)),
    ("step_full", "scheme", "scheme",
     lambda v: step_full(SYSTEM, P1, State(ZERO, ZERO), 0.0, 1e-3, v)),
    ("step_reduced", "scheme", "scheme",
     lambda v: step_reduced(SETTING, ReducedState(ZERO, ZERO, 0.0), 1e-3, v)),
    ("step_full", "law", "law", lambda v: step_full(MODIFIED, v, State(ZERO, ZERO), 0.0, 1e-3)),
    # a datum above the threshold takes no step, so solve's own check must reject it
    ("solve", "law", "law",
     lambda v: solve(MODIFIED, v, State(U, U), IntegratorConfig(1e-3, 1e-2, "exp_rk2", 1e-9))),
    ("solve reduced", "law", "setting law",
     lambda v: solve(SETTING, v, ReducedState(ZERO, ZERO, 0.0), IntegratorConfig(1e-3, 1e-2))),
    ("picard_solve", "law", "setting law", lambda v: picard_solve(ZERO, ZERO, v, SETTING, T=0.01)),
    ("picard_solve", "T", "positive, finite",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=v)),
    ("picard_solve", "n_nodes", "count from 3",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=0.01, n_nodes=v)),
    ("picard_solve", "max_iter", "count from 1",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=0.01, max_iter=v)),
    ("picard_solve", "max_iter", "not bool",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=0.01, max_iter=v)),
    ("DatumSpec", "seed", "integer", lambda v: DatumSpec(v, 0.15, P1)),
    ("DatumSpec", "target_norm", "profile norm", lambda v: DatumSpec(1, v, P1)),
    ("DatumSpec lo", "mode_band", "integer", lambda v: DatumSpec(1, 0.15, P1, (v, 3))),
    ("DatumSpec hi", "mode_band", "integer", lambda v: DatumSpec(1, 0.15, P1, (1, v))),
    ("DatumSpec", "mode_band", "band from 1", lambda v: DatumSpec(1, 0.15, P1, v)),
    ("DatumSpec", "mode_band", "pair", lambda v: DatumSpec(1, 0.15, P1, v)),
    ("DatumSpec", "law", "law", lambda v: DatumSpec(1, 0.15, v, conjugated=True)),
    ("make_datum", "mode_band", "band from 1 to 8",
     lambda v: make_datum(GRID, DatumSpec(1, 0.15, P1, v))),
    ("existence_run", "rho_max", "positive", lambda v: existence(existence_run, v)),
    ("existence_time", "rho_max", "positive", lambda v: existence(existence_time, v)),
    ("scaling_sweep", "n_epsilons", "samples from 3",
     lambda v: sweep(epsilons=(0.2, 0.1, 0.05)[:v])),
    ("scaling_sweep", "epsilon", "unit", lambda v: sweep(epsilons=(0.2, 0.1, v))),
    ("scaling_sweep", "amplitude_exponent", "nonnegative, finite",
     lambda v: sweep(amplitude_exponent=v)),
    ("scaling_sweep", "amplitude", "positive, finite",
     lambda v: sweep(amplitude_exponent=None, amplitude=v)),
    ("scaling_sweep", "rho_max", "positive", lambda v: sweep(rho_max=v)),
    ("scaling_sweep", "time_scale", "time_scale", lambda v: sweep(time_scale=v)),
    ("scaling_sweep", "jobs", "count from 1", lambda v: sweep(jobs=v)),
    ("scaling_sweep", "dt", "positive, finite", lambda v: sweep(dt=v)),
    ("scaling_sweep", "t_end", "positive, finite", lambda v: sweep(t_end=v)),
    ("scaling_sweep", "store_every", "count from 1", lambda v: sweep(store_every=v)),
    ("continuation_schedule", "rho", "positive, finite",
     lambda v: continuation_schedule(v, 0.01, 0.5)),
    ("continuation_schedule", "epsilon", "unit",
     lambda v: continuation_schedule(0.5, v, 0.5)),
    ("continuation_schedule", "alpha", "closed unit",
     lambda v: continuation_schedule(0.5, 0.01, v)),
    ("continuation_schedule", "growth_constant", "positive, finite",
     lambda v: continuation_schedule(0.5, 0.01, 0.5, growth_constant=v)),
    ("continuation_schedule", "step_constant", "positive, finite",
     lambda v: continuation_schedule(0.5, 0.01, 0.5, step_constant=v)),
    ("growth_experiment", "u_star", "finite", lambda v: growth_experiment(P0, v, [1])),
    ("growth_experiment", "epsilon", "nonnegative, finite",
     lambda v: growth_experiment(P0, 0.0, [1], epsilon=v)),
    ("growth_experiment", "n_samples", "count from 101",
     lambda v: growth_experiment(P0, 0.0, [1], n_samples=v)),
    ("growth_experiment", "wavenumber", "integer",
     lambda v: growth_experiment(P0, 0.0, [1, v], n_samples=101)),
    ("lemma_m_suite", "n_modes", "count from 1",
     lambda v: lemma_m_suite(1, n_modes=v, n_fields=1)),
    ("lemma_m_suite", "n_fields", "count from 1",
     lambda v: lemma_m_suite(1, n_modes=8, n_fields=v)),
    ("lemma_m_suite", "seed", "integer", lambda v: lemma_m_suite(v, n_modes=8, n_fields=1)),
    ("lemma_m_suite", "seed", "not bool", lambda v: lemma_m_suite(v, n_modes=8, n_fields=1)),
    ("lemma_m_suite", "sobolev_indices", "finite",
     lambda v: lemma_m_suite(1, n_modes=8, sobolev_indices=(0.0, v), n_fields=1)),
    ("lemma_m_suite", "tolerance", "positive, finite",
     lambda v: lemma_m_suite(1, n_modes=8, n_fields=1, tolerance=v)),
    ("verify_legs", "n_modes", "count from 8", lambda v: verify_legs(v, 1, 1)),
    ("verify_legs", "seed", "integer", lambda v: verify_legs(8, v, 1)),
    ("verify_legs", "fields", "count from 1", lambda v: verify_legs(8, 1, v)),
    ("sobolev_constant", "max_wavenumber", "count from 0", sobolev_constant),
    # f_n reads the jet at depth n + 1
    ("f_n", "n", "count from 0 to 15", lambda v: f_n(U, v)),
    # the jet recurrence behind f_n, whose own checks come first
    ("_jets", "depth", "count from 0 to 16", lambda v: _jets(GRID, U.coeffs, v)),
    ("_jets", "depth", "not bool", lambda v: _jets(GRID, U.coeffs, v)),
    ("f_n_directional", "n", "count from 0 to 15", lambda v: f_n_directional(U, v, U)),
    ("f_n_directional", "v", "grid", lambda v: f_n_directional(U, 1, v)),
    ("implicit_residual", "n_samples", "samples from 3",
     lambda v: implicit_residual(0.1 * np.arange(v), [ZERO] * v, [ZERO] * v, COEFFS)),
    ("IbpCoefficients", "n", "count from 1", lambda v: IbpCoefficients(v, 0.5, 0.1, 1.0)),
    ("IbpCoefficients", "lam", "nonnegative, finite",
     lambda v: IbpCoefficients(1, v, 0.1, 1.0)),
    ("IbpCoefficients", "epsilon", "unit", lambda v: IbpCoefficients(1, 0.5, v, 1.0)),
    ("IbpCoefficients", "c_embed", "positive, finite",
     lambda v: IbpCoefficients(1, 0.5, 0.1, v)),
    ("choose_n", "epsilon", "positive, finite", lambda v: choose_n(0.5, v, 1.0)),
    ("choose_n", "lam", "finite", lambda v: choose_n(v, 0.1, 1.0)),
    ("choose_n", "c_embed", "finite", lambda v: choose_n(0.5, 0.1, v)),
    ("choose_n", "c_embed * lam", "nonnegative", lambda v: choose_n(v, 0.1, 1)),
    ("verify_fn_bound", "n", "count from 0 to 8", lambda v: verify_fn_bound(U, v)),
    ("cumulative_weighted_simpson", "dx", "positive",
     lambda v: cumulative_weighted_simpson(np.ones((5, 2)), 1.0, v)),
    ("cumulative_weighted_simpson", "n_samples", "samples from 3",
     lambda v: cumulative_weighted_simpson(np.ones((v, 2)), 1.0, 0.1)),
    ("simpson_uniform", "dx", "positive", lambda v: simpson_uniform(np.ones(5), v)),
    ("simpson_uniform", "n_samples", "samples from 3", lambda v: simpson_uniform(np.ones(v), 0.1)),
]


def _rows():
    for entry, name, kind, call in ENTRIES:
        for value, rule in BAD[kind]:
            label = (value.name if isinstance(value, PressureLaw)
                     else repr(value.grid) if isinstance(value, SpectralField) else repr(value))
            yield pytest.param(call, value, MESSAGES[rule].format(name, value),
                               id=f"{entry}-{name}={label}")


ROWS = list(_rows())

HOLES = {
    "random_field lo-band=1.5", "random_field lo-band=2.0", "random_field lo-band='8'",
    "random_field hi-band=1.5", "random_field hi-band=2.0", "random_field hi-band='8'",
    "DatumSpec-seed=1.5", "DatumSpec-seed=2.0", "DatumSpec-seed=nan", "DatumSpec-seed='8'",
    "DatumSpec lo-mode_band=1.5", "DatumSpec lo-mode_band=2.0", "DatumSpec lo-mode_band='8'",
    "DatumSpec hi-mode_band=1.5", "DatumSpec hi-mode_band=2.0", "DatumSpec hi-mode_band='8'",
    "scaling_sweep-jobs=1.5", "scaling_sweep-jobs=2.0", "scaling_sweep-jobs=nan",
    "scaling_sweep-jobs='8'",
    "growth_experiment-wavenumber=1.5", "growth_experiment-wavenumber=2.0",
    "growth_experiment-wavenumber='8'",
    "lemma_m_suite-n_modes='8'",
    "f_n-n=1.5", "f_n-n=nan", "f_n-n='8'",
    "f_n_directional-n=1.5", "f_n_directional-n=nan", "f_n_directional-n='8'",
    "IbpCoefficients-n=1.5", "IbpCoefficients-n=2.0", "IbpCoefficients-n=nan",
    "IbpCoefficients-n='8'",
    "verify_fn_bound-n=1.5", "verify_fn_bound-n=2.0", "verify_fn_bound-n='8'",
    "cumulative_weighted_simpson-dx=nan", "simpson_uniform-dx=nan",
    "Grid.points-n_points=0", "Grid.points-n_points=-1",
    "lemma_m_suite-seed=1.5", "lemma_m_suite-seed=2.0", "lemma_m_suite-seed=nan",
    "lemma_m_suite-seed='8'",
    "verify_legs-seed=1.5", "verify_legs-seed=2.0", "verify_legs-seed=nan",
    "verify_legs-seed='8'", "verify_legs-fields='8'",
    "Grid-n_modes=True", "IntegratorConfig-store_every=True", "picard_solve-max_iter=True",
    "lemma_m_suite-seed=True",
    "norm-s=nan", "norm-s=inf", "norm-s=-inf",
    "linear_growth_rate-u_star=nan", "linear_growth_rate-u_star=inf",
    "linear_growth_rate-u_star=-inf", "linear_growth_rate-k=1.5", "linear_growth_rate-k=2.0",
    "linear_growth_rate-k=nan", "linear_growth_rate-k='8'",
    "lemma_m_suite-sobolev_indices=nan", "lemma_m_suite-sobolev_indices=inf",
    "lemma_m_suite-sobolev_indices=-inf",
    "lemma_m_suite-tolerance=0.0", "lemma_m_suite-tolerance=-1.0", "lemma_m_suite-tolerance=nan",
    "lemma_m_suite-tolerance=inf", "lemma_m_suite-tolerance=-inf",
    "_jets-depth=1.5", "_jets-depth=2.0", "_jets-depth='8'", "_jets-depth=True",
    "random_field-band=5", "DatumSpec-mode_band=5", "verify_legs-n_modes=7",
}

RESPELLED = {
    "to_physical-n_points=16", "to_physical-n_points=-1",
    "IntegratorConfig-store_every=0", "IntegratorConfig-store_every=-1",
    "scaling_sweep-store_every=0", "scaling_sweep-store_every=-1",
    "growth_experiment-n_samples=100", "growth_experiment-n_samples=-1",
    "IbpCoefficients-n=0", "IbpCoefficients-n=-1",
    "verify_legs-fields=1.5", "verify_legs-fields=2.0", "verify_legs-fields=nan",
    "NormalFormSetting-law=P1", "NormalFormSetting-law=P2",
    "DatumSpec-law=P1", "DatumSpec-law=P2",
    "step_full-law=P1", "step_full-law=P2", "solve-law=P1", "solve-law=P2",
    "step_full-scheme='rk4'", "step_full-scheme=''", "step_full-scheme=None",
    "step_reduced-scheme='rk4'", "step_reduced-scheme=''", "step_reduced-scheme=None",
    "Grid-n_modes=-1", "derivative-order=-1", "sobolev_constant-max_wavenumber=-1", "f_n-n=-1",
    "f_n_directional-n=-1", "_jets-depth=-1", "_jets-depth=nan", "_jets-depth=17",
    "verify_fn_bound-n=-1", "verify_fn_bound-n=9",
    "Grid-n_points=16", "Grid-n_points=-1",
    "Grid.index-wavenumber=-9", "Grid.index-wavenumber=9", "from_modes-wavenumber=-9",
    "from_modes-wavenumber=9", "SpectralField.coeff-wavenumber=-9",
    "SpectralField.coeff-wavenumber=9",
    "to_spectral-n_samples=16", "to_spectral-n_samples=0",
    "implicit_residual-n_samples=2", "implicit_residual-n_samples=0",
    "cumulative_weighted_simpson-n_samples=2", "cumulative_weighted_simpson-n_samples=0",
    "simpson_uniform-n_samples=2", "simpson_uniform-n_samples=0",
    "State-u2=Grid(n_modes=4, n_points=18)", "ReducedState-w2=Grid(n_modes=4, n_points=18)",
    "SystemSpec-kind='bogus'", "SystemSpec-kind=''", "SystemSpec-kind=None",
    "norm-kind='bogus'", "norm-kind=''", "norm-kind=None",
    "scaling_sweep-time_scale='bogus'", "scaling_sweep-time_scale=''",
    "scaling_sweep-time_scale=None",
    "_phases-direction='bogus'", "_phases-direction=''", "_phases-direction=None",
    "random_field-band=(-1, 3)", "random_field-band=(5, 3)", "random_field-band=(1, 9)",
    "random_field-band=(3, 12)", "make_datum-mode_band=(1, 9)", "make_datum-mode_band=(3, 12)",
    "solve reduced-law=P1", "solve reduced-law=P2", "picard_solve-law=P1", "picard_solve-law=P2",
    "f_n-n=16", "f_n_directional-n=16", "verify_legs-n_modes=-1",
    "random_field-band=(1, 2, 3)", "random_field-band=(1,)",
    "DatumSpec-mode_band=(1, 2, 3)", "DatumSpec-mode_band=(1,)",
    "scaling_sweep-n_epsilons=2", "scaling_sweep-n_epsilons=0",
    "continuation_schedule-alpha=-0.5", "continuation_schedule-alpha=1.5",
    "continuation_schedule-alpha=nan", "continuation_schedule-alpha=inf",
    "continuation_schedule-alpha=-inf",
}


@pytest.mark.parametrize("call, value, message", ROWS)
def test_each_rule_rejects_by_name(call, value, message):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == message


def test_every_hole_is_a_row():
    assert HOLES <= {row.id for row in ROWS}
    assert RESPELLED <= {row.id for row in ROWS} - HOLES


def test_a_wavenumber_keeps_its_own_label():
    # a non-integer wavenumber was measured and filed under int(k); numpy
    # integers pass and label their rate with a plain int
    with pytest.raises(ValueError, match=r"^wavenumber must be an integer, got 1\.5$"):
        growth_experiment(P0, 0.0, [1.5], n_samples=101)
    (row,) = growth_experiment(P0, 0.0, [np.int64(2)], n_samples=101)
    assert row.wavenumber == 2 and type(row.wavenumber) is int
    assert row.predicted == 2.0
