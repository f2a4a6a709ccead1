"""One table of the library's scalar input rules.

Each row hands one library entry one bad value of one argument and expects
ValueError with the message of the validator in spectral.py that guards it,
which names the argument: "{name} must be finite, got {value}", and likewise
"must be positive", "must be nonnegative" and "must lie in (0, 1)", and
"{name} must be an integer, got {value!r}".  Where an argument must be both
finite and positive (or nonnegative), a value that breaks both rules, -inf,
is named not finite.

The rows hold every value of these kinds that the entries rejected before
the validators were shared, so a dropped check fails a row.  HOLES names
the rows that earlier versions did not reject with ValueError: they either
accepted the value (growth_experiment filed the rate of k = 1.5 under
k = 1, and simpson_uniform integrated with dx = nan) or failed later with
TypeError.
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
)
from wavereg.integrate import IntegratorConfig, picard_solve, step_full, step_reduced
from wavereg.jets_ibp import (
    IbpCoefficients,
    _jets,
    choose_n,
    f_n,
    f_n_directional,
    verify_fn_bound,
)
from wavereg.model import PressureLaw, State, SystemSpec
from wavereg.normalform import NormalFormSetting, ReducedState
from wavereg.quadrature import cumulative_weighted_simpson, simpson_uniform
from wavereg.spectral import Grid, derivative, from_modes, random_field, to_physical, zeros

NAN, INF = math.nan, math.inf
P0, P1 = PressureLaw.P0, PressureLaw.P1

MESSAGES = {
    "finite": "{} must be finite, got {}",
    "positive": "{} must be positive, got {}",
    "nonnegative": "{} must be nonnegative, got {}",
    "unit": "{} must lie in (0, 1), got {}",
    "integer": "{} must be an integer, got {!r}",
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
    "integer": [(value, "integer") for value in (1.5, 2.0, NAN, "8")],
    "nonnegative integer": [(-1, "nonnegative"), (1.5, "integer"), (NAN, "integer"),
                            ("8", "integer")],
}

GRID = Grid(8)
ZERO = zeros(GRID)
U = from_modes(GRID, {1: 0.1, -2: 0.05})
SYSTEM = SystemSpec("regularized", 0.2)
SETTING = NormalFormSetting(0.2)
SPEC = DatumSpec(1, 0.15, P1)


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
    ("Grid", "n_modes", "nonnegative integer", lambda v: Grid(v)),
    ("Grid", "n_points", "integer", lambda v: Grid(8, n_points=v)),
    ("Grid.points", "n_points", "integer", lambda v: GRID.points(v)),
    ("Grid.index", "wavenumber", "integer", lambda v: GRID.index(v)),
    ("from_modes", "wavenumber", "integer", lambda v: from_modes(GRID, {v: 1.0})),
    ("SpectralField.coeff", "wavenumber", "integer", lambda v: U.coeff(v)),
    ("to_physical", "n_points", "integer", lambda v: to_physical(U, v)),
    ("derivative", "order", "nonnegative integer", lambda v: derivative(U, v)),
    ("random_field lo", "band", "integer",
     lambda v: random_field(GRID, np.random.default_rng(1), band=(v, 3))),
    ("random_field hi", "band", "integer",
     lambda v: random_field(GRID, np.random.default_rng(1), band=(1, v))),
    ("SystemSpec", "epsilon", "unit", lambda v: SystemSpec("regularized", v)),
    ("SystemSpec", "amplitude", "positive, finite",
     lambda v: SystemSpec("regularized", 0.2, amplitude=v)),
    ("NormalFormSetting", "epsilon", "unit", lambda v: NormalFormSetting(v)),
    ("NormalFormSetting", "amplitude", "positive, finite",
     lambda v: NormalFormSetting(0.2, amplitude=v)),
    ("IntegratorConfig", "dt", "positive, finite", lambda v: IntegratorConfig(v, 1.0)),
    ("IntegratorConfig", "t_end", "positive, finite", lambda v: IntegratorConfig(1e-3, v)),
    ("IntegratorConfig", "blowup_threshold", "positive",
     lambda v: IntegratorConfig(1e-3, 1.0, blowup_threshold=v)),
    ("IntegratorConfig", "store_every", "integer",
     lambda v: IntegratorConfig(1e-3, 1.0, store_every=v)),
    ("step_full", "dt", "positive, finite",
     lambda v: step_full(SYSTEM, P1, State(ZERO, ZERO), 0.0, v)),
    ("step_reduced", "dt", "positive, finite",
     lambda v: step_reduced(SETTING, ReducedState(ZERO, ZERO, 0.0), v)),
    ("picard_solve", "T", "positive, finite",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=v)),
    ("picard_solve", "n_nodes", "integer",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=0.01, n_nodes=v)),
    ("picard_solve", "max_iter", "integer",
     lambda v: picard_solve(ZERO, ZERO, P0, SETTING, T=0.01, max_iter=v)),
    ("DatumSpec", "seed", "integer", lambda v: DatumSpec(v, 0.15, P1)),
    ("DatumSpec lo", "mode_band", "integer", lambda v: DatumSpec(1, 0.15, P1, (v, 3))),
    ("DatumSpec hi", "mode_band", "integer", lambda v: DatumSpec(1, 0.15, P1, (1, v))),
    ("existence_run", "rho_max", "positive", lambda v: existence(existence_run, v)),
    ("existence_time", "rho_max", "positive", lambda v: existence(existence_time, v)),
    ("scaling_sweep", "epsilon", "unit", lambda v: sweep(epsilons=(0.2, 0.1, v))),
    ("scaling_sweep", "amplitude_exponent", "nonnegative, finite",
     lambda v: sweep(amplitude_exponent=v)),
    ("scaling_sweep", "amplitude", "positive, finite",
     lambda v: sweep(amplitude_exponent=None, amplitude=v)),
    ("scaling_sweep", "rho_max", "positive", lambda v: sweep(rho_max=v)),
    ("scaling_sweep", "jobs", "integer", lambda v: sweep(jobs=v)),
    ("scaling_sweep", "dt", "positive, finite", lambda v: sweep(dt=v)),
    ("scaling_sweep", "t_end", "positive, finite", lambda v: sweep(t_end=v)),
    ("scaling_sweep", "store_every", "integer", lambda v: sweep(store_every=v)),
    ("continuation_schedule", "rho", "positive, finite",
     lambda v: continuation_schedule(v, 0.01, 0.5)),
    ("continuation_schedule", "epsilon", "unit",
     lambda v: continuation_schedule(0.5, v, 0.5)),
    ("continuation_schedule", "growth_constant", "positive, finite",
     lambda v: continuation_schedule(0.5, 0.01, 0.5, growth_constant=v)),
    ("continuation_schedule", "step_constant", "positive, finite",
     lambda v: continuation_schedule(0.5, 0.01, 0.5, step_constant=v)),
    ("growth_experiment", "u_star", "finite", lambda v: growth_experiment(P0, v, [1])),
    ("growth_experiment", "epsilon", "nonnegative, finite",
     lambda v: growth_experiment(P0, 0.0, [1], epsilon=v)),
    ("growth_experiment", "n_samples", "integer",
     lambda v: growth_experiment(P0, 0.0, [1], n_samples=v)),
    ("growth_experiment", "wavenumber", "integer",
     lambda v: growth_experiment(P0, 0.0, [1, v], n_samples=101)),
    ("lemma_m_suite", "n_modes", "integer", lambda v: lemma_m_suite(1, n_modes=v, n_fields=1)),
    ("lemma_m_suite", "n_fields", "integer", lambda v: lemma_m_suite(1, n_modes=8, n_fields=v)),
    ("sobolev_constant", "max_wavenumber", "nonnegative integer", sobolev_constant),
    ("f_n", "n", "nonnegative integer", lambda v: f_n(U, v)),
    # the jet recurrence behind f_n, whose own checks come first
    ("_jets", "depth", "nonnegative", lambda v: _jets(GRID, U.coeffs, v)),
    ("f_n_directional", "n", "nonnegative integer", lambda v: f_n_directional(U, v, U)),
    ("IbpCoefficients", "n", "integer", lambda v: IbpCoefficients(v, 0.5, 0.1, 1.0)),
    ("IbpCoefficients", "lam", "nonnegative, finite",
     lambda v: IbpCoefficients(1, v, 0.1, 1.0)),
    ("IbpCoefficients", "epsilon", "unit", lambda v: IbpCoefficients(1, 0.5, v, 1.0)),
    ("IbpCoefficients", "c_embed", "positive, finite",
     lambda v: IbpCoefficients(1, 0.5, 0.1, v)),
    ("choose_n", "epsilon", "positive, finite", lambda v: choose_n(0.5, v, 1.0)),
    ("choose_n", "lam", "finite", lambda v: choose_n(v, 0.1, 1.0)),
    ("choose_n", "c_embed", "finite", lambda v: choose_n(0.5, 0.1, v)),
    ("choose_n", "c_embed * lam", "nonnegative", lambda v: choose_n(v, 0.1, 1)),
    ("verify_fn_bound", "n", "integer", lambda v: verify_fn_bound(U, v)),
    ("cumulative_weighted_simpson", "dx", "positive",
     lambda v: cumulative_weighted_simpson(np.ones((5, 2)), 1.0, v)),
    ("simpson_uniform", "dx", "positive", lambda v: simpson_uniform(np.ones(5), v)),
]


def _rows():
    for entry, name, kind, call in ENTRIES:
        for value, rule in BAD[kind]:
            yield pytest.param(call, value, MESSAGES[rule].format(name, value),
                               id=f"{entry}-{name}={value!r}")


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
}


@pytest.mark.parametrize("call, value, message", ROWS)
def test_each_rule_rejects_by_name(call, value, message):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == message


def test_every_hole_is_a_row():
    assert HOLES <= {row.id for row in ROWS}


def test_a_wavenumber_keeps_its_own_label():
    # a non-integer wavenumber was measured and filed under int(k); numpy
    # integers pass and label their rate with a plain int
    with pytest.raises(ValueError, match=r"^wavenumber must be an integer, got 1\.5$"):
        growth_experiment(P0, 0.0, [1.5], n_samples=101)
    (row,) = growth_experiment(P0, 0.0, [np.int64(2)], n_samples=101)
    assert row.wavenumber == 2 and type(row.wavenumber) is int
    assert row.predicted == 2.0
