"""Numerical studies: negative-energy data, existence-time sweeps, growth
rates, continuation schedules, identity suites, and the normal frame of a
run.

Everything here drives the lower-level modules and returns plain result
records; nothing in this file integrates a PDE by itself except through
`integrate.solve`.  The CLI's numbers come from here too: `verify_legs`
and simulate's `normal_frame_columns`.

Conventions shared with the rest of the package:

  * data live on a fixed torus; the concentration scaling is absorbed into
    the rescaled coefficients (1/eps^2, 1/eps^3), never into the mesh;
  * datum amplitudes (an eps**alpha or a fixed lambda) multiply normalized
    profiles whose size is capped at 1/6, and blow-up thresholds are stated
    in units of the normalized profile;
  * every datum built here carries a negative-energy certificate that tests
    re-evaluate independently through `model.energy`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .integrate import IntegratorConfig, Trajectory, _mode_exponential, solve
from .jets_ibp import IbpCoefficients, _fn_bounds, _jets, f_n, implicit_residual
from .model import PressureLaw, State, SystemSpec, _require_law, energy, linear_growth_rate
from .normalform import (
    NormalFormSetting,
    ReducedState,
    _cancellation_residuals,
    _normal_coords,
    _reduced_forcing,
)
from .spectral import (
    Grid,
    SpectralField,
    _band_draw,
    _blocks,
    _linf_norms,
    _m_coeffs,
    _mirror,
    _norms,
    _require_at_least,
    _require_finite,
    _require_in_unit_interval,
    _require_integer,
    _require_nonnegative,
    _require_positive,
    _require_positive_finite,
    from_modes,
    norm,
    random_field,
    remove_mean,
)

_MAX_PROFILE_NORM = 1.0 / 6.0

# the longest continuation schedule: 10**6 steps took 0.58 s and peaked at
# 81 MB under tracemalloc (Python 3.11, numpy 2.4, one core of a 2-core host)
_MAX_SCHEDULE_STEPS = 10**6

_GROWTH_BLOCK = 16384  # sample times per closed-form call in growth_experiment

# the largest term growth_experiment lets the closed form square or double
_GROWTH_TERM_MAX = sys.float_info.max / 8.0


# --------------------------------------------------------------------------
# Negative-energy data.


@dataclass(frozen=True)
class DatumSpec:
    """Recipe for a reproducible negative-energy datum.

    target_norm is the size of the normalized profile: the first component is
    scaled to exactly this H^1 norm, the second is capped at the same L^2
    norm and then damped until the energy is negative.  The cap 1/6 keeps the
    profile inside the contraction regime of the fixed-point arguments.
    """

    seed: int
    target_norm: float
    law: PressureLaw
    mode_band: tuple[int, int] = (1, 8)
    conjugated: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.target_norm < _MAX_PROFILE_NORM:
            raise ValueError(f"target_norm must lie in (0, 1/6), got {self.target_norm}")
        _require_integer("seed", self.seed)
        lo, hi = (_require_integer("mode_band", b) for b in self.mode_band)
        if not 1 <= lo <= hi:
            raise ValueError(f"mode_band must satisfy 1 <= lo <= hi, got {self.mode_band}")
        _require_law(self.conjugated, self.law)


def make_datum(grid: Grid, spec: DatumSpec) -> State:
    """Build the real-valued zero-mean profile described by `spec`.

    The first component is drawn on the requested band and scaled to exactly
    target_norm in H^1.  The second is scaled to target_norm in L^2, then
    damped by the factor that makes the energy negative with a 10% margin.
    The energy is quadratic in the second component with no linear term, so
    the damping factor is exact, not iterative.

    Real-valued profiles make the quartic part of the energy nonnegative for
    every law, so the certificate survives any further damping of the datum:
    in particular eps**alpha * profile has negative energy for alpha >= 0.
    """
    lo, hi = spec.mode_band
    if hi > grid.n_modes:
        raise ValueError(f"mode_band {spec.mode_band} exceeds grid band {grid.n_modes}")
    rng = np.random.default_rng(spec.seed)
    u1 = random_field(grid, rng, band=spec.mode_band, real_valued=True)
    u1 = u1 * (spec.target_norm / norm(u1, "Hs", s=1.0))
    u2 = random_field(grid, rng, band=spec.mode_band, real_valued=True)
    u2 = u2 * (spec.target_norm / norm(u2, "L2"))

    base = energy(spec.law, State(u1, u2))
    without_u2 = base.value - base.quadratic_u2_part
    if without_u2 >= 0.0:
        # Unreachable for target_norm < 1/6: the embedding constant ~2.07
        # keeps the quartic below 12% of the negative quadratic term.
        raise RuntimeError("profile violates its negative-energy certificate")
    sigma_sq = -without_u2 / base.quadratic_u2_part
    sigma = min(1.0, 0.95 * math.sqrt(sigma_sq))
    u2 = u2 * sigma

    report = energy(spec.law, State(u1, u2))
    if report.value > 0.0:
        raise RuntimeError("negative-energy certificate failed after damping")
    return State(u1, u2)


# --------------------------------------------------------------------------
# Existence times and amplitude sweeps.


def existence_run(system, law: PressureLaw, datum: State, config: IntegratorConfig,
                  rho_max: float = 1.0) -> Trajectory:
    """The one existence run: `solve` with the blow-up threshold
    rho_max * system.amplitude, so rho_max is stated on the scale of the
    profile returned by make_datum regardless of the datum prefactor.
    simulate, the sweep and existence_time all run through here."""
    _require_positive("rho_max", rho_max)
    run_config = replace(config, blowup_threshold=rho_max * system.amplitude)
    return solve(system, law, datum, run_config)


def existence_time(
    system,
    law: PressureLaw,
    datum: State,
    config: IntegratorConfig,
    rho_max: float = 1.0,
) -> tuple[float | None, str]:
    """First crossing of rho_max, in units of the normalized profile.

    Returns (time, status) of existence_run: time is the bisection-refined
    crossing time for status "blowup" and None otherwise; "diverged"
    (non-finite state) is kept distinct from "completed".
    """
    trajectory = existence_run(system, law, datum, config, rho_max)
    return trajectory.blowup_time, trajectory.terminal_status


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    time: float | None
    status: str
    final_norm1: float
    final_norm2: float


@dataclass(frozen=True)
class SweepResult:
    """Existence times across epsilon plus a log-log fit when it applies.

    slope/intercept/residual are None unless at least three runs ended in
    blow-up at a positive time; a run whose datum starts above the threshold
    blows up at time 0 and is left out of the fit.  residual is the
    root-mean-square misfit of log(time) around the fitted line.  message
    is empty when the fit ran, "no blow-up observed" when every run
    completed, and otherwise a count of the blow-up runs (and of those at
    time 0, when there are any) and of the diverged runs.
    """

    rows: tuple[SweepRow, ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    message: str


def _sweep_single(system, config, *, law, profile, rho_max) -> SweepRow:
    """The sweep's run of system under config: the shared profile times the
    run's amplitude.  The final norms are the run's own diagnostics of its
    last sample."""
    amp = system.amplitude
    trajectory = existence_run(system, law, amp * profile, config, rho_max)
    last = trajectory.diagnostics[-1]
    return SweepRow(
        epsilon=system.epsilon,
        time=trajectory.blowup_time,
        status=trajectory.terminal_status,
        final_norm1=last["norm1_h1"] / amp,
        final_norm2=last["norm2_l2"] / amp,
    )


def scaling_sweep(
    law: PressureLaw,
    kind: str,
    epsilons: Sequence[float],
    spec: DatumSpec,
    *,
    amplitude_exponent: float | None = None,
    amplitude: float | None = None,
    t_end: float = 0.5,
    dt: float = 1e-3,
    time_scale: str = "fixed",
    rho_max: float = 1.0,
    n_modes: int = 32,
    store_every: int = 16,
    jobs: int | None = None,
) -> SweepResult:
    """Existence times of one datum family across a list of epsilon.

    The datum is one normalized profile, built once here and handed to
    every run, multiplied by eps**amplitude_exponent (theorem scaling) or
    by a fixed amplitude (exactly one of the two must be given).  With
    time_scale="eps_squared" both dt and t_end are multiplied by eps**2,
    matching the natural time of the fast transport; "fixed" uses them as
    given.  Each run's SystemSpec and IntegratorConfig are built once,
    after the argument checks and before the profile, so an amplitude or a
    scaled dt that underflows to 0, and any argument those records reject,
    fails before any work.

    store_every is checked as IntegratorConfig checks it, but the rows
    never depended on it.  A row reads the run's crossing and its last
    sample only, so each run's config takes the stride sys.maxsize, which
    no step count reaches: the run stores its datum and its end or crossing
    sample and nothing between, and forms no other sample's diagnostics.

    Each run goes through existence_run.  Runs are independent, so jobs > 1
    dispatches them to a process pool of min(jobs, len(epsilons)) workers,
    each task carrying the profile and its run's two records; rows
    come back merged in the order of `epsilons` either way, and the result
    is bitwise reproducible for a fixed spec.
    """
    if len(epsilons) < 3:
        raise ValueError("need at least three epsilon values")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError("epsilon values must be distinct")
    for eps in epsilons:
        _require_in_unit_interval("epsilon", eps)
    if (amplitude_exponent is None) == (amplitude is None):
        raise ValueError("give exactly one of amplitude_exponent and amplitude")
    if amplitude is None:
        _require_finite("amplitude_exponent", amplitude_exponent)
        _require_nonnegative("amplitude_exponent", amplitude_exponent)
    else:
        _require_positive_finite("amplitude", amplitude)
    if time_scale not in ("fixed", "eps_squared"):
        raise ValueError(f"unknown time_scale {time_scale!r}")
    if jobs is not None:
        _require_at_least("jobs", jobs, 1)
    _require_at_least("store_every", store_every, 1)
    _require_positive("rho_max", rho_max)
    amplitudes = [amplitude if amplitude is not None else eps**amplitude_exponent
                  for eps in epsilons]
    for eps, amp in zip(epsilons, amplitudes):
        if amp == 0.0:
            raise ValueError(f"amplitude_exponent {amplitude_exponent} underflows the "
                             f"amplitude to 0 at epsilon {eps}")
    systems = [SystemSpec(kind, eps, rescaled=True, amplitude=amp)
               for eps, amp in zip(epsilons, amplitudes)]
    factors = [eps**2 if time_scale == "eps_squared" else 1.0 for eps in epsilons]
    configs = [IntegratorConfig(dt=dt * f, t_end=t_end * f, store_every=sys.maxsize)
               for f in factors]

    run = partial(_sweep_single, law=law, profile=make_datum(Grid(n_modes), spec),
                  rho_max=rho_max)
    if jobs is not None and jobs > 1:
        # imported on use: at module level, the pool's import of logging and
        # multiprocessing would slow every wavereg start
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(epsilons))) as pool:
            rows = tuple(pool.map(run, systems, configs))
    else:
        rows = tuple(map(run, systems, configs))
    return SweepResult(rows, *fit_existence_times(rows))


def fit_existence_times(
    rows: Sequence[SweepRow],
) -> tuple[float | None, float | None, float | None, str]:
    """Least-squares line through (log eps, log crossing-time).

    Returns (slope, intercept, rms residual, message).  The fit needs at
    least three blow-up rows with a positive time (a datum already above
    the threshold crosses at time 0, which has no logarithm); with fewer
    the first three entries are None and the message says why ("no blow-up
    observed" when every run simply completed).
    """
    blowups = [row for row in rows if row.status == "blowup"]
    timed = [row for row in blowups if row.time > 0.0]
    diverged = [row for row in rows if row.status == "diverged"]
    if len(timed) >= 3:
        x = np.log([row.epsilon for row in timed])
        y = np.log([row.time for row in timed])
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        residual = float(np.sqrt(np.mean((y - fit) ** 2)))
        return float(slope), float(intercept), residual, ""
    if not blowups and not diverged:
        return None, None, None, "no blow-up observed"
    at_zero = len(blowups) - len(timed)
    return None, None, None, (
        f"{len(blowups)} blow-up run(s)" + (f", {at_zero} at time 0," if at_zero else "")
        + f" and {len(diverged)} diverged run(s) among {len(rows)}; slope not fitted"
    )


# --------------------------------------------------------------------------
# Continuation schedule.


@dataclass(frozen=True)
class ContinuationSchedule:
    """Step-by-step norm budgets and step lengths of the continuation.

    rho_sequence[j] is the norm budget entering step j; time_sequence[j] the
    guaranteed step length at that budget.  j_formula is the printed step
    count (so both sequences have j_formula + 1 entries) and t_star the total
    time they cover.  j_star <= j_formula is the last step through which the
    budget stays below twice the initial one; the per-step lower bound
    time_sequence[k] >= eps^(2(1-alpha)) / (2 * step_constant * (2 rho)^2)
    is only claimed for k <= j_star.
    """

    rho_sequence: tuple[float, ...]
    time_sequence: tuple[float, ...]
    j_formula: int
    j_star: int
    t_star: float


def continuation_schedule(
    rho: float,
    epsilon: float,
    alpha: float,
    growth_constant: float = 1.0,
    step_constant: float = 1.0,
) -> ContinuationSchedule:
    """Iterate the continuation recurrence and report its reach.

    Starting from rho_0 = rho, each step grants time
    T_j = eps^(2(1-alpha)) / (2 * step_constant * rho_j^2) and the budget for
    the next step is rho_j = (6/5) rho + 12 * growth_constant * rho * sum of
    the earlier T_k.  The step count is
    floor(step_constant * rho^2 / (2 * growth_constant * eps^(2(1-alpha)))) - 1;
    a count below 1 means the time grain is too coarse for these constants
    and raises ValueError, as does a non-finite rho or constant, a count
    that is not finite or exceeds _MAX_SCHEDULE_STEPS (the schedule holds
    two tuples of count + 1 floats), a rho whose budgets grow past the
    square root of the float range, and a rho and growth_constant whose
    budgets leave it.
    """
    for name, value in (("rho", rho), ("growth_constant", growth_constant),
                        ("step_constant", step_constant)):
        _require_finite(name, value)
    _require_positive("rho", rho)
    _require_in_unit_interval("epsilon", epsilon)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    _require_positive("growth_constant", growth_constant)
    _require_positive("step_constant", step_constant)

    grain = epsilon ** (2.0 * (1.0 - alpha))
    try:  # rho**2 raises past the float range, and grain may underflow to 0
        count = step_constant * rho**2 / (2.0 * growth_constant * grain) - 1.0
    except (OverflowError, ZeroDivisionError):
        count = math.inf
    if not count < _MAX_SCHEDULE_STEPS + 1.0:  # inf and nan too
        raise ValueError(f"step count {count} exceeds the limit {_MAX_SCHEDULE_STEPS}")
    j_formula = math.floor(count)  # x - 1.0 is exact for 1 <= x < 2**53
    if j_formula < 1:
        raise ValueError(
            f"step count {j_formula} is below 1; epsilon too large for these constants"
        )

    rhos: list[float] = []
    times: list[float] = []
    elapsed = 0.0  # the running sum of times, so the loop is linear in steps
    rho_j = rho
    try:
        for _ in range(j_formula + 1):
            rhos.append(rho_j)
            times.append(grain / (2.0 * step_constant * rho_j**2))
            elapsed += times[-1]
            rho_j = 1.2 * rho + 12.0 * growth_constant * rho * elapsed
    except OverflowError:  # a budget's square passed the float range
        raise ValueError(f"rho {rho} is too large for these constants: the budget "
                         f"{rho_j} has no finite square") from None
    if not rhos[-1] < math.inf:  # 12 * growth_constant * rho overflows silently
        raise ValueError(f"rho {rho} and growth_constant {growth_constant} are too "
                         f"large: the budget 12 * growth_constant * rho * time "
                         f"leaves the float range")

    j_star = j_formula
    for j, rho_j in enumerate(rhos):
        if rho_j > 2.0 * rho:
            j_star = j - 1
            break
    return ContinuationSchedule(
        rho_sequence=tuple(rhos),
        time_sequence=tuple(times),
        j_formula=j_formula,
        j_star=j_star,
        t_star=elapsed,
    )


# --------------------------------------------------------------------------
# Linear growth rates.


@dataclass(frozen=True)
class GrowthMeasurement:
    wavenumber: int
    measured: float
    predicted: float


def growth_experiment(
    law: PressureLaw,
    u_star: float,
    wavenumbers: Sequence[int],
    epsilon: float = 0.0,
    n_samples: int = 20001,
) -> list[GrowthMeasurement]:
    """Measure per-mode growth of the linearization about (u_star, 0).

    For each wavenumber the exact 2x2 mode system (transport coupling plus
    optional dispersion epsilon * k^2 on the second component) is solved by
    its closed-form exponential at every sample time, and the growth rate is
    read off the running maximum M of the solution magnitude:
    rate = log(M(T)/M(T/2)) / (T/2).  The times are evaluated in blocks of
    _GROWTH_BLOCK samples, so memory does not grow with n_samples.
    Hyperbolic points (p'(u_star) > 0, epsilon = 0) read 0.0, or rounding
    below 1e-14: their orbit has one frequency, so M saturates within the
    first revolution.  Stable dispersive points (epsilon > 0) read sampling
    noise of up to a few 1e-7 instead: their orbit carries two frequencies,
    so M keeps creeping past the first revolution.  The prediction column
    is the dispersionless symbol rate |k| sqrt(-p'(u_star)); with
    epsilon > 0 the measured rate falls below it.

    Exponential fit only: polynomially growing (Jordan-block) points, which
    take the closed form's limit branch, read as near zero.  A u_star,
    epsilon or wavenumber that puts k^2, k^2 |p'(u_star)| or (eps k^2)^2 / 4
    past _GROWTH_TERM_MAX raises ValueError naming it, before any rate.
    """
    _require_finite("u_star", u_star)
    _require_finite("epsilon", epsilon)
    _require_nonnegative("epsilon", epsilon)
    _require_at_least("n_samples", n_samples, 101)
    wavenumbers = [_require_integer("wavenumber", k) for k in wavenumbers]
    u, eps = float(u_star), float(epsilon)
    for k in wavenumbers:
        # the closed form takes the root of -(eps k^2 / 2)^2 - k^2 p'(u*) and
        # doubles k p'(u*): each term must stay inside the float range
        if not k * k <= _GROWTH_TERM_MAX:
            raise ValueError(f"wavenumber {k} takes the closed form past the float range")
        for name, value, term in (
                ("u_star", u_star, k * k * abs(-1.0 + 3.0 * u * u)),
                ("epsilon", epsilon, 0.25 * (eps * k * k) * (eps * k * k))):
            if not term <= _GROWTH_TERM_MAX:
                raise ValueError(f"{name} {value} takes the closed form of wavenumber "
                                 f"{k} past the float range")
    z = np.array([1.0 + 0.0j, 0.5 + 0.5j])
    z /= np.linalg.norm(z)
    results = []
    for k in wavenumbers:
        predicted = linear_growth_rate(law, u_star, k)
        dp = -1.0 + 3.0 * float(u_star) ** 2
        mode = (-1j * k, -1j * k * dp, 1j * epsilon * k**2)  # (l12, l21, l22)
        if predicted > 0.0:
            horizon = 16.0 / predicted
        else:
            omega = float(np.max(np.abs(np.imag(_mode_exponential(*mode, 0.0)[1]))))
            horizon = 15.0 * math.pi / max(omega, 1e-3)
        dt = horizon / (n_samples - 1)
        half = (n_samples - 1) // 2
        peak_half = peak = 0.0  # the running maximum at sample half and at the end
        for start in range(0, n_samples, _GROWTH_BLOCK):
            t = dt * np.arange(start, min(start + _GROWTH_BLOCK, n_samples))
            (e11, e12, e21, e22), _ = _mode_exponential(*mode, t)
            m = np.hypot(abs(e11 * z[0] + e12 * z[1]), abs(e21 * z[0] + e22 * z[1]))
            peak = np.maximum(peak, m.max())
            if start <= half:
                peak_half = np.maximum(peak_half, m[: half + 1 - start].max())
        measured = (math.log(peak) - math.log(peak_half)) / (
            dt * (n_samples - 1 - half)
        )
        results.append(GrowthMeasurement(k, float(measured), float(predicted)))
    return results


# --------------------------------------------------------------------------
# Identity suites and embedding constants.


@dataclass(frozen=True)
class IdentityReport:
    residuals: dict
    tolerance: float
    n_fields: int
    n_modes: int

    @property
    def passed(self) -> bool:
        return max(self.residuals.values()) < self.tolerance


def lemma_m_suite(
    seed: int,
    n_modes: int = 64,
    sobolev_indices: Sequence[float] = (0.0, 1.0, 2.0),
    n_fields: int = 100,
    tolerance: float = 1e-10,
    multiplier: Callable[[np.ndarray], np.ndarray] | None = None,
) -> IdentityReport:
    """Re-verify the antiderivative-multiplier identities on random fields.

    Checks, on complex fields with a deliberately nonzero mean (so the
    mean-removing projection is exercised):

      * -i d/dx (m u) = u - mean u   and   -i m (du/dx) = u - mean u,
      * -i d^2/dx^2 (m u) = du/dx   and   -i m (d^2 u/dx^2) = du/dx,
      * conj(m u) = - m (conj u),
      * || m u ||_{H^{s+1}} = || u - mean u ||_{H^s} for each index s,
      * || m u ||_inf <= (pi / sqrt 3) || u - mean u ||_{L^2}.

    Returns the worst residual per identity over n_fields draws.  The
    fields are drawn and checked as coefficient stacks, one block of
    spectral._blocks at a time: one standard_normal call per block gives
    each field's random_field draw and then the two normals of its mean,
    the stream of one field at a time, and the norms are norm's to the bit.
    The multiplier argument exists for fault injection in tests: it takes
    and returns (rows, 2K+1) coefficient arrays, and a corrupted version
    (say one that drops a mode) must break the first-derivative identities
    at the size of the dropped coefficient.
    """
    _require_integer("seed", seed)
    _require_at_least("n_modes", n_modes, 1)
    _require_at_least("n_fields", n_fields, 1)
    grid = Grid(n_modes)
    if multiplier is None:
        multiplier = partial(_m_coeffs, grid)
    rng = np.random.default_rng(seed)
    pointwise_constant = math.pi / math.sqrt(3.0)
    dx, dxx = (grid.ik ** order for order in (1, 2))  # as derivative forms them
    worst: dict[str, float] = {}
    for block in _blocks(grid, n_fields):
        normals = rng.standard_normal((len(range(n_fields)[block]), 4 * n_modes + 2))
        u = _band_draw(grid, normals[:, :-2], (1, n_modes))
        u.real[:, n_modes], u.imag[:, n_modes] = normals[:, -2], normals[:, -1]
        mu = multiplier(u)
        projected = u.copy()
        projected[:, n_modes] = 0.0
        du = u * dx

        residuals = {
            "first_derivative_left": _norms(grid, (mu * dx) * -1j - projected),
            "first_derivative_right": _norms(grid, multiplier(du) * -1j - projected),
            "second_derivative_left": _norms(grid, (mu * dxx) * -1j - du),
            "second_derivative_right": _norms(grid, multiplier(u * dxx) * -1j - du),
            "conjugation_parity": _norms(grid, _mirror(mu) + multiplier(_mirror(u))),
            "sobolev_shift": np.max(
                [np.abs(_norms(grid, mu, s + 1.0) - _norms(grid, projected, s))
                 for s in sobolev_indices], axis=0),
            "pointwise_bound": np.maximum(
                0.0,
                _linf_norms(grid, mu) - pointwise_constant * _norms(grid, projected),
            ),
        }
        for key, values in residuals.items():
            worst[key] = max(worst.get(key, 0.0), float(np.max(values)))
    return IdentityReport(worst, tolerance, n_fields, n_modes)


def verify_legs(n_modes: int, seed: int, fields: int) -> list[tuple[str, float, float, bool]]:
    """The identity suites of `wavereg verify` as (name, measured, threshold,
    ok), in print order.  The multiplier suite, the cancellation legs and
    the jet growth bound run on coefficient stacks per block of
    spectral._blocks: each block's fields come from one standard_normal
    call, in the order of one random_field draw at a time, and are checked
    by one kernel call (lemma_m_suite, _cancellation_residuals,
    jets_ibp._fn_bounds)."""
    _require_at_least("fields", fields, 1)
    legs = []

    report = lemma_m_suite(seed, n_modes=n_modes, n_fields=fields)
    worst = max(report.residuals.values())
    legs.append(("lemma_m", worst, report.tolerance, worst < report.tolerance))

    # key cancellation, plain and conjugated, on random zero-mean states:
    # 0.1 random_field(band=(1, K)) for u1 and then u2 of each state
    grid = Grid(n_modes)
    rng = np.random.default_rng(seed + 1)
    for name, conjugated in (("cancellation_plain", False),
                             ("cancellation_conjugated", True)):
        setting = NormalFormSetting(0.1, conjugated, PressureLaw.P0, 1.0)
        worst = 0.0
        for block in _blocks(grid, fields):
            normals = rng.standard_normal((len(range(fields)[block]), 2, 4 * n_modes))
            u1, u2 = _band_draw(grid, normals.swapaxes(0, 1), (1, n_modes)) * 0.1
            residuals = _cancellation_residuals(setting, grid, u1, u2)
            worst = max(worst, float(np.max(residuals)))
        legs.append((name, worst, 1e-12, worst < 1e-12))

    # jet worked values: the cubic cascade on a single mode picks up the
    # odd double factorial and shifts the mode by 2 each derivative
    jet_grid = Grid(12)
    u = from_modes(jet_grid, {1: 1.0})
    worst = 0.0
    for order in range(4):
        factor = math.prod(range(1, 2 * order + 2, 2))  # (2 order + 1)!!
        defect = f_n(u, order) - from_modes(jet_grid, {2 * order + 3: factor})
        worst = max(worst, norm(defect, "Hs", s=1.0))
    legs.append(("jet_worked_values", worst, 1e-10, worst < 1e-10))

    # growth bound on the jets: measured/claimed ratio must never pass 1, on
    # 10 pairs u, v of 0.3 random_field(band=(1, 8)) at orders 0 to 4
    bound_grid = Grid(16)
    bound_rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for block in _blocks(bound_grid, 10):
        normals = bound_rng.standard_normal((len(range(10)[block]), 2, 32))
        u, v = _band_draw(bound_grid, normals.swapaxes(0, 1), (1, 8)) * 0.3
        for order_reports in _fn_bounds(bound_grid, u, 4, v):
            for bound_report in order_reports:
                worst = max(worst, bound_report.ratio_fn, bound_report.ratio_dfn)
    threshold = 1.0 + 1e-12
    legs.append(("jet_bound_ratio", worst, threshold, worst <= threshold))

    # implicit representation along a short reduced first-law trajectory
    eps, lam, dt = 0.1, 0.2, 1e-3
    imp_grid = Grid(10)
    imp_rng = np.random.default_rng(seed + 3)
    setting = NormalFormSetting(eps, law=PressureLaw.P0, amplitude=lam)
    w1 = remove_mean(0.05 * random_field(imp_grid, imp_rng, band=(1, 3)))
    w2 = remove_mean(0.05 * random_field(imp_grid, imp_rng, band=(1, 3)))
    trajectory = solve(setting, PressureLaw.P0, ReducedState(w1, w2, 0.0),
                       IntegratorConfig(dt=dt, t_end=100 * dt))
    times = np.array(trajectory.times)
    w1_samples = [w.w1 for w in trajectory.states]
    # R1 = dt w1 - mu P(w1^3), mu = -i lam^2/eps exp(2it/eps), on all
    # samples, with P(w1^3) the first jet level
    w1 = np.stack([w.coeffs for w in w1_samples])
    w2 = np.stack([w.w2.coeffs for w in trajectory.states])
    dw1, _ = _reduced_forcing(setting, imp_grid, w1, w2, times)
    mu = -1j * lam**2 / eps * np.exp(2.0j * times / eps)
    r1 = dw1 - mu[:, None] * _jets(imp_grid, w1, 1)[1]
    r1_samples = [SpectralField(imp_grid, row) for row in r1]
    coeffs = IbpCoefficients(n=1, lam=lam, epsilon=eps, c_embed=1.0)
    residual = implicit_residual(times, w1_samples, r1_samples, coeffs)
    threshold = 5.0 * dt + 1e-8
    legs.append(("implicit_representation", residual, threshold, residual < threshold))
    return legs


def sobolev_constant(max_wavenumber: int) -> float:
    """Best constant of |u(x)| <= c_K ||u||_{H^1} on the band |k| <= K.

    c_K^2 sums max(1, |k|)^(-2) over the band; c_0 = 1 and c_K increases to
    sqrt(1 + pi^2 / 3) as the band widens.
    """
    _require_nonnegative("max_wavenumber", _require_integer("max_wavenumber", max_wavenumber))
    ks = np.arange(1, max_wavenumber + 1, dtype=float)
    return math.sqrt(1.0 + 2.0 * float(np.sum(ks**-2.0)))


# --------------------------------------------------------------------------
# Second-component control along negative-energy runs.


def _normal_blocks(setting: NormalFormSetting, trajectory: Trajectory):
    """Yield (u1, u2, v1, v2) per block of spectral._blocks: the stored
    samples' coefficient stacks and their normalized-profile coordinates,
    the closed form of to_normal_coords after division by the amplitude."""
    states = trajectory.states
    grid = states[0].grid
    for block in _blocks(grid, len(states)):
        u1 = np.array([st.u1.coeffs for st in states[block]])
        u2 = np.array([st.u2.coeffs for st in states[block]])
        v1, v2 = _normal_coords(setting, grid, u1 / setting.amplitude,
                                u2 / setting.amplitude, inverse=True)
        yield u1, u2, v1, v2


def normal_history(setting: NormalFormSetting, trajectory: Trajectory) -> list[State]:
    """Normalized-profile coordinates of every stored sample.

    Divides each stored state by the datum amplitude and inverts the
    near-identity change of coordinates, returning the history in the frame
    where the norm-domination certificates are stated, by _normal_blocks.
    """
    grid = trajectory.states[0].grid
    return [State(SpectralField(grid, a), SpectralField(grid, b))
            for _, _, v1, v2 in _normal_blocks(setting, trajectory)
            for a, b in zip(v1, v2)]


def normal_frame_columns(setting: NormalFormSetting, trajectory: Trajectory):
    """Simulate's columns per stored sample, as three lists: the H1 norm of
    v1 and the L2 norm of v2 (v as in normal_history; the frame phases keep
    both) and the cancellation residual of the stored state."""
    grid = trajectory.states[0].grid
    columns = [np.array([_norms(grid, v1, 1.0), _norms(grid, v2),
                         _cancellation_residuals(setting, grid, u1, u2)])
               for u1, u2, v1, v2 in _normal_blocks(setting, trajectory)]
    return np.concatenate(columns, axis=1).tolist()


def norm_domination_margin(
    setting: NormalFormSetting, states: Sequence[State]
) -> float:
    """Worst signed margin of the second-component bound over the samples.

    For the law p1 the bound is ||v2|| <= (1+eps)/(1-eps) ||v1|| in L^2 and
    the margin is the difference of the two sides; for p2 and for the
    conjugated system the squared bound

        ||v2||^2 <= (1 + a^2 (||v1||_inf + eps ||v2||)^2)
                    / (1 - 4 eps (1 + a^2 (||v1||_inf + eps ||v2||)^2))
                    * (1 + 5 eps) * ||v1||^2

    applies, with a the datum amplitude; the margin compares the squares.
    A nonpositive return value means the bound held at every sample.  Raises
    when the denominator is not positive (the certificate is vacuous there;
    the message names the first such sample's) and for the plain p0 law,
    which has no such bound.  The norms are taken on the samples stacked in
    the blocks of spectral._blocks, the Linf norms from one oversampled
    synthesis per block.
    """
    eps = setting.epsilon
    amp_sq = setting.amplitude**2
    if setting.law is PressureLaw.P0 and not setting.conjugated:
        raise ValueError("no second-component bound holds for the plain p0 law")
    if not len(states):
        raise ValueError("no samples to check")
    grid = states[0].grid
    worst = -np.inf
    for block in _blocks(grid, len(states)):
        u1 = np.stack([v.u1.coeffs for v in states[block]])
        n1 = _norms(grid, u1)
        n2 = _norms(grid, np.stack([v.u2.coeffs for v in states[block]]))
        if setting.law is PressureLaw.P1:
            margins = n2 - (1.0 + eps) / (1.0 - eps) * n1
        else:
            amplification = 1.0 + amp_sq * (_linf_norms(grid, u1) + eps * n2) ** 2
            denominator = 1.0 - 4.0 * eps * amplification
            vacuous = np.flatnonzero(denominator <= 0.0)
            if vacuous.size:
                raise ValueError(
                    "second-component certificate is vacuous: denominator "
                    f"{denominator[vacuous[0]]:.3e} is not positive"
                )
            bound_sq = amplification / denominator * (1.0 + 5.0 * eps) * n1**2
            margins = n2**2 - bound_sq
        worst = max(worst, np.max(margins))
    return float(worst)
