"""Time integration, blow-up detection, and the Duhamel fixed-point solver.

The stiff linear parts are never discretized.  Both steppers are Lawson
methods: midpoint Runge-Kutta (exp_rk2, order 2, the default) or Euler
(exp_euler, order 1) on the nonlinear remainder, each spelled once per
system in its own compact layout.  For the full system the symbol of each
Fourier mode is a 2x2 matrix whose exponential _mode_exponential applies
exactly, in the one closed form that growth_experiment shares; the
forcing is the single u2 row f = -ct ik B(u1), lifted as (0, f), with
B(u1) the band coefficients of the cubic part of p(u1), formed on the
padded product grid of spectral.py (two FFT calls).  The propagator table
of each step length carries f's Duhamel rows, so step_full, which fetches
its two tables once and forms the midpoint's u1 row only (the one row f
reads), spends 20 numpy calls on a p1 step, 4 of them FFTs; each analysis
and each stage sum writes into an array the step formed, so 10 of the
calls allocate one.  For the
reduced system the only stiff piece is the free Schroedinger factor on
w2, a unimodular per-mode phase that normalform caches per step length,
and the flow is the identity on w1; its forcing (g1, n2) comes from the
array kernel of normalform.py on the two rows w1 and w2, and
step_reduced spells its stages on those rows as step_full does on
(u1, u2).  solve drives either system through the same loop, monitor
and diagnostics; the monitor sums squares by dot products, as
np.linalg.norm does, with no call of it per step.

The modified system is the plain p0 system seen through the mirror
G(u1, u2) = (conj u1, u2) (see model.py), so step_full advances it as
G o (plain p0 step) o G, G acting on coefficients as u1 -> conj(u1[::-1]);
nothing below has a modified branch of its own.

Blow-up detection monitors max(H1 of the first component, L2 of the second)
against a threshold; when a step crosses it, the crossing time is refined by
bisection on the step length to 1e-3 relative accuracy.

The Picard solver iterates the integral maps whose fixed point is the
reduced solution: the w1 map accumulates the cubic/remainder integrand by
cumulative Simpson, and the w2 map is a Duhamel integral against the free
Schroedinger kernel, evaluated with the oscillatory-weight Simpson rule so
that arbitrarily fast phases cost no accuracy.  Both rules depend on the
nodes and the frequencies only, so they are built once per solve; each
iterate evaluates the forcing at all quadrature nodes in one batched
kernel call and applies the two rules to it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral
from .model import _CUBIC_ORDER, PressureLaw, State, SystemSpec, _energies, _require_law
from .model import _require_setting_law
from .normalform import (
    NormalFormSetting,
    ReducedState,
    _normal_coords,
    _phases,
    _reduced_forcing,
    _require_zero_mean,
    _w2_phase,
)
from .quadrature import _apply_simpson_rule, _simpson_rule
from .spectral import (
    Grid,
    SpectralField,
    _band_coeffs,
    _blocks,
    _mirror,
    _norms,
    _padded_values,
    _require_at_least,
    _require_one_of,
    _require_positive,
    _require_positive_finite,
)

_SCHEMES = ("exp_rk2", "exp_euler")


def _require_step(dt: float, scheme: str) -> None:
    _require_positive_finite("dt", dt)
    if scheme not in _SCHEMES:  # one comparison when it passes: the steppers call it each step
        _require_one_of("scheme", scheme, _SCHEMES)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    scheme: str = "exp_rk2"
    blowup_threshold: float = 1.0
    store_every: int = 1

    def __post_init__(self) -> None:
        _require_step(self.dt, self.scheme)
        _require_positive_finite("t_end", self.t_end)
        _require_positive("blowup_threshold", self.blowup_threshold)  # inf disables detection
        store_every = _require_at_least("store_every", self.store_every, 1)
        object.__setattr__(self, "store_every", store_every)


@dataclass(frozen=True)
class Trajectory:
    times: list
    states: list
    diagnostics: list
    terminal_status: str  # "completed" | "blowup" | "diverged"
    blowup_time: float | None = None


@dataclass(frozen=True)
class PicardReport:
    iterates: int
    final_residual: float
    contraction_ratios: list

    @property
    def converged(self) -> bool:
        return self.final_residual < 1e-10


# --------------------------------------------------------------------------
# Exact per-mode propagator of the full system.

# An exp_rk2 step reads P(dt), then P(dt/2), and no table outlives its solve:
# each solve has its own (ct, cd) and dt.  So the cache keeps those two, and
# an entry it evicts, for a bisection probe or a shortened last step, is one
# that no later step reads.  Measured per CLI run, the sweep builds 15 or 17
# tables and simulate 4 (its last step is shorter than dt by rounding), each
# once.
_PROPAGATOR_CACHE_SIZE = 2


def _mode_exponential(l12, l21, l22, t):
    """Entries (e11, e12, e21, e22) of exp(t L) for L = [[0, l12], [l21, l22]],
    and the eigenvalues (lam_p, lam_m) of L; broadcasts over the entries and t.

    Generic matrices use the closed-form eigen-decomposition; when the two
    eigenvalues collide within 1e-8 (discriminant zero, e.g. the unrescaled
    system at eps|k| = 2) the Cayley-Hamilton limit exp(lam t)(I + t(L -
    lam I)) replaces it, avoiding the 0/0 in the spectral formula."""
    half = 0.5 * l22
    s = np.sqrt(half * half + l12 * l21)  # half-gap of the spectrum
    lam_p, lam_m = half + s, half - s
    degenerate = np.abs(2.0 * s) < 1e-8 * np.maximum(1.0, np.abs(l22))
    gap = np.where(degenerate, 1.0, 2.0 * s)
    ep, em = np.exp(lam_p * t), np.exp(lam_m * t)
    e11 = (-lam_m * ep + lam_p * em) / gap
    e12 = l12 * (ep - em) / gap
    e21 = l21 * (ep - em) / gap
    e22 = ((l22 - lam_m) * ep - (l22 - lam_p) * em) / gap
    if np.any(degenerate):  # np.where on an all-false mask changes no bit
        el = np.exp(half * t)
        e11 = np.where(degenerate, el * (1.0 - half * t), e11)
        e12 = np.where(degenerate, el * t * l12, e12)
        e21 = np.where(degenerate, el * t * l21, e21)
        e22 = np.where(degenerate, el * (1.0 + t * (l22 - half)), e22)
    return (e11, e12, e21, e22), (lam_p, lam_m)


@lru_cache(maxsize=_PROPAGATOR_CACHE_SIZE)
def _plain_propagator(grid: Grid, ct: float, cd: float, dt: float) -> np.ndarray:
    """Read-only rows (7, 2K+1) for the step length dt: e11, e12, e21, e22 of
    exp(dt L_k), L_k = [[0, -ik ct], [ik ct, i cd k^2]] (rows 0:4:2 and 1:4:2
    act on (u1, u2)), then the forcing's Duhamel rows d e12, 2 d e12 and
    2 d e22 with d = -ct dt ik.  From the dt/2 table, row 4 times the cubic's
    band coefficients B is the u1 row of the exp_rk2 midpoint's
    (dt/2) P(dt/2)(0, f), and rows 5:7 times B are dt P(dt/2)(0, f).

    A band whose largest symbol has no finite size, (ct K)^2 + (cd K^2/2)^2
    past the float range, is refused by name: its exponential would be
    inf and nan."""
    K = grid.n_modes
    transport, dispersion = ct * K, 0.5 * cd * K * K  # squared by product: ** raises
    if not math.isfinite(transport * transport + dispersion * dispersion):
        raise ValueError(f"the mode symbol of |k| = {K} overflows at ct = {ct:g}, "
                         f"cd = {cd:g}: epsilon is too small for this band")
    k = grid.wavenumbers.astype(float)
    e = _mode_exponential(-1j * k * ct, 1j * k * ct, 1j * cd * k * k, dt)[0]
    d = (-ct * dt) * grid.ik
    p = np.array([*e, d * e[1], 2.0 * d * e[1], 2.0 * d * e[3]])
    p.setflags(write=False)
    return p


def _cubic_band(law: PressureLaw, grid: Grid, u1: np.ndarray) -> np.ndarray:
    """B(u1) = P_K(cubic(u1)), the band coefficients of the cubic part of
    p(u1), formed on the padded grid of `spectral` (two FFT calls); grid.ik
    times it is the oracle q_apply(law, u1, dx u1) of tests/oracles.py in
    exact arithmetic, as truncation commutes with dx, with an exactly zero
    k = 0 entry.  The step applies ik and -ct through the propagator's
    Duhamel rows.  The cubic is formed in one buffer, which the analysis
    overwrites: B is a view into it, and u1 is only read."""
    x = _padded_values(grid, u1)
    cubic = x * (np.conj(x) if law is PressureLaw.P1 else x)  # p0, p1
    cubic *= x  # (x x) x, the operand order of the product it replaces
    if law is PressureLaw.P2:
        np.conj(cubic, out=cubic)  # conj(u)^3
    return _band_coeffs(grid, cubic, _CUBIC_ORDER[law])


def _stage(a, c, u1, u2, d, b):
    """a u1 + c u2 + d b, summed in that order into the array a u1 forms,
    with c u2 and d b in one more: the bits of the out-of-place sum."""
    out = a * u1
    tmp = c * u2
    out += tmp
    out += np.multiply(d, b, out=tmp)
    return out


def step_full(
    spec: SystemSpec,
    law: PressureLaw,
    state: State,
    t: float,
    dt: float,
    scheme: str = "exp_rk2",
) -> State:
    """One exponential-integrator step of the full system on the pair
    (u1, u2) of coefficient rows, with the forcing f = -ct ik B(u1) on u2
    alone, B(u1) the band coefficients of the cubic.  With P(h) the
    propagator of step length h, exp_euler takes P(dt)(u1, u2 + dt f(u1));
    exp_rk2 forms the midpoint's u1 row, all that f reads, from
    P(dt/2)(u1, u2 + dt/2 f(u1)) and returns
    P(dt)(u1, u2) + dt P(dt/2)(0, f(mid)).  Each stage is a table's columns
    on (u1, u2) plus its Duhamel rows times B (see _plain_propagator),
    summed by _stage into the arrays it forms, and each table is fetched
    once per step; the state's rows are only read."""
    _require_step(dt, scheme)
    modified = spec.kind == "modified"
    _require_law(modified, law)
    ct, cd = spec.coefficients
    grid = state.grid
    u1 = _mirror(state.u1.coeffs) if modified else state.u1.coeffs
    u2 = state.u2.coeffs
    p = _plain_propagator(grid, ct, cd, dt)
    b = _cubic_band(law, grid, u1)
    if scheme == "exp_euler":
        # rows 5:7 of this table carry 2 dt, twice the step's, and halving is exact
        u1, u2 = _stage(p[0:4:2], p[1:4:2], u1, u2, p[5:7], 0.5 * b)
    else:
        h = _plain_propagator(grid, ct, cd, 0.5 * dt)
        mid = _stage(h[0], h[1], u1, u2, h[4], b)
        u1, u2 = _stage(p[0:4:2], p[1:4:2], u1, u2, h[5:7], _cubic_band(law, grid, mid))
    return State(SpectralField(grid, _mirror(u1) if modified else u1),
                 SpectralField(grid, u2))


def step_reduced(
    setting: NormalFormSetting, w: ReducedState, dt: float, scheme: str = "exp_rk2"
) -> ReducedState:
    """One exponential-integrator step of the reduced system.

    The step works on the rows w1 and w2, each a batch of one member, the
    layout of _reduced_forcing's (g1, n2); the flow of step length h keeps
    w1 and multiplies w2 by the phase p(h).  exp_euler takes
    (w1 + dt g1, p(dt)(w2 + dt n2)), and exp_rk2 forms the midpoint
    (w1 + dt/2 g1, p(dt/2)(w2 + dt/2 n2)) at dt/2, whose forcing (g1', n2')
    gives (w1 + dt g1', p(dt) w2 + dt p(dt/2) n2').  The phases and the
    forcing's per-mode tables are cached in normalform, so a step of a
    length seen before builds none of them.

    dt is capped at epsilon/20: the oscillatory prefactors are evaluated
    analytically at stage times, but the amplitudes they multiply must stay
    resolved."""
    _require_step(dt, scheme)
    if dt > setting.epsilon / 20.0 * (1.0 + 1e-9):
        raise ValueError(
            f"dt = {dt} exceeds the oscillatory cap epsilon/20 = {setting.epsilon / 20}"
        )
    _, cd = setting.coefficients
    grid, t = w.grid, w.t
    w1, w2 = w.w1.coeffs[None], w.w2.coeffs[None]
    p = _w2_phase(grid, cd, dt)
    # p * x, never x *= p: complex products round by operand order
    g1, n2 = _reduced_forcing(setting, grid, w1, w2, t)
    if scheme == "exp_euler":
        w1, w2 = w1 + dt * g1, p * (w2 + dt * n2)
    else:
        h = _w2_phase(grid, cd, 0.5 * dt)
        g1, n2 = _reduced_forcing(setting, grid, w1 + (0.5 * dt) * g1,
                                  h * (w2 + (0.5 * dt) * n2), t + 0.5 * dt)
        w1, w2 = w1 + dt * g1, p * w2 + dt * (h * n2)
    return ReducedState(SpectralField(grid, w1[0]), SpectralField(grid, w2[0]), t + dt)


# --------------------------------------------------------------------------
# Driving loop with blow-up detection.


def _monitor(grid: Grid):
    """The blow-up monitor on grid: max(H1 norm of the first, L2 norm of the
    second) of two coefficient vectors, with spectral's cached H1 weight
    (read through the module, so that this one holds no cache but the
    propagator's); NaN when either norm is NaN, so a finite value means
    finite coefficients.  Each squared norm is np.linalg.norm's own sum
    re.re + im.im by dot, and the root of the larger sum is the larger root,
    so the value is the two norm calls' bit for bit (math.sqrt on floats
    rounds as np.sqrt does)."""
    weight = spectral._sobolev_weight(grid, 1.0)

    def monitor(first, second):
        first = weight * first
        re1, im1, re2, im2 = first.real, first.imag, second.real, second.imag
        s1 = float(re1.dot(re1) + im1.dot(im1))
        s2 = float(re2.dot(re2) + im2.dot(im2))
        return math.sqrt(s1 if s1 >= s2 or s1 != s1 else s2)  # s1 != s1: NaN

    return monitor


def _finite(first: np.ndarray, second: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(first)) and np.all(np.isfinite(second)))


_DIAGNOSTIC_KEYS = ("norm1_h1", "norm2_l2", "energy", "mean_abs_1", "mean_abs_2")


def _diagnostics(law: PressureLaw, grid: Grid, first, second, physical) -> list:
    """One diagnostics dict per row of the sample arrays first and second
    (N, 2K+1): their H1 and L2 norms and means, and the energy of the
    physical arrays (u1, u2) of the same samples."""
    columns = np.array([
        _norms(grid, first, 1.0),
        _norms(grid, second),
        _energies(law, *physical)[0],
        np.abs(first[:, grid.n_modes]),
        np.abs(second[:, grid.n_modes]),
    ])
    return [dict(zip(_DIAGNOSTIC_KEYS, row)) for row in columns.T.tolist()]


def solve(system, law: PressureLaw, datum, config: IntegratorConfig) -> Trajectory:
    """Integrate to t_end, stopping early on threshold crossing or NaN/Inf.

    `system` selects the path: a SystemSpec integrates the full system from a
    State datum; a NormalFormSetting integrates the reduced system from a
    ReducedState datum (whose law must match and whose time must lie
    before t_end).  The blow-up proxy is
    max(H1 of the first component, L2 of the second) against
    config.blowup_threshold, checked after every step; a crossing is
    refined by bisecting the final step until the bracket is below 1e-3 of
    the crossing time.

    The diagnostics of the stored samples (norms, means and the energy of
    the physical state) are formed when the run returns, in one pass over
    the stacked samples in the row blocks of spectral._blocks; for the
    reduced system that pass maps each sample back to physical variables
    by the backward frame phases, (Id + eps M) and the amplitude, on
    arrays."""
    if isinstance(system, SystemSpec):
        if not isinstance(datum, State):
            raise TypeError("full-system solve expects a State datum")
        _require_law(system.kind == "modified", law)
        _require_zero_mean(u1=datum.u1, u2=datum.u2)
        stepper = lambda st, t, dt: step_full(system, law, st, t, dt, config.scheme)
        pair = lambda st: (st.u1.coeffs, st.u2.coeffs)
        physical = lambda times, first, second: (first, second)
        t0 = 0.0
    elif isinstance(system, NormalFormSetting):
        if not isinstance(datum, ReducedState):
            raise TypeError("reduced-system solve expects a ReducedState datum")
        _require_setting_law(law, system)
        if config.t_end <= datum.t:
            raise ValueError(
                f"t_end = {config.t_end} must exceed the datum time t = {datum.t}"
            )
        stepper = lambda st, t, dt: step_reduced(system, st, dt, config.scheme)
        pair = lambda st: (st.w1.coeffs, st.w2.coeffs)

        def physical(times, first, second):
            t = np.array(times)[:, None]
            phase1, phase2 = _phases(t, system.epsilon, "backward", system.conjugated)
            u1, u2 = _normal_coords(system, datum.grid, phase1 * first, phase2 * second)
            return system.amplitude * u1, system.amplitude * u2

        t0 = datum.t
    else:
        raise TypeError(f"cannot integrate a {type(system).__name__}")
    monitor_pair = _monitor(datum.grid)
    monitor = lambda st: monitor_pair(*pair(st))

    rho = config.blowup_threshold
    current = datum
    times, states = [t0], [datum]
    status = "blowup" if monitor(current) > rho else "completed"
    blowup_time = t0 if status == "blowup" else None

    t = t0
    t_stop = config.t_end - 1e-12 * max(1.0, config.t_end)
    step_index = 0
    while status == "completed" and t < t_stop:
        dt = min(config.dt, config.t_end - t)
        nxt = stepper(current, t, dt)
        step_index += 1
        value = monitor(nxt)
        # a finite norm means finite coefficients; an infinite one may
        # still come from finite coefficients, which take the blow-up path
        if not math.isfinite(value) and not _finite(*pair(nxt)):
            status = "diverged"
            break
        if value > rho:
            lo, hi = 0.0, dt
            crossing = nxt
            while (hi - lo) > 1e-3 * max(t + hi, 1e-12):
                mid = 0.5 * (lo + hi)
                trial = stepper(current, t, mid)
                if monitor(trial) > rho:
                    hi, crossing = mid, trial
                else:
                    lo = mid
            status = "blowup"
            blowup_time = t + 0.5 * (lo + hi)
            times.append(t + hi)
            states.append(crossing)
            break
        current = nxt
        t += dt
        if step_index % config.store_every == 0:
            times.append(t)
            states.append(current)

    # the final sample: the end of the run, or the last finite state
    if status != "blowup" and times[-1] != t:
        times.append(t)
        states.append(current)
    diagnostics = []
    for block in _blocks(datum.grid, len(states)):
        first, second = map(np.array, zip(*map(pair, states[block])))
        diagnostics += _diagnostics(law, datum.grid, first, second,
                                    physical(times[block], first, second))
    return Trajectory(times, states, diagnostics, status, blowup_time=blowup_time)


# --------------------------------------------------------------------------
# Picard iteration of the Duhamel maps.


class _ReducedSamples(Sequence):
    """Read-only sequence of ReducedState over coefficient rows w1[j], w2[j]
    at times[j]; a sample is built, and validated, when it is read."""

    def __init__(self, grid: Grid, w1: np.ndarray, w2: np.ndarray, times: np.ndarray):
        self._grid, self._w1, self._w2, self._times = grid, w1, w2, times

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(len(self))[index]]
        j = range(len(self))[index]  # negative indices; IndexError past the end
        return ReducedState(SpectralField(self._grid, self._w1[j]),
                            SpectralField(self._grid, self._w2[j]),
                            float(self._times[j]))


def picard_solve(
    w1_0: SpectralField,
    w2_0: SpectralField,
    law: PressureLaw,
    setting: NormalFormSetting,
    T: float,
    max_iter: int = 50,
    n_nodes: int = 512,
):
    """Iterate the integral maps of the reduced system to their fixed point.

    Returns (trajectory, report) where trajectory is a read-only sequence of
    the ReducedState at n_nodes uniform times on [0, T], each built when it
    is read.  Successive iterates must approach
    each other in the sampled sup of max(H1, L2), both norms from
    spectral._norms on the differences at every node; three consecutive
    non-contracting ratios abort the iteration (the report carries the
    measured ratios either way)."""
    _require_setting_law(law, setting)
    _require_positive_finite("T", T)
    _require_at_least("n_nodes", n_nodes, 3)
    _require_at_least("max_iter", max_iter, 1)
    ReducedState(w1_0, w2_0, 0.0)  # one grid, zero-mean
    if _monitor(w1_0.grid)(w1_0.coeffs, w2_0.coeffs) >= 1.0 / 6.0:
        raise ValueError("datum norms must be below 1/6 in H1 x L2")
    grid = w1_0.grid
    _, cd = setting.coefficients
    k = grid.wavenumbers.astype(float)
    omega = -cd * k * k  # Duhamel kernel phase on w2
    times = np.linspace(0.0, T, n_nodes)
    dx = times[1] - times[0]
    forward = np.exp(1j * cd * (k * k)[None, :] * times[:, None])  # free flow of w2
    # the quadrature rules depend on the frequencies and the nodes only:
    # plain cumulative Simpson for w1, the Duhamel kernel's rule for w2
    shape = (n_nodes, grid.n_coeffs)
    plain, duhamel_rule = _simpson_rule(shape, 0.0, dx), _simpson_rule(shape, omega, dx)

    w1_flat = np.tile(w1_0.coeffs, (n_nodes, 1))
    w2_flat = np.tile(w2_0.coeffs, (n_nodes, 1))
    ratios: list[float] = []
    residual = np.inf
    stalls = 0
    for iterates in range(1, max_iter + 1):
        g1, n2 = _reduced_forcing(setting, grid, w1_flat, w2_flat, times)
        new_w1 = w1_0.coeffs[None, :] + _apply_simpson_rule(plain, g1)
        new_w2 = forward * (w2_0.coeffs[None, :] + _apply_simpson_rule(duhamel_rule, n2))
        # else the last forcing sits beside the next while it is formed,
        # about 0.4 MB of picard-modified's peak RSS
        del g1, n2
        diff = float(np.max(np.maximum(_norms(grid, new_w1 - w1_flat, 1.0),
                                       _norms(grid, new_w2 - w2_flat))))
        w1_flat, w2_flat = new_w1, new_w2
        if iterates > 1 and residual > 0.0:  # no ratio against a zero or NaN distance
            ratios.append(diff / residual)
            stalls = stalls + 1 if ratios[-1] >= 1.0 else 0
        residual = diff
        if residual < 1e-10 or stalls >= 3:
            break

    trajectory = _ReducedSamples(grid, w1_flat, w2_flat, times)
    report = PicardReport(
        iterates=iterates, final_residual=float(residual), contraction_ratios=ratios
    )
    return trajectory, report
