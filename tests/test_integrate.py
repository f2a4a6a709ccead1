"""Integrator tests.

The linear propagator, and the 2x2 mode exponential behind it over the
growth experiment's matrices too, are checked against scipy's dense matrix
exponential mode by mode (including the degenerate-spectrum modes where the
closed-form eigen-expression is 0/0).  The modified step, which the integrator takes as
the mirrored plain p0 step, is checked at tiny amplitude against the dense
exponential of its own 4x4 symbol on (u1_k, u2_k, conj u1_{-k},
conj u2_{-k}), written here from rhs_full's modified formula, and against
the gauge-assembled plain flow.  The array-form full step is checked against
the State-level step it replaced (object_step_full, kept here as the
reference), its forcing kernel against q_apply, and both steppers bit for
bit against stacked-array steps (stacked_step_full, the full step on the
stacked pair through the same propagator table, and stacked_step_reduced,
the reduced step it replaced), and both reject a non-finite dt before any
cached table is touched; the two caches keyed by step length are held, in the
shape of a sweep, to building each length a run asks for once and to
keeping no more than one step reads.  The FFT calls of each step and of
the array kernels (the reduced forcing per block, the tower map and its
tangent, P_n_eval, bold_R_n, implicit_residual and ibp_once_p2 per block
of samples, and solve's diagnostics pass per block of samples) are
counted, with the block cases derived from spectral._BLOCK_POINTS, and so
are the full step's SpectralField constructions.  The blow-up monitor is held with == to the
two norm calls it fuses.  solve's diagnostics are checked row by row
against the per-sample form they replaced (sample_diagnostics with
energy), and its status against steps that return non-finite or
overflowing coefficients.  Convergence orders are measured against a
fine-step reference, and the Picard fixed point is compared against the
time stepper on the same reduced problem.
"""

import math
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from wavereg import DatumSpec, integrate, make_datum
from wavereg.integrate import (
    IntegratorConfig,
    PicardReport,
    Trajectory,
    _PROPAGATOR_CACHE_SIZE,
    _cubic_band,
    _mode_exponential,
    _monitor,
    _plain_propagator,
    picard_solve,
    solve,
    step_full,
    step_reduced,
)
from wavereg.jets_ibp import (
    IbpCoefficients,
    P_n_eval,
    bold_R_n,
    f_n,
    f_n_directional,
    ibp_once_p2,
    implicit_residual,
)
from wavereg.model import PressureLaw, State, SystemSpec, energy
from wavereg.normalform import (
    _W2_PHASE_CACHE_SIZE,
    NormalFormSetting,
    ReducedState,
    _reduced_forcing,
    _w2_phase,
    _w2_phase_table,
    from_normal_coords,
    to_normal_coords,
)
from wavereg.quadrature import cumulative_simpson_uniform, cumulative_weighted_simpson
from wavereg.spectral import (
    _BLOCK_POINTS,
    Grid,
    SpectralField,
    _mirror,
    conjugate,
    derivative,
    multiply,
    norm,
    random_field,
    remove_mean,
    zeros,
)

from oracles import operator_E, oscillate, q_apply, remainder_R, rhs_full


def block_rows(grid):
    """Rows per block of spectral._blocks on grid."""
    return max(1, _BLOCK_POINTS // grid.n_padded)


# rows per block of Grid(8), and of Grid(6) on 300 points, whose padded
# grid is its own 300 points
B8 = block_rows(Grid(8))
B300 = block_rows(Grid(6, n_points=300))


def random_state(grid, rng, scale=0.3, band=(1, 4), real=False):
    u1 = scale * random_field(grid, rng, band=band, real_valued=real)
    u2 = scale * random_field(grid, rng, band=band, real_valued=real)
    return State(remove_mean(u1), remove_mean(u2))


def pair_distance(a, b):
    d1 = a[0] - b[0]
    d2 = a[1] - b[1]
    return max(norm(d1, "Hs", s=1), norm(d2, "L2"))


def plain_mode_matrix(k, ct, cd):
    return np.array(
        [[0.0, -1j * k * ct], [1j * k * ct, 1j * cd * k * k]], dtype=complex
    )


def modified_mode_matrix(k, ct, cd):
    """Linear symbol of the modified system on (u1_k, u2_k, conj u1_{-k},
    conj u2_{-k}); the conjugated transport couples k with -k."""
    return np.array(
        [
            [0.0, 0.0, 0.0, -1j * k * ct],
            [0.0, 1j * k * k * cd, 1j * k * ct, 0.0],
            [0.0, -1j * k * ct, 0.0, 0.0],
            [1j * k * ct, 0.0, 0.0, -1j * k * k * cd],
        ],
        dtype=complex,
    )


def modified_linear_flow(spec, state, t):
    """exp(t L) of the modified linear part, applied mode pair by mode pair
    with the dense exponential of modified_mode_matrix."""
    ct, cd = spec.coefficients
    grid = state.grid
    c1, c2 = state.u1.coeffs.copy(), state.u2.coeffs.copy()
    for k in range(1, grid.n_modes + 1):
        ip, im = grid.index(k), grid.index(-k)
        z = np.array([c1[ip], c2[ip], np.conj(c1[im]), np.conj(c2[im])])
        z = expm(t * modified_mode_matrix(k, ct, cd)) @ z
        c1[ip], c2[ip] = z[0], z[1]
        c1[im], c2[im] = np.conj(z[2]), np.conj(z[3])
    return State(SpectralField(grid, c1), SpectralField(grid, c2))


def propagate(spec, state, t):
    """exp(t L) of the regularized linear part through the cached propagator."""
    ct, cd = spec.coefficients
    grid = state.grid
    p11, p12, p21, p22 = _plain_propagator(grid, ct, cd, t)[:4]
    c1, c2 = state.u1.coeffs, state.u2.coeffs
    return State(
        SpectralField(grid, p11 * c1 + p12 * c2), SpectralField(grid, p21 * c1 + p22 * c2)
    )


def object_step_full(spec, law, state, dt, scheme="exp_rk2"):
    """The full step as the object code took it before the array form: State
    arithmetic, the forcing -ct q(u1) dx u1 through q_apply, and the modified
    kind as the mirrored plain p0 step."""
    if spec.kind == "modified":
        plain = replace(spec, kind="regularized")
        out = object_step_full(plain, law, State(conjugate(state.u1), state.u2), dt, scheme)
        return State(conjugate(out.u1), out.u2)
    ct, _ = spec.coefficients

    def forcing(y):
        return State(zeros(y.grid), (-ct) * q_apply(law, y.u1, derivative(y.u1)))

    if scheme == "exp_euler":
        return propagate(spec, state + dt * forcing(state), dt)
    k1 = forcing(state)
    k2 = forcing(propagate(spec, state + (0.5 * dt) * k1, 0.5 * dt))
    return propagate(spec, state, dt) + dt * propagate(spec, k2, 0.5 * dt)


def stacked_lawson(linear, nonlinear, y, dt, scheme):
    """The Lawson core as it was before the compact forcings: linear(y, h)
    applies exp(hL) to the stacked pair, nonlinear(y, s) returns the
    forcing of both components, a zero row included."""
    if scheme == "exp_euler":
        return linear(y + dt * nonlinear(y, 0.0), dt)
    k1 = nonlinear(y, 0.0)
    mid = linear(y + (0.5 * dt) * k1, 0.5 * dt)
    k2 = nonlinear(mid, 0.5 * dt)
    return linear(y, dt) + dt * linear(k2, 0.5 * dt)


def stacked_step_full(spec, law, state, dt, scheme="exp_rk2"):
    """The full step on the stacked (u1, u2) array through the folded
    propagator table: each stage applies a table's columns to the stack and
    adds Duhamel rows times the cubic's band coefficients B, and the
    midpoint is formed whole, its u2 row by half of the dt/2 table's row 6."""
    ct, cd = spec.coefficients
    grid = state.grid
    mirror = _mirror if spec.kind == "modified" else (lambda c: c)

    def stage(y, table, duhamel, b):
        return table[0:4:2] * y[0] + table[1:4:2] * y[1] + duhamel * b

    y = np.stack([mirror(state.u1.coeffs), state.u2.coeffs])
    p = _plain_propagator(grid, ct, cd, dt)
    b = _cubic_band(law, grid, y[0])
    if scheme == "exp_euler":
        y = stage(y, p, p[5:7], 0.5 * b)
    else:
        h = _plain_propagator(grid, ct, cd, 0.5 * dt)
        mid = stage(y, h, np.stack([h[4], 0.5 * h[6]]), b)
        y = stage(y, p, h[5:7], _cubic_band(law, grid, mid[0]))
    u1, u2 = y
    return State(SpectralField(grid, mirror(u1)), SpectralField(grid, u2))


def stacked_step_reduced(setting, w, dt, scheme="exp_rk2"):
    """The reduced step on the stacked (w1, w2) array, with the flows built
    as (ones, phase) rows and the forcing concatenated per stage, through
    stacked_lawson."""
    _, cd = setting.coefficients
    grid = w.grid
    flows = {h: np.stack([np.ones(grid.n_coeffs), _w2_phase(grid, cd, h)])
             for h in (0.5 * dt, dt)}

    def linear(y, h):
        return flows[h] * y

    def nonlinear(y, s):
        g1, n2 = _reduced_forcing(setting, grid, y[:1], y[1:], np.array([w.t + s]))
        return np.concatenate([g1, n2])

    w1, w2 = stacked_lawson(linear, nonlinear, np.stack([w.w1.coeffs, w.w2.coeffs]),
                            dt, scheme)
    return ReducedState(SpectralField(grid, w1), SpectralField(grid, w2), w.t + dt)


def plain_linear_flow(spec, state, t):
    """exp(t L) of the regularized linear part, mode by mode, by expm."""
    ct, cd = spec.coefficients
    grid = state.grid
    c1, c2 = state.u1.coeffs.copy(), state.u2.coeffs.copy()
    for k in range(-grid.n_modes, grid.n_modes + 1):
        i = grid.index(k)
        c1[i], c2[i] = expm(t * plain_mode_matrix(k, ct, cd)) @ np.array([c1[i], c2[i]])
    return State(SpectralField(grid, c1), SpectralField(grid, c2))


class TestConfig:
    def test_accepts_valid(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        assert cfg.scheme == "exp_rk2"
        assert cfg.blowup_threshold == 1.0
        assert cfg.store_every == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_end=1.0),
            dict(dt=1e-3, t_end=0.0),
            dict(dt=1e-3, t_end=1.0, scheme="rk4"),
            dict(dt=1e-3, t_end=1.0, blowup_threshold=0.0),
            dict(dt=1e-3, t_end=1.0, store_every=0),
            dict(dt=1e-3, t_end=1.0, store_every=1.5),
            dict(dt=1e-3, t_end=1.0, store_every=float("nan")),
            dict(dt=1e-3, t_end=1.0, store_every=float("inf")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=float("nan"), t_end=1.0),
            dict(dt=float("inf"), t_end=1.0),
            dict(dt=1e-3, t_end=float("nan")),
            dict(dt=1e-3, t_end=float("inf")),
            dict(dt=1e-3, t_end=1.0, blowup_threshold=float("nan")),
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        # an infinite blowup_threshold stays allowed: it switches detection off
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_store_every_takes_numpy_integers(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-2, store_every=np.int64(3))
        assert cfg.store_every == 3 and type(cfg.store_every) is int
        with pytest.raises(ValueError, match=r"^store_every must be an integer, got 3\.0$"):
            IntegratorConfig(dt=1e-3, t_end=1e-2, store_every=3.0)


class TestPlainPropagator:
    @pytest.mark.parametrize("rescaled", [False, True])
    def test_matches_dense_exponential(self, rescaled):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=rescaled)
        ct, cd = spec.coefficients
        dt = 7.3e-3
        p11, p12, p21, p22 = _plain_propagator(grid, ct, cd, dt)[:4]
        for k in range(-grid.n_modes, grid.n_modes + 1):
            ref = expm(dt * plain_mode_matrix(k, ct, cd))
            i = grid.index(k)
            got = np.array([[p11[i], p12[i]], [p21[i], p22[i]]])
            assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.abs(ref).max())

    def test_degenerate_modes_use_the_limit_formula(self):
        # unrescaled with eps*|k| = 2 makes the two eigenvalues collide;
        # so does the rescaled system at eps = 0.5, k = 1.
        grid = Grid(8)
        for spec, k in [
            (SystemSpec("regularized", 0.5, rescaled=False), 4),
            (SystemSpec("regularized", 0.25, rescaled=False), 8),
            (SystemSpec("regularized", 0.5, rescaled=True), 1),
        ]:
            ct, cd = spec.coefficients
            dt = 2.1e-3
            p11, p12, p21, p22 = _plain_propagator(grid, ct, cd, dt)[:4]
            for sign in (+1, -1):
                i = grid.index(sign * k)
                ref = expm(dt * plain_mode_matrix(sign * k, ct, cd))
                got = np.array([[p11[i], p12[i]], [p21[i], p22[i]]])
                assert np.max(np.abs(got - ref)) < 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("n_modes", [0, 8, 33])
    def test_duhamel_rows_keep_their_formulas(self, n_modes):
        # rows 0..3 are the mode exponential's entries and rows 4..6 the
        # forcing's Duhamel rows d e12, 2 d e12, 2 d e22 with d = -ct dt ik,
        # each bit for bit; the table is read-only and the cache stays bounded
        grid = Grid(n_modes)
        k = grid.wavenumbers.astype(float)
        for rescaled in (False, True):
            ct, cd = SystemSpec("regularized", 0.2, rescaled=rescaled).coefficients
            for dt in (1e-3, 5e-4, 7.3e-3):
                p = _plain_propagator(grid, ct, cd, dt)
                e = _mode_exponential(-1j * k * ct, 1j * k * ct, 1j * cd * k * k, dt)[0]
                d = (-ct * dt) * (1j * grid.wavenumbers)
                want = np.array([*e, d * e[1], 2.0 * d * e[1], 2.0 * d * e[3]])
                assert p.shape == (7, grid.n_coeffs) and p.dtype == want.dtype
                assert np.array_equal(p.view(np.uint64), want.view(np.uint64))
                assert not p.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    p[4, 0] = 0.0
                assert _plain_propagator.cache_info().currsize <= _PROPAGATOR_CACHE_SIZE

    def test_zero_mode_is_identity(self):
        grid = Grid(4)
        p11, p12, p21, p22 = _plain_propagator(grid, 1.0, 0.3, 0.05)[:4]
        i = grid.index(0)
        assert (p11[i], p12[i], p21[i], p22[i]) == (1.0, 0.0, 0.0, 1.0)


class TestModeExponential:
    """The closed form against the dense exponential over growth_experiment's
    mode family L = [[0, -ik], [-ik p'(u*), i eps k^2]], p'(u) = -1 + 3u^2."""

    @pytest.mark.parametrize(
        "u_star,eps,k",
        [
            (0.0, 0.0, 4),  # elliptic
            (0.3, 0.1, 2),  # elliptic, dispersive
            (0.0, 0.5, 16),  # elliptic, stabilized by dispersion
            (1.0, 0.05, 8),  # hyperbolic
            (2.0, 0.0, 3),  # hyperbolic
            (0.5, 0.5, 2),  # discriminant exactly 0: double eigenvalue i
            (1.0 / math.sqrt(3.0), 0.0, 4),  # p'(u*) = 0 to rounding
        ],
    )
    def test_matches_dense_exponential(self, u_star, eps, k):
        dp = -1.0 + 3.0 * u_star**2
        l12, l21, l22 = -1j * k, -1j * k * dp, 1j * eps * k**2
        matrix = np.array([[0.0, l12], [l21, l22]])
        times = np.array([0.0, 1e-3, 0.3, 1.7, 8.0, 16.0])
        (e11, e12, e21, e22), (lam_p, lam_m) = _mode_exponential(l12, l21, l22, times)
        for j, t in enumerate(times):
            ref = expm(t * matrix)
            got = np.array([[e11[j], e12[j]], [e21[j], e22[j]]])
            assert np.max(np.abs(got - ref)) < 1e-11 * max(1.0, np.abs(ref).max())
        # the eigenvalues solve lam^2 - l22 lam - l12 l21 = 0
        assert abs(lam_p + lam_m - l22) < 1e-13 * max(1.0, abs(l22))
        assert abs(lam_p * lam_m + l12 * l21) < 1e-12 * max(1.0, abs(l12 * l21))


class TestModifiedPropagator:
    # at amplitude 1e-9 the cubic forcing is 1e-18 of the state, far below
    # rounding, so one step of the full stepper is the linear flow itself.

    def test_matches_dense_exponential(self, rng):
        grid = Grid(6)
        spec = SystemSpec("modified", 0.2, rescaled=True)
        dt = 3.7e-4
        state = random_state(grid, rng, scale=1e-9, band=(1, 6))
        got = step_full(spec, PressureLaw.P0, state, 0.0, dt)
        ref = modified_linear_flow(spec, state, dt)
        assert pair_distance((got.u1, got.u2), (ref.u1, ref.u2)) < 1e-12 * 1e-9

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_gauge_oracle_against_plain_flow(self, rng, rescaled):
        # conjugating the first component intertwines the two linear flows:
        # modified_flow = G o plain_flow o G with G(u1, u2) = (conj u1, u2).
        grid = Grid(10)
        eps = 0.3
        plain = SystemSpec("regularized", eps, rescaled=rescaled)
        modified = SystemSpec("modified", eps, rescaled=rescaled)
        dt = 4.3e-3
        state = random_state(grid, rng, scale=0.7e-9)
        via_modified = step_full(modified, PressureLaw.P0, state, 0.0, dt)
        gauged = State(conjugate(state.u1), state.u2)
        via_plain = plain_linear_flow(plain, gauged, dt)
        expected = State(conjugate(via_plain.u1), via_plain.u2)
        assert pair_distance(
            (via_modified.u1, via_modified.u2), (expected.u1, expected.u2)
        ) < 1e-12 * 1e-9


class TestStepFull:
    @pytest.mark.parametrize("kind", ["regularized", "modified"])
    @pytest.mark.parametrize("scheme", ["exp_rk2", "exp_euler"])
    def test_zero_datum_stays_zero(self, kind, scheme):
        grid = Grid(8)
        spec = SystemSpec(kind, 0.3, rescaled=True)
        state = State(zeros(grid), zeros(grid))
        out = step_full(spec, PressureLaw.P0, state, 0.0, 1e-3, scheme)
        assert norm(out.u1, "L2") == 0.0
        assert norm(out.u2, "L2") == 0.0

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("scheme", ["exp_rk2", "exp_euler"])
    def test_rejects_non_finite_dt(self, rng, dt, scheme):
        # rejected before any propagator is looked up, so the bounded cache
        # holds no non-finite entry afterwards
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        state = random_state(grid, rng, scale=0.1)
        step_full(spec, PressureLaw.P0, state, 0.0, 1e-3, scheme)
        before = _plain_propagator.cache_info()
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            step_full(spec, PressureLaw.P0, state, 0.0, dt, scheme)
        assert _plain_propagator.cache_info() == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["regularized", "modified"])
    @pytest.mark.parametrize("scheme", ["exp_rk2", "exp_euler"])
    def test_band_whose_mode_symbol_overflows_is_refused(self, rng, kind, scheme):
        # 1/eps^3 = 1e300 is finite, so the spec takes eps = 1e-100, but
        # (cd K^2 / 2)^2 at K = 32 is not: refused before any exponential
        # warns, and no table is kept
        grid = Grid(32)
        spec = SystemSpec(kind, 1e-100, rescaled=True)
        state = random_state(grid, rng, scale=0.1)
        _plain_propagator.cache_clear()
        with pytest.raises(ValueError, match=(
                r"^the mode symbol of \|k\| = 32 overflows at ct = 1e\+200, "
                r"cd = 1e\+300: epsilon is too small for this band$")):
            step_full(spec, PressureLaw.P0, state, 0.0, 1e-3, scheme)
        assert _plain_propagator.cache_info().currsize == 0

    def test_repeated_linear_application_matches_one_exponential(self):
        # semigroup property of the cached propagator: 1000 small steps of
        # the linear flow equal a single exponential of the total time.
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        ct, cd = spec.coefficients
        k, dt, n = 3, 1e-3, 1000
        c2 = np.zeros(grid.n_coeffs, dtype=complex)
        c2[grid.index(k)] = 0.8 - 0.2j
        state = State(zeros(grid), SpectralField(grid, c2))
        for _ in range(n):
            state = propagate(spec, state, dt)
        ref = expm(n * dt * plain_mode_matrix(k, ct, cd)) @ np.array([0.0, 0.8 - 0.2j])
        assert abs(state.u1.coeff(k) - ref[0]) < 1e-10
        assert abs(state.u2.coeff(k) - ref[1]) < 1e-10
        assert norm(state.u1, "L2") == pytest.approx(abs(ref[0]), abs=1e-12)

    def test_tiny_amplitude_run_tracks_linear_oracle(self):
        # with a 3e-5 amplitude the cubic forcing contributes below 1e-11
        # over unit time, so the full stepper must reproduce the per-mode
        # exponential; the rescaled system is spectrally neutral, so nothing
        # amplifies the datum along the way.
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        ct, cd = spec.coefficients
        k, amp = 2, 3e-5
        c2 = np.zeros(grid.n_coeffs, dtype=complex)
        c2[grid.index(k)] = amp
        state = State(zeros(grid), SpectralField(grid, c2))
        dt, n = 1e-3, 1000
        for j in range(n):
            state = step_full(spec, PressureLaw.P0, state, j * dt, dt)
        ref = expm(n * dt * plain_mode_matrix(k, ct, cd)) @ np.array([0.0, amp])
        assert abs(state.u1.coeff(k) - ref[0]) < 1e-10
        assert abs(state.u2.coeff(k) - ref[1]) < 1e-10

    @pytest.mark.parametrize("law", list(PressureLaw))
    def test_mean_is_frozen(self, rng, law):
        # the cubic forcing is a perfect x-derivative for every law, and the
        # stepper forms it as ik times the cubic's coefficients, so its k = 0
        # entry is exactly zero and the means of both components never move,
        # not even by rounding; the modified kind (law p0 only) as well.
        grid = Grid(10)
        u1 = 0.2 * random_field(grid, rng, band=(0, 3))
        u2 = 0.2 * random_field(grid, rng, band=(0, 3))
        kinds = ["regularized", "modified"] if law is PressureLaw.P0 else ["regularized"]
        for kind in kinds:
            spec = SystemSpec(kind, 0.4, rescaled=False)
            state = State(u1, u2)
            m1, m2 = state.u1.coeff(0), state.u2.coeff(0)
            for j in range(100):
                state = step_full(spec, law, state, j * 5e-3, 5e-3)
            assert state.u1.coeff(0) == m1
            assert state.u2.coeff(0) == m2

    @pytest.mark.parametrize("kind", ["regularized", "modified"])
    def test_full_rhs_splits_into_linear_plus_forcing(self, rng, kind):
        # rhs_full must equal the mode-matrix linear part plus the cubic
        # forcing the stepper integrates; this pins the splitting the
        # exponential integrator relies on.  The modified forcing is read
        # back from one exponential Euler step, P(dt)(s + dt N(s)), by
        # undoing P(dt) with the dense exponential of the 4x4 symbol.
        grid = Grid(9)
        spec = SystemSpec(kind, 0.25, rescaled=True)
        ct, cd = spec.coefficients
        law = PressureLaw.P0
        state = random_state(grid, rng, scale=0.4)
        k = grid.wavenumbers.astype(float)
        c1, c2 = state.u1.coeffs, state.u2.coeffs
        if kind == "modified":
            d1 = -1j * k * ct * np.conj(c2[::-1])
            d2 = 1j * k * ct * np.conj(c1[::-1]) + 1j * cd * k * k * c2
            dt = 1e-2
            stepped = step_full(spec, law, state, 0.0, dt, "exp_euler")
            forcing = (modified_linear_flow(spec, stepped, -dt) - state) / dt
        else:
            d1 = -1j * k * ct * c2
            d2 = 1j * k * ct * c1 + 1j * cd * k * k * c2
            dxp = grid.ik * _cubic_band(law, grid, state.u1.coeffs)
            forcing = State(zeros(grid), SpectralField(grid, -ct * dxp))
        linear = State(SpectralField(grid, d1), SpectralField(grid, d2))
        expected = linear + forcing
        got = rhs_full(spec, law, state)
        assert pair_distance((got.u1, got.u2), (expected.u1, expected.u2)) < 1e-11


    @pytest.mark.parametrize("n_modes", [8, 32, 512])
    def test_matches_the_object_level_step(self, n_modes):
        # the array step agrees with the State-level step it replaced to
        # rounding (measured: 3e-16 relative at most), for every law and
        # kind, both schemes and both scalings
        grid = Grid(n_modes)
        cases = [("regularized", law) for law in PressureLaw]
        cases.append(("modified", PressureLaw.P0))
        for kind, law in cases:
            for rescaled in (False, True):
                spec = SystemSpec(kind, 0.2, rescaled=rescaled)
                state = random_state(grid, np.random.default_rng(5), scale=0.05,
                                     band=(1, min(n_modes, 16)))
                for scheme in ("exp_rk2", "exp_euler"):
                    got = step_full(spec, law, state, 0.0, 1e-3, scheme)
                    want = object_step_full(spec, law, state, 1e-3, scheme)
                    size = max(np.max(np.abs(want.u1.coeffs)),
                               np.max(np.abs(want.u2.coeffs)))
                    for a, b in ((got.u1, want.u1), (got.u2, want.u2)):
                        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * size


class TestStackedOracles:
    """Both steppers give bit for bit the results of their stacked-array
    forms (stacked_step_full, stacked_step_reduced)."""

    @pytest.mark.parametrize("n_modes", [0, 8, 32, 512])
    def test_full_step_is_bit_identical(self, n_modes):
        grid = Grid(n_modes)
        band = (min(1, n_modes), min(n_modes, 16))
        cases = [("regularized", law) for law in PressureLaw]
        cases.append(("modified", PressureLaw.P0))
        for kind, law in cases:
            for rescaled in (False, True):
                spec = SystemSpec(kind, 0.2, rescaled=rescaled)
                state = random_state(grid, np.random.default_rng(5), scale=0.3, band=band)
                for scheme in ("exp_rk2", "exp_euler"):
                    got = step_full(spec, law, state, 0.0, 1e-3, scheme)
                    want = stacked_step_full(spec, law, state, 1e-3, scheme)
                    assert np.array_equal(got.u1.coeffs, want.u1.coeffs)
                    assert np.array_equal(got.u2.coeffs, want.u2.coeffs)

    @pytest.mark.parametrize("n_modes", [0, 8, 32])
    @pytest.mark.parametrize(
        "law, conjugated",
        [(PressureLaw.P0, False), (PressureLaw.P1, False), (PressureLaw.P2, False),
         (PressureLaw.P0, True)],
    )
    def test_reduced_step_is_bit_identical(self, n_modes, law, conjugated):
        grid = Grid(n_modes)
        band = (min(1, n_modes), min(n_modes, 3))
        rng = np.random.default_rng(11)
        w = ReducedState(*(remove_mean(0.08 * random_field(grid, rng, band=band))
                           for _ in range(2)), 0.37)
        setting = NormalFormSetting(0.2, conjugated, law, amplitude=0.3)
        for scheme in ("exp_rk2", "exp_euler"):
            got = step_reduced(setting, w, 0.01, scheme)
            want = stacked_step_reduced(setting, w, 0.01, scheme)
            assert got.t == want.t
            assert np.array_equal(got.w1.coeffs, want.w1.coeffs)
            assert np.array_equal(got.w2.coeffs, want.w2.coeffs)


class TestDxCubic:
    """The full system's forcing kernel against q_apply, its oracle."""

    @pytest.mark.parametrize(
        "grid", [Grid(0), Grid(8), Grid(33), Grid(8, n_points=61)],
        ids=["K0", "K8", "K33", "K8-n61"],
    )
    @pytest.mark.parametrize("law", list(PressureLaw))
    def test_matches_q_apply(self, grid, law):
        # dx commutes with the truncation to |k| <= K, so dx P_K(cubic(u))
        # is q(u) dx u; the datum carries a mean, whose forcing is exactly 0
        u = 0.5 * random_field(grid, np.random.default_rng(3),
                               band=(0, min(grid.n_modes, 6)), zero_mean=False)
        got = grid.ik * _cubic_band(law, grid, u.coeffs)
        want = q_apply(law, u, derivative(u)).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert got[grid.n_modes] == 0.0


class TestFftCalls:
    """FFT calls per step and per array kernel, counted by wrapping
    np.fft.fft and np.fft.ifft."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(_original)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize(
        "kind, law",
        [("regularized", PressureLaw.P0), ("regularized", PressureLaw.P1),
         ("regularized", PressureLaw.P2), ("modified", PressureLaw.P0)],
    )
    @pytest.mark.parametrize("scheme, expected", [("exp_rk2", 4), ("exp_euler", 2)])
    def test_full_step(self, calls, kind, law, scheme, expected):
        # two forcing evaluations per exp_rk2 step, one per exp_euler step,
        # two FFT calls each
        grid = Grid(16)
        state = random_state(grid, np.random.default_rng(2), scale=0.1)
        spec = SystemSpec(kind, 0.2, rescaled=True)
        step_full(spec, law, state, 0.0, 1e-4, scheme)
        assert len(calls) == expected

    @pytest.mark.parametrize(
        "kind, law",
        [("regularized", PressureLaw.P1), ("modified", PressureLaw.P0)],
    )
    @pytest.mark.parametrize("scheme", ["exp_rk2", "exp_euler"])
    def test_full_step_builds_two_fields(self, monkeypatch, kind, law, scheme):
        # the returned State's two validated fields and no other, counted by
        # wrapping SpectralField.__init__ as the benchmark's tracer does
        grid = Grid(16)
        state = random_state(grid, np.random.default_rng(2), scale=0.1)
        spec = SystemSpec(kind, 0.2, rescaled=True)
        built = []
        init = SpectralField.__init__

        def counted(field, *args, **kwargs):
            built.append(field)
            return init(field, *args, **kwargs)

        monkeypatch.setattr(SpectralField, "__init__", counted)
        out = step_full(spec, law, state, 0.0, 1e-4, scheme)
        assert built == [out.u1, out.u2]

    def test_reduced_step(self, calls):
        grid = Grid(8)
        w = ReducedState(remove_mean(0.05 * random_field(grid, np.random.default_rng(4))),
                         remove_mean(0.05 * random_field(grid, np.random.default_rng(6))),
                         0.0)
        step_reduced(NormalFormSetting(0.2, amplitude=1.0), w, 1e-3)
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "grid, members, blocks",
        [(Grid(8), 1, 1), (Grid(8), 29, 1), (Grid(8), B8 + 1, 2),
         (Grid(6, n_points=300), 2 * B300 + 1, 3), (Grid(600), 2, 2), (Grid(8), B8, 1)],
    )
    def test_reduced_forcing_per_block(self, calls, grid, members, blocks):
        # blocks of block_rows(grid) members, two FFT calls each: one block,
        # a block exactly filled, one member past it, a third block of one
        # member, and one member per block on Grid(600), padded to 2420
        # points, more than a block holds
        rng = np.random.default_rng(5)
        w1, w2 = 0.1 * (rng.standard_normal((2, members, grid.n_coeffs))
                        + 1j * rng.standard_normal((2, members, grid.n_coeffs)))
        times = np.linspace(0.0, 1.0, members)
        _reduced_forcing(NormalFormSetting(0.2, amplitude=1.0), grid, w1, w2, times)
        assert len(calls) == 2 * blocks

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_tower_map(self, calls, n):
        # the jet to depth n + 1, with no re-check of its levels
        grid = Grid(8)
        f_n(0.3 * random_field(grid, np.random.default_rng(7), band=(1, 2)), n)
        assert len(calls) == 2 * n + 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_boundary_polynomial(self, calls, n):
        # one jet to depth n for both end fields
        grid = Grid(8)
        rng = np.random.default_rng(8)
        w_t, w_0 = (0.3 * random_field(grid, rng, band=(1, 2)) for _ in range(2))
        P_n_eval(w_t, w_0, 0.3, IbpCoefficients(n=n, lam=0.4, epsilon=0.2, c_embed=2.0))
        assert len(calls) == 2 * n

    @pytest.mark.parametrize(
        "grid, samples, blocks",
        [(Grid(8), 5, 1), (Grid(8), 29, 1), (Grid(8), B8 + 1, 2),
         (Grid(6, n_points=300), 2 * B300 + 1, 3), (Grid(8), B8, 1)],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_implicit_residual(self, calls, grid, samples, blocks, n):
        # one jet with tangent to depth n + 1 per block of block_rows(grid)
        # samples, then P_n_eval's jet to depth n
        rng = np.random.default_rng(9)
        w = [0.1 * random_field(grid, rng, band=(1, 3)) for _ in range(samples)]
        r = [0.1 * random_field(grid, rng, band=(1, 3)) for _ in range(samples)]
        coeffs = IbpCoefficients(n=n, lam=0.4, epsilon=0.2, c_embed=2.0)
        implicit_residual(np.linspace(0.0, 0.1, samples), w, r, coeffs)
        assert len(calls) == 2 * (n + 1) * blocks + 2 * n

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_directional_tower_map(self, calls, n):
        # the tangent jet to depth n + 1: one synthesis of each level but
        # the last, one forward FFT per new level
        grid = Grid(8)
        rng = np.random.default_rng(7)
        u, v = (0.3 * random_field(grid, rng, band=(1, 2)) for _ in range(2))
        f_n_directional(u, n, v)
        assert len(calls) == 2 * n + 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_transported_remainder(self, calls, n):
        grid = Grid(8)
        rng = np.random.default_rng(8)
        w, r = (0.3 * random_field(grid, rng, band=(1, 2)) for _ in range(2))
        bold_R_n(w, r, 0.3, IbpCoefficients(n=n, lam=0.4, epsilon=0.2, c_embed=2.0))
        assert len(calls) == 2 * n

    @pytest.mark.parametrize("samples", [5, B8 + 1, B8])
    def test_ibp_once_p2(self, calls, samples):
        # per block of block_rows(Grid(8)) samples: synthesis of w1 and R1,
        # the cubes and forcing rows back, the truncated cube out again, the
        # resonant rows back
        blocks = {5: 1, B8: 1, B8 + 1: 2}[samples]
        grid = Grid(8)
        rng = np.random.default_rng(9)
        w = [0.1 * random_field(grid, rng, band=(1, 3)) for _ in range(samples)]
        r = [0.1 * random_field(grid, rng, band=(1, 3)) for _ in range(samples)]
        ibp_once_p2(np.linspace(0.0, 0.1, samples), w, r, 0.25, 0.05)
        assert len(calls) == 4 * blocks

    @pytest.mark.parametrize(
        "path, grid, steps, blocks",
        [("full", Grid(8), 10, 1), ("full", Grid(8), B8, 2),
         ("full", Grid(32), block_rows(Grid(32)), 2),
         ("full", Grid(6, n_points=300), 3 * B300 + 1, 4), ("reduced", Grid(8), B8, 2),
         ("full", Grid(8), B8 - 1, 1)],
    )
    def test_solve_diagnostics_per_block(self, calls, path, grid, steps, blocks):
        # four calls per exp_rk2 step and none for the monitor, then the
        # diagnostics pass: one call per block of block_rows(grid) of the
        # steps + 1 samples (one sample past a block, a fourth block of one
        # sample, a block exactly filled)
        system, law, datum = edge_problem(path, grid, np.random.default_rng(10))
        traj = solve(system, law, datum, IntegratorConfig(dt=1e-3, t_end=steps * 1e-3))
        assert len(traj.states) == steps + 1
        assert len(calls) == 4 * steps + blocks


class TestConvergenceOrder:
    def reference_and_errors(self, scheme, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=False)
        law = PressureLaw.P1
        datum = random_state(grid, rng, scale=0.2, band=(1, 3))
        t_end = 0.5

        def run(dt, use_scheme):
            state, t = datum, 0.0
            n = int(round(t_end / dt))
            for j in range(n):
                state = step_full(spec, law, state, t, dt, use_scheme)
                t += dt
            return state

        ref = run(1.0 / 2048.0, "exp_rk2")
        errors = []
        for dt in (1.0 / 64.0, 1.0 / 128.0):
            out = run(dt, scheme)
            errors.append(pair_distance((out.u1, out.u2), (ref.u1, ref.u2)))
        return errors

    def test_exp_rk2_is_second_order(self, rng):
        e1, e2 = self.reference_and_errors("exp_rk2", rng)
        slope = np.log2(e1 / e2)
        assert 1.8 <= slope <= 2.2

    def test_exp_euler_is_first_order(self, rng):
        e1, e2 = self.reference_and_errors("exp_euler", rng)
        slope = np.log2(e1 / e2)
        assert 0.8 <= slope <= 1.2


def object_reduced_forcing(setting, w):
    """The reduced forcing as the per-member object code assembled it before
    the array kernel: the formula of reduced_rhs from the public operators,
    with the free Schroedinger term -i c_d dx^2 w2 added and taken off again,
    and the conjugated setting as the mirrored plain p0 one."""
    if setting.conjugated:
        plain = replace(setting, conjugated=False)
        f = object_reduced_forcing(plain, ReducedState(conjugate(w.w1), w.w2, w.t))
        return State(conjugate(f.u1), f.u2)
    eps, t, law = setting.epsilon, w.t, setting.law
    ct, cd = setting.coefficients
    a2 = setting.amplitude**2
    v = oscillate(State(w.w1, w.w2), t, eps, "backward")
    u_tilde = from_normal_coords(setting, v)
    ev = operator_E(setting, v, u_tilde)
    rv = remainder_R(setting, v, u_tilde)
    f1 = q_apply(law, setting.amplitude * u_tilde.u1, derivative(v.u1))
    phase1, phase2 = np.exp(-1j * t / eps), np.exp(1j * t / eps)
    if law is PressureLaw.P0:
        mu = (-1j * a2 / eps) * np.exp(2j * t / eps)
        cubic = multiply([w.w1, w.w1, w.w1])
    elif law is PressureLaw.P1:
        mu = -1j * a2 / eps
        cubic = multiply([w.w1, conjugate(w.w1), w.w1])
    else:
        mu = (-1j * a2 / eps) * np.exp(-4j * t / eps)
        cubic = multiply([conjugate(w.w1)] * 3)
    dw1 = mu * remove_mean(cubic) - phase1 * rv.u1
    dispersion = -1j * cd * derivative(w.w2, order=2)
    dw2 = (
        dispersion
        - ct * phase2 * f1
        - (1.0 / eps) * phase2 * (ev.u2 - 1j * v.u2)
        - phase2 * rv.u2
    )
    return State(dw1, dw2 - dispersion)


def object_step_reduced(setting, w, dt):
    """The exp_rk2 step as the object code took it: three ReducedStates and a
    fresh w2 phase for every linear flow."""
    from wavereg.normalform import _w2_phase

    _, cd = setting.coefficients
    grid = w.grid

    def linear(y, h):
        return State(y.u1, SpectralField(grid, _w2_phase(grid, cd, h) * y.u2.coeffs))

    def nonlinear(y, s):
        return object_reduced_forcing(setting, ReducedState(y.u1, y.u2, w.t + s))

    y = State(w.w1, w.w2)
    k1 = nonlinear(y, 0.0)
    k2 = nonlinear(linear(y + (0.5 * dt) * k1, 0.5 * dt), 0.5 * dt)
    out = linear(y, dt) + dt * linear(k2, 0.5 * dt)
    return ReducedState(out.u1, out.u2, w.t + dt)


class TestStepReduced:
    def make_w(self, grid, rng, eps, scale=0.05):
        w1 = scale * random_field(grid, rng, band=(1, 3))
        w2 = scale * random_field(grid, rng, band=(1, 3))
        return ReducedState(remove_mean(w1), remove_mean(w2), 0.0)

    def test_rejects_dt_above_the_oscillatory_cap(self, rng):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        w = self.make_w(grid, rng, 0.2)
        with pytest.raises(ValueError, match="cap"):
            step_reduced(setting, w, 0.2 / 10.0)

    def test_rejects_bad_scheme(self, rng):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        w = self.make_w(grid, rng, 0.2)
        with pytest.raises(ValueError):
            step_reduced(setting, w, 1e-3, scheme="leapfrog")

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("scheme", ["exp_rk2", "exp_euler"])
    def test_rejects_non_finite_dt(self, rng, dt, scheme):
        # before the cap, and before any phase is looked up
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        w = self.make_w(grid, rng, 0.2)
        step_reduced(setting, w, 1e-3, scheme)
        before = _w2_phase_table.cache_info()
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            step_reduced(setting, w, dt, scheme)
        assert _w2_phase_table.cache_info() == before

    def test_free_phase_is_unitary(self):
        from wavereg.normalform import _w2_phase

        grid = Grid(32)
        phase = _w2_phase(grid, 1.0 / 0.05**3, 1e-3)
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-15

    def test_free_phase_is_cached_read_only_and_exact(self):
        grid = Grid(16)
        k = grid.wavenumbers.astype(float)
        for cd, dt in ((1.0 / 0.05**3, 1e-3), (1.0 / 0.2**3, 0.5 * 7e-3)):
            phase = _w2_phase(grid, cd, dt)
            assert _w2_phase(grid, cd, dt) is phase
            assert np.array_equal(phase, np.exp(1j * dt * cd * k * k))
            assert not phase.flags.writeable
            with pytest.raises(ValueError):
                phase[...] = 1.0

    def test_phase_cache_stays_bounded(self, rng):
        # like the propagator's: every bisection probe asks for two fresh
        # step lengths, and four crossing runs with different steps ask
        # for far more than the cache holds
        _w2_phase_table.cache_clear()
        grid = Grid(8)
        setting = NormalFormSetting(0.2, law=PressureLaw.P1, amplitude=1.0)
        w = self.make_w(grid, rng, 0.2)
        free = solve(setting, PressureLaw.P1, w, IntegratorConfig(dt=1e-3, t_end=0.2))
        monitor = [max(d["norm1_h1"], d["norm2_l2"]) for d in free.diagnostics]
        assert max(monitor) > monitor[0]
        for j, share in enumerate((0.2, 0.4, 0.6, 0.8)):
            rho = monitor[0] + share * (max(monitor) - monitor[0])
            cfg = IntegratorConfig(dt=(5 + j) * 1e-4, t_end=0.2, blowup_threshold=rho)
            assert solve(setting, PressureLaw.P1, w, cfg).terminal_status == "blowup"
            assert _w2_phase_table.cache_info().currsize <= _W2_PHASE_CACHE_SIZE
        assert _w2_phase_table.cache_info().misses > 2 * _W2_PHASE_CACHE_SIZE

    def test_zero_stays_zero_and_time_advances(self):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        w = ReducedState(zeros(grid), zeros(grid), 0.3)
        out = step_reduced(setting, w, 1e-3)
        assert norm(out.w1, "L2") == 0.0
        assert norm(out.w2, "L2") == 0.0
        assert out.t == pytest.approx(0.301)

    @pytest.mark.parametrize(
        "law, conjugated",
        [(PressureLaw.P0, False), (PressureLaw.P1, False), (PressureLaw.P2, False),
         (PressureLaw.P0, True)],
    )
    def test_matches_the_object_level_step(self, law, conjugated):
        # one seed per setting; the array step agrees with the per-member
        # object step it replaced to rounding
        grid = Grid(8)
        setting = NormalFormSetting(0.2, conjugated, law, amplitude=0.3)
        w = self.make_w(grid, np.random.default_rng(11), 0.2, scale=0.08)
        w = ReducedState(w.w1, w.w2, 0.37)
        got = step_reduced(setting, w, 0.01)
        want = object_step_reduced(setting, w, 0.01)
        size = max(np.max(np.abs(want.w1.coeffs)), np.max(np.abs(want.w2.coeffs)))
        for a, b in ((got.w1, want.w1), (got.w2, want.w2)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * size
        assert got.t == want.t

    def test_reduced_rk2_order(self, rng):
        grid = Grid(8)
        eps = 0.2
        setting = NormalFormSetting(eps, amplitude=1.0)
        datum = self.make_w(grid, rng, eps, scale=0.08)
        t_end = 0.04  # = 0.1 eps^2 scale territory, dt stays under eps/20

        def run(dt):
            w = datum
            for _ in range(int(round(t_end / dt))):
                w = step_reduced(setting, w, dt)
            return w

        # n <= 32 is pre-asymptotic for the oscillatory coupling; the slope
        # settles to 2 from n = 128 on.
        ref = run(t_end / 4096.0)
        e = []
        for n in (128, 256):
            out = run(t_end / n)
            e.append(
                max(norm(out.w1 - ref.w1, "Hs", s=1), norm(out.w2 - ref.w2, "L2"))
            )
        slope = np.log2(e[0] / e[1])
        assert 1.6 <= slope <= 2.4

    def test_reduced_euler_order(self, rng):
        grid = Grid(8)
        eps = 0.2
        setting = NormalFormSetting(eps, amplitude=1.0)
        datum = self.make_w(grid, rng, eps, scale=0.08)
        t_end = 0.04

        def run(n, scheme):
            w = datum
            for _ in range(n):
                w = step_reduced(setting, w, t_end / n, scheme)
            return w

        # the exp_rk2 reference at 1024 steps sits three orders below the
        # exp_euler errors measured here; the slopes agree with a 4096-step
        # reference to four digits
        ref = run(1024, "exp_rk2")
        e = []
        for n in (128, 256, 512):
            out = run(n, "exp_euler")
            e.append(
                max(norm(out.w1 - ref.w1, "Hs", s=1), norm(out.w2 - ref.w2, "L2"))
            )
        for coarse, fine in zip(e, e[1:]):
            assert 0.8 <= np.log2(coarse / fine) <= 1.2


class TestSolve:
    def test_zero_datum_completes_flat(self):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        datum = State(zeros(grid), zeros(grid))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1)
        traj = solve(spec, PressureLaw.P0, datum, cfg)
        assert traj.terminal_status == "completed"
        assert traj.blowup_time is None
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1)
        for d in traj.diagnostics:
            assert d["norm1_h1"] == 0.0
            assert d["energy"] == 0.0

    def test_rejects_datum_with_a_mean(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        u1 = random_field(grid, rng, band=(0, 3))
        c = u1.coeffs.copy()
        c[grid.index(0)] = 0.2
        datum = State(SpectralField(grid, c), zeros(grid))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError, match="mean"):
            solve(spec, PressureLaw.P0, datum, cfg)

    def test_linear_regime_tracks_the_linear_flow(self, rng):
        # neutral spectrum + 1e-4 amplitude: the run must deviate from the
        # exactly propagated linear solution well below one percent, and the
        # monitor can only swing by the non-orthogonal mode mixing (bounded),
        # never grow secularly.
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        datum = random_state(grid, rng, scale=1e-4, band=(1, 3))
        cfg = IntegratorConfig(dt=2e-3, t_end=1.0, store_every=50)
        traj = solve(spec, PressureLaw.P1, datum, cfg)
        assert traj.terminal_status == "completed"
        linear = datum
        for _ in range(500):
            linear = propagate(spec, linear, 2e-3)
        final = traj.states[-1]
        deviation = pair_distance((final.u1, final.u2), (linear.u1, linear.u2))
        scale = pair_distance(
            (linear.u1, linear.u2), (zeros(grid), zeros(grid))
        )
        assert deviation < 1e-2 * scale
        monitors = [max(d["norm1_h1"], d["norm2_l2"]) for d in traj.diagnostics]
        assert max(monitors) <= monitors[0] * 1.25
        assert min(monitors) >= monitors[0] / 1.25

    def test_small_datum_conserves_energy(self, rng):
        grid = Grid(12)
        spec = SystemSpec("regularized", 0.1, rescaled=False)
        datum = random_state(grid, rng, scale=0.05, band=(1, 4), real=True)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.2, store_every=20)
        traj = solve(spec, PressureLaw.P1, datum, cfg)
        assert traj.terminal_status == "completed"
        e0 = traj.diagnostics[0]["energy"]
        drift = max(abs(d["energy"] - e0) for d in traj.diagnostics)
        assert drift < 1e-8 * max(1.0, abs(e0))

    def test_blowup_times_increase_with_threshold(self, rng):
        # the unrescaled system about zero has growing modes (the pressure
        # gradient is negative there), so a small datum crosses successive
        # thresholds at increasing times.
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=False)
        datum = random_state(grid, rng, scale=0.02, band=(1, 2), real=True)
        times = []
        for rho in (0.2, 0.4, 0.8):
            cfg = IntegratorConfig(dt=1e-3, t_end=10.0, blowup_threshold=rho)
            traj = solve(spec, PressureLaw.P0, datum, cfg)
            assert traj.terminal_status == "blowup"
            assert traj.blowup_time is not None
            times.append(traj.blowup_time)
        assert times[0] < times[1] < times[2]
        big = IntegratorConfig(dt=1e-3, t_end=0.5, blowup_threshold=1e6)
        assert solve(spec, PressureLaw.P0, datum, big).terminal_status == "completed"

    def test_blowup_time_brackets_the_crossing(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=False)
        datum = random_state(grid, rng, scale=0.02, band=(1, 2), real=True)
        rho = 0.3
        cfg = IntegratorConfig(dt=5e-3, t_end=10.0, blowup_threshold=rho)
        traj = solve(spec, PressureLaw.P0, datum, cfg)
        assert traj.terminal_status == "blowup"
        # the recorded crossing state exceeds the threshold, and the refined
        # time sits within the final step of the last sub-threshold sample
        last = traj.states[-1]
        assert max(norm(last.u1, "Hs", s=1), norm(last.u2, "L2")) > rho
        below = traj.states[-2]
        assert max(norm(below.u1, "Hs", s=1), norm(below.u2, "L2")) <= rho
        assert traj.times[-2] < traj.blowup_time <= traj.times[-1] + 1e-12

    def test_overflow_reports_diverged(self, rng):
        # an infinite threshold disables the blow-up proxy, so the run ends
        # only when the state itself stops being finite.
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=False)
        datum = random_state(grid, rng, scale=2.0, band=(1, 2), real=True)
        cfg = IntegratorConfig(
            dt=0.05, t_end=50.0, blowup_threshold=float("inf")
        )
        with np.errstate(over="ignore", invalid="ignore"):
            traj = solve(spec, PressureLaw.P0, datum, cfg)
        assert traj.terminal_status == "diverged"
        assert traj.blowup_time is None

    def test_store_every_thins_but_keeps_endpoints(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=True)
        datum = random_state(grid, rng, scale=0.01, band=(1, 3))
        dense = solve(spec, PressureLaw.P0, datum, IntegratorConfig(dt=1e-2, t_end=0.4))
        thin = solve(
            spec,
            PressureLaw.P0,
            datum,
            IntegratorConfig(dt=1e-2, t_end=0.4, store_every=8),
        )
        assert len(thin.times) < len(dense.times)
        assert thin.times[0] == 0.0
        assert thin.times[-1] == pytest.approx(0.4)
        assert dense.times[-1] == pytest.approx(0.4)
        assert np.all(np.diff(thin.times) > 0)

    def test_diagnostics_are_recomputable(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.2, rescaled=False)
        datum = random_state(grid, rng, scale=0.05, band=(1, 3), real=True)
        cfg = IntegratorConfig(dt=2e-3, t_end=0.1, store_every=10)
        traj = solve(spec, PressureLaw.P2, datum, cfg)
        j = len(traj.states) // 2
        st = traj.states[j]
        d = traj.diagnostics[j]
        assert d["norm1_h1"] == pytest.approx(norm(st.u1, "Hs", s=1), rel=1e-14)
        assert d["norm2_l2"] == pytest.approx(norm(st.u2, "L2"), rel=1e-14)
        assert d["energy"] == pytest.approx(
            energy(PressureLaw.P2, st).value, rel=1e-14, abs=1e-15
        )

    def test_reduced_path_runs_and_keeps_zero_mean(self, rng):
        grid = Grid(8)
        eps = 0.2
        setting = NormalFormSetting(eps, amplitude=1.0)
        w1 = remove_mean(0.05 * random_field(grid, rng, band=(1, 3)))
        w2 = remove_mean(0.05 * random_field(grid, rng, band=(1, 3)))
        datum = ReducedState(w1, w2, 0.0)
        cfg = IntegratorConfig(dt=eps / 25.0, t_end=0.05, store_every=2)
        traj = solve(setting, PressureLaw.P0, datum, cfg)
        assert traj.terminal_status == "completed"
        for w in traj.states:
            assert abs(w.w1.coeff(0)) < 1e-12
        assert traj.times[-1] == pytest.approx(0.05)

    @pytest.mark.parametrize("t_end", [3.5e-3, 0.5])
    def test_reduced_path_rejects_t_end_not_after_the_datum(self, t_end):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        datum = ReducedState(zeros(grid), zeros(grid), 0.5)
        cfg = IntegratorConfig(dt=1e-3, t_end=t_end)
        with pytest.raises(ValueError, match="t_end"):
            solve(setting, PressureLaw.P0, datum, cfg)

    def test_reduced_path_rejects_mismatched_law(self, rng):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        datum = ReducedState(zeros(grid), zeros(grid), 0.0)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError, match="law"):
            solve(setting, PressureLaw.P1, datum, cfg)

    def test_type_errors(self):
        grid = Grid(4)
        spec = SystemSpec("regularized", 0.3)
        setting = NormalFormSetting(0.3)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        w = ReducedState(zeros(grid), zeros(grid), 0.0)
        st = State(zeros(grid), zeros(grid))
        with pytest.raises(TypeError):
            solve(spec, PressureLaw.P0, w, cfg)
        with pytest.raises(TypeError):
            solve(setting, PressureLaw.P0, st, cfg)
        with pytest.raises(TypeError):
            solve("neither", PressureLaw.P0, st, cfg)

    def test_modified_solve_requires_p0(self, rng):
        grid = Grid(8)
        spec = SystemSpec("modified", 0.3)
        datum = random_state(grid, rng, scale=0.01)
        # the second threshold is crossed by the datum itself, before any step
        for rho in (1.0, 1e-9):
            cfg = IntegratorConfig(dt=1e-3, t_end=0.01, blowup_threshold=rho)
            for law in (PressureLaw.P1, PressureLaw.P2):
                with pytest.raises(ValueError, match="P0"):
                    solve(spec, law, datum, cfg)

    @pytest.mark.parametrize("kind", ["regularized", "modified"])
    def test_non_finite_datum_reports_diverged(self, rng, kind):
        grid = Grid(8)
        spec = SystemSpec(kind, 0.3, rescaled=True)
        datum = random_state(grid, rng, scale=0.01)
        c2 = datum.u2.coeffs.copy()
        c2[grid.index(2)] = np.nan
        datum = State(datum.u1, SpectralField(grid, c2))
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with np.errstate(invalid="ignore"):
            traj = solve(spec, PressureLaw.P0, datum, cfg)
        assert traj.terminal_status == "diverged"
        assert traj.blowup_time is None

    def test_propagator_cache_stays_bounded(self, rng):
        # every bisection probe asks for a fresh step length; six crossing
        # runs with different steps ask for far more than the cache holds.
        _plain_propagator.cache_clear()
        grid = Grid(32)
        spec = SystemSpec("modified", 0.3, rescaled=False)
        datum = random_state(grid, rng, scale=0.02, band=(1, 2), real=True)
        for j, rho in enumerate((0.2, 0.25, 0.3, 0.35, 0.4, 0.45)):
            cfg = IntegratorConfig(dt=(5 + j) * 1e-3, t_end=10.0, blowup_threshold=rho)
            assert solve(spec, PressureLaw.P0, datum, cfg).terminal_status == "blowup"
            assert _plain_propagator.cache_info().currsize <= _PROPAGATOR_CACHE_SIZE
        assert _plain_propagator.cache_info().misses > 2 * _PROPAGATOR_CACHE_SIZE


class TestStepLengthCaches:
    """The two caches keyed by step length, in the shape of a sweep: each
    run builds every step length it asks for once, and leaves at most the
    cache's bound.  The lengths asked for are recorded by wrapping the plain
    function that the stepper calls through integrate's module globals."""

    @staticmethod
    def record(monkeypatch, name):
        asked = set()
        table = getattr(integrate, name)

        def recording(*key):
            asked.add(key)
            return table(*key)

        monkeypatch.setattr(integrate, name, recording)
        return asked

    def test_bounds_are_what_one_step_reads(self, monkeypatch, rng):
        full = self.record(monkeypatch, "_plain_propagator")
        reduced = self.record(monkeypatch, "_w2_phase")
        grid = Grid(8)
        step_full(SystemSpec("modified", 0.3), PressureLaw.P0, random_state(grid, rng),
                  0.0, 1e-3)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        step_reduced(setting, TestStepReduced().make_w(grid, rng, 0.2), 1e-3)
        assert len(full) == _PROPAGATOR_CACHE_SIZE
        assert len(reduced) == _W2_PHASE_CACHE_SIZE

    def test_full_crossing_then_completed_run(self, monkeypatch, rng):
        grid = Grid(32)
        datum = random_state(grid, rng, scale=0.02, band=(1, 2), real=True)
        asked = self.record(monkeypatch, "_plain_propagator")
        _plain_propagator.cache_clear()
        # a crossing run, whose bisection probes ask for two lengths each
        cfg = IntegratorConfig(dt=5e-3, t_end=10.0, blowup_threshold=0.2)
        crossing = solve(SystemSpec("modified", 0.3, rescaled=False), PressureLaw.P0,
                         datum, cfg)
        assert crossing.terminal_status == "blowup"
        assert crossing.times[-1] > 4 * cfg.dt and len(asked) > 4
        info = _plain_propagator.cache_info()
        assert info.misses == len(asked)
        assert info.currsize <= _PROPAGATOR_CACHE_SIZE
        # then a run at another epsilon, whose last step is shortened
        asked.clear()
        cfg = IntegratorConfig(dt=5e-3, t_end=0.0523)
        done = solve(SystemSpec("modified", 0.25, rescaled=False), PressureLaw.P0,
                     datum, cfg)
        assert done.terminal_status == "completed"
        assert len(asked) == 4
        assert _plain_propagator.cache_info().misses == info.misses + len(asked)
        assert _plain_propagator.cache_info().currsize <= _PROPAGATOR_CACHE_SIZE

    def test_reduced_crossing_run(self, monkeypatch, rng):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, law=PressureLaw.P1, amplitude=1.0)
        w = TestStepReduced().make_w(grid, rng, 0.2)
        free = solve(setting, PressureLaw.P1, w, IntegratorConfig(dt=1e-3, t_end=0.2))
        monitor = [max(d["norm1_h1"], d["norm2_l2"]) for d in free.diagnostics]
        rho = 0.5 * (monitor[0] + max(monitor))
        asked = self.record(monkeypatch, "_w2_phase")
        _w2_phase_table.cache_clear()
        cfg = IntegratorConfig(dt=7e-4, t_end=0.2, blowup_threshold=rho)
        crossing = solve(setting, PressureLaw.P1, w, cfg)
        assert crossing.terminal_status == "blowup"
        assert crossing.times[-1] > 4 * cfg.dt and len(asked) > 4
        assert _w2_phase_table.cache_info().misses == len(asked)
        assert _w2_phase_table.cache_info().currsize <= _W2_PHASE_CACHE_SIZE


def sample_diagnostics(first, second, report):
    """The diagnostics of one sample, field by field: the per-sample form
    that solve's batched pass replaced."""
    return {
        "norm1_h1": norm(first, "Hs", s=1),
        "norm2_l2": norm(second, "L2"),
        "energy": report.value,
        "mean_abs_1": abs(first.coeff(0)),
        "mean_abs_2": abs(second.coeff(0)),
    }


def physical_state(system, sample):
    """The physical State behind a stored sample of either solve path."""
    if isinstance(system, SystemSpec):
        return sample
    v = oscillate(State(sample.w1, sample.w2), sample.t, system.epsilon, "backward",
                  system.conjugated)
    return system.amplitude * from_normal_coords(system, v)


class TestSolveDiagnostics:
    """solve's one diagnostics pass over the stored samples, row by row
    against sample_diagnostics with energy of the physical state."""

    def check(self, system, law, traj):
        assert len(traj.diagnostics) == len(traj.states) == len(traj.times)
        for sample, got in zip(traj.states, traj.diagnostics):
            first, second = ((sample.u1, sample.u2) if isinstance(sample, State)
                             else (sample.w1, sample.w2))
            want = sample_diagnostics(first, second,
                                      energy(law, physical_state(system, sample)))
            assert list(got) == list(want)
            assert all(type(value) is float for value in got.values())
            # the norms come from norm's own kernel, bit for bit; the other
            # keys keep a tolerance (mean_abs_2 can differ in its last bit
            # through abs of a complex)
            assert [got["norm1_h1"], got["norm2_l2"]] == [want["norm1_h1"], want["norm2_l2"]]
            for key in ("energy", "mean_abs_1", "mean_abs_2"):
                assert got[key] == pytest.approx(want[key], rel=1e-13, abs=1e-17)

    @staticmethod
    def datum(grid, rng, reduced, scale=0.05):
        w1, w2 = (remove_mean(scale * random_field(grid, rng, band=(1, 3)))
                  for _ in range(2))
        return ReducedState(w1, w2, 0.01) if reduced else State(w1, w2)

    SYSTEMS = [
        (SystemSpec("regularized", 0.2, rescaled=True, amplitude=0.5), PressureLaw.P1),
        (SystemSpec("regularized", 0.2, rescaled=True, amplitude=0.5), PressureLaw.P2),
        (SystemSpec("modified", 0.2, rescaled=True, amplitude=0.2), PressureLaw.P0),
        (NormalFormSetting(0.2, law=PressureLaw.P1, amplitude=0.5), PressureLaw.P1),
        (NormalFormSetting(0.2, conjugated=True, amplitude=0.2), PressureLaw.P0),
    ]

    @pytest.mark.parametrize("system, law", SYSTEMS)
    def test_ragged_store_every(self, rng, system, law):
        # the datum, every 3rd of 23 whole steps, then the appended end
        # after a step of 4e-4
        grid = Grid(8)
        reduced = isinstance(system, NormalFormSetting)
        t0 = 0.01 if reduced else 0.0
        traj = solve(system, law, self.datum(grid, rng, reduced),
                     IntegratorConfig(dt=1e-3, t_end=t0 + 0.0234, store_every=3))
        assert traj.terminal_status == "completed"
        assert len(traj.states) == 9
        assert traj.times[-1] == pytest.approx(t0 + 0.0234)
        self.check(system, law, traj)

    def test_crossing_sample(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", 0.3, rescaled=False)
        datum = random_state(grid, rng, scale=0.02, band=(1, 2), real=True)
        cfg = IntegratorConfig(dt=5e-3, t_end=10.0, blowup_threshold=0.3, store_every=7)
        traj = solve(spec, PressureLaw.P0, datum, cfg)
        assert traj.terminal_status == "blowup"
        last = traj.diagnostics[-1]
        assert max(last["norm1_h1"], last["norm2_l2"]) > 0.3
        self.check(spec, PressureLaw.P0, traj)

    @pytest.mark.parametrize("system, law", SYSTEMS)
    def test_blowup_at_the_datum(self, rng, system, law):
        grid = Grid(8)
        reduced = isinstance(system, NormalFormSetting)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.1, blowup_threshold=1e-3)
        traj = solve(system, law, self.datum(grid, rng, reduced), cfg)
        assert traj.terminal_status == "blowup"
        assert len(traj.states) == 1
        assert traj.blowup_time == traj.times[0]
        self.check(system, law, traj)


def edge_problem(path, grid, rng):
    """(system, law, datum) for the full or the reduced solve path on `grid`:
    a small zero-mean datum on the lowest modes, zero when K = 0."""
    if grid.n_modes == 0:
        w1 = w2 = zeros(grid)
    else:
        band = (1, min(3, grid.n_modes))
        w1 = 0.05 * random_field(grid, rng, band=band)
        w2 = 0.05 * random_field(grid, rng, band=band)
    if path == "full":
        return SystemSpec("regularized", 0.2, rescaled=True), PressureLaw.P1, State(w1, w2)
    setting = NormalFormSetting(0.2, law=PressureLaw.P1, amplitude=1.0)
    return setting, PressureLaw.P1, ReducedState(w1, w2, 0.0)


@pytest.mark.parametrize("path", ["full", "reduced"])
class TestSolveEdges:
    """Pinned edge inputs of solve, for both the full and the reduced path."""

    def test_t_end_not_a_multiple_of_dt(self, rng, path):
        system, law, datum = edge_problem(path, Grid(8), rng)
        traj = solve(system, law, datum, IntegratorConfig(dt=1e-2, t_end=0.035))
        assert traj.terminal_status == "completed"
        assert traj.times[:-1] == pytest.approx([0.0, 0.01, 0.02, 0.03], abs=1e-15)
        assert traj.times[-1] == 0.035  # the short last step lands on t_end
        assert np.diff(traj.times)[-1] == pytest.approx(0.005)
        assert len(traj.states) == len(traj.diagnostics) == 5

    def test_store_every_beyond_the_step_count(self, rng, path):
        system, law, datum = edge_problem(path, Grid(8), rng)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.05, store_every=100)
        traj = solve(system, law, datum, cfg)
        assert traj.terminal_status == "completed"
        assert traj.times == [0.0, pytest.approx(0.05)]
        assert traj.states[0] is datum
        assert len(traj.states) == len(traj.diagnostics) == 2

    @pytest.mark.parametrize("n_modes", [0, 1])
    def test_degenerate_grids(self, rng, path, n_modes):
        grid = Grid(n_modes)
        system, law, datum = edge_problem(path, grid, rng)
        traj = solve(system, law, datum, IntegratorConfig(dt=1e-2, t_end=0.05))
        assert traj.terminal_status == "completed"
        assert traj.times[-1] == pytest.approx(0.05)
        for state in traj.states:
            for field in (state.u1, state.u2) if path == "full" else (state.w1, state.w2):
                assert np.all(np.isfinite(field.coeffs))
                assert abs(field.coeff(0)) < 1e-14
                if n_modes == 0:
                    assert norm(field, "L2") == 0.0
        assert all(np.isfinite(d["energy"]) for d in traj.diagnostics)


class TestMonitor:
    """The blow-up monitor, one dot-product sum per component, against the
    two np.linalg.norm calls it replaced, compared with ==."""

    @staticmethod
    def rows(grid, rng):
        """Random pairs of rows at several scales, rows holding nan or inf,
        and finite rows whose norm overflows to inf."""
        shape = (24, 2, grid.n_coeffs)
        scales = 10.0 ** rng.uniform(-8, 3, (24, 2, 1))
        pairs = list(scales * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), 1e200):
            for component in (0, 1):
                pair = pairs[0].copy()
                if value == 1e200:
                    pair[component] *= value
                else:
                    pair[component][grid.n_modes] = value
                pairs.append(pair)
        return pairs

    @pytest.mark.parametrize("n_modes", [0, 8, 32, 512])
    def test_equals_the_two_norm_calls(self, n_modes):
        grid = Grid(n_modes)
        weight = np.maximum(1.0, np.abs(grid.wavenumbers))
        monitor = _monitor(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            for first, second in self.rows(grid, np.random.default_rng(n_modes)):
                got = monitor(first, second)
                want = np.maximum(np.linalg.norm(weight * first), np.linalg.norm(second))
                assert got == want or (np.isnan(got) and np.isnan(want))


class TestSolveStatus:
    """The status of a full-system run whose steps, from the third on, return
    non-finite or overflowing coefficients, injected through the module
    global step_full that solve calls."""

    def run(self, monkeypatch, rng, spoil):
        grid = Grid(8)
        datum = random_state(grid, rng, scale=0.01)
        calls = []

        def spoiled_step(*args):
            state = step_full(*args)
            calls.append(args)
            return spoil(state) if len(calls) >= 3 else state

        monkeypatch.setattr(integrate, "step_full", spoiled_step)
        with np.errstate(over="ignore", invalid="ignore"):
            return solve(SystemSpec("regularized", 0.3, rescaled=True), PressureLaw.P0,
                         datum, IntegratorConfig(dt=1e-3, t_end=0.01))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("component", ["u1", "u2"])
    def test_non_finite_coefficient_diverges(self, monkeypatch, rng, component, value):
        # one bad coefficient in either component, whatever the other's norm
        def spoil(state):
            c = getattr(state, component).coeffs.copy()
            c[state.grid.index(2)] = value
            return replace(state, **{component: SpectralField(state.grid, c)})

        traj = self.run(monkeypatch, rng, spoil)
        assert traj.terminal_status == "diverged"
        assert traj.blowup_time is None
        assert traj.times == pytest.approx([0.0, 1e-3, 2e-3], abs=1e-15)
        assert len(traj.states) == len(traj.diagnostics) == 3

    def test_overflowing_norm_of_finite_coefficients_is_a_blowup(self, monkeypatch, rng):
        # coefficients near 1e198 are finite but their norm overflows; every
        # bisection probe from t = 2e-3 crosses, so the bracket halves nine
        # times, to 1e-3 / 512 <= 1e-3 (t + hi)
        traj = self.run(monkeypatch, rng, lambda state: 1e200 * state)
        assert traj.terminal_status == "blowup"
        assert np.all(np.isfinite(traj.states[-1].u2.coeffs))
        assert traj.blowup_time == pytest.approx(2e-3 + 0.5e-3 / 512, rel=1e-12)
        assert traj.times[-1] == pytest.approx(2e-3 + 1e-3 / 512, rel=1e-12)


class TestPicard:
    def test_zero_datum_converges_in_one_sweep(self):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        traj, report = picard_solve(
            zeros(grid), zeros(grid), PressureLaw.P0, setting, T=0.004, n_nodes=65
        )
        assert report.iterates == 1
        assert report.final_residual == 0.0
        assert report.converged
        assert len(traj) == 65
        assert all(norm(w.w1, "L2") == 0.0 for w in traj)

    def test_trajectory_is_a_read_only_sequence_of_states(self, rng):
        grid = Grid(8)
        setting = NormalFormSetting(0.25, law=PressureLaw.P1, amplitude=0.5)
        w1 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        w2 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        traj, _ = picard_solve(w1, w2, PressureLaw.P1, setting, T=0.005, n_nodes=9)
        assert isinstance(traj, Sequence)
        assert len(traj) == 9
        states = list(traj)
        assert len(states) == 9 and all(isinstance(w, ReducedState) for w in states)
        assert [w.t for w in states] == pytest.approx(np.linspace(0.0, 0.005, 9))
        assert np.array_equal(states[0].w1.coeffs, w1.coeffs)
        assert np.array_equal(states[0].w2.coeffs, w2.coeffs)

        def same(a, b):
            return (a.t == b.t and np.array_equal(a.w1.coeffs, b.w1.coeffs)
                    and np.array_equal(a.w2.coeffs, b.w2.coeffs))

        assert same(traj[-1], states[-1]) and same(traj[-9], states[0])
        for part in (slice(2, 5), slice(None, None, -4)):
            assert len(traj[part]) == len(states[part])
            assert all(map(same, traj[part], states[part]))
        for index in (9, -10):
            with pytest.raises(IndexError):
                traj[index]
        with pytest.raises(TypeError):
            traj[0] = states[1]

    def test_validates_inputs(self, rng):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        big = SpectralField(grid, np.zeros(grid.n_coeffs, dtype=complex))
        c = big.coeffs.copy()
        c[grid.index(1)] = 0.3  # H1 norm 0.3 >= 1/6
        with pytest.raises(ValueError, match="1/6"):
            picard_solve(
                SpectralField(grid, c), zeros(grid), PressureLaw.P0, setting, T=0.01
            )
        with pytest.raises(ValueError, match="law"):
            picard_solve(zeros(grid), zeros(grid), PressureLaw.P1, setting, T=0.01)
        with pytest.raises(ValueError, match="positive"):
            picard_solve(zeros(grid), zeros(grid), PressureLaw.P0, setting, T=0.0)
        with pytest.raises(ValueError, match=r"^max_iter must be an integer, got 2\.5$"):
            picard_solve(zeros(grid), zeros(grid), PressureLaw.P0, setting, T=0.01,
                         max_iter=2.5)
        with pytest.raises(ValueError, match=r"^n_nodes must be an integer, got 20\.5$"):
            picard_solve(zeros(grid), zeros(grid), PressureLaw.P0, setting, T=0.01,
                         n_nodes=20.5)

    @pytest.mark.parametrize("T,message", [
        (0.0, "T must be positive"),
        (float("-inf"), "T must be positive"),
        (float("nan"), "T must be finite, got nan"),
        (float("inf"), "T must be finite, got inf"),
    ])
    def test_horizon_positive_and_finite(self, T, message):
        grid = Grid(8)
        setting = NormalFormSetting(0.2, amplitude=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            picard_solve(zeros(grid), zeros(grid), PressureLaw.P0, setting, T=T)

    def test_contracts_and_matches_the_stepper(self, rng):
        # the fixed point on [0, 0.1 eps^2] must agree with the time stepper
        # at the final time within the stepper's own accuracy budget.
        grid = Grid(12)
        eps = 0.2
        setting = NormalFormSetting(eps, amplitude=1.0)
        w1 = remove_mean(0.01 * random_field(grid, rng, band=(1, 3)))
        w2 = remove_mean(0.01 * random_field(grid, rng, band=(1, 3)))
        T = 0.1 * eps * eps
        traj, report = picard_solve(
            w1, w2, PressureLaw.P0, setting, T=T, n_nodes=257
        )
        assert report.converged
        assert report.final_residual < 1e-10
        assert all(r < 1.0 for r in report.contraction_ratios[:-1])

        dt = T / 64.0
        w = ReducedState(w1, w2, 0.0)
        for _ in range(64):
            w = step_reduced(setting, w, dt)
        final = traj[-1]
        err = max(
            norm(final.w1 - w.w1, "Hs", s=1), norm(final.w2 - w.w2, "L2")
        )
        assert err < max(5.0 * dt, 1e-7)
        assert final.t == pytest.approx(T)

    @pytest.mark.parametrize(
        "seed, law, conjugated, epsilon, amplitude, residual, ratios",
        [
            # `wavereg picard --system modified --epsilon 0.2 --seed 3`
            (3, PressureLaw.P0, True, 0.2, 0.2, 1.4066810458009618e-11,
             [0.002275165112213268, 0.00013110902379367942, 0.0010495258457683392]),
            # `wavereg picard --pressure p1 --epsilon 0.2 --alpha 0.5 --seed 5`
            (5, PressureLaw.P1, False, 0.2, 0.2**0.5, 1.1035060733168153e-11,
             [0.0024181976912776675, 8.935512036252069e-05, 0.0011393249342093168]),
        ],
    )
    def test_pinned_cli_runs(self, seed, law, conjugated, epsilon, amplitude,
                             residual, ratios):
        # values recorded from the per-node object-level evaluation; the
        # batched kernel sums in another order, so they agree to 2e-3
        setting = NormalFormSetting(epsilon, conjugated, law, amplitude)
        datum = DatumSpec(seed, 0.12, law, (1, 8), conjugated)
        v0 = to_normal_coords(setting, make_datum(Grid(16), datum))
        traj, report = picard_solve(
            v0.u1, v0.u2, law, setting, 0.1 * epsilon**2, n_nodes=257
        )
        assert report.iterates == 4
        assert report.final_residual == pytest.approx(residual, rel=2e-3)
        assert report.contraction_ratios == pytest.approx(ratios, rel=2e-3)
        assert len(traj) == 257

    @pytest.mark.parametrize("n_nodes", [64, 65])
    @pytest.mark.parametrize(
        "law, conjugated", [(PressureLaw.P0, True), (PressureLaw.P2, False)])
    def test_equals_a_loop_over_the_public_rules(self, rng, n_nodes, law, conjugated):
        # the loop as it read before the rules were built once per solve:
        # every iterate calls the public Simpson functions
        grid = Grid(8)
        setting = NormalFormSetting(0.25, conjugated, law, amplitude=0.5)
        w1 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        w2 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        T = 0.005
        traj, report = picard_solve(w1, w2, law, setting, T=T, n_nodes=n_nodes)

        k = grid.wavenumbers.astype(float)
        _, cd = setting.coefficients
        times = np.linspace(0.0, T, n_nodes)
        dx = times[1] - times[0]
        forward = np.exp(1j * cd * (k * k)[None, :] * times[:, None])
        a1, a2 = np.tile(w1.coeffs, (n_nodes, 1)), np.tile(w2.coeffs, (n_nodes, 1))
        diffs = []
        while not diffs or diffs[-1] >= 1e-10:
            g1, n2 = _reduced_forcing(setting, grid, a1, a2, times)
            b1 = w1.coeffs[None, :] + cumulative_simpson_uniform(g1, dx)
            b2 = forward * (w2.coeffs[None, :]
                            + cumulative_weighted_simpson(n2, -cd * k * k, dx))
            # one np.linalg.norm per node, whose bits spectral._norms gives
            d1 = [np.linalg.norm(np.maximum(1.0, np.abs(k)) * row) for row in b1 - a1]
            d2 = [np.linalg.norm(row) for row in b2 - a2]
            diffs.append(float(np.max(np.maximum(d1, d2))))
            a1, a2 = b1, b2
        assert len(diffs) > 2
        assert report.iterates == len(diffs)
        assert report.final_residual == diffs[-1]
        assert report.contraction_ratios == [b / a for a, b in zip(diffs, diffs[1:])]
        for j, w in enumerate(traj):
            assert np.array_equal(w.w1.coeffs, a1[j])
            assert np.array_equal(w.w2.coeffs, a2[j])

    def test_contraction_ratios_shrink_the_residual(self, rng):
        grid = Grid(8)
        eps = 0.25
        setting = NormalFormSetting(eps, law=PressureLaw.P1, amplitude=0.5)
        w1 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        w2 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        traj, report = picard_solve(
            w1, w2, PressureLaw.P1, setting, T=0.005, n_nodes=65
        )
        assert report.converged
        # every recorded ratio before convergence is a genuine contraction
        assert all(r < 1.0 for r in report.contraction_ratios[:-1])

    def test_stops_at_max_iter(self, rng):
        # one iterate has no ratio; two have one, the ratio of their
        # distances, which a longer run reports first
        grid = Grid(8)
        setting = NormalFormSetting(0.25, law=PressureLaw.P1, amplitude=0.5)
        w1 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        w2 = remove_mean(0.04 * random_field(grid, rng, band=(1, 2)))
        first, second, full = (
            picard_solve(w1, w2, PressureLaw.P1, setting, T=0.005, n_nodes=65,
                         max_iter=max_iter)[1] for max_iter in (1, 2, 50))
        assert (first.iterates, first.contraction_ratios) == (1, [])
        assert second.iterates == 2
        assert second.contraction_ratios == [second.final_residual / first.final_residual]
        assert second.contraction_ratios[0] < 1.0
        assert full.iterates > 2 and full.converged
        assert full.contraction_ratios[0] == second.contraction_ratios[0]

    def test_gives_up_when_the_map_does_not_contract(self, rng):
        # far beyond the contraction window the sweeps feed on themselves;
        # the solver must stop after three non-contracting ratios instead of
        # burning max_iter.  The resonant law keeps the cubic integral from
        # averaging out, so growth per sweep is guaranteed at this horizon.
        grid = Grid(6)
        setting = NormalFormSetting(0.5, law=PressureLaw.P1, amplitude=1.0)
        w1 = remove_mean(0.03 * random_field(grid, rng, band=(1, 2)))
        w2 = remove_mean(0.03 * random_field(grid, rng, band=(1, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            traj, report = picard_solve(
                w1, w2, PressureLaw.P1, setting, T=50.0, n_nodes=33, max_iter=30
            )
        assert not report.converged
        assert report.iterates < 30
        assert len(report.contraction_ratios) >= 3
        assert all(r >= 1.0 for r in report.contraction_ratios[-3:])
