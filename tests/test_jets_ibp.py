"""Tests for the integration-by-parts tower.

The brute-force oracle for the tower maps avoids jets entirely: every f_n is
a polynomial in the field, so f_{n+1}(u) = f_n'(u)[f(u)] can be evaluated by
sampling f_n(u + s f(u)) at enough scalar values of s and differentiating
the interpolating polynomial at s = 0 exactly.  Agreement between that
recursion and the jet formula is the module's load-bearing check.  The
literal ordered-triple sum of `multiply` products, which JetSequence runs on
construction, is the second oracle: the array recurrence _jets behind every
tower map is held to it on truncating grids up to the depth cap, and its
stacked form to row-by-row calls.  implicit_residual is held to its
per-sample form (loop_implicit_residual), and every evaluator rejects fields
on different grids.  The residual evaluators are then cross-validated
against trajectories produced by the independent time stepper.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavereg.integrate import IntegratorConfig, solve
from wavereg.jets_ibp import (
    BoundReport,
    IbpCoefficients,
    P_n_eval,
    _jets,
    bold_R_n,
    choose_n,
    f_n,
    f_n_directional,
    ibp_once_p2,
    implicit_residual,
    verify_fn_bound,
)
from wavereg.model import PressureLaw
from wavereg.normalform import NormalFormSetting, ReducedState
from wavereg.quadrature import simpson_uniform
from wavereg.spectral import (
    Grid,
    SpectralField,
    multiply,
    norm,
    random_field,
    remove_mean,
    zeros,
)

from oracles import JetSequence, ode_jet, reduced_rhs


def single_mode(grid, k, c=1.0):
    coeffs = np.zeros(grid.n_coeffs, dtype=complex)
    coeffs[grid.index(k)] = c
    return SpectralField(grid, coeffs)


def cubic_f(u):
    return remove_mean(multiply([u, u, u]))


def fn_polynomial_oracle(u, n):
    """Literal recursion f_{k+1} = f_k'[f], with the directional derivative
    taken by exact polynomial interpolation in a scalar parameter.  The
    direction is normalized and the sampling radius kept small so the nested
    shifts never inflate the magnitudes the fit has to cancel."""
    if n == 0:
        return cubic_f(u)
    direction = cubic_f(u)
    size = norm(direction, "L2")
    if size == 0.0:
        return zeros(u.grid)
    unit = direction * (1.0 / size)
    degree = 2 * (n - 1) + 3  # f_{n-1} is homogeneous of this degree
    radius = 0.3
    nodes = radius * np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    samples = np.stack(
        [fn_polynomial_oracle(u + s * unit, n - 1).coeffs for s in nodes]
    )
    # coefficient of s^1 of the exact interpolating polynomial, per mode
    fit = np.polynomial.polynomial.polyfit(nodes, samples, degree)
    return SpectralField(u.grid, size * fit[1])


class TestOdeJet:
    def test_zero_base_gives_zero_jets(self):
        grid = Grid(8)
        jet = ode_jet(zeros(grid), 5)
        assert jet.depth == 5
        for c in jet.coeffs:
            assert norm(c, "L2") == 0.0

    def test_single_mode_worked_values(self):
        grid = Grid(8)
        u = single_mode(grid, 1)
        jet = ode_jet(u, 3)
        assert abs(jet.coeffs[1].coeff(3) - 1.0) < 1e-14
        assert abs(jet.coeffs[2].coeff(5) - 1.5) < 1e-14
        assert abs(jet.coeffs[3].coeff(7) - 2.5) < 1e-14
        # nothing off the expected single modes
        for j, k in ((1, 3), (2, 5), (3, 7)):
            c = jet.coeffs[j].coeffs.copy()
            c[grid.index(k)] = 0.0
            assert np.max(np.abs(c)) < 1e-14

    def test_recurrence_invariant_on_random_fields(self, rng):
        grid = Grid(16)
        u = 0.4 * random_field(grid, rng, band=(1, 3))
        jet = ode_jet(u, 5)  # construction re-verifies each level to 1e-12
        # spot-check one level by hand with the literal ordered sum
        j = 3
        total = zeros(grid)
        for a in range(j + 1):
            for b in range(j + 1 - a):
                c = j - a - b
                total = total + multiply(
                    [jet.coeffs[a], jet.coeffs[b], jet.coeffs[c]]
                )
        lhs = (j + 1) * jet.coeffs[j + 1]
        assert norm(lhs - remove_mean(total), "L2") < 1e-12 * max(
            1.0, norm(remove_mean(total), "L2")
        )

    def test_depth_cap(self):
        grid = Grid(4)
        with pytest.raises(ValueError, match="^depth must be at most 16, got 17$"):
            ode_jet(zeros(grid), 17)

    def test_tampered_sequence_is_rejected(self, rng):
        grid = Grid(8)
        u = 0.3 * random_field(grid, rng, band=(1, 2))
        jet = ode_jet(u, 2)
        bad = list(jet.coeffs)
        bad[2] = bad[2] + single_mode(grid, 1, 0.1)
        with pytest.raises(ValueError, match="recurrence"):
            JetSequence(base=u, coeffs=bad)


class TestArrayJets:
    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from([Grid(8), Grid(8, n_points=17), Grid(8, n_points=61)]),
        amplitude=st.floats(0.05, 0.5),
        n=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(grid=Grid(8, n_points=17), amplitude=0.5, n=15, seed=0)
    @example(grid=Grid(8, n_points=61), amplitude=0.05, n=15, seed=1)
    def test_tower_map_is_the_checked_jet_level(self, grid, amplitude, n, seed):
        # ode_jet(u, n + 1) re-forms every level through the literal
        # ordered-triple sum of `multiply` products on construction; on the
        # 17- and 61-point grids both paths truncate every product
        u = amplitude * random_field(grid, np.random.default_rng(seed), band=(1, 3))
        want = (math.factorial(n) * (n + 1)) * ode_jet(u, n + 1).coeffs[n + 1]
        got = f_n(u, n)
        assert norm(got - want, "L2") <= 1e-14 * norm(want, "L2")

    @pytest.mark.parametrize(
        "grid", [Grid(0), Grid(8), Grid(8, n_points=17), Grid(8, n_points=61)]
    )
    def test_stacked_rows_equal_row_by_row_calls(self, rng, grid):
        u, v = 0.3 * (rng.standard_normal((2, 2, 3, grid.n_coeffs))
                      + 1j * rng.standard_normal((2, 2, 3, grid.n_coeffs)))
        jet = _jets(grid, u, 5)
        with_tangent, tangent = _jets(grid, u, 5, v)
        assert jet.shape == tangent.shape == (6, 2, 3, grid.n_coeffs)
        assert np.array_equal(with_tangent, jet)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(jet[:, i, j], _jets(grid, u[i, j], 5))
            assert np.array_equal(tangent[:, i, j], _jets(grid, u[i, j], 5, v[i, j])[1])


class TestTowerMaps:
    def test_worked_single_mode_values(self):
        grid = Grid(8)
        u = single_mode(grid, 1)
        assert abs(f_n(u, 0).coeff(3) - 1.0) < 1e-13
        assert abs(f_n(u, 1).coeff(5) - 3.0) < 1e-13
        assert abs(f_n(u, 2).coeff(7) - 15.0) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jets_match_the_literal_recursion(self, rng, n):
        # the oracle's nested shifts u + s f(u + s' f(...)) triple the band
        # at every level, so exactness needs |k| <= 2 * 3^{n+1}; on a grid
        # that large neither path ever truncates and the two must agree to
        # rounding.  On the small grids both paths truncate every product to
        # |k| <= 8 the same way: the tower of the band-limited flow.  The
        # tangent jet gives the same map as f_{n-1}'(u)[f(u)].
        for grid in (Grid(2 * 3 ** (n + 1)), Grid(8, n_points=61), Grid(8, n_points=17)):
            u = 0.1 * random_field(grid, rng, band=(1, 2))
            via_jets = f_n(u, n)
            via_recursion = fn_polynomial_oracle(u, n)
            via_tangent = f_n_directional(u, n - 1, cubic_f(u))
            assert norm(via_jets - via_recursion, "L2") < 1e-10
            assert norm(via_tangent - via_recursion, "L2") < 1e-10

    def test_first_directional_derivative_formula(self, rng):
        for grid in (Grid(12), Grid(8, n_points=61), Grid(8, n_points=17)):
            u = 0.5 * random_field(grid, rng, band=(1, 3))
            v = 0.5 * random_field(grid, rng, band=(1, 3))
            got = f_n_directional(u, 0, v)
            expected = remove_mean(3.0 * multiply([u, u, v]))
            assert norm(got - expected, "L2") < 1e-12

    def test_directional_worked_single_mode(self):
        grid = Grid(8)
        got = f_n_directional(single_mode(grid, 1), 1, single_mode(grid, 3))
        assert abs(got.coeff(7) - 15.0) < 1e-13
        c = got.coeffs.copy()
        c[grid.index(7)] = 0.0
        assert np.max(np.abs(c)) < 1e-13

    @pytest.mark.parametrize("other", [Grid(8, n_points=61), Grid(6)])
    def test_directional_rejects_a_direction_on_another_grid(self, rng, other):
        u = 0.3 * random_field(Grid(8), rng, band=(1, 2))
        with pytest.raises(ValueError, match="different grids"):
            f_n_directional(u, 1, 0.3 * random_field(other, rng, band=(1, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_central_differences_converge_at_second_order(self, rng, n):
        grid = Grid(24)
        u = 0.3 * random_field(grid, rng, band=(1, 2))
        v = 0.3 * random_field(grid, rng, band=(1, 2))
        exact = f_n_directional(u, n, v)
        errs = []
        for h in (1e-2, 5e-3):
            fd = (f_n(u + h * v, n) - f_n(u - h * v, n)) * (1.0 / (2.0 * h))
            errs.append(norm(fd - exact, "L2"))
        slope = np.log2(errs[0] / errs[1])
        assert 1.7 <= slope <= 2.3

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_euler_homogeneity(self, rng, n):
        # f_n is homogeneous of degree 2n+3, so f_n'(u)[u] = (2n+3) f_n(u).
        grid = Grid(32)
        u = 0.3 * random_field(grid, rng, band=(1, 2))
        lhs = f_n_directional(u, n, u)
        rhs = (2 * n + 3) * f_n(u, n)
        assert norm(lhs - rhs, "L2") < 1e-11 * max(1.0, norm(rhs, "L2"))


class TestIbpCoefficients:
    def test_validation(self):
        with pytest.raises(ValueError):
            IbpCoefficients(n=0, lam=0.5, epsilon=0.1, c_embed=2.0)
        with pytest.raises(ValueError):
            IbpCoefficients(n=1, lam=-0.5, epsilon=0.1, c_embed=2.0)
        with pytest.raises(ValueError):
            IbpCoefficients(n=1, lam=0.5, epsilon=1.5, c_embed=2.0)
        with pytest.raises(ValueError):
            IbpCoefficients(n=1, lam=0.5, epsilon=0.1, c_embed=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["lam", "epsilon", "c_embed"])
    def test_rejects_non_finite(self, key, bad):
        good = {"n": 1, "lam": 0.5, "epsilon": 0.1, "c_embed": 2.0}
        with pytest.raises(ValueError, match=key):
            IbpCoefficients(**{**good, key: bad})

    def test_rejects_nan_amplitude_with_infinite_constant(self):
        with pytest.raises(ValueError, match="^lam must be finite, got nan$"):
            IbpCoefficients(n=1, lam=float("nan"), epsilon=0.1, c_embed=float("inf"))

    def test_messages_for_values_out_of_range(self):
        with pytest.raises(ValueError, match="^lam must be finite, got -inf$"):
            IbpCoefficients(n=1, lam=float("-inf"), epsilon=0.1, c_embed=2.0)
        with pytest.raises(ValueError, match="^c_embed must be finite, got -inf$"):
            IbpCoefficients(n=1, lam=0.5, epsilon=0.1, c_embed=float("-inf"))
        with pytest.raises(ValueError, match="^c_embed must be finite, got inf$"):
            IbpCoefficients(n=1, lam=0.5, epsilon=0.1, c_embed=float("inf"))

    def test_denominators_closed_form(self):
        coeffs = IbpCoefficients(n=3, lam=0.5, epsilon=0.1, c_embed=2.0)
        for k in range(5):
            product = 1.0 + 0.0j
            for j in range(1, k + 2):
                product *= 2.0j * j
            assert coeffs.denominator(k) == product

    def test_mu_phase(self):
        coeffs = IbpCoefficients(n=1, lam=0.3, epsilon=0.2, c_embed=2.0)
        assert coeffs.mu(0.0) == pytest.approx(-1j * 0.09)
        t = np.pi * 0.2 / 2.0  # makes the phase exp(2it/eps) = -1
        assert coeffs.mu(t) == pytest.approx(1j * 0.09)


class TestPnEval:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_telescopes_at_time_zero(self, rng, n):
        grid = Grid(10)
        w = remove_mean(0.3 * random_field(grid, rng, band=(1, 2)))
        coeffs = IbpCoefficients(n=n, lam=0.4, epsilon=0.2, c_embed=2.0)
        out = P_n_eval(w, w, 0.0, coeffs)
        assert norm(out - w, "L2") < 1e-15

    def test_single_mode_worked_value(self):
        grid = Grid(8)
        w = single_mode(grid, 1)
        lam, eps = 0.37, 0.2
        coeffs = IbpCoefficients(n=1, lam=lam, epsilon=eps, c_embed=2.0)
        t = np.pi * eps / 2.0  # phase -1
        out = P_n_eval(w, w, t, coeffs)
        assert abs(out.coeff(1) - 1.0) < 1e-14
        assert abs(out.coeff(3) - lam**2) < 1e-14
        c = out.coeffs.copy()
        c[grid.index(1)] = 0.0
        c[grid.index(3)] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    def test_zero_amplitude_returns_the_datum(self, rng):
        grid = Grid(8)
        w_t = remove_mean(0.3 * random_field(grid, rng, band=(1, 2)))
        w_0 = remove_mean(0.3 * random_field(grid, rng, band=(1, 2)))
        for n in (1, 3):
            coeffs = IbpCoefficients(n=n, lam=0.0, epsilon=0.2, c_embed=2.0)
            out = P_n_eval(w_t, w_0, 0.7, coeffs)
            assert norm(out - w_0, "L2") == 0.0

    @pytest.mark.parametrize("grid", [Grid(8), Grid(8, n_points=17)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_the_sum_over_each_end(self, rng, grid, n):
        # distinct end fields at a nonzero phase, each end's f_k on its own
        w_t, w_0 = (0.3 * random_field(grid, rng, band=(1, 3)) for _ in range(2))
        coeffs = IbpCoefficients(n=n, lam=0.4, epsilon=0.2, c_embed=2.0)
        mu_t, mu_0 = coeffs.mu(0.7), coeffs.mu(0.0)
        want = w_0
        for k in range(n):
            want = want + ((-1.0) ** k / coeffs.denominator(k)) * (
                mu_t ** (k + 1) * f_n(w_t, k) - mu_0 ** (k + 1) * f_n(w_0, k)
            )
        got = P_n_eval(w_t, w_0, 0.7, coeffs)
        assert norm(got - want, "L2") <= 1e-14 * norm(want, "L2")

    @pytest.mark.parametrize("other", [Grid(8, n_points=61), Grid(6)])
    def test_rejects_end_fields_on_different_grids(self, rng, other):
        w_t = 0.3 * random_field(Grid(8), rng, band=(1, 2))
        w_0 = 0.3 * random_field(other, rng, band=(1, 2))
        coeffs = IbpCoefficients(n=2, lam=0.4, epsilon=0.2, c_embed=2.0)
        with pytest.raises(ValueError, match="different grids"):
            P_n_eval(w_t, w_0, 0.7, coeffs)


class TestBoldRn:
    def test_zero_remainder_maps_to_zero(self, rng):
        grid = Grid(8)
        w = 0.3 * random_field(grid, rng, band=(1, 2))
        coeffs = IbpCoefficients(n=2, lam=0.4, epsilon=0.2, c_embed=2.0)
        out = bold_R_n(w, zeros(grid), 0.3, coeffs)
        assert norm(out, "L2") == 0.0

    def test_zero_amplitude_is_the_identity(self, rng):
        grid = Grid(8)
        w = 0.3 * random_field(grid, rng, band=(1, 2))
        r = 0.2 * random_field(grid, rng, band=(1, 3))
        coeffs = IbpCoefficients(n=3, lam=0.0, epsilon=0.2, c_embed=2.0)
        out = bold_R_n(w, r, 0.3, coeffs)
        assert norm(out - r, "L2") == 0.0

    def test_first_order_expansion(self, rng):
        grid = Grid(10)
        w = 0.3 * random_field(grid, rng, band=(1, 2))
        r = 0.2 * random_field(grid, rng, band=(1, 3))
        coeffs = IbpCoefficients(n=1, lam=0.4, epsilon=0.2, c_embed=2.0)
        t = 0.37
        got = bold_R_n(w, r, t, coeffs)
        mu = coeffs.mu(t)
        expected = r - (mu / 2.0j) * remove_mean(3.0 * multiply([w, w, r]))
        assert norm(got - expected, "L2") < 1e-12

    @pytest.mark.parametrize("other", [Grid(8, n_points=61), Grid(6)])
    def test_rejects_a_remainder_on_another_grid(self, rng, other):
        w = 0.3 * random_field(Grid(8), rng, band=(1, 2))
        r = 0.2 * random_field(other, rng, band=(1, 2))
        coeffs = IbpCoefficients(n=2, lam=0.4, epsilon=0.2, c_embed=2.0)
        with pytest.raises(ValueError, match="different grids"):
            bold_R_n(w, r, 0.3, coeffs)


def reduced_p0_trajectory(rng, eps, lam, dt, n_steps, grid_size=10):
    """Sampled w1 trajectory of the slow component with its R1 samples,
    produced by the reference stepper on the first-law reduced system."""
    grid = Grid(grid_size)
    setting = NormalFormSetting(eps, law=PressureLaw.P0, amplitude=lam)
    w1 = remove_mean(0.05 * random_field(grid, rng, band=(1, 3)))
    w2 = remove_mean(0.05 * random_field(grid, rng, band=(1, 3)))
    datum = ReducedState(w1, w2, 0.0)
    cfg = IntegratorConfig(dt=dt, t_end=n_steps * dt)
    traj = solve(setting, PressureLaw.P0, datum, cfg)
    assert traj.terminal_status == "completed"
    times = np.array(traj.times)
    w1_samples = [w.w1 for w in traj.states]
    r1_samples = []
    for w in traj.states:
        mu_over_eps = -1j * lam**2 / eps * np.exp(2.0j * w.t / eps)
        cubic = remove_mean(multiply([w.w1, w.w1, w.w1]))
        r1_samples.append(reduced_rhs(setting, w).u1 - complex(mu_over_eps) * cubic)
    return times, w1_samples, r1_samples


def loop_implicit_residual(times, w1_samples, r1_samples, coeffs):
    """implicit_residual with its f_n and bold_R_n rows formed one sample at
    a time through the public maps; the reference for the blocked form."""
    dx = times[1] - times[0]
    n, eps = coeffs.n, coeffs.epsilon
    fn_rows = np.stack(
        [coeffs.mu(t) ** (n + 1) * f_n(w, n).coeffs for t, w in zip(times, w1_samples)]
    )
    rn_rows = np.stack(
        [bold_R_n(w, r, t, coeffs).coeffs
         for t, w, r in zip(times, w1_samples, r1_samples)]
    )
    prefactor = (-1.0) ** n / (eps * (2.0j) ** n * math.factorial(n))
    grid = w1_samples[0].grid
    defect = (
        w1_samples[-1]
        - P_n_eval(w1_samples[-1], w1_samples[0], float(times[-1]), coeffs)
        - SpectralField(grid, prefactor * simpson_uniform(fn_rows, dx))
        - SpectralField(grid, simpson_uniform(rn_rows, dx))
    )
    return norm(defect, "Hs", s=1)


def full_band_samples(rng, grid, count):
    return [SpectralField(grid, 0.3 * (rng.standard_normal(grid.n_coeffs)
                                       + 1j * rng.standard_normal(grid.n_coeffs)))
            for _ in range(count)]


class TestImplicitResidual:
    # blocks of 1024 // n_padded samples: 30 on Grid(8) and Grid(8, n_points=17),
    # 16 on Grid(8, n_points=61), 6 on Grid(40)
    @pytest.mark.parametrize(
        "grid, count",
        [(Grid(0), 5), (Grid(8), 61), (Grid(8, n_points=17), 31),
         (Grid(8, n_points=61), 33), (Grid(40), 13)],
    )
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_the_per_sample_form(self, rng, grid, count, n):
        # full-band samples with nonzero means, so every projection and
        # every phase shows in the defect
        times = np.linspace(0.0, 0.3, count)
        w, r = full_band_samples(rng, grid, count), full_band_samples(rng, grid, count)
        coeffs = IbpCoefficients(n=n, lam=0.4, epsilon=0.2, c_embed=2.0)
        got = implicit_residual(times, w, r, coeffs)
        want = loop_implicit_residual(times, w, r, coeffs)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("which", ["w1", "r1"])
    @pytest.mark.parametrize("index", [0, 3, 34])
    @pytest.mark.parametrize("other", [Grid(8, n_points=61), Grid(6)])
    def test_rejects_a_sample_on_another_grid(self, rng, which, index, other):
        # 35 samples on Grid(8) span two blocks; one sample elsewhere
        times = np.linspace(0.0, 0.1, 35)
        samples = {"w1": full_band_samples(rng, Grid(8), 35),
                   "r1": full_band_samples(rng, Grid(8), 35)}
        samples[which][index] = full_band_samples(rng, other, 1)[0]
        coeffs = IbpCoefficients(n=1, lam=0.4, epsilon=0.2, c_embed=2.0)
        with pytest.raises(ValueError, match="different grids"):
            implicit_residual(times, samples["w1"], samples["r1"], coeffs)

    def test_zero_amplitude_synthetic_trajectory(self):
        # with lam = 0 the representation degenerates to
        # w1(t) = w1(0) + int R1, checked on an analytic trajectory.
        grid = Grid(6)
        g = single_mode(grid, 2, 0.3 + 0.1j)
        times = np.linspace(0.0, 0.5, 201)
        w1_samples = [single_mode(grid, 1) + np.sin(t) * g for t in times]
        r1_samples = [np.cos(t) * g for t in times]
        coeffs = IbpCoefficients(n=2, lam=0.0, epsilon=0.2, c_embed=2.0)
        assert implicit_residual(times, w1_samples, r1_samples, coeffs) < 1e-8

    @pytest.mark.parametrize("n", [1, 2])
    def test_cross_validates_against_the_stepper(self, rng, n):
        eps, lam, dt = 0.2, 0.3, 0.004
        times, w1_samples, r1_samples = reduced_p0_trajectory(
            rng, eps, lam, dt, n_steps=20
        )
        coeffs = IbpCoefficients(n=n, lam=lam, epsilon=eps, c_embed=2.0)
        residual = implicit_residual(times, w1_samples, r1_samples, coeffs)
        assert residual < 5.0 * dt + 1e-8

    def test_rejects_insufficient_sampling(self):
        grid = Grid(4)
        coeffs = IbpCoefficients(n=1, lam=0.1, epsilon=0.2, c_embed=2.0)
        w = [zeros(grid)] * 2
        with pytest.raises(ValueError, match="^n_samples must be at least 3, got 2$"):
            implicit_residual([0.0, 0.1], w, w, coeffs)
        w = [zeros(grid)] * 3
        with pytest.raises(ValueError, match="insufficient"):
            implicit_residual([0.0, 0.1, 0.3], w, w, coeffs)


def reduced_p2_trajectory(rng, eps, alpha, dt, n_steps, grid_size=10, scale=0.05, pair=None):
    grid = Grid(grid_size)
    lam = eps**alpha
    setting = NormalFormSetting(eps, law=PressureLaw.P2, amplitude=lam)
    if pair is None:
        w1 = remove_mean(scale * random_field(grid, rng, band=(1, 3)))
        w2 = remove_mean(scale * random_field(grid, rng, band=(1, 3)))
    else:
        w1, w2 = pair
    datum = ReducedState(w1, w2, 0.0)
    cfg = IntegratorConfig(dt=dt, t_end=n_steps * dt)
    traj = solve(setting, PressureLaw.P2, datum, cfg)
    assert traj.terminal_status == "completed"
    times = np.array(traj.times)
    w1_samples = [w.w1 for w in traj.states]
    r1_samples = []
    for w in traj.states:
        mu2 = -1j * lam**2 / eps * np.exp(-4.0j * w.t / eps)
        cw = w.w1
        cubic = remove_mean(
            multiply(
                [
                    SpectralField(grid, np.conj(cw.coeffs[::-1])),
                    SpectralField(grid, np.conj(cw.coeffs[::-1])),
                    SpectralField(grid, np.conj(cw.coeffs[::-1])),
                ]
            )
        )
        r1_samples.append(reduced_rhs(setting, w).u1 - complex(mu2) * cubic)
    return times, w1_samples, r1_samples


def loop_ibp_once_p2(times, w1_samples, r1_samples, alpha, epsilon):
    """ibp_once_p2 as the per-sample loop of field products assembled it
    before the batched form; the reference the batch is compared against."""
    dx = times[1] - times[0]
    lam = epsilon**alpha
    grid = w1_samples[0].grid

    def bar(f):
        return SpectralField(grid, np.conj(f.coeffs[::-1]))

    def boundary_cube(w):
        return remove_mean(multiply([bar(w), bar(w), bar(w)]))

    phase_T = complex(np.exp(-4.0j * times[-1] / epsilon))
    rep = w1_samples[0] + (lam**2 / 4.0) * (
        phase_T * boundary_cube(w1_samples[-1]) - boundary_cube(w1_samples[0])
    )
    resonant, forcing = [], []
    for t, w, r in zip(times, w1_samples, r1_samples):
        cube = remove_mean(multiply([w, w, w]))
        resonant.append(remove_mean(multiply([bar(w), bar(w), cube])).coeffs)
        phase = complex(np.exp(-4.0j * t / epsilon))
        forcing.append(phase * remove_mean(multiply([bar(w), bar(w), bar(r)])).coeffs)
    rep = rep + SpectralField(
        grid,
        (-3.0j * lam**4 / (4.0 * epsilon)) * simpson_uniform(np.stack(resonant), dx)
        + (-3.0 * lam**2 / 4.0) * simpson_uniform(np.stack(forcing), dx)
        + simpson_uniform(np.stack([r.coeffs for r in r1_samples]), dx),
    )
    return norm(w1_samples[-1] - rep, "Hs", s=1)


class TestIbpOnceP2:
    @pytest.mark.parametrize(
        "grid", [Grid(0), Grid(6), Grid(8, n_points=17), Grid(8, n_points=61),
                 Grid(8, n_points=300)]
    )
    def test_matches_the_per_sample_loop(self, rng, grid):
        # full-band samples with nonzero means and alpha = 0, so every
        # projection, conjugate and prefactor shows in the defect; on 300
        # points the 7 samples span blocks of 1024 // 300 = 3
        times = np.linspace(0.0, 0.1, 7)
        w, r = (
            [SpectralField(grid, rng.standard_normal(grid.n_coeffs)
                           + 1j * rng.standard_normal(grid.n_coeffs))
             for _ in times]
            for _ in range(2)
        )
        got = ibp_once_p2(times, w, r, 0.0, 0.05)
        want = loop_ibp_once_p2(times, w, r, 0.0, 0.05)
        assert abs(got - want) <= 1e-12 * want

    def test_zero_datum_vanishes(self):
        grid = Grid(6)
        times = np.linspace(0.0, 0.1, 11)
        zs = [zeros(grid)] * 11
        assert ibp_once_p2(times, zs, zs, 0.25, 0.05) == 0.0

    @pytest.mark.parametrize("which", ["w1", "r1"])
    @pytest.mark.parametrize("index", [0, 2, -1])
    @pytest.mark.parametrize("other", [Grid(8, n_points=61), Grid(6)])
    def test_rejects_a_sample_on_another_grid(self, rng, which, index, other):
        times = np.linspace(0.0, 0.1, 5)
        samples = {"w1": full_band_samples(rng, Grid(8), 5),
                   "r1": full_band_samples(rng, Grid(8), 5)}
        samples[which][index] = full_band_samples(rng, other, 1)[0]
        with pytest.raises(ValueError, match="different grids"):
            ibp_once_p2(times, samples["w1"], samples["r1"], 0.25, 0.05)

    def test_cross_validates_against_the_stepper(self, rng):
        eps, alpha, dt = 0.05, 0.25, 0.002
        times, w1_samples, r1_samples = reduced_p2_trajectory(
            rng, eps, alpha, dt, n_steps=40
        )
        residual = ibp_once_p2(times, w1_samples, r1_samples, alpha, eps)
        assert residual < 5.0 * dt + 1e-8

    def test_boundary_amplitude_scales_like_the_squared_datum(self, rng):
        # the boundary term carries the prefactor eps^{2 alpha}; with final
        # times chosen so both runs see the same phase, the measured
        # boundary norms of runs at eps and eps/2 differ by 2^{2 alpha}
        # up to the cubic drift of the short trajectories.
        alpha = 0.25
        grid = Grid(10)
        w1 = remove_mean(0.04 * random_field(grid, rng, band=(1, 3)))
        w2 = remove_mean(0.04 * random_field(grid, rng, band=(1, 3)))
        sizes = {}
        for eps in (0.1, 0.05):
            dt = np.pi * eps / 8.0 / 10.0
            times, w1_samples, _ = reduced_p2_trajectory(
                rng, eps, alpha, dt, n_steps=10, pair=(w1, w2)
            )
            lam = eps**alpha

            def boundary_cube(w):
                cw = SpectralField(
                    w.grid, np.conj(w.coeffs[::-1])
                )
                return remove_mean(multiply([cw, cw, cw]))

            phase_T = np.exp(-4.0j * times[-1] / eps)
            term = (lam**2 / 4.0) * (
                complex(phase_T) * boundary_cube(w1_samples[-1])
                - boundary_cube(w1_samples[0])
            )
            sizes[eps] = norm(term, "Hs", s=1)
        measured = sizes[0.1] / sizes[0.05]
        assert measured == pytest.approx(2.0 ** (2 * alpha), rel=0.05)


class TestChooseN:
    def test_worked_values(self):
        assert choose_n(0.5, 0.1, 1.0) == 2
        assert choose_n(0.5, 1e-3, 1.0) == 6
        assert choose_n(0.5, 0.9, 1.0) == 1

    def test_rejects_amplitude_at_or_above_one(self):
        with pytest.raises(ValueError, match="below 1"):
            choose_n(0.5, 0.1, 2.0)
        with pytest.raises(ValueError, match="below 1"):
            choose_n(1.0, 0.1, 1.0)

    def test_zero_amplitude_gives_the_floor(self):
        assert choose_n(0.0, 0.5, 1.0) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("position, name", [(0, "lam"), (1, "epsilon"), (2, "c_embed")])
    def test_rejects_non_finite(self, position, name, bad):
        args = [0.5, 0.1, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
            choose_n(*args)

    def test_rejects_infinite_constant_at_zero_amplitude(self):
        # inf * 0 is nan, which no comparison of the scan catches
        with pytest.raises(ValueError, match="c_embed must be finite"):
            choose_n(0.0, 0.5, float("inf"))

    def test_non_positive_epsilon_message(self):
        for eps, message in ((0.0, "positive"), (float("-inf"), "finite")):
            with pytest.raises(ValueError, match=f"^epsilon must be {message}, got {eps}$"):
                choose_n(0.5, eps, 1.0)

    def test_minimality_and_log_consequence(self, rng):
        # the selected n satisfies the rule, its predecessor does not, and
        # (c lam)^{2(n+1)} <= eps forces n >= |ln eps| / (2 |ln(c lam)|) - 1.
        for _ in range(50):
            x = rng.uniform(0.05, 0.95)
            eps = 10.0 ** rng.uniform(-6, -0.5)
            n = choose_n(x, eps, 1.0)
            assert (2 * n + 1) * x ** (2 * (n + 1)) <= eps
            if n > 1:
                assert (2 * n - 1) * x ** (2 * n) > eps
            assert n >= abs(np.log(eps)) / (2.0 * abs(np.log(x))) - 1.0 - 1e-9


class TestFnBounds:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_single_modes_attain_equality(self, n):
        grid = Grid(2 * n + 4)
        report = verify_fn_bound(single_mode(grid, 1), n)
        assert report.norm_fn == pytest.approx(
            float(np.prod(np.arange(3, 2 * n + 4, 2))), rel=1e-12
        )
        assert report.ratio_fn == pytest.approx(1.0, abs=1e-9)

    def test_directional_single_mode_attains_equality(self):
        grid = Grid(8)
        report = verify_fn_bound(single_mode(grid, 1), 1, single_mode(grid, 3))
        assert report.norm_dfn == pytest.approx(105.0, rel=1e-12)
        assert report.ratio_dfn == pytest.approx(1.0, abs=1e-9)

    def test_zero_field_reports_zero(self):
        grid = Grid(4)
        report = verify_fn_bound(zeros(grid), 2)
        assert report.norm_fn == 0.0
        assert report.bound_fn == 0.0
        assert report.ratio_fn == 0.0

    def test_a_nan_field_gives_nan_ratios(self):
        # the ratio was 0.0 whenever the bound was not positive, a nan bound too
        grid = Grid(4)
        report = verify_fn_bound(single_mode(grid, 1, math.nan), 1, single_mode(grid, 1, 0.1))
        assert math.isnan(report.ratio_fn) and math.isnan(report.ratio_dfn)

    def test_depth_precondition(self):
        grid = Grid(4)
        with pytest.raises(ValueError):
            verify_fn_bound(zeros(grid), 9)

    @pytest.mark.parametrize("n", range(9))
    def test_equals_the_literal_formula(self, rng, n):
        # the oracle spells the bound with f_n, f_n_directional and norm
        grid = Grid(12)
        u = 0.4 * random_field(grid, rng, band=(1, 4))
        v = 0.4 * random_field(grid, rng, band=(1, 6))
        product = float(math.prod(2 * k + 1 for k in range(n + 2)))
        sup_u, h1_u = norm(u, "Linf"), norm(u, "Hs", s=1)
        value = norm(f_n(u, n), "Hs", s=1)
        bound = product * sup_u ** (2 * (n + 1)) * h1_u
        dvalue = norm(f_n_directional(u, n, v), "Hs", s=1)
        dbound = product * (sup_u ** (2 * (n + 1)) * norm(v, "Hs", s=1)
                            + (2 * n + 2) * sup_u ** (2 * n + 1) * norm(v, "Linf") * h1_u)
        want = BoundReport(value, bound, value / bound, dvalue, dbound, dvalue / dbound)
        assert verify_fn_bound(u, n, v) == want
        assert verify_fn_bound(u, n) == BoundReport(value, bound, value / bound)

    def test_randomized_sweep_never_violates(self, rng):
        # the inequality is proven, so a violation is an implementation bug
        grid = Grid(32)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            scale = rng.uniform(0.1, 0.8)
            u = scale * random_field(grid, rng, band=(1, 2))
            v = scale * random_field(grid, rng, band=(1, 2))
            report = verify_fn_bound(u, n, v)
            assert report.ratio_fn <= 1.0 + 1e-12
            assert report.ratio_dfn <= 1.0 + 1e-12
