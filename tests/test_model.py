"""Model layer: pressure laws, q maps, energies, right-hand sides.

The stacked energy kernel, whose quartic term is an average over the padded
grid, is checked against the exact coefficient convolutions of quartic_mean
(convolution_energy below)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavereg.model import (
    EnergyReport,
    PressureLaw,
    State,
    SystemSpec,
    _energies,
    energy,
    linear_growth_rate,
)
from wavereg.spectral import (
    _BLOCK_POINTS,
    Grid,
    SpectralField,
    conjugate,
    derivative,
    from_modes,
    multiply,
    norm,
    pair_mean,
    random_field,
    to_physical,
    zeros,
)

from oracles import pressure, q_apply, quartic_mean, rhs_full

TWO_PI = 2.0 * math.pi
ALL_LAWS = (PressureLaw.P0, PressureLaw.P1, PressureLaw.P2)


def random_state(grid, rng, amp1=0.3, amp2=0.3, band=(1, 4), real_valued=False,
                 zero_mean=True):
    u1 = random_field(grid, rng, band=band, real_valued=real_valued,
                      zero_mean=zero_mean)
    u2 = random_field(grid, rng, band=band, real_valued=real_valued,
                      zero_mean=zero_mean)
    u1 = u1 * (amp1 / norm(u1, "Hs", s=1.0))
    u2 = u2 * (amp2 / norm(u2, "L2"))
    return State(u1, u2)


def rk4(spec, law, state, dt, n_steps):
    s = state
    for _ in range(n_steps):
        k1 = rhs_full(spec, law, s)
        k2 = rhs_full(spec, law, s + (0.5 * dt) * k1)
        k3 = rhs_full(spec, law, s + (0.5 * dt) * k2)
        k4 = rhs_full(spec, law, s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def energy_rate(law, state, deriv):
    """Chain rule d/dt E along a given state derivative (independent oracle)."""
    u1, u2 = state.u1, state.u2
    d1, d2 = deriv.u1, deriv.u2
    if law is PressureLaw.P1:
        cubic = multiply([u1, conjugate(u1), u1])
        quart = TWO_PI * pair_mean(cubic, conjugate(d1)).real
        quad1 = -TWO_PI * pair_mean(u1, conjugate(d1)).real
    elif law is PressureLaw.P2:
        cubic = multiply([u1, u1, u1])
        quart = TWO_PI * pair_mean(cubic, d1).real
        quad1 = -TWO_PI * pair_mean(u1, conjugate(d1)).real
    else:
        cubic = multiply([u1, u1, u1])
        quart = TWO_PI * pair_mean(cubic, d1).real
        quad1 = -TWO_PI * pair_mean(u1, d1).real
    quad2 = TWO_PI * pair_mean(conjugate(u2), d2).real
    return quart + quad1 + quad2


def sampled_energy(law, state, n_points):
    """Physical-space quadrature of the energy integrand (test oracle)."""
    w1 = to_physical(state.u1, n_points)
    w2 = to_physical(state.u2, n_points)
    if law is PressureLaw.P1:
        integrand = 0.25 * np.abs(w1) ** 4 - 0.5 * np.abs(w1) ** 2
    elif law is PressureLaw.P2:
        integrand = 0.25 * (w1**4).real - 0.5 * np.abs(w1) ** 2
    else:
        integrand = 0.25 * (w1**4).real - 0.5 * (w1**2).real
    integrand = integrand + 0.5 * np.abs(w2) ** 2
    return TWO_PI * float(np.mean(integrand))


class TestPressureAndQ:
    def test_pressure_of_zero_is_zero(self):
        grid = Grid(16)
        for law in ALL_LAWS:
            assert norm(pressure(law, zeros(grid)), "L2") == 0.0

    def test_p0_on_a_single_mode(self):
        grid = Grid(16)
        u = from_modes(grid, {1: 1.0})
        p = pressure(PressureLaw.P0, u)
        assert abs(p.coeff(1) + 1.0) < 1e-14
        assert abs(p.coeff(3) - 1.0) < 1e-14
        rest = p - from_modes(grid, {1: -1.0, 3: 1.0})
        assert norm(rest, "L2") < 1e-14

    def test_laws_coincide_on_real_fields(self, rng):
        grid = Grid(16)
        u = from_modes(grid, {1: 1.0, -1: 1.0})  # 2 cos x
        for v in (u, random_field(grid, rng, band=(1, 5), real_valued=True)):
            p0 = pressure(PressureLaw.P0, v)
            for law in (PressureLaw.P1, PressureLaw.P2):
                assert norm(pressure(law, v) - p0, "L2") < 1e-12

    def test_derivative_of_pressure_is_q_acting_on_derivative(self, rng):
        # d/dx p(u) = -d/dx u + q(u) d/dx u, exactly, for every law.
        from wavereg.spectral import derivative

        grid = Grid(16)
        u = random_field(grid, rng, band=(1, 5))
        du = derivative(u)
        for law in ALL_LAWS:
            lhs = derivative(pressure(law, u)) + du
            rhs = q_apply(law, u, du)
            assert norm(lhs - rhs, "L2") < 1e-12

    def test_q1_on_real_inputs_matches_q0(self, rng):
        grid = Grid(16)
        u = random_field(grid, rng, band=(1, 5), real_valued=True)
        v = random_field(grid, rng, band=(1, 5), real_valued=True)
        d = q_apply(PressureLaw.P1, u, v) - q_apply(PressureLaw.P0, u, v)
        assert norm(d, "L2") < 1e-12

    def test_q2_conjugates_single_modes(self):
        grid = Grid(16)
        e1 = from_modes(grid, {1: 1.0})
        out = q_apply(PressureLaw.P2, e1, e1)
        assert norm(out - from_modes(grid, {-3: 3.0}), "L2") < 1e-14

    def test_q_maps_are_real_linear_not_complex_linear(self, rng):
        grid = Grid(16)
        u = random_field(grid, rng, band=(1, 4))
        v = random_field(grid, rng, band=(1, 4))
        w = random_field(grid, rng, band=(1, 4))
        for law in ALL_LAWS:
            combo = q_apply(law, u, 0.7 * v + (-1.3) * w)
            split = 0.7 * q_apply(law, u, v) + (-1.3) * q_apply(law, u, w)
            assert norm(combo - split, "L2") < 1e-12
        # q1 and q2 conjugate their argument, so i does not factor out.
        for law in (PressureLaw.P1, PressureLaw.P2):
            skew = q_apply(law, u, 1j * v) - 1j * q_apply(law, u, v)
            assert norm(skew, "L2") > 1e-3


class TestEnergy:
    def test_zero_state(self):
        grid = Grid(16)
        rep = energy(PressureLaw.P1, State(zeros(grid), zeros(grid)))
        assert rep.value == 0.0

    def test_report_parts_sum_to_value(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng)
        for law in ALL_LAWS:
            rep = energy(law, s)
            total = rep.quartic_part + rep.quadratic_u1_part + rep.quadratic_u2_part
            assert abs(rep.value - total) < 1e-12

    def test_cosine_datum_closed_form(self):
        # u1 = 2a cos x, u2 = 0: P1 energy is 3*pi*a^4 - 2*pi*a^2.
        grid = Grid(16)
        a = 0.1
        s = State(from_modes(grid, {1: a, -1: a}), zeros(grid))
        rep = energy(PressureLaw.P1, s)
        exact = 3.0 * math.pi * a**4 - 2.0 * math.pi * a**2
        assert abs(rep.value - exact) < 1e-13

    def test_p2_matches_p1_on_real_data(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng, real_valued=True)
        e1 = energy(PressureLaw.P1, s).value
        e2 = energy(PressureLaw.P2, s).value
        assert abs(e1 - e2) < 1e-12

    def test_conjugated_energy_coincides_with_plain_laws_on_real_data(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng, real_valued=True)
        e0 = energy(PressureLaw.P0, s).value
        assert abs(e0 - energy(PressureLaw.P1, s).value) < 1e-12
        assert abs(e0 - energy(PressureLaw.P2, s).value) < 1e-12

    def test_matches_oversampled_quadrature(self, rng):
        grid = Grid(12)
        s = random_state(grid, rng)
        n = 8 * grid.n_modes + 9
        for law in ALL_LAWS:
            assert abs(energy(law, s).value - sampled_energy(law, s, n)) < 1e-12


def convolution_energy(law, s):
    """The energy's (value, quartic, quadratic u1, quadratic u2), with the
    quartic mean from quartic_mean's exact coefficient convolutions."""
    u1, u2 = s.u1, s.u2
    cu1 = conjugate(u1)
    if law is PressureLaw.P1:
        quart = 0.25 * TWO_PI * quartic_mean(u1, cu1, u1, cu1).real
    else:
        quart = 0.25 * TWO_PI * quartic_mean(u1, u1, u1, u1).real
    second = u1 if law is PressureLaw.P0 else cu1
    quad1 = -0.5 * TWO_PI * pair_mean(u1, second).real
    quad2 = 0.5 * TWO_PI * pair_mean(u2, conjugate(u2)).real
    return quart + quad1 + quad2, quart, quad1, quad2


def block_rows(grid):
    """Rows per block of spectral._blocks on grid."""
    return max(1, _BLOCK_POINTS // grid.n_padded)


class TestStackedEnergies:
    # the literal counts lie within one block of _energies; on Grid(1) and
    # Grid(32) the derived counts fill a block exactly and run one row past it
    @pytest.mark.parametrize(
        "grid, samples",
        [(Grid(0), 513), (Grid(1), 171), (Grid(8, n_points=17), 31), (Grid(32), 8)]
        + [(grid, rows) for grid in (Grid(1), Grid(32))
           for rows in (block_rows(grid), block_rows(grid) + 1)],
    )
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_rows_match_quartic_mean(self, rng, grid, samples, law):
        # complex data with a mean, up to amplitude 2: every term is live
        states = [
            State(*(scale * random_field(grid, rng, band=(0, grid.n_modes),
                                         zero_mean=False)
                    for _ in range(2)))
            for scale in np.linspace(0.01, 2.0, samples)
        ]
        rows = _energies(law, np.stack([s.u1.coeffs for s in states]),
                         np.stack([s.u2.coeffs for s in states]))
        assert rows.shape == (4, samples)
        for j, s in enumerate(states):
            want = convolution_energy(law, s)
            # rounding is relative to mean |u1|^4, the P1 quartic mean, which
            # bounds the cancelling sum Re mean(u1^4) of P0 and P2
            modulus = abs(convolution_energy(PressureLaw.P1, s)[1])
            scale = modulus + abs(want[2]) + abs(want[3])
            assert np.allclose(rows[:, j], want, rtol=0.0, atol=1e-14 * scale)
            assert energy(law, s) == EnergyReport(*rows[:, j].tolist())

    @pytest.mark.parametrize("law", [PressureLaw.P0, PressureLaw.P2])
    def test_full_band_at_k512(self, rng, law):
        # the padded values carry e^{iKx}, which the P0 and P2 quartic takes
        # off by a demodulation row; full-band data of amplitude 2 at
        # K = 512 hold it to 1e-14 only with that row's argument reduced
        # mod 2 pi in integers (measured 5e-17 of the scale on the first
        # sample; with the plain K x_j the second sample reached 1.8e-14)
        grid = Grid(512)
        states = [State(*(2.0 * random_field(grid, rng, band=(0, grid.n_modes),
                                             zero_mean=False) for _ in range(2)))
                  for _ in range(3)]
        rows = _energies(law, np.stack([s.u1.coeffs for s in states]),
                         np.stack([s.u2.coeffs for s in states]))
        for j, s in enumerate(states):
            want = convolution_energy(law, s)
            modulus = abs(convolution_energy(PressureLaw.P1, s)[1])
            scale = modulus + abs(want[2]) + abs(want[3])
            assert np.allclose(rows[:, j], want, rtol=0.0, atol=1e-14 * scale)

    def test_band_edge_quartic_is_exact(self):
        # u1 = e^{iKx} + e^{-iKx}: u1^4 reaches |k| = 4K, the last band that
        # 4K + 2 points keep off the mean; the mean of (2 cos Kx)^4 is 6
        for grid in (Grid(1), Grid(8, n_points=17), Grid(32)):
            K = grid.n_modes
            s = State(from_modes(grid, {K: 1.0, -K: 1.0}), zeros(grid))
            for law in ALL_LAWS:
                quart = _energies(law, s.u1.coeffs[None], s.u2.coeffs[None])[1, 0]
                assert quart == pytest.approx(0.25 * TWO_PI * 6.0, rel=1e-14)


class TestRhsFull:
    def test_zero_state_zero_derivative(self):
        grid = Grid(8)
        z = State(zeros(grid), zeros(grid))
        for kind in ("regularized", "modified"):
            spec = SystemSpec(kind, epsilon=0.2)
            d = rhs_full(spec, PressureLaw.P0, z)
            assert norm(d.u1, "L2") == 0.0
            assert norm(d.u2, "L2") == 0.0

    def test_mean_mode_is_annihilated(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng, zero_mean=False)
        for kind in ("regularized", "modified"):
            spec = SystemSpec(kind, epsilon=0.3, rescaled=True)
            d = rhs_full(spec, PressureLaw.P0, s)
            assert abs(d.u1.coeff(0)) < 1e-13
            assert abs(d.u2.coeff(0)) < 1e-13

    def test_single_mode_matches_symbol_oracle(self):
        grid = Grid(32)
        eps, k = 0.25, 3
        c1, c2 = 0.4 - 0.2j, 0.1 + 0.3j
        spec = SystemSpec("regularized", epsilon=eps, rescaled=True)
        s = State(from_modes(grid, {k: c1}), from_modes(grid, {k: c2}))
        d = rhs_full(spec, PressureLaw.P0, s)
        ct, cd = 1.0 / eps**2, 1.0 / eps**3
        sym = np.array([[0.0, -1j * k * ct], [1j * k * ct, 1j * cd * k**2]])
        expect = sym @ np.array([c1, c2])
        assert abs(d.u1.coeff(k) - expect[0]) < 1e-12 * ct
        assert abs(d.u2.coeff(k) - expect[1]) < 1e-12 * cd
        # the cubic term lands on mode 3k only
        assert abs(d.u2.coeff(3 * k)) > 0.0
        assert abs(d.u1.coeff(3 * k)) < 1e-13

    def test_q_route_matches_pressure_route(self, rng):
        from wavereg.spectral import derivative

        grid = Grid(16)
        s = random_state(grid, rng)
        for law in ALL_LAWS:
            spec = SystemSpec("regularized", epsilon=0.3)
            ct, cd = spec.coefficients
            d = rhs_full(spec, law, s)
            du1 = derivative(s.u1)
            r2 = (-ct) * (q_apply(law, s.u1, du1) - du1) - (1j * cd) * derivative(
                s.u2, order=2
            )
            assert norm(d.u2 - r2, "L2") < 1e-12

    def test_laws_coincide_on_real_data(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng, real_valued=True)
        spec = SystemSpec("regularized", epsilon=0.3)
        d0 = rhs_full(spec, PressureLaw.P0, s)
        for law in (PressureLaw.P1, PressureLaw.P2):
            d = rhs_full(spec, law, s)
            assert norm(d.u1 - d0.u1, "L2") < 1e-12
            assert norm(d.u2 - d0.u2, "L2") < 1e-12

    def test_conjugated_system_is_plain_system_in_disguise(self, rng):
        # Substituting u1 -> conj(u1) carries the modified flow onto the
        # plain P0 flow with the same epsilon: the conjugation is a change
        # of variables, not new dynamics.
        grid = Grid(16)
        s = random_state(grid, rng)
        mod = SystemSpec("modified", epsilon=0.17, rescaled=True)
        pla = SystemSpec("regularized", epsilon=0.17, rescaled=True)
        d_mod = rhs_full(mod, PressureLaw.P0, s)
        d_pla = rhs_full(pla, PressureLaw.P0, State(conjugate(s.u1), s.u2))
        assert norm(d_mod.u1 - conjugate(d_pla.u1), "L2") < 1e-12
        assert norm(d_mod.u2 - d_pla.u2, "L2") < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mirror_property(self, data):
        # rhs_full(modified, s) = G(rhs_full(regularized, p0, G s)) with
        # G(u1, u2) = (conj u1, u2), for every grid, eps and scaling.
        n_modes = data.draw(st.integers(1, 16), label="K")
        eps = data.draw(st.floats(0.01, 0.99), label="eps")
        rescaled = data.draw(st.booleans(), label="rescaled")
        coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False)
        grid = Grid(n_modes)

        def zero_mean_field(label):
            c = np.array(data.draw(st.lists(coeff, min_size=grid.n_coeffs,
                                            max_size=grid.n_coeffs), label=label))
            c[grid.index(0)] = 0.0
            return SpectralField(grid, c)

        s = State(zero_mean_field("u1"), zero_mean_field("u2"))
        mod = SystemSpec("modified", epsilon=eps, rescaled=rescaled)
        pla = SystemSpec("regularized", epsilon=eps, rescaled=rescaled)
        d_mod = rhs_full(mod, PressureLaw.P0, s)
        d_pla = rhs_full(pla, PressureLaw.P0, State(conjugate(s.u1), s.u2))
        # relative to the sizes of the terms, which may cancel in the sum
        ct, cd = mod.coefficients
        scale = ct * (norm(derivative(pressure(PressureLaw.P0, s.u1)), "L2")
                      + norm(derivative(s.u2), "L2"))
        scale += cd * norm(derivative(s.u2, order=2), "L2")
        assert norm(d_mod.u1 - conjugate(d_pla.u1), "L2") <= 1e-12 * scale
        assert norm(d_mod.u2 - d_pla.u2, "L2") <= 1e-12 * scale

    def test_modified_rejects_other_laws(self, rng):
        grid = Grid(8)
        s = random_state(grid, rng)
        spec = SystemSpec("modified", epsilon=0.2)
        for law in (PressureLaw.P1, PressureLaw.P2):
            with pytest.raises(ValueError):
                rhs_full(spec, law, s)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SystemSpec("other", epsilon=0.2)
        with pytest.raises(ValueError):
            SystemSpec("regularized", epsilon=0.0)
        with pytest.raises(ValueError):
            SystemSpec("regularized", epsilon=1.0)
        with pytest.raises(ValueError):
            SystemSpec("regularized", epsilon=0.5, amplitude=0.0)
        spec = SystemSpec("regularized", epsilon=0.5)
        assert spec.coefficients == (1.0, 0.5)
        spec = SystemSpec("regularized", epsilon=0.5, rescaled=True)
        assert spec.coefficients == (4.0, 8.0)

    @pytest.mark.parametrize("amplitude,message", [
        (0.0, "amplitude must be positive, got 0.0"),
        (float("nan"), "amplitude must be finite, got nan"),
        (float("inf"), "amplitude must be finite, got inf"),
    ])
    def test_spec_rejects_amplitude(self, amplitude, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SystemSpec("regularized", epsilon=0.5, amplitude=amplitude)

    @pytest.mark.parametrize("epsilon", [1e-110, 1e-105])
    def test_rescaled_spec_rejects_an_epsilon_without_finite_coefficients(self, epsilon):
        # 1e-110**3 underflows to 0; 1/1e-105**3 overflows to inf
        with pytest.raises(ValueError, match=f"^epsilon {epsilon} is too small: "):
            SystemSpec("regularized", epsilon=epsilon, rescaled=True)
        spec = SystemSpec("modified", epsilon=epsilon)
        assert spec.coefficients == (1.0, epsilon)

    def test_rescaled_coefficients_at_the_smallest_accepted_epsilon(self):
        ct, cd = SystemSpec("regularized", epsilon=1e-102, rescaled=True).coefficients
        assert math.isfinite(cd) and ct == 1.0 / 1e-102**2

    def test_state_requires_matching_grids(self):
        with pytest.raises(ValueError):
            State(zeros(Grid(8)), zeros(Grid(16)))


class TestLinearGrowthRate:
    def test_elliptic_zone_rate(self):
        assert abs(linear_growth_rate(PressureLaw.P0, 0.0, 4) - 4.0) < 1e-14

    def test_hyperbolic_zone_is_neutral(self):
        for k in (1, 3, 10):
            assert linear_growth_rate(PressureLaw.P0, 1.0, k) == 0.0

    def test_transition_point_is_neutral(self):
        assert linear_growth_rate(PressureLaw.P0, 1.0 / math.sqrt(3.0), 5) == 0.0

    def test_rate_scales_linearly_in_k(self):
        r1 = linear_growth_rate(PressureLaw.P1, 0.2, 1)
        r6 = linear_growth_rate(PressureLaw.P1, 0.2, 6)
        assert abs(r6 - 6.0 * r1) < 1e-13

    def test_laws_agree_on_real_points(self):
        for u in (0.0, 0.3, 0.9):
            rates = {linear_growth_rate(law, u, 3) for law in ALL_LAWS}
            assert len(rates) == 1

    def test_complex_point_rejected(self):
        with pytest.raises(ValueError):
            linear_growth_rate(PressureLaw.P0, 0.1 + 0.2j, 1)


class TestEnergyRates:
    def test_rate_oracle_matches_finite_differences(self, rng):
        grid = Grid(12)
        s = random_state(grid, rng)
        d = random_state(grid, rng, amp1=0.2, amp2=0.2)
        h = 1e-5
        for law in ALL_LAWS:
            got = energy_rate(law, s, d)
            e_plus = energy(law, s + h * d).value
            e_minus = energy(law, s - h * d).value
            fd = (e_plus - e_minus) / (2.0 * h)
            assert abs(got - fd) < 1e-7

    def test_conserved_rates_vanish_along_the_flow(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng)
        for rescaled in (False, True):
            spec = SystemSpec("regularized", epsilon=0.2, rescaled=rescaled)
            for law in (PressureLaw.P1, PressureLaw.P2):
                rate = energy_rate(law, s, rhs_full(spec, law, s))
                assert abs(rate) < 1e-10

    def test_modified_rate_vanishes_on_real_states(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng, real_valued=True)
        spec = SystemSpec("modified", epsilon=0.2, rescaled=True)
        rate = energy_rate(PressureLaw.P0, s, rhs_full(spec, PressureLaw.P0, s))
        assert abs(rate) < 1e-10

    def test_plain_p0_rate_does_not_vanish(self, rng):
        grid = Grid(16)
        s = random_state(grid, rng, amp1=0.5, amp2=0.5)
        spec = SystemSpec("regularized", epsilon=0.2)
        rate = energy_rate(PressureLaw.P0, s, rhs_full(spec, PressureLaw.P0, s))
        assert abs(rate) > 1e-4

    def test_modified_rate_does_not_vanish_on_complex_states(self, rng):
        # The quartic functional pairs the cubic term sesquilinearly under
        # this flow, so off the real slice its derivative is genuinely
        # nonzero: conservation holds on no open set of complex data.
        grid = Grid(16)
        s = random_state(grid, rng, amp1=0.5, amp2=0.5)
        spec = SystemSpec("modified", epsilon=0.2)
        rate = energy_rate(PressureLaw.P0, s, rhs_full(spec, PressureLaw.P0, s))
        assert abs(rate) > 1e-4


class TestShortTrajectories:
    def test_p1_and_p2_conserve_energy_along_the_flow(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", epsilon=0.3)
        for law in (PressureLaw.P1, PressureLaw.P2):
            s0 = random_state(grid, rng, band=(1, 4))
            e0 = energy(law, s0).value
            s1 = rk4(spec, law, s0, dt=2e-4, n_steps=500)
            e1 = energy(law, s1).value
            assert abs(e1 - e0) < 1e-9

    def test_mean_modes_are_conserved_along_the_flow(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", epsilon=0.3)
        s0 = random_state(grid, rng, band=(1, 4), zero_mean=False)
        m1, m2 = s0.u1.coeff(0), s0.u2.coeff(0)
        s1 = rk4(spec, PressureLaw.P1, s0, dt=5e-4, n_steps=200)
        assert abs(s1.u1.coeff(0) - m1) < 1e-12
        assert abs(s1.u2.coeff(0) - m2) < 1e-12

    def test_plain_p0_energy_drifts(self, rng):
        grid = Grid(8)
        spec = SystemSpec("regularized", epsilon=0.3)
        s0 = random_state(grid, rng, amp1=0.5, amp2=0.5, band=(1, 4))
        e0 = energy(PressureLaw.P0, s0).value
        s1 = rk4(spec, PressureLaw.P0, s0, dt=2e-4, n_steps=500)
        e1 = energy(PressureLaw.P0, s1).value
        assert abs(e1 - e0) > 1e-7

    def test_modified_p0_energy_drifts_despite_the_conjugation(self, rng):
        grid = Grid(8)
        spec = SystemSpec("modified", epsilon=0.3)
        s0 = random_state(grid, rng, amp1=0.5, amp2=0.5, band=(1, 4))
        e0 = energy(PressureLaw.P0, s0).value
        s1 = rk4(spec, PressureLaw.P0, s0, dt=2e-4, n_steps=500)
        e1 = energy(PressureLaw.P0, s1).value
        assert abs(e1 - e0) > 1e-7

    def test_energy_report_type(self):
        rep = energy(PressureLaw.P1, State(zeros(Grid(4)), zeros(Grid(4))))
        assert isinstance(rep, EnergyReport)
