"""Tests for the normal-form coordinate change and the reduced system.

The load-bearing check is the pullback identity: the reduced right-hand side
assembled from the structured pieces (interaction operator, kept forcing,
closed remainder) must agree to rounding with the full system's right-hand
side transported through the coordinate change and the oscillating frame.
That identity is what makes the later transform-consistency integrations
meaningful, so it is tested here per-evaluation at several times, laws, and
epsilon values before any integrator exists.  The array kernels of the
coordinate change and of the cancellation residual are held row by row to
the State-level operators, and every row of a batched reduced-forcing call
to the pullback; the forcing's cached per-mode tables are checked to be
read-only and bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavereg.model import PressureLaw, State, SystemSpec
from wavereg.normalform import (
    NormalFormSetting,
    ReducedState,
    _cancellation_residuals,
    _normal_coords,
    from_normal_coords,
    to_normal_coords,
)
from wavereg.spectral import (
    Grid,
    SpectralField,
    apply_m,
    conjugate,
    derivative,
    from_modes,
    norm,
    random_field,
    zeros,
)

from oracles import (
    apply_M,
    cancellation_residual,
    operator_E,
    oscillate,
    q_apply,
    reduced_rhs,
    remainder_R,
    rhs_full,
)


def random_pair(grid, rng, scale1=0.4, scale2=0.4, band=(1, 5)):
    u1 = random_field(grid, rng, band=band)
    u2 = random_field(grid, rng, band=band)
    return State(u1 * (scale1 / norm(u1, "Hs", s=1)), u2 * (scale2 / norm(u2, "L2")))


def pair_norm(s: State, kind="L2", sobolev=None) -> float:
    if kind == "Hs":
        return float(np.sqrt(norm(s.u1, "Hs", s=sobolev) ** 2 + norm(s.u2, "Hs", s=sobolev) ** 2))
    return float(np.sqrt(norm(s.u1, "L2") ** 2 + norm(s.u2, "L2") ** 2))


def conj_first(s: State) -> State:
    return State(conjugate(s.u1), s.u2)


def draw_pair(data, grid, zero_mean=True) -> State:
    """A State of complex coefficients of modulus at most 1, drawn by hypothesis."""
    coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    fields = []
    for label in ("u1", "u2"):
        c = np.array(data.draw(st.lists(coeff, min_size=grid.n_coeffs,
                                        max_size=grid.n_coeffs), label=label))
        if zero_mean:
            c[grid.index(0)] = 0.0
        fields.append(SpectralField(grid, c))
    return State(*fields)


def all_settings(eps, amplitude=0.3):
    out = [
        NormalFormSetting(eps, conjugated=False, law=law, amplitude=amplitude)
        for law in PressureLaw
    ]
    out.append(NormalFormSetting(eps, conjugated=True, law=PressureLaw.P0, amplitude=amplitude))
    return out


def pullback_reduced_rhs(setting: NormalFormSetting, w: ReducedState) -> State:
    """Independent oracle: transport the full system's right-hand side through
    the coordinate change and the oscillating frame by the chain rule."""
    eps = setting.epsilon
    v = oscillate(State(w.w1, w.w2), w.t, eps, "backward", conjugated=setting.conjugated)
    u_tilde = from_normal_coords(setting, v)
    spec = SystemSpec(setting.system_kind, epsilon=eps, rescaled=True)
    a = setting.amplitude
    du_tilde = (1.0 / a) * rhs_full(spec, setting.law, a * u_tilde)
    dv = to_normal_coords(setting, du_tilde)
    s1 = 1.0 if setting.conjugated else -1.0
    phase1 = np.exp(s1 * 1j * w.t / eps)
    phase2 = np.exp(1j * w.t / eps)
    return State(
        phase1 * (dv.u1 + (s1 * 1j / eps) * v.u1),
        phase2 * (dv.u2 + (1j / eps) * v.u2),
    )


class TestSettingAndState:
    def test_epsilon_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                NormalFormSetting(bad)

    def test_conjugated_requires_cubic_law(self):
        for law in (PressureLaw.P1, PressureLaw.P2):
            with pytest.raises(ValueError):
                NormalFormSetting(0.2, conjugated=True, law=law)
        NormalFormSetting(0.2, conjugated=True, law=PressureLaw.P0)

    def test_amplitude_positive(self):
        with pytest.raises(ValueError):
            NormalFormSetting(0.2, amplitude=0.0)

    @pytest.mark.parametrize("amplitude,message", [
        (0.0, "amplitude must be positive, got 0.0"),
        (float("nan"), "amplitude must be finite, got nan"),
        (float("inf"), "amplitude must be finite, got inf"),
    ])
    def test_amplitude_positive_and_finite(self, amplitude, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NormalFormSetting(0.2, amplitude=amplitude)

    def test_coefficients_are_rescaled_pair(self):
        s = NormalFormSetting(0.1)
        assert s.coefficients == pytest.approx((100.0, 1000.0))
        assert s.system_kind == "regularized"
        assert NormalFormSetting(0.1, conjugated=True).system_kind == "modified"

    def test_tiny_epsilon_is_rejected_when_its_coefficients_are_read(self):
        # the coordinate maps hold for every eps in (0, 1), so the setting
        # itself accepts 1e-110; only its rescaled pair has no finite value
        setting = NormalFormSetting(1e-110)
        with pytest.raises(ValueError, match="^epsilon 1e-110 is too small: "):
            setting.coefficients

    def test_reduced_state_rejects_nonzero_mean(self, rng):
        grid = Grid(8)
        w = from_modes(grid, {0: 0.5, 1: 1.0})
        ok = from_modes(grid, {1: 1.0})
        with pytest.raises(ValueError):
            ReducedState(w, ok, 0.0)
        with pytest.raises(ValueError):
            ReducedState(ok, w, 0.0)
        ReducedState(ok, ok, 0.0)

    def test_zero_mean_tolerance_is_relative_to_a_unit_norm(self):
        # a mean of 2e-12 on a unit field is rejected, one of 5e-13 passes
        grid = Grid(8)
        ok = from_modes(grid, {1: 1.0})
        for mean in (2e-12, 5e-13):
            field = from_modes(grid, {0: mean, 3: 1.0})
            assert norm(field, "L2") == 1.0
            if mean > 1e-12:
                with pytest.raises(ValueError, match=r"w2 must be zero-mean, \|mean\| = 2\.000e-12"):
                    ReducedState(ok, field, 0.0)
            else:
                ReducedState(field, field, 0.0)

    def test_reduced_state_rejects_grid_mismatch(self):
        a = from_modes(Grid(8), {1: 1.0})
        b = from_modes(Grid(16), {1: 1.0})
        with pytest.raises(ValueError):
            ReducedState(a, b, 0.0)


class TestApplyM:
    def test_plain_formula_on_single_mode(self):
        grid = Grid(8)
        u = State(zeros(grid), from_modes(grid, {1: 1.0}))
        mu = apply_M(NormalFormSetting(0.3), u)
        assert mu.u1.coeff(1) == pytest.approx(-1.0)
        assert norm(mu.u1 - from_modes(grid, {1: -1.0}), "L2") < 1e-15
        assert norm(mu.u2, "L2") < 1e-15

    def test_conjugated_formula_on_single_mode(self):
        grid = Grid(8)
        u = State(zeros(grid), from_modes(grid, {1: 1.0}))
        mu = apply_M(NormalFormSetting(0.3, conjugated=True), u)
        # +m applied to conj(e^{ix}) = e^{-ix}: coefficient 1 at k = -1,
        # divided by k = -1.
        assert mu.u1.coeff(-1) == pytest.approx(-1.0)
        assert abs(mu.u1.coeff(1)) < 1e-15
        assert norm(mu.u2, "L2") < 1e-15

    def test_swaps_components(self, rng):
        grid = Grid(16)
        u = random_pair(grid, rng)
        mu = apply_M(NormalFormSetting(0.2), u)
        assert norm(mu.u1 + apply_m(u.u2), "L2") < 1e-14
        assert norm(mu.u2 + apply_m(u.u1), "L2") < 1e-14

    def test_kills_means(self, rng):
        grid = Grid(16)
        u = State(from_modes(grid, {0: 2.0, 1: 1.0}), from_modes(grid, {0: -3.0, 2: 1.0}))
        for setting in (NormalFormSetting(0.2), NormalFormSetting(0.2, conjugated=True)):
            mu = apply_M(setting, u)
            assert abs(mu.u1.coeff(0)) < 1e-15
            assert abs(mu.u2.coeff(0)) < 1e-15

    def test_nonexpansive_in_each_sobolev_index(self, rng):
        grid = Grid(16)
        u = random_pair(grid, rng)
        for setting in (NormalFormSetting(0.2), NormalFormSetting(0.2, conjugated=True)):
            mu = apply_M(setting, u)
            assert pair_norm(mu) <= pair_norm(u) + 1e-12
            for s in (0, 1):
                assert pair_norm(mu, "Hs", s) <= pair_norm(u, "Hs", s) + 1e-12

    def test_conjugated_is_plain_under_first_component_conjugation(self, rng):
        grid = Grid(16)
        u = random_pair(grid, rng)
        lhs = apply_M(NormalFormSetting(0.2, conjugated=True), u)
        rhs = conj_first(apply_M(NormalFormSetting(0.2), conj_first(u)))
        assert norm(lhs.u1 - rhs.u1, "L2") < 1e-14
        assert norm(lhs.u2 - rhs.u2, "L2") < 1e-14


class TestCoordinateMaps:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_inverse_pair(self, rng, eps, conjugated):
        grid = Grid(16)
        setting = NormalFormSetting(eps, conjugated=conjugated)
        v = random_pair(grid, rng)
        u_tilde = from_normal_coords(setting, v)
        back = to_normal_coords(setting, u_tilde)
        assert norm(back.u1 - v.u1, "L2") + norm(back.u2 - v.u2, "L2") < 1e-12
        fwd = from_normal_coords(setting, to_normal_coords(setting, u_tilde))
        assert norm(fwd.u1 - u_tilde.u1, "L2") + norm(fwd.u2 - u_tilde.u2, "L2") < 1e-12

    def test_zero_mean_preserved_both_ways(self, rng):
        grid = Grid(16)
        setting = NormalFormSetting(0.3)
        v = random_pair(grid, rng)
        for s in (from_normal_coords(setting, v), to_normal_coords(setting, v)):
            assert abs(s.u1.coeff(0)) < 1e-14
            assert abs(s.u2.coeff(0)) < 1e-14

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_norm_sandwich(self, rng, eps, conjugated):
        grid = Grid(16)
        setting = NormalFormSetting(eps, conjugated=conjugated)
        for _ in range(5):
            v = random_pair(grid, rng)
            u_tilde = from_normal_coords(setting, v)
            for kind, s in (("L2", None), ("Hs", 0), ("Hs", 1)):
                nv = pair_norm(v, kind, s)
                nu = pair_norm(u_tilde, kind, s)
                assert (1.0 - eps) * nv - 1e-12 <= nu <= (1.0 + eps) * nv + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        # to_normal_coords o from_normal_coords = Id for every eps in (0, 1),
        # both settings.  The inverse divides by 1 - (eps/k)^2 >= 1 - eps^2,
        # so the rounding of the forward map is amplified by at most
        # 1 / (1 - eps^2).
        grid = Grid(data.draw(st.integers(0, 16), label="K"))
        eps = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        label="eps")
        conjugated = data.draw(st.booleans(), label="conjugated")
        setting = NormalFormSetting(eps, conjugated=conjugated)
        v = draw_pair(data, grid)
        back = to_normal_coords(setting, from_normal_coords(setting, v))
        err = pair_norm(back - v)
        assert err <= 1e-14 * (1.0 + pair_norm(v)) / (1.0 - eps * eps)

    def test_plain_closed_form_matches_fixed_point_iteration(self, rng):
        grid = Grid(16)
        setting = NormalFormSetting(0.5)
        u_tilde = random_pair(grid, rng)
        v = to_normal_coords(setting, u_tilde)
        it = u_tilde
        for _ in range(200):
            it = u_tilde - setting.epsilon * apply_M(setting, it)
        assert norm(it.u1 - v.u1, "L2") + norm(it.u2 - v.u2, "L2") < 1e-13

    def test_conjugated_closed_form_matches_fixed_point_iteration(self, rng):
        # the mirrored closed form against the contraction v <- u~ - eps*M v
        grid = Grid(16)
        setting = NormalFormSetting(0.5, conjugated=True)
        u_tilde = random_pair(grid, rng)
        v = to_normal_coords(setting, u_tilde)
        it = u_tilde
        for _ in range(200):
            it = u_tilde - setting.epsilon * apply_M(setting, it)
        assert norm(it.u1 - v.u1, "L2") + norm(it.u2 - v.u2, "L2") < 1e-13


class TestCancellation:
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_residual_vanishes_on_random_states(self, rng, conjugated):
        grid = Grid(24)
        setting = NormalFormSetting(0.2, conjugated=conjugated)
        for _ in range(25):
            u = random_pair(grid, rng, band=(1, 8))
            assert cancellation_residual(setting, u) < 1e-12

    def test_sign_flipped_corrector_leaves_order_one_residual(self, rng):
        # Rebuild the commutator expression with the wrong-sign corrector;
        # the two transport contributions then add instead of cancelling.
        grid = Grid(24)
        u = random_pair(grid, rng)

        def flipped(s: State) -> State:
            return State(apply_m(s.u2), apply_m(s.u1))

        mu = flipped(u)
        disp_m = State(zeros(grid), 1j * derivative(mu.u2, order=2))
        m_disp = flipped(State(zeros(grid), 1j * derivative(u.u2, order=2)))
        transport = State(derivative(u.u2), -derivative(u.u1))
        res = disp_m - m_disp + transport
        size = np.sqrt(norm(res.u1, "L2") ** 2 + norm(res.u2, "L2") ** 2)
        assert size > 0.1


def stacked(states):
    """(u1, u2) coefficient arrays of shape (N, 2K+1) of a list of States."""
    return (np.stack([s.u1.coeffs for s in states]),
            np.stack([s.u2.coeffs for s in states]))


class TestArrayKernels:
    """The stacked kernels behind solve's diagnostics and the simulate rows,
    row by row against the State-level operators."""

    GRIDS = (Grid(0), Grid(1), Grid(8, n_points=17), Grid(32))

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_normal_coords_rows_match_the_state_maps(self, rng, grid, conjugated):
        setting = NormalFormSetting(0.3, conjugated=conjugated)
        band = (min(1, grid.n_modes), grid.n_modes)
        states = [random_pair(grid, rng, band=band) if grid.n_modes else
                  State(zeros(grid), zeros(grid)) for _ in range(5)]
        u1, u2 = stacked(states)
        v1, v2 = _normal_coords(setting, grid, u1, u2, inverse=True)
        f1, f2 = _normal_coords(setting, grid, v1, v2)
        for j, u in enumerate(states):
            v = to_normal_coords(setting, u)
            assert np.array_equal(v1[j], v.u1.coeffs)
            assert np.array_equal(v2[j], v.u2.coeffs)
            # round trip, through from_normal_coords and through its
            # definition u~ = v + eps M v with the State-level M
            back = from_normal_coords(setting, v)
            assert np.array_equal(f1[j], back.u1.coeffs)
            assert np.array_equal(f2[j], back.u2.coeffs)
            direct = v + setting.epsilon * apply_M(setting, v)
            assert pair_norm(direct - u) <= 1e-15 * (1.0 + pair_norm(u))
            assert pair_norm(back - u) <= 1e-15 * (1.0 + pair_norm(u))

    def test_conjugated_kernel_mirrors_the_first_component(self, rng):
        # G o (plain map) o G with G = (conj u1, u2), read off the States
        grid = Grid(8)
        u = random_pair(grid, rng)
        for inverse in (False, True):
            got = _normal_coords(NormalFormSetting(0.3, conjugated=True), grid,
                                 u.u1.coeffs, u.u2.coeffs, inverse)
            m = conj_first(u)
            p1, p2 = _normal_coords(NormalFormSetting(0.3), grid,
                                    m.u1.coeffs, m.u2.coeffs, inverse)
            want = conj_first(State(SpectralField(grid, p1), SpectralField(grid, p2)))
            assert np.array_equal(got[0], want.u1.coeffs)
            assert np.array_equal(got[1], want.u2.coeffs)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_cancellation_rows_match_the_state_residual(self, rng, grid, conjugated):
        # both sides sit at the rounding floor of the three cancelling
        # terms, whose size is that of dx u; the kernel forms the same terms
        # per mode, so the floors themselves agree up to the summation order
        # of the norms
        setting = NormalFormSetting(0.2, conjugated=conjugated)
        band = (min(1, grid.n_modes), grid.n_modes)
        states = [random_pair(grid, rng, scale1=amp, scale2=amp, band=band)
                  if grid.n_modes else State(zeros(grid), zeros(grid))
                  for amp in (0.01, 0.4, 30.0)]
        got = _cancellation_residuals(setting, grid, *stacked(states))
        assert got.shape == (len(states),)
        for residual, u in zip(got, states):
            size = pair_norm(State(derivative(u.u1), derivative(u.u2)))
            want = cancellation_residual(setting, u)
            assert residual <= 1e-15 * size
            assert residual == pytest.approx(want, rel=1e-12, abs=0.0)


class TestOscillate:
    def test_plain_phases(self):
        grid = Grid(8)
        v = State(from_modes(grid, {1: 1.0}), from_modes(grid, {2: 1.0}))
        t, eps = 0.3, 0.25
        w = oscillate(v, t, eps, "forward")
        assert w.u1.coeff(1) == pytest.approx(np.exp(-1j * t / eps))
        assert w.u2.coeff(2) == pytest.approx(np.exp(1j * t / eps))

    def test_conjugated_phases_move_together(self):
        grid = Grid(8)
        v = State(from_modes(grid, {1: 1.0}), from_modes(grid, {2: 1.0}))
        t, eps = 0.3, 0.25
        w = oscillate(v, t, eps, "forward", conjugated=True)
        assert w.u1.coeff(1) == pytest.approx(np.exp(1j * t / eps))
        assert w.u2.coeff(2) == pytest.approx(np.exp(1j * t / eps))

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_round_trip_and_isometry(self, rng, conjugated):
        grid = Grid(16)
        v = random_pair(grid, rng)
        w = oscillate(v, 0.7, 0.2, "forward", conjugated=conjugated)
        assert pair_norm(w, "Hs", 1) == pytest.approx(pair_norm(v, "Hs", 1))
        back = oscillate(w, 0.7, 0.2, "backward", conjugated=conjugated)
        assert norm(back.u1 - v.u1, "L2") + norm(back.u2 - v.u2, "L2") < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_isometry_and_inverse_property(self, data):
        # forward preserves the L2 and H1 norm of each component, and
        # backward o forward is the identity, for any time, eps and setting
        # (eps >= 1e-6 keeps the phase t/eps finite)
        grid = Grid(data.draw(st.integers(0, 16), label="K"))
        t = data.draw(st.floats(-50.0, 50.0), label="t")
        eps = data.draw(st.floats(1e-6, 1.0, exclude_max=True), label="eps")
        conjugated = data.draw(st.booleans(), label="conjugated")
        v = draw_pair(data, grid, zero_mean=False)
        w = oscillate(v, t, eps, "forward", conjugated=conjugated)
        for got, want in ((w.u1, v.u1), (w.u2, v.u2)):
            for kind, s in (("L2", None), ("Hs", 1)):
                assert norm(got, kind, s=s) == pytest.approx(norm(want, kind, s=s),
                                                             rel=1e-14, abs=1e-300)
        back = oscillate(w, t, eps, "backward", conjugated=conjugated)
        assert pair_norm(back - v) <= 1e-15 * (1.0 + pair_norm(v))

    def test_direction_validated(self):
        grid = Grid(8)
        v = State(zeros(grid), zeros(grid))
        with pytest.raises(ValueError):
            oscillate(v, 0.0, 0.2, "sideways")


class TestOperatorE:
    def test_plain_first_component_single_mode(self):
        grid = Grid(8)
        a = 0.5
        setting = NormalFormSetting(0.2, law=PressureLaw.P0, amplitude=a)
        v = State(from_modes(grid, {1: 1.0}), zeros(grid))
        ev = operator_E(setting, v, v)
        assert ev.u1.coeff(1) == pytest.approx(-1j)
        assert ev.u1.coeff(3) == pytest.approx(1j * a * a)
        assert norm(ev.u2, "L2") < 1e-15

    def test_plain_coupling_by_law(self):
        grid = Grid(8)
        a = 0.5
        v = State(zeros(grid), from_modes(grid, {1: 1.0}))
        u_tilde = State(from_modes(grid, {1: 1.0}), zeros(grid))
        e0 = operator_E(NormalFormSetting(0.2, law=PressureLaw.P0, amplitude=a), v, u_tilde)
        assert e0.u2.coeff(1) == pytest.approx(1j)
        assert e0.u2.coeff(3) == pytest.approx(-3j * a * a)
        # p1: 2|c|^2 X + c^2 conj(X) collapses onto the same mode.
        e1 = operator_E(NormalFormSetting(0.2, law=PressureLaw.P1, amplitude=a), v, u_tilde)
        assert e1.u2.coeff(1) == pytest.approx(1j * (1.0 - a * a))
        e2 = operator_E(NormalFormSetting(0.2, law=PressureLaw.P2, amplitude=a), v, u_tilde)
        assert e2.u2.coeff(1) == pytest.approx(1j)
        assert e2.u2.coeff(-3) == pytest.approx(3j * a * a)

    def test_conjugated_components_single_mode(self):
        grid = Grid(8)
        lam = 0.4
        setting = NormalFormSetting(0.2, conjugated=True, amplitude=lam)
        v = State(from_modes(grid, {1: 1.0}), from_modes(grid, {1: 1.0}))
        u_tilde = State(from_modes(grid, {1: 1.0}), zeros(grid))
        ev = operator_E(setting, v, u_tilde)
        assert ev.u1.coeff(1) == pytest.approx(1j)
        assert ev.u1.coeff(3) == pytest.approx(-1j * lam * lam)
        assert ev.u2.coeff(1) == pytest.approx(1j)
        assert ev.u2.coeff(-1) == pytest.approx(-3j * lam * lam)

    def test_conjugated_is_plain_under_first_component_conjugation(self, rng):
        grid = Grid(16)
        a = 0.3
        cset = NormalFormSetting(0.2, conjugated=True, amplitude=a)
        pset = NormalFormSetting(0.2, law=PressureLaw.P0, amplitude=a)
        v = random_pair(grid, rng)
        u_tilde = from_normal_coords(cset, v)
        lhs = operator_E(cset, v, u_tilde)
        rhs = conj_first(operator_E(pset, conj_first(v), conj_first(u_tilde)))
        assert norm(lhs.u1 - rhs.u1, "L2") + norm(lhs.u2 - rhs.u2, "L2") < 1e-13


class TestRemainder:
    @pytest.mark.parametrize("law", list(PressureLaw))
    def test_r1_factored_form_matches_direct_division(self, rng, law):
        grid = Grid(16)
        setting = NormalFormSetting(0.2, law=law, amplitude=0.3)
        v = random_pair(grid, rng)
        u_tilde = from_normal_coords(setting, v)
        a = setting.amplitude
        direct = apply_m(
            q_apply(law, a * u_tilde.u1, derivative(v.u1))
            - q_apply(law, a * v.u1, derivative(v.u1))
        ) / setting.epsilon
        from oracles import _r1_field

        assert norm(_r1_field(setting, v, u_tilde) - direct, "L2") < 1e-11

    def test_r1_factored_form_is_stable_at_tiny_epsilon(self, rng):
        # Direct division by eps loses digits; the factored form does not.
        grid = Grid(16)
        v = random_pair(grid, rng)
        from oracles import _r1_field

        fields = {}
        for eps in (1e-2, 1e-6):
            setting = NormalFormSetting(eps, law=PressureLaw.P0, amplitude=0.3)
            u_tilde = from_normal_coords(setting, v)
            fields[eps] = _r1_field(setting, v, u_tilde)
        # r1 tends to m[6 a^2 v1 (Mv)1 dx v1] as eps -> 0; the two small-eps
        # evaluations agree to O(eps) without any cancellation noise.
        assert norm(fields[1e-2] - fields[1e-6], "L2") < 1e-1
        assert norm(fields[1e-6], "L2") > 1e-4

    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.05])
    def test_named_split_reproduces_full_system(self, rng, eps):
        """dt v = -i c_d D dx^2 v - (1/eps) E v - (0, c_t F1) - R v, exactly."""
        grid = Grid(16)
        for setting in all_settings(eps):
            ct, cd = setting.coefficients
            a = setting.amplitude
            v = random_pair(grid, rng)
            u_tilde = from_normal_coords(setting, v)
            spec = SystemSpec(setting.system_kind, epsilon=eps, rescaled=True)
            dv_exact = to_normal_coords(
                setting, (1.0 / a) * rhs_full(spec, setting.law, a * u_tilde)
            )
            ev = operator_E(setting, v, u_tilde)
            rv = remainder_R(setting, v, u_tilde)
            f1 = q_apply(
                PressureLaw.P0 if setting.conjugated else setting.law,
                a * u_tilde.u1,
                derivative(v.u1),
            )
            if setting.conjugated:
                f1 = conjugate(f1)
            named = (
                -1.0 * State(zeros(grid), 1j * cd * derivative(v.u2, order=2))
                - (1.0 / eps) * ev
                - State(zeros(grid), ct * f1)
                - rv
            )
            err = norm(named.u1 - dv_exact.u1, "Hs", s=1) + norm(
                named.u2 - dv_exact.u2, "L2"
            )
            assert err < 5e-11, (setting.system_kind, setting.law, err)

    def test_remainder_is_order_one_in_epsilon(self, rng):
        # ||R v|| stays O(1) as eps shrinks (it is the non-stiff part).
        grid = Grid(16)
        v = random_pair(grid, rng)
        sizes = []
        for eps in (0.2, 0.05, 0.01):
            setting = NormalFormSetting(eps, law=PressureLaw.P0, amplitude=0.3)
            rv = remainder_R(setting, v, from_normal_coords(setting, v))
            sizes.append(pair_norm(rv, "Hs", 0))
        assert sizes[2] < 3.0 * sizes[0] + 1.0


class TestReducedRhs:
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    @pytest.mark.parametrize("t", [0.0, 0.37, 1.234])
    def test_matches_full_system_pullback(self, rng, eps, t):
        grid = Grid(16)
        for setting in all_settings(eps):
            pair = random_pair(grid, rng, scale1=0.4, scale2=0.3)
            w = ReducedState(pair.u1, pair.u2, t)
            got = reduced_rhs(setting, w)
            want = pullback_reduced_rhs(setting, w)
            err = norm(got.u1 - want.u1, "L2") + norm(got.u2 - want.u2, "L2")
            assert err < 1e-10, (setting.system_kind, setting.law, err)

    @pytest.mark.parametrize(
        "grid", [Grid(0), Grid(1), Grid(6), Grid(10), Grid(16), Grid(6, n_points=300)],
        ids=["K0", "K1", "K6", "K10", "K16", "K6-n300"],
    )
    def test_batch_rows_equal_serial_calls(self, rng, grid):
        # each row of one batched kernel call is the forcing of its own
        # member at its own time: reduced_rhs minus its dispersion term,
        # and, to 1e-13 of the size of dt w, the full system transported
        # through the coordinate change.  On the 300-point grid, its own
        # padded grid, the members fill two blocks and put one member in a
        # third.
        from wavereg.normalform import _reduced_forcing
        from wavereg.spectral import _BLOCK_POINTS

        members, n, K = 7, grid.n_coeffs, grid.n_modes
        if grid.n_points == 300:
            assert grid.n_padded == 300
            members = 2 * (_BLOCK_POINTS // 300) + 1
        times = np.linspace(0.0, 1.5, members) + rng.uniform(0.0, 0.1, members)
        k = grid.wavenumbers.astype(float)
        for setting in all_settings(0.2):
            _, cd = setting.coefficients
            w1, w2 = 0.1 * (rng.standard_normal((2, members, n))
                            + 1j * rng.standard_normal((2, members, n)))
            w1[:, K] = w2[:, K] = 0.0
            g1, n2 = _reduced_forcing(setting, grid, w1, w2, times)
            assert g1.shape == n2.shape == (members, n)
            for b in range(members):
                w = ReducedState(SpectralField(grid, w1[b]), SpectralField(grid, w2[b]),
                                 float(times[b]))
                dispersion = 1j * cd * k * k * w2[b]
                full = reduced_rhs(setting, w)
                size = max(np.max(np.abs(full.u1.coeffs)), np.max(np.abs(full.u2.coeffs)))
                assert np.max(np.abs(g1[b] - full.u1.coeffs)) <= 1e-12 * size
                assert np.max(np.abs(n2[b] + dispersion - full.u2.coeffs)) <= 1e-12 * size
                pulled = pullback_reduced_rhs(setting, w)
                assert np.max(np.abs(g1[b] - pulled.u1.coeffs)) <= 1e-13 * size
                assert np.max(np.abs(n2[b] + dispersion - pulled.u2.coeffs)) <= 1e-13 * size
                if K == 0:
                    assert size == 0.0

    def test_forcing_tables_are_cached_read_only_and_bounded(self, rng):
        # the conjugated setting reads its plain twin's tables; integrate
        # holds no cached function but the propagator's, which the
        # benchmark's tracer counts
        from wavereg import integrate
        from wavereg.normalform import (
            _FORCING_TABLE_CACHE_SIZE,
            _forcing_tables,
            _reduced_forcing,
        )

        grid = Grid(5)
        w1, w2 = 0.1 * rng.standard_normal((2, 1, grid.n_coeffs))
        _reduced_forcing(NormalFormSetting(0.3, amplitude=0.7), grid, w1, w2, 0.1)
        hits = _forcing_tables.cache_info().hits
        _reduced_forcing(NormalFormSetting(0.3, True, amplitude=0.7), grid, w1, w2, 0.1)
        assert _forcing_tables.cache_info().hits == hits + 1
        for j in range(_FORCING_TABLE_CACHE_SIZE + 3):
            for table in _forcing_tables(grid, 0.1 + 0.01 * j, PressureLaw.P1, 1.0):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[...] = 0.0
        info = _forcing_tables.cache_info()
        assert info.maxsize == _FORCING_TABLE_CACHE_SIZE
        assert info.currsize <= info.maxsize
        cached = [name for name, obj in vars(integrate).items() if hasattr(obj, "cache_info")]
        assert cached == ["_plain_propagator"]

    def test_zero_state_is_stationary(self):
        grid = Grid(8)
        w = ReducedState(zeros(grid), zeros(grid), 0.2)
        for setting in all_settings(0.2):
            dw = reduced_rhs(setting, w)
            assert norm(dw.u1, "L2") + norm(dw.u2, "L2") < 1e-15

    def test_w1_equation_oscillatory_prefactor_period(self, rng):
        # For the plain cubic law the w1 nonlinearity carries exp(2it/eps):
        # advancing t by pi*eps flips its sign; the remainder does not follow
        # the same rule, so compare with the remainder subtracted.
        grid = Grid(16)
        eps = 0.2
        setting = NormalFormSetting(eps, law=PressureLaw.P0, amplitude=0.3)
        pair = random_pair(grid, rng)
        t0 = 0.1

        def nonlinearity(t):
            w = ReducedState(pair.u1, pair.u2, t)
            v = oscillate(State(w.w1, w.w2), t, eps, "backward")
            u_tilde = from_normal_coords(setting, v)
            rv = remainder_R(setting, v, u_tilde)
            dw = reduced_rhs(setting, w)
            return dw.u1 + np.exp(-1j * t / eps) * rv.u1

        a = nonlinearity(t0)
        b = nonlinearity(t0 + 0.5 * np.pi * eps)
        assert norm(a + b, "L2") < 1e-12
