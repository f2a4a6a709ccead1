"""Grid, transforms, the inverse-derivative multiplier, norms, and dealiased products."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavereg import spectral as sp
from wavereg.quadrature import cumulative_simpson_uniform

from oracles import _cubic as oracle_cubic, quartic_mean


def random_full_band(grid, rng, zero_mean=False):
    c = rng.standard_normal(grid.n_coeffs) + 1j * rng.standard_normal(grid.n_coeffs)
    f = sp.SpectralField(grid, c)
    return sp.remove_mean(f) if zero_mean else f


class TestGridAndTransforms:
    def test_grid_defaults_and_validation(self):
        g = sp.Grid(8)
        assert g.n_points == 34
        assert g.n_coeffs == 17
        # n_padded: the smallest length >= max(2(2K+1), n_points) whose odd
        # part is 11-smooth and at most 128
        assert g.n_padded == 35
        assert sp.Grid(8, n_points=17).n_padded == 35
        assert sp.Grid(8, n_points=61).n_padded == 63
        # wavenumbers: -K..K, one read-only array per grid
        assert np.array_equal(g.wavenumbers, np.arange(-8, 9))
        assert g.wavenumbers is g.wavenumbers and not g.wavenumbers.flags.writeable
        with pytest.raises(ValueError):
            sp.Grid(8, n_points=16)
        with pytest.raises(ValueError):
            sp.Grid(-1)
        # non-integral sizes, rejected by name; numpy integers pass
        with pytest.raises(ValueError, match=r"^n_modes must be an integer, got 1\.5$"):
            sp.Grid(1.5)
        with pytest.raises(ValueError, match=r"^n_points must be an integer, got 20\.5$"):
            sp.Grid(8, n_points=20.5)
        assert sp.Grid(np.int64(8), n_points=np.int64(34)) == g
        with pytest.raises(ValueError, match=r"^n_points must be an integer, got 20\.7$"):
            g.points(20.7)
        assert np.array_equal(g.points(np.int64(20)), g.points(20))

    def test_sizes_are_stored_as_ints(self):
        # a numpy integer is stored as the int it stands for; a bool is not
        # an integer here, though operator.index reads True as 1
        assert repr(sp.Grid(np.int64(4))) == "Grid(n_modes=4, n_points=18)"
        with pytest.raises(ValueError, match=r"^n_modes must be an integer, got True$"):
            sp.Grid(True)
        assert type(sp.Grid(np.int64(4), n_points=np.int64(20)).n_points) is int

    @pytest.mark.parametrize("kind", ["SpectralField", "State", "ReducedState"])
    def test_pickled_fields_stay_read_only(self, rng, kind):
        # the sweep's process pool ships its profile by pickle
        from wavereg.model import State
        from wavereg.normalform import ReducedState

        g = sp.Grid(8, n_points=20)
        a, b = (random_full_band(g, rng, zero_mean=True) for _ in range(2))
        cases = {"SpectralField": (a, lambda x: [x]),
                 "State": (State(a, b), lambda x: [x.u1, x.u2]),
                 "ReducedState": (ReducedState(a, b, 0.25), lambda x: [x.w1, x.w2])}
        obj, fields = cases[kind]
        back = pickle.loads(pickle.dumps(obj))
        assert getattr(back, "t", None) == getattr(obj, "t", None)
        for field, want in zip(fields(back), fields(obj), strict=True):
            assert field.grid == g and field.grid.n_points == 20
            assert np.array_equal(field.coeffs.view(np.uint64), want.coeffs.view(np.uint64))
            assert not field.coeffs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                field.coeffs[0] = 1.0

    def test_non_integer_arguments_are_rejected_by_name(self):
        # rejected by name, not truncated; numpy integers pass
        g = sp.Grid(8)
        with pytest.raises(ValueError, match=r"^wavenumber must be an integer, got 1\.5$"):
            sp.from_modes(g, {1.5: 1.0})
        f = sp.from_modes(g, {np.int64(1): 1.0})
        assert f.coeff(1) == 1.0
        with pytest.raises(ValueError, match=r"^wavenumber must be an integer, got 1\.5$"):
            f.coeff(1.5)
        assert f.coeff(np.int64(1)) == 1.0
        with pytest.raises(ValueError, match=r"^order must be an integer, got 1\.5$"):
            sp.derivative(f, 1.5)
        with pytest.raises(ValueError, match=r"^order must be at least 0, got -1$"):
            sp.derivative(f, -1)
        assert sp.derivative(f, np.int64(2)).coeff(1) == -1.0
        with pytest.raises(ValueError, match=r"^n_points must be an integer, got 20\.7$"):
            sp.to_physical(f, 20.7)
        assert np.array_equal(sp.to_physical(f, np.int64(20)), sp.to_physical(f, 20))

    @pytest.mark.parametrize("grid", [sp.Grid(0), sp.Grid(1), sp.Grid(8, n_points=17),
                                      sp.Grid(33), sp.Grid(512)],
                             ids=["K0", "K1", "K8-n17", "K33", "K512"])
    def test_rows_are_read_only_and_keep_their_formulas(self, grid):
        # the per-mode rows the kernels read, each bit for bit its formula:
        # 1j * k, 1/k with 0 at k = 0, and e^{-iK x_j} with K x_j reduced
        # mod 2 pi in integers
        k = grid.wavenumbers.astype(float)
        n, K = grid.n_padded, grid.n_modes
        formulas = {
            "ik": 1j * grid.wavenumbers,
            "inv_k": np.where(k == 0.0, 0.0, 1.0 / np.where(k == 0.0, 1.0, k)),
            "_demodulation": np.exp(-2j * np.pi * (K * np.arange(n) % n) / n),
        }

        def check(g):
            for name, want in formulas.items():
                row = getattr(g, name)
                assert row is getattr(g, name) and not row.flags.writeable, name
                assert row.dtype == want.dtype and row.shape == want.shape, name
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), name

        check(grid)
        # a grid whose demodulation row has been read is still the grid of
        # its sizes
        fresh = sp.Grid(grid.n_modes, grid.n_points)
        assert grid == fresh and hash(grid) == hash(fresh)
        # the sweep's process pool ships grids by pickle
        back = pickle.loads(pickle.dumps(grid))
        assert back == grid and hash(back) == hash(grid)
        check(back)

    def test_round_trip(self, rng):
        g = sp.Grid(64)
        f = random_full_band(g, rng)
        back = sp.to_spectral(g, sp.to_physical(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_single_mode_values(self):
        g = sp.Grid(6)
        f = sp.from_modes(g, {3: 2.0})
        x = g.points()
        assert np.max(np.abs(sp.to_physical(f) - 2.0 * np.exp(3j * x))) < 1e-12

    def test_aliasing_identity_on_minimal_grid(self):
        # On n_points = 2K+1 the frequency K+1 folds onto K+1 - (2K+1) = -K.
        K = 5
        g = sp.Grid(K, n_points=2 * K + 1)
        x = g.points()
        f = sp.to_spectral(g, np.exp(1j * (K + 1) * x))
        expected = np.zeros(g.n_coeffs, dtype=complex)
        expected[g.index(-K)] = 1.0
        assert np.max(np.abs(f.coeffs - expected)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(0, 16),
        size=st.sampled_from(["minimal", "default", "wide"]),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(K=0, size="default", batch=1, seed=0)
    @example(K=0, size="minimal", batch=2, seed=0)
    @example(K=5, size="minimal", batch=3, seed=1)
    @example(K=5, size="wide", batch=3, seed=2)
    def test_band_coeffs_inverts_padded_values(self, K, size, batch, seed):
        # the padded grid holds the band whatever the grid's own n_points:
        # the minimal 2K + 1, the default 4K + 2, or more than 2(2K + 1)
        n_points = {"minimal": 2 * K + 1, "default": 0, "wide": 4 * K + 3 + seed % 9}
        g = sp.Grid(K, n_points[size])
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((batch, g.n_coeffs)) + 1j * rng.standard_normal(
            (batch, g.n_coeffs)
        )
        values = sp._padded_values(g, c)
        assert values.shape == (batch, g.n_padded)
        back = sp._band_coeffs(g, values)
        assert np.linalg.norm(back - c) <= 1e-15 * np.linalg.norm(c)

    def test_parseval(self, rng):
        g = sp.Grid(32)
        f = random_full_band(g, rng)
        vals = sp.to_physical(f)
        dx = 2 * np.pi / vals.size
        physical = np.sqrt(np.sum(np.abs(vals) ** 2) * dx)
        assert abs(sp.norm(f, "L2") - physical / np.sqrt(2 * np.pi)) < 1e-10


def largest_prime_factor(n):
    factor, largest = 2, 1
    while n > 1:
        while n % factor == 0:
            n //= factor
            largest = factor
        factor += 1
    return largest


def truncated_product(coeff_rows, K):
    """Coefficients |k| <= K of the product, by exact np.convolve."""
    acc = coeff_rows[0]
    for c in coeff_rows[1:]:
        acc = np.convolve(acc, c)
    mid = (acc.size - 1) // 2
    return acc[mid - K : mid + K + 1]


def padded_length_qualifies(n):
    """n's odd part is at most 128 and has no prime factor above 11."""
    odd = n
    while odd % 2 == 0:
        odd //= 2
    return odd <= 128 and largest_prime_factor(odd) <= 11


class TestPaddedLength:
    """n_padded is the smallest length >= max(2(2K+1), n_points) whose odd
    part is at most 128 and has no prime factor above 11, the largest of
    numpy's FFT radices; products on it stay exact."""

    def test_smallest_smooth_length_above_the_bound(self):
        for K in range(601):
            for n_points in (0, 2 * K + 1, 4 * K + 3, 6 * K + 5):
                g = sp.Grid(K, n_points)
                bound = max(2 * (2 * K + 1), g.n_points)
                assert g.n_padded >= bound
                assert padded_length_qualifies(g.n_padded)
                assert not any(padded_length_qualifies(m) for m in range(bound, g.n_padded))

    def test_pinned_lengths(self):
        # up to K = 64 (the CLI's grids) each is the smallest 11-smooth
        # length; from K = 128 on a length rich in twos replaces one with
        # odd radices: 525 = 3*5^2*7, 1029 = 3*7^3, 2058 = 2*3*7^3
        lengths = {8: 35, 10: 42, 12: 50, 16: 66, 18: 75, 32: 132, 54: 220, 64: 264,
                   128: 528, 256: 1056, 512: 2112}
        assert {K: sp.Grid(K).n_padded for K in lengths} == lengths

    @pytest.mark.parametrize("K", [8, 128, 512], ids=["n35", "n528", "n2112"])
    def test_products_match_convolution_oracles(self, rng, K):
        from wavereg.integrate import _cubic_band
        from wavereg.model import PressureLaw, _energies

        g = sp.Grid(K)
        fields = [random_full_band(g, rng) for _ in range(3)]
        c = [f.coeffs for f in fields]
        scale = np.prod([np.sum(np.abs(row)) for row in c])
        for n_factors in (2, 3):
            want = truncated_product(c[:n_factors], K)
            got = sp.multiply(fields[:n_factors]).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
        u, mirror = c[0], np.conj(c[0][::-1])
        cubes = {PressureLaw.P0: (u, u, u), PressureLaw.P1: (u, mirror, u),
                 PressureLaw.P2: (mirror, mirror, mirror)}
        for law, factors in cubes.items():
            want = 1j * g.wavenumbers * truncated_product(factors, K)
            got = g.ik * _cubic_band(law, g, u)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # the quartic part is (2pi/4) mean(u1^4), |u1|^4 for P1
            quartic = _energies(law, u[None], c[1][None])[1, 0]
            second = sp.SpectralField(g, mirror if law is PressureLaw.P1 else u)
            mean = quartic_mean(fields[0], second, fields[0], second).real
            assert abs(quartic - 0.5 * np.pi * mean) <= 1e-13 * np.sum(np.abs(u) ** 2) ** 2

    def test_cubic_band_matches_the_oracle_at_k512(self, rng):
        # the oracle's cubic comes from `multiply` on 6K+3 collocation
        # points, so it shares no padded length with Grid(512)'s 2112; a
        # length below 4K+1 would fold the cubic's mode 3K onto -K
        from wavereg.integrate import _cubic_band
        from wavereg.model import PressureLaw

        g = sp.Grid(512)
        wide = sp.Grid(512, n_points=6 * 512 + 3)
        u = random_full_band(g, rng).coeffs
        for law in PressureLaw:
            want = oracle_cubic(law, sp.SpectralField(wide, u)).coeffs
            got = _cubic_band(law, g, u)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


SHIFTED_GRIDS = [sp.Grid(0), sp.Grid(8), sp.Grid(8, n_points=17), sp.Grid(8, n_points=61),
                 sp.Grid(33), sp.Grid(512)]
SHIFTED_IDS = ["K0", "K8", "K8-n17", "K8-n61", "K33", "K512"]


class TestShiftedBand:
    """The padded kernels' contract against `multiply`, the oracle:
    _padded_values gives u e^{iKx}, and a product with q more plain factors
    than conjugated ones comes back from _band_coeffs with order q.  The
    data carry band-edge modes +-K, so every cubic reaches +-3K, the modes
    that a wrong slice start or a wrong order brings into the band."""

    @staticmethod
    def fields(grid, seed):
        rng = np.random.default_rng(seed)
        K = grid.n_modes
        return [random_full_band(grid, rng) + sp.from_modes(grid, {K: 2.0, -K: -1.5j})
                for _ in range(3)]

    @pytest.mark.parametrize("grid", SHIFTED_GRIDS, ids=SHIFTED_IDS)
    @pytest.mark.parametrize("order, conjugated", [
        (1, (False, True, False)),   # a conj(b) c, the p1 shape
        (2, (False, False)),         # a b
        (3, (False, False, False)),  # a b c, the p0 shape
        (-2, (True, True)),          # conj(a) conj(b)
        (-3, (True, True, True)),    # the p2 shape
    ])
    def test_products_match_multiply(self, grid, order, conjugated):
        fields = self.fields(grid, 7)[: len(conjugated)]
        values = sp._padded_values(grid, np.stack([f.coeffs for f in fields]))
        assert values.shape == (len(fields), grid.n_padded)
        product = np.ones(grid.n_padded, dtype=complex)
        for x, conj in zip(values, conjugated):
            product = product * (np.conj(x) if conj else x)
        got = sp._band_coeffs(grid, product, order)
        want = sp.multiply([sp.conjugate(f) if conj else f
                            for f, conj in zip(fields, conjugated)]).coeffs
        scale = np.prod([np.sum(np.abs(f.coeffs)) for f in fields])
        assert got.shape == (grid.n_coeffs,)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", SHIFTED_GRIDS, ids=SHIFTED_IDS)
    def test_kernels_match_multiply(self, grid):
        # each kernel's products against the same products by `multiply`
        from wavereg.integrate import _cubic_band
        from wavereg.jets_ibp import f_n
        from wavereg.model import PressureLaw

        u = self.fields(grid, 8)[0]
        cu = sp.conjugate(u)
        cubes = {PressureLaw.P0: (u, u, u), PressureLaw.P1: (u, cu, u),
                 PressureLaw.P2: (cu, cu, cu)}
        for law, factors in cubes.items():
            want = sp.derivative(sp.multiply(list(factors))).coeffs
            got = grid.ik * _cubic_band(law, grid, u.coeffs)
            scale = max(1, grid.n_modes) * np.sum(np.abs(u.coeffs)) ** 3  # |k| <= K
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
        want = sp.remove_mean(sp.multiply([u, u, u])).coeffs  # f_0(u) = (Id - mean) u^3
        got = f_n(u, 0).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(u.coeffs)) ** 3

    @pytest.mark.parametrize("grid", SHIFTED_GRIDS[1:], ids=SHIFTED_IDS[1:])
    @pytest.mark.parametrize("order", [0, -1])
    def test_orders_that_wrap_are_refused(self, grid, order):
        values = sp._padded_values(grid, self.fields(grid, 9)[0].coeffs)
        with pytest.raises(ValueError, match=f"order {order} wraps the band"):
            sp._band_coeffs(grid, values, order)

    def test_values_are_the_field_times_the_shift(self):
        # |values| is |u| on the padded points, and the demodulation row
        # gives u's own values there, as to_physical does
        grid = sp.Grid(8, n_points=61)
        u = self.fields(grid, 10)[0]
        values = sp._padded_values(grid, u.coeffs)
        physical = sp.to_physical(u, grid.n_padded)
        assert np.allclose(values * grid._demodulation, physical, rtol=0.0, atol=1e-12)
        assert not grid._demodulation.flags.writeable


def read_only(array):
    array = np.array(array)
    array.setflags(write=False)
    return array


class TestInPlaceAnalysis:
    """_band_coeffs transforms the product its caller formed in place; the
    kernels that call it overwrite only buffers of their own, never an
    input."""

    @pytest.mark.parametrize("grid", SHIFTED_GRIDS, ids=SHIFTED_IDS)
    @pytest.mark.parametrize("order", [1, 3, -3])
    def test_band_coeffs_is_a_view_with_the_out_of_place_bits(self, grid, order):
        rng = np.random.default_rng(12)
        values = (rng.standard_normal((2, grid.n_padded))
                  + 1j * rng.standard_normal((2, grid.n_padded)))
        start = (order - 1) * grid.n_modes % grid.n_padded
        want = np.fft.fft(values, norm="forward")[..., start : start + grid.n_coeffs]
        got = sp._band_coeffs(grid, values, order)
        assert np.shares_memory(got, values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_padded_kernels_leave_read_only_inputs_unchanged(self):
        # a kernel that wrote into an input would raise on these arrays, and
        # one that wrote into a copy it reads again would change its bits
        from wavereg.integrate import _cubic_band, step_full
        from wavereg.jets_ibp import (IbpCoefficients, _jets, f_n, ibp_once_p2,
                                      implicit_residual)
        from wavereg.model import PressureLaw, State, SystemSpec, _energies
        from wavereg.normalform import NormalFormSetting, _reduced_forcing

        grid = sp.Grid(8)
        rng = np.random.default_rng(13)
        fields = [sp.remove_mean(0.1 * sp.random_field(grid, rng, band=(1, 4)))
                  for _ in range(8)]
        rows = read_only([f.coeffs for f in fields])
        u, v, w1, w2 = (read_only(row) for row in rows[:4])
        times = read_only(np.linspace(0.0, 0.01, 4))
        inputs = [rows, u, v, w1, w2, times] + [f.coeffs for f in fields]
        before = [array.tobytes() for array in inputs]
        for law in PressureLaw:
            _cubic_band(law, grid, u)
            _energies(law, rows[:4], rows[4:])
            setting = NormalFormSetting(0.2, False, law, amplitude=0.3)
            _reduced_forcing(setting, grid, rows[:4], rows[4:], times)
        _reduced_forcing(NormalFormSetting(0.2, True, PressureLaw.P0, 0.3),
                         grid, rows[:4], rows[4:], 0.1)
        state = State(fields[0], fields[1])
        for kind in ("regularized", "modified"):
            for scheme in ("exp_rk2", "exp_euler"):
                step_full(SystemSpec(kind, 0.2, rescaled=True), PressureLaw.P0,
                          state, 0.0, 1e-3, scheme)
        _jets(grid, u, 3, v)
        f_n(fields[2], 2)
        coeffs = IbpCoefficients(n=1, lam=0.4, epsilon=0.2, c_embed=2.0)
        implicit_residual(times, fields[:4], fields[4:], coeffs)
        ibp_once_p2(times, fields[:4], fields[4:], 0.25, 0.05)
        assert [array.tobytes() for array in inputs] == before


class TestMultiplier:
    def test_m_kills_mean_and_divides(self, rng):
        g = sp.Grid(16)
        f = random_full_band(g, rng)
        mf = sp.apply_m(f)
        assert sp.project_mean(mf) == 0
        for k in (-16, -3, 1, 7):
            assert abs(mf.coeff(k) - f.coeff(k) / k) < 1e-14

    def test_derivative_commutation(self, rng):
        # d/dx (m u) = m (d/dx u) = i (u - mean u)
        g = sp.Grid(48)
        f = random_full_band(g, rng)
        lhs1 = sp.derivative(sp.apply_m(f))
        lhs2 = sp.apply_m(sp.derivative(f))
        rhs = 1j * sp.remove_mean(f)
        assert np.max(np.abs(lhs1.coeffs - rhs.coeffs)) < 1e-12
        assert np.max(np.abs(lhs2.coeffs - rhs.coeffs)) < 1e-12

    def test_second_derivative_identity(self, rng):
        # -i d^2/dx^2 (m u) = d/dx u
        g = sp.Grid(48)
        f = random_full_band(g, rng)
        lhs = -1j * sp.derivative(sp.apply_m(f), order=2)
        rhs = sp.derivative(f)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_antiderivative_statement_via_quadrature(self, rng):
        # (m u)(x) - (m u)(0) = i int_0^x (u - mean u) dy, checked against an
        # independent cumulative Simpson rule on a fine grid.
        g = sp.Grid(64)
        f = sp.random_field(g, rng, band=(1, 8), zero_mean=False)
        n = 4096
        x = 2 * np.pi * np.arange(n + 1) / n  # includes endpoint for cumulation
        u_vals = sp.to_physical(f, n)
        u_ext = np.concatenate([u_vals, u_vals[:1]])
        integrand = u_ext - sp.project_mean(f)
        quad = 1j * cumulative_simpson_uniform(integrand, x[1] - x[0])
        mu_vals = sp.to_physical(sp.apply_m(f), n)
        mu_ext = np.concatenate([mu_vals, mu_vals[:1]])
        lhs = mu_ext - mu_ext[0]
        assert np.max(np.abs(lhs - quad)) < 1e-8

    def test_sobolev_shift_equality(self, rng):
        # ||m u||_{H^{s+1}} = ||u - mean u||_{H^s} exactly under the
        # max(1,|k|) weight.
        g = sp.Grid(32)
        f = random_full_band(g, rng)  # nonzero mean on purpose
        for s in (0.0, 1.0, 2.5):
            lhs = sp.norm(sp.apply_m(f), "Hs", s=s + 1)
            rhs = sp.norm(sp.remove_mean(f), "Hs", s=s)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_pointwise_bound(self, rng):
        # ||m u||_inf <= sqrt(sum_{0<|k|<=K} k^-2) ||u - mean u||_{L2}
        g = sp.Grid(64)
        const = np.sqrt(2 * np.sum(1.0 / np.arange(1.0, 65.0) ** 2))
        for _ in range(25):
            f = random_full_band(g, rng)
            lhs = sp.norm(sp.apply_m(f), "Linf")
            rhs = const * sp.norm(sp.remove_mean(f), "L2")
            assert lhs <= rhs * (1 + 1e-12) + 1e-12


class TestNormsAndProducts:
    def test_linf_known_value(self):
        g = sp.Grid(4)
        f = sp.from_modes(g, {0: 1.0, 1: 1.0})  # 1 + e^{ix}, max modulus 2
        assert abs(sp.norm(f, "Linf") - 2.0) < 1e-9

    def test_hs_needs_exponent(self):
        g = sp.Grid(2)
        with pytest.raises(ValueError):
            sp.norm(sp.zeros(g), "Hs")

    def test_hs_weight_on_low_modes(self):
        g = sp.Grid(4)
        f = sp.from_modes(g, {0: 3.0})
        for s in (0.0, 1.0, 4.0):
            assert abs(sp.norm(f, "Hs", s=s) - 3.0) < 1e-14

    @pytest.mark.parametrize("K", [0, 3, 16, 64])
    def test_row_norms_have_the_bits_of_one_vector_norm(self, rng, K):
        # np.linalg.norm of each row alone is the oracle; its reduction
        # along an axis rounds differently on some rows
        g = sp.Grid(K)
        scale = np.exp(4.0 * rng.standard_normal((40, 1)))
        rows = scale * (rng.standard_normal((40, g.n_coeffs))
                        + 1j * rng.standard_normal((40, g.n_coeffs)))
        for s in (None, 0.0, 1.0, 2.0, 2.5):
            w = 1.0 if s is None else np.maximum(1.0, np.abs(g.wavenumbers)) ** s
            want = [np.linalg.norm(w * row) for row in rows]
            assert sp._norms(g, rows, s).tolist() == want
            kind = "L2" if s is None else "Hs"
            assert [sp.norm(sp.SpectralField(g, row), kind, s) for row in rows] == want

    def test_the_package_has_one_row_norm_kernel(self):
        """Every stacked L2/H^s norm in src/wavereg goes through _norms: no
        module calls np.linalg.norm along an axis, and the old axis kernel
        _hs_norms is not defined or named anywhere.  A norm of one vector,
        np.linalg.norm(z), stays allowed."""
        package = Path(sp.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "norm"
                        and any(kw.arg == "axis" for kw in node.keywords)):
                    found.append(f"{path.name}:{node.lineno} norm(..., axis=...)")
                names = {getattr(node, field, None) for field in ("id", "attr", "name")}
                if "_hs_norms" in names:
                    found.append(f"{path.name}:{node.lineno} _hs_norms")
        assert found == []

    def test_the_package_spells_each_input_rule_once(self):
        """The message of each input rule is spelled in its one function
        only: no other string or f-string in src/wavereg, cli.py included,
        holds its template, so a rule cannot come back as an inline check.
        cli.py imports no private name, and two of its checks are admitted:
        each guards a key that reaches no library twin by that name."""
        homes = {
            "must be finite": "spectral.py:_require_finite",
            "must be positive": "spectral.py:_require_positive",
            "must be nonnegative": "spectral.py:_require_nonnegative",
            "must lie in (0, 1)": "spectral.py:_require_in_unit_interval",
            "must lie in [0, 1]": "spectral.py:_require_in_unit_interval",
            "must lie in (0, 1/6)": "spectral.py:_require_profile_norm",
            "must be an integer": "spectral.py:_require_integer",
            "must be at least": "spectral.py:_require_at_least",
            "must be at most": "spectral.py:_require_at_least",
            "<= lo <= hi": "spectral.py:_require_band",
            "must be a pair": "spectral.py:_require_band",
            "must be one of": "spectral.py:_require_one_of",
            "live on different grids": "spectral.py:_check_same_grid",
            "defined with law P0 only": "model.py:_require_law",
            "the setting's law": "model.py:_require_setting_law",
        }
        admitted = {
            # simulate and picard hand alpha to no library entry, and the
            # sweep's twin names it amplitude_exponent
            ("cli.py:_amplitude_rule", "must be nonnegative"),
            # picard_solve's twin names the horizon T
            ("cli.py:_cmd_picard", "must be positive"),
        }
        package = Path(sp.__file__).resolve().parent
        found, spelled, cli_spellings = [], set(), []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            home = {}  # id of each node inside a module-level function -> "file:function"
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    home.update(dict.fromkeys(map(id, ast.walk(node)),
                                              f"{path.name}:{node.name}"))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                    continue
                for template, function in homes.items():
                    if template in node.value:
                        if home.get(id(node)) == function:
                            spelled.add(template)
                        elif (home.get(id(node)), template) in admitted:
                            cli_spellings.append((home[id(node)], template))
                        else:
                            found.append(f"{path.name}:{node.lineno} {template!r}")
        assert found == []
        assert spelled == set(homes)  # the guard looks for the functions' own words
        assert sorted(cli_spellings) == sorted(admitted)  # each once, a third fails

    @pytest.mark.parametrize("band, real_valued", [((1, 5), False), ((2, 5), True),
                                                   ((0, 4), False), ((1, 8), False)])
    def test_band_draw_is_the_stream_of_successive_draws(self, band, real_valued):
        # the oracle is random_field's literal draw, field by field
        g = sp.Grid(8)
        rng = np.random.default_rng(3)
        ks = np.arange(band[0], band[1] + 1)
        want = np.zeros((5, g.n_coeffs), dtype=complex)
        for row in want:
            draw = rng.standard_normal((2, ks.size)) + 1j * rng.standard_normal((2, ks.size))
            row[ks + 8] = draw[0]
            row[-ks + 8] = np.conj(draw[0]) if real_valued else draw[1]
        normals = np.random.default_rng(3).standard_normal((5, 4 * ks.size))
        assert np.array_equal(sp._band_draw(g, normals, band, real_valued), want)
        if band[0] > 0:
            fields = sp.random_field(g, np.random.default_rng(3), band, real_valued)
            assert np.array_equal(fields.coeffs, want[0])

    def test_multiply_matches_convolution_oracle(self, rng):
        # Brute-force convolution with truncation as the oracle, K <= 8.
        K = 8
        g = sp.Grid(K)
        for n_factors in (2, 3):
            fields = [random_full_band(g, rng) for _ in range(n_factors)]
            got = sp.multiply(fields)
            acc = fields[0].coeffs
            for f in fields[1:]:
                acc = np.convolve(acc, f.coeffs)
            # acc covers |k| <= n_factors*K; truncate to |k| <= K
            mid = (acc.size - 1) // 2
            expected = acc[mid - K : mid + K + 1]
            assert np.max(np.abs(got.coeffs - expected)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_multiply_matches_truncated_convolution_down_to_the_alias_limit(self, data):
        # products are padded to at least twice the band whatever the grid's
        # own n_points, so even the minimal grid 2K + 1 multiplies exactly
        K = data.draw(st.integers(0, 16), label="K")
        n_points = data.draw(st.integers(2 * K + 1, 4 * K + 4), label="n_points")
        n_factors = data.draw(st.sampled_from([2, 3]), label="n_factors")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = sp.Grid(K, n_points)
        fields = [random_full_band(g, rng) for _ in range(n_factors)]
        acc = fields[0].coeffs
        for f in fields[1:]:
            acc = np.convolve(acc, f.coeffs)
        mid = (acc.size - 1) // 2
        expected = acc[mid - K : mid + K + 1]
        scale = np.prod([np.sum(np.abs(f.coeffs)) for f in fields])
        got = sp.multiply(fields)
        assert np.max(np.abs(got.coeffs - expected)) <= 1e-13 * scale

    def test_multiply_rejects_wrong_arity(self, rng):
        g = sp.Grid(4)
        f = random_full_band(g, rng)
        with pytest.raises(ValueError):
            sp.multiply([f])
        with pytest.raises(ValueError):
            sp.multiply([f, f, f, f])

    def test_conjugate_reverses_coefficients(self, rng):
        g = sp.Grid(12)
        f = random_full_band(g, rng)
        vals = sp.to_physical(f)
        vals_conj = sp.to_physical(sp.conjugate(f))
        assert np.max(np.abs(vals_conj - np.conj(vals))) < 1e-12

    def test_exact_means(self, rng):
        g = sp.Grid(6)
        a, b, c, d = (random_full_band(g, rng) for _ in range(4))
        n_fine = 64  # plenty for degree-4 products of band 6
        va, vb, vc, vd = (sp.to_physical(f, n_fine) for f in (a, b, c, d))
        assert abs(sp.pair_mean(a, b) - np.mean(va * vb)) < 1e-12
        assert abs(quartic_mean(a, b, c, d) - np.mean(va * vb * vc * vd)) < 1e-12

    def test_random_field_properties(self, rng):
        g = sp.Grid(16)
        f = sp.random_field(g, rng, band=(2, 5), real_valued=True)
        assert sp.project_mean(f) == 0
        assert abs(f.coeff(1)) == 0 and abs(f.coeff(6)) == 0
        vals = sp.to_physical(f)
        assert np.max(np.abs(vals.imag)) < 1e-12
        # determinism under the same seed
        f2 = sp.random_field(sp.Grid(16), np.random.default_rng(7), band=(2, 5))
        f3 = sp.random_field(sp.Grid(16), np.random.default_rng(7), band=(2, 5))
        assert np.array_equal(f2.coeffs, f3.coeffs)
