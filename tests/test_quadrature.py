"""Quadrature rules: exactness on quadratics, convergence order, scipy agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wavereg.quadrature import (
    _apply_simpson_rule,
    _simpson_rule,
    cumulative_simpson_uniform,
    cumulative_weighted_simpson,
    simpson_uniform,
    weighted_simpson,
)

try:
    from scipy.integrate import cumulative_simpson as scipy_cumsimp

    HAVE_SCIPY_CUMSIMP = True
except ImportError:  # older scipy
    HAVE_SCIPY_CUMSIMP = False


def analytic_weighted_quadratic(c0, c1, c2, omega, t):
    """int_0^t e^{i w s}(c0 + c1 s + c2 s^2) ds, cancellation-safe.

    Closed-form antiderivatives for large phase, a 30-term power series for
    small phase (different cutoff and depth than the implementation, so the
    two do not share failure modes).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    for i, ti in enumerate(t.ravel()):
        if abs(omega * ti) < 0.45:
            moms = []
            for n in range(3):
                acc = 0.0 + 0.0j
                term = 1.0 + 0.0j
                for m in range(30):
                    acc += term * ti ** (n + m + 1) / (n + m + 1)
                    term *= 1j * omega / (m + 1)
                moms.append(acc)
        else:
            iw = 1j * omega
            e = np.exp(iw * ti)
            m0 = (e - 1.0) / iw
            m1 = (ti * e - m0) / iw
            m2 = (ti * ti * e - 2.0 * m1) / iw
            moms = [m0, m1, m2]
        out.ravel()[i] = c0 * moms[0] + c1 * moms[1] + c2 * moms[2]
    return out


class TestPlainSimpson:
    def test_exact_on_quadratic_even_and_odd_lengths(self):
        for n in (5, 6, 11, 12):
            t = np.linspace(0.0, 2.0, n)
            y = 1.0 - 2.0 * t + 3.0 * t**2
            exact = t - t**2 + t**3
            got = cumulative_simpson_uniform(y, t[1] - t[0])
            assert np.max(np.abs(got - exact)) < 1e-13

    def test_fourth_order_convergence(self):
        def run(n):
            t = np.linspace(0.0, 1.0, n)
            y = np.exp(np.sin(3.0 * t))
            return simpson_uniform(y, t[1] - t[0])

        ref = run(4097)
        errs = [abs(run(n) - ref) for n in (65, 129, 257)]
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(r > 3.5 for r in rates)

    @pytest.mark.skipif(not HAVE_SCIPY_CUMSIMP, reason="scipy too old")
    def test_matches_scipy_cumulative(self, rng):
        y = rng.standard_normal(37)
        dx = 0.03
        ours = cumulative_simpson_uniform(y, dx)
        theirs = scipy_cumsimp(y, dx=dx, initial=0.0)
        assert np.max(np.abs(ours - theirs)) < 1e-12

    def test_vector_samples(self, rng):
        y = rng.standard_normal((21, 4))
        dx = 0.1
        full = cumulative_simpson_uniform(y, dx)
        for j in range(4):
            single = cumulative_simpson_uniform(y[:, j], dx)
            assert np.max(np.abs(full[:, j] - single)) < 1e-14


class TestWeightedSimpson:
    def test_exact_on_quadratic_all_phases(self):
        c0, c1, c2 = 0.7, -1.3, 0.4
        for omega in (0.0, 1e-6, 0.3, 7.0, 250.0):
            for n in (7, 8):
                t = np.linspace(0.0, 1.5, n)
                y = c0 + c1 * t + c2 * t**2
                got = cumulative_weighted_simpson(y, omega, t[1] - t[0])
                exact = analytic_weighted_quadratic(c0, c1, c2, omega, t)
                assert np.max(np.abs(got - exact)) < 1e-12

    def test_small_phase_series_continuity(self):
        # The series/closed-form switch must be seamless around the cutoff.
        t = np.linspace(0.0, 1.0, 9)
        y = np.cos(t)
        dx = t[1] - t[0]
        vals = [weighted_simpson(y, w, dx) for w in (0.24 / dx, 0.26 / dx)]
        # not equal, but both accurate against brute force on a fine grid
        # (the rule itself carries the O(h^4) interpolation error of cos)
        for w, v in zip((0.24 / dx, 0.26 / dx), vals):
            tf = np.linspace(0.0, 1.0, 20001)
            brute = np.trapezoid(np.exp(1j * w * tf) * np.cos(tf), tf)
            assert abs(v - brute) < 1e-4

    def test_oscillatory_kernel_accuracy(self):
        # Resolving the envelope, not the phase: g slow, omega fast.
        omega = 400.0
        n = 201
        t = np.linspace(0.0, 1.0, n)
        g = np.exp(-t) * (1.0 + 0.5 * t**2)
        got = weighted_simpson(g, omega, t[1] - t[0])
        tf = np.linspace(0.0, 1.0, 2_000_001)
        gf = np.exp(-tf) * (1.0 + 0.5 * tf**2)
        brute = np.trapezoid(np.exp(1j * omega * tf) * gf, tf)
        assert abs(got - brute) < 1e-8

    def test_per_column_frequencies(self, rng):
        y = rng.standard_normal((15, 3)) + 1j * rng.standard_normal((15, 3))
        omegas = np.array([0.0, 2.0, -40.0])
        dx = 0.05
        full = cumulative_weighted_simpson(y, omegas, dx)
        for j, w in enumerate(omegas):
            single = cumulative_weighted_simpson(y[:, j], w, dx)
            assert np.max(np.abs(full[:, j] - single)) < 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 64, 65])
    def test_panels_summed_as_by_a_running_loop(self, rng, n):
        # the panel-by-panel loop the rule was first written as; the
        # vectorized rule adds the same terms in the same order
        from wavereg.quadrature import _panel_coeffs, _phase_moments

        y = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        omega, h = np.array([0.0, 1.5, -40.0, 3e3]), 0.013
        mom_h, mom_2h = _phase_moments(omega, h), _phase_moments(omega, 2 * h)
        want = np.zeros(y.shape, dtype=complex)
        acc = np.zeros(4, dtype=complex)
        for j in range(0, n - 2, 2):
            phase = np.exp(1j * omega * (j * h))
            c0, c1, c2 = _panel_coeffs(y[j], y[j + 1], y[j + 2], h)
            want[j + 1] = acc + phase * (c0 * mom_h[0] + c1 * mom_h[1] + c2 * mom_h[2])
            acc = acc + phase * (c0 * mom_2h[0] + c1 * mom_2h[1] + c2 * mom_2h[2])
            want[j + 2] = acc
        got = cumulative_weighted_simpson(y, omega, h)
        last = n - 1 if n % 2 == 0 else n
        np.testing.assert_array_equal(got[:last], want[:last])


class TestPreparedRule:
    """The rule cumulative_weighted_simpson builds and applies, built once
    and applied to several sample arrays, as picard_solve uses it."""

    @pytest.mark.parametrize("n", [3, 4, 9, 10, 64, 65])
    @pytest.mark.parametrize(
        "omega, columns",
        [(0.0, ()), (0.0, (4,)), (7.5, ()), (7.5, (4,)),
         (np.array([0.0, 1.5, -40.0, 3e3]), (4,))],
        ids=["zero-1d", "zero", "scalar-1d", "scalar", "vector"],
    )
    def test_applies_as_the_public_function(self, rng, n, omega, columns):
        dx = 0.013
        shape = (n, *columns)
        rule = _simpson_rule(shape, omega, dx)
        for _ in range(3):
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = _apply_simpson_rule(rule, y)
            assert np.array_equal(got, cumulative_weighted_simpson(y, omega, dx))
            if np.ndim(omega) == 0 and omega == 0.0:
                assert np.array_equal(got, cumulative_simpson_uniform(y, dx))

    def test_rejects_short_samples_and_bad_steps(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match=f"^n_samples must be at least 3, got {n}$"):
                _simpson_rule((n, 4), 1.0, 0.1)
            with pytest.raises(ValueError, match=f"^n_samples must be at least 3, got {n}$"):
                cumulative_weighted_simpson(np.ones((n, 4)), 1.0, 0.1)
        for dx in (0.0, -0.1):
            with pytest.raises(ValueError, match="dx must be positive"):
                _simpson_rule((5, 4), 1.0, dx)
            with pytest.raises(ValueError, match="dx must be positive"):
                cumulative_simpson_uniform(np.ones((5, 4)), dx)
        rule = _simpson_rule((5, 4), 1.0, 0.1)
        for shape in ((6, 4), (5, 3), (5,)):
            with pytest.raises(ValueError, match="shape"):
                _apply_simpson_rule(rule, np.ones(shape))


_COEFFICIENT = st.floats(-3.0, 3.0)


def quad_weighted(poly, omega, t):
    """int_0^t e^{i omega s} poly(s) ds by scipy's QUADPACK (cos/sin weights)."""
    re, _ = quad(poly, 0.0, t, weight="cos", wvar=omega)
    im, _ = quad(poly, 0.0, t, weight="sin", wvar=omega)
    return re + 1j * im


class TestSimpsonExactnessProperty:
    """Both rules integrate quadratics exactly at every node, for odd and
    even node counts, against scipy.integrate.quad as the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT),
        n=st.integers(3, 24),
        T=st.floats(0.1, 3.0),
    )
    def test_plain_rule(self, c, n, T):
        poly = lambda s: c[0] + c[1] * s + c[2] * s * s
        t = np.linspace(0.0, T, n)
        got = cumulative_simpson_uniform(poly(t), t[1] - t[0])
        want = np.array([quad(poly, 0.0, ti)[0] for ti in t])
        scale = 1.0 + abs(c[0]) * T + abs(c[1]) * T**2 + abs(c[2]) * T**3
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert simpson_uniform(poly(t), t[1] - t[0]) == got[-1]

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT),
        n=st.integers(3, 24),
        T=st.floats(0.1, 3.0),
        omega=st.floats(-60.0, 60.0),
    )
    def test_weighted_rule(self, c, n, T, omega):
        poly = lambda s: c[0] + c[1] * s + c[2] * s * s
        t = np.linspace(0.0, T, n)
        got = cumulative_weighted_simpson(poly(t), omega, t[1] - t[0])
        want = np.array([quad_weighted(poly, omega, ti) for ti in t])
        scale = 1.0 + abs(c[0]) * T + abs(c[1]) * T**2 + abs(c[2]) * T**3
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert weighted_simpson(poly(t), omega, t[1] - t[0]) == got[-1]
