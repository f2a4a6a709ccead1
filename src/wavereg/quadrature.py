"""Uniform-grid Simpson quadrature, plain and with an analytic oscillatory weight.

Everything here integrates sampled data y_j = g(t_j) on t_j = j*dx. The
weighted rule computes

    I(t_n) = int_0^{t_n} e^{i*omega*t} g(t) dt

by replacing g with its piecewise quadratic interpolant (classic Simpson
panels spanning two intervals) and integrating t^n * e^{i*omega*t} exactly on
each panel. At omega = 0 this reduces to composite Simpson, cumulative
variant included, so the plain rule is the omega = 0 special case of the
weighted one. Odd nodes and an odd final interval are handled by integrating
the local quadratic over half a panel, which is the same policy
scipy.integrate.cumulative_simpson uses.

The phase moments int_a^b t^n e^{i*omega*t} dt are evaluated in closed form
for |omega*b| >= 1/4 and by a truncated power series below that, so small
phases lose no precision to cancellation. `omega` may be a scalar or a vector
(one frequency per column of `y`), which is how per-mode Schrodinger kernels
are applied to trajectories of Fourier coefficients.

The moments and the panel-start phases depend on omega, dx and the sample
shape only, never on y.  _simpson_rule builds them once as a prepared rule
and _apply_simpson_rule applies it; the public functions build and apply
one, and picard_solve builds its two rules once per solve.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .spectral import _require_at_least, _require_positive

__all__ = [
    "simpson_uniform",
    "cumulative_simpson_uniform",
    "cumulative_weighted_simpson",
    "weighted_simpson",
]

_SERIES_TERMS = 18
_SERIES_CUTOFF = 0.25


def _phase_moments(omega: np.ndarray, b: float) -> np.ndarray:
    """Moments M_n = int_0^b t^n e^{i*omega*t} dt for n = 0, 1, 2.

    Returns an array of shape (3,) + omega.shape.
    """
    omega = np.asarray(omega, dtype=float)
    shape = omega.shape
    om = omega.ravel()
    out = np.empty((3, om.size), dtype=complex)
    small = np.abs(om * b) < _SERIES_CUTOFF
    # Series: M_n = sum_m (i*omega)^m b^{n+m+1} / (m! (n+m+1))
    if np.any(small):
        m = np.arange(1, _SERIES_TERMS)[:, None]
        term = np.ones((_SERIES_TERMS, np.count_nonzero(small)), dtype=complex)
        term[1:] = np.cumprod((1j * om[small]) / m, axis=0)  # (i w)^m / m!
        power = np.arange(_SERIES_TERMS)[:, None, None] + np.arange(1, 4)[:, None]
        out[:, small] = np.sum(term[:, None] * b**power / power, axis=0)
    big = ~small
    if np.any(big):
        w = om[big]
        iw = 1j * w
        e = np.exp(iw * b)
        m0 = (e - 1.0) / iw
        m1 = (b * e - m0) / iw
        m2 = (b * b * e - 2.0 * m1) / iw
        out[0, big] = m0
        out[1, big] = m1
        out[2, big] = m2
    return out.reshape((3,) + shape)


def _panel_coeffs(y0, y1, y2, h: float):
    """Monomial coefficients of the quadratic through (0,y0), (h,y1), (2h,y2)."""
    c0 = y0
    c1 = (-3.0 * y0 + 4.0 * y1 - y2) / (2.0 * h)
    c2 = (y0 - 2.0 * y1 + y2) / (2.0 * h * h)
    return c0, c1, c2


def _panel_integrals(phase, c0, c1, c2, mom):
    """int e^{i*omega*(t_j + s)} (c0 + c1 s + c2 s^2) ds over a panel from
    t_j, given phase = e^{i*omega*t_j} and the moments `mom` of its span."""
    return phase * (c0 * mom[0] + c1 * mom[1] + c2 * mom[2])


class _SimpsonRule(NamedTuple):
    """Everything of cumulative_weighted_simpson that does not depend on the
    samples, for samples of shape `shape` (nodes first): the moments of a
    half panel, of a panel and of a panel's second half, the phase
    e^{i*omega*t_j} at each panel start t_j, and, for an even node count,
    the phase at the start t_{n-3} of the tail's panel (None otherwise)."""

    shape: tuple
    h: float
    mom_h: np.ndarray
    mom_2h: np.ndarray
    mom_back: np.ndarray
    phase: np.ndarray
    tail_phase: np.ndarray | None


def _simpson_rule(shape: tuple, omega, dx: float) -> _SimpsonRule:
    """The weighted rule of cumulative_weighted_simpson for samples of shape
    `shape`, built once so that many sample arrays can share it."""
    n = _require_at_least("n_samples", shape[0], 3)  # one Simpson panel
    _require_positive("dx", dx)
    omega = np.broadcast_to(np.asarray(omega, dtype=float), shape[1:]).copy()
    h = float(dx)
    mom_h = _phase_moments(omega, h)        # int_0^h
    mom_2h = _phase_moments(omega, 2 * h)   # int_0^{2h}
    mom_back = mom_2h - mom_h               # int_h^{2h}
    starts = np.arange(0, n - 2, 2) * h
    phase = np.exp(1j * omega * starts.reshape((-1,) + (1,) * omega.ndim))
    tail_phase = np.exp(1j * omega * ((n - 3) * h)) if n % 2 == 0 else None
    return _SimpsonRule(tuple(shape), h, mom_h, mom_2h, mom_back, phase, tail_phase)


def _apply_simpson_rule(rule: _SimpsonRule, y: np.ndarray) -> np.ndarray:
    """Cumulative integral of the samples y under a prepared rule."""
    y = np.asarray(y)
    if y.shape != rule.shape:
        raise ValueError(f"samples of shape {y.shape} for a rule of shape {rule.shape}")
    n, h = rule.shape[0], rule.h
    out = np.zeros(y.shape, dtype=complex)
    # all panels at once, with e^{i*omega*t_j} carried explicitly per panel
    # start; cumsum adds the panels in order, as a running sum would
    c0, c1, c2 = _panel_coeffs(y[0:-2:2], y[1:-1:2], y[2::2], h)
    out[2::2] = np.cumsum(_panel_integrals(rule.phase, c0, c1, c2, rule.mom_2h), axis=0)
    out[1:-1:2] = out[0:-2:2] + _panel_integrals(rule.phase, c0, c1, c2, rule.mom_h)
    if rule.tail_phase is not None:
        # Odd final interval: quadratic through the last three nodes,
        # integrated over its second half.
        j = n - 3
        c0, c1, c2 = _panel_coeffs(y[j], y[j + 1], y[j + 2], h)
        out[n - 1] = out[n - 2] + _panel_integrals(rule.tail_phase, c0, c1, c2,
                                                   rule.mom_back)
    return out


def cumulative_weighted_simpson(y: np.ndarray, omega, dx: float) -> np.ndarray:
    """Cumulative int_0^{t_j} e^{i*omega*t} g(t) dt for sampled g.

    Parameters
    ----------
    y : array, shape (n_samples, ...) with n_samples >= 3
        Samples of g along axis 0.
    omega : scalar or array broadcastable to y.shape[1:]
        Phase rate of the analytic weight.
    dx : positive sample spacing.

    Returns an array of y's shape (complex), cumulative integral at each node,
    starting at 0.
    """
    y = np.asarray(y)
    return _apply_simpson_rule(_simpson_rule(y.shape, omega, dx), y)


def weighted_simpson(y: np.ndarray, omega, dx: float) -> np.ndarray:
    """int_0^{T} e^{i*omega*t} g(t) dt over the whole sampled interval."""
    return cumulative_weighted_simpson(y, omega, dx)[-1]


def cumulative_simpson_uniform(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative composite Simpson along axis 0 (starts at 0)."""
    out = cumulative_weighted_simpson(y, 0.0, dx)
    if np.isrealobj(y):
        return out.real
    return out


def simpson_uniform(y: np.ndarray, dx: float):
    """Composite Simpson along axis 0."""
    return cumulative_simpson_uniform(y, dx)[-1]
