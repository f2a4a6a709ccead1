"""Normal-form change of coordinates for the rescaled two-component systems.

The rescaled systems carry a transport term of size 1/eps^2 that obscures the
slow dynamics.  The cure is a near-identity change of unknown

    u_tilde = (Id + eps*M) v,

where M(v1, v2) = (-m v2, -m v1) is an order -1 corrector built from the
inverse-derivative multiplier m.  M is chosen so that the commutator of the
dispersive part with M cancels the stiff transport exactly:

    [i D dx^2, M] + A dx = 0

with D = diag(0, 1) and A the rotation [[0, 1], [-1, 0]].  Because the
coefficients obey eps * (1/eps^3) = 1/eps^2, the identity removes the large
transport from the v-equation and leaves an order 1/eps linear part that a
scalar oscillation absorbs:

    w1 = exp(-i t/eps) v1,  w2 = exp(+i t/eps) v2.

What remains is the reduced system: a non-stiff cubic ODE for w1 with an
oscillatory scalar prefactor, and a semilinear Schroedinger equation for w2
forced by w1.  Both are assembled here exactly, with the closed-form
remainder so that the reduced right-hand side agrees with the full system's
to machine accuracy (the test suite checks the pullback identity directly).

All formulas below assume the rescaled coefficient pair (1/eps^2, 1/eps^3)
and zero-mean fields; the k = 0 block of M is zero and the mean is conserved
by both systems, so zero-mean data stay zero-mean.  The datum amplitude is an
explicit parameter here (the full solver absorbs it into the state instead):
the interaction operator and remainder depend on it through the combination
amplitude^2 * cubic terms.

The modified (conjugated) system is the plain p0 system seen through the
mirror G(u1, u2) = (conj u1, u2) (see model.py).  Every operator of the
conjugated setting is therefore G o (the same operator of the plain p0
setting, same eps and amplitude) o G, applied to every state argument and to
a state result; the formulas below are the plain ones only.  The symbol 1/k
of m is real and odd, so conj(m f) = -m conj(f) and the mirrored corrector
is G M G (u1, u2) = (+m conj u2, -m conj u1); the mirrored frame phase on w1
is exp(+i t/eps).

The operators above (the corrector M, the frame oscillation, the
interaction operator E, the remainder R and the reduced right-hand side)
act on validated States, one at a time, in tests/oracles.py: they are the
independent oracles of the kernels here, and only the tests call them.
The change of coordinates both ways (_normal_coords, which
from_normal_coords and to_normal_coords wrap) and the cancellation
residual (_cancellation_residuals) run on coefficient arrays with a
leading sample axis, on the grid's rows ik and 1/k and on the symbols of
Id + eps*M that _mode_symbols builds once per (grid, eps) and keeps in a
small read-only cache.  The reduced system itself is evaluated by one
array kernel, _reduced_forcing: it takes raw coefficient arrays with a
leading batch axis, one member per row at its own time, and assembles the
same formula on spectral.py's padded product grid with two FFT calls per
block of members.  Every per-mode constant of that formula (the symbols of dx, m
and (Id + eps M)^{-1}, the law's factors, the mean projection, 1/eps and
c_t) is folded into two read-only tables, built once per (grid, eps, law,
amplitude) by _forcing_tables and kept in its small lru_cache beside the
kernel; the kernel itself forms only the bare pointwise products.  The
reduced stepper and the Picard solver of integrate.py call it directly,
Picard once per iterate on all its nodes.  The stepper's free phase on w2,
exp(i dt c_d k^2), is kept per step length in a second small cache at the
end of this module, read through the plain function _w2_phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import _CUBIC_ORDER, PressureLaw, State, _require_law, _rescaled_coefficients
from .spectral import (
    SpectralField,
    _band_coeffs,
    _blocks,
    _mirror,
    _norms,
    _padded_values,
    _require_in_unit_interval,
    _require_positive_finite,
)

_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class NormalFormSetting:
    """Parameters of the change of coordinates.

    epsilon     dispersion parameter, 0 < epsilon < 1 (rescaled coefficients
                1/epsilon^2 and 1/epsilon^3 are implied throughout).
    conjugated  False for the regularized system, True for the modified one.
                The modified system only exists for the cubic law p0.
    law         pressure law of the underlying system.
    amplitude   datum amplitude multiplying the normalized state; enters the
                interaction operator and remainder as amplitude^2.
    """

    epsilon: float
    conjugated: bool = False
    law: PressureLaw = PressureLaw.P0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        _require_in_unit_interval("epsilon", self.epsilon)
        _require_positive_finite("amplitude", self.amplitude)
        _require_law(self.conjugated, self.law)

    @property
    def system_kind(self) -> str:
        return "modified" if self.conjugated else "regularized"

    @property
    def coefficients(self) -> tuple[float, float]:
        return _rescaled_coefficients(self.epsilon)


def _require_zero_mean(**fields: SpectralField) -> None:
    """Reject a field whose mean exceeds _MEAN_TOL relative to its L2 norm
    (taken as at least 1, so a mean within _MEAN_TOL needs no norm)."""
    for name, field in fields.items():
        mean = abs(field.coeffs[field.grid.n_modes])
        if mean > _MEAN_TOL and mean > _MEAN_TOL * max(1.0, _norms(field.grid, field.coeffs)):
            raise ValueError(f"{name} must be zero-mean, |mean| = {mean:.3e}")


@dataclass(frozen=True)
class ReducedState:
    """Oscillating-frame state (w1, w2) at time t.  Fields must be zero-mean."""

    w1: SpectralField
    w2: SpectralField
    t: float

    def __post_init__(self) -> None:
        if self.w1.grid != self.w2.grid:
            raise ValueError("w1 and w2 live on different grids")
        _require_zero_mean(w1=self.w1, w2=self.w2)

    @property
    def grid(self):
        return self.w1.grid


def from_normal_coords(setting: NormalFormSetting, v: State) -> State:
    """u_tilde = (Id + eps*M) v, by _normal_coords."""
    u1, u2 = _normal_coords(setting, v.grid, v.u1.coeffs, v.u2.coeffs)
    return State(SpectralField(v.grid, u1), SpectralField(v.grid, u2))


def to_normal_coords(setting: NormalFormSetting, u_tilde: State) -> State:
    """Invert (Id + eps*M), by the closed form of _normal_coords."""
    grid = u_tilde.grid
    v1, v2 = _normal_coords(
        setting, grid, u_tilde.u1.coeffs, u_tilde.u2.coeffs, inverse=True
    )
    return State(SpectralField(grid, v1), SpectralField(grid, v2))


def _normal_coords(setting: NormalFormSetting, grid, a1, a2, inverse=False):
    """(Id + eps*M) applied to coefficient arrays a1, a2 of shape
    (..., 2K+1), or with inverse=True its inverse.

    M is complex-linear and block-diagonal per wavenumber, so Id + eps*M
    has 2x2 blocks [[1, -eps/k], [-eps/k, 1]] (the identity at k = 0); the
    inverse is closed-form and the determinant 1 - (eps/k)^2 >= 1 - eps^2
    never degenerates for eps < 1.  The conjugated setting mirrors the first
    component in and out.  The arrays are not validated."""
    if setting.conjugated:
        a1 = _mirror(a1)
    fac, det = _mode_symbols(grid, setting.epsilon)
    if inverse:
        b1, b2 = (a1 + fac * a2) / det, (fac * a1 + a2) / det
    else:
        b1, b2 = a1 - fac * a2, a2 - fac * a1
    return (_mirror(b1) if setting.conjugated else b1), b2


def _cancellation_residuals(setting: NormalFormSetting, grid, u1, u2):
    """L2 size of ([i D dx^2, M] + A dx) u, zero for the correct M, of every
    row u = (u1, u2) of coefficient arrays of shape (N, 2K+1): the root of
    the summed squared L2 norms of the two components, formed per mode
    from the transport (dx u2, -dx u1) and the commutator's two nonzero
    terms: i dx^2 (M u)_2 in the second component and -(M (0, i dx^2 u2))_1
    in the first, where M u = (-m u2, -m u1).  The conjugated setting
    mirrors u1, which keeps both norms.  Its oracle, cancellation_residual
    in tests/oracles.py, forms all the terms on one State."""
    if setting.conjugated:
        u1 = _mirror(u1)
    inv_k, d1, d2 = grid.inv_k, grid.ik, grid.ik ** 2  # m, dx and dx^2
    res1 = d1 * u2 - -inv_k * (1j * (d2 * u2))
    res2 = 1j * (d2 * (-inv_k * u1)) - d1 * u1
    return np.sqrt(_norms(grid, res1) ** 2 + _norms(grid, res2) ** 2)


@lru_cache(maxsize=16)
def _mode_symbols(grid, epsilon: float) -> tuple:
    """The read-only per-mode symbols of _normal_coords, built once per
    (grid, eps): eps/k and the determinant 1 - (eps/k)^2 of Id + eps*M (0
    and 1 at k = 0)."""
    k = grid.wavenumbers.astype(float)
    fac = np.where(k == 0.0, 0.0, epsilon / np.where(k == 0.0, 1.0, k))
    symbols = (fac, 1.0 - fac * fac)
    for symbol in symbols:
        symbol.setflags(write=False)
    return symbols


def _phases(t, epsilon: float, direction: str, conjugated: bool = False):
    """The frame phases (phase1, phase2) at a time or an array of times t.

    direction = "forward" gives w1 = phase1 v1, w2 = phase2 v2 with phase1
    = exp(s1*i*t/eps), phase2 = exp(+i*t/eps), s1 = -1 for the regularized
    system and s1 = +1 for the modified one; "backward" gives the inverse
    phases."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    s1 = 1.0 if conjugated else -1.0
    sgn = 1.0 if direction == "forward" else -1.0
    return np.exp(sgn * s1 * 1j * t / epsilon), np.exp(sgn * 1j * t / epsilon)


def _reduced_forcing(setting: NormalFormSetting, grid, w1, w2, t):
    """Lawson forcing (g1, n2) of the reduced system on raw coefficients.

    w1 and w2 have shape (B, 2K+1) and t has shape (B,): B members, each at
    its own time; a float t is one time for every member.  The result is one
    array (2, B, 2K+1), which unpacks as g1, n2: g1 is dt w1; n2 is dt w2
    without the free Schroedinger term -i c_d dx^2 w2, which the stepper's
    exact phase carries.  The arrays are not validated.

    The formula is that of reduced_rhs in tests/oracles.py, rearranged so
    that every piece is built once.  With rot = exp(it/eps), v1 = rot w1,
    v2 = w2 / rot, delta = (M v)1 = -m v2 and u~1 = v1 + eps delta:

      * the synthesis table of _forcing_tables maps (v1, v2) to the rows
        (v1, v2, delta, dx v1), which one inverse FFT takes to the padded
        grid of spectral.py (grid.n_padded, the smallest size >=
        max(2(2K+1), n_points) whose odd part is 11-smooth and at most 128);
      * there _forcing_products forms the bare cubic products, conjugates
        included, and one forward FFT brings them back at the law's order;
      * mu N(w1) = -i a^2/eps exp(-it/eps) N(v1) for every law, so the
        cubic term of E v gives the w1 nonlinearity by a scalar phase, and
        R v = (Id + eps M)^{-1}((r1, 0) - M E v), with r1 the factored
        form of the oracle _r1_field, is linear per mode in the products and (v1, v2);
        the post-map table of _forcing_tables takes those six rows to
        (g1 rot, n2 / rot), one product-sum per output row.

    The conjugated setting is the plain p0 one with w1 and g1 mirrored, on
    the plain tables.  The members go through in the row blocks of
    spectral._blocks, two FFT calls per block."""
    eps, conjugated = setting.epsilon, setting.conjugated
    synthesis, post = _forcing_tables(grid, eps, setting.law, setting.amplitude)
    order = _CUBIC_ORDER[setting.law]
    rot = np.exp(1j * np.asarray(t, dtype=float).reshape(-1, 1) / eps)  # (B, 1), or (1, 1)
    out = np.empty((2,) + np.shape(w1), dtype=complex)
    # Every temporary here is per block, and the post-map goes one output
    # row at a time: mirroring the whole batch or one (2, 6, rows, 2K+1)
    # product raised picard's peak RSS by 0.4 MB.
    for block in _blocks(grid, len(w1)):
        r = rot[block] if len(rot) > 1 else rot
        v1 = r * (_mirror(w1[block]) if conjugated else w1[block])
        v2 = w2[block] / r
        rows = np.array((v1, v2, v2, v1))
        padded = _forcing_products(setting.law, eps, _padded_values(grid, synthesis * rows))
        z = np.concatenate((_band_coeffs(grid, padded, order), rows[:2]))
        g1 = (post[0] * z).sum(axis=0) / r
        out[0, block] = _mirror(g1) if conjugated else g1
        out[1, block] = (post[1] * z).sum(axis=0) * r
    return out


# Distinct (grid, eps, law, amplitude) of the reduced forcing: a run uses one
# or two, and a table at K = 512 takes about 0.26 MB.
_FORCING_TABLE_CACHE_SIZE = 16


@lru_cache(maxsize=_FORCING_TABLE_CACHE_SIZE)
def _forcing_tables(grid, epsilon: float, law: PressureLaw, amplitude: float):
    """Read-only per-mode tables of _reduced_forcing's plain setting.

    synthesis (4, 1, 2K+1) takes the rows (v1, v2, v2, v1) to (v1, v2,
    delta, dx v1).  post (2, 6, 1, 2K+1), each row summed over its six terms,
    takes the coefficients of _forcing_products' rows (cubic, coupling, kept,
    diff) and (v1, v2) to

        g1 rot   = -(i a^2/eps) P N(v1) - r1,
        n2 / rot = -(c_t kept + coupling/eps + r2),

    where E v = (i a^2 P N(v1) - i v1, i v2 + coupling), (y1, y2) =
    m (diff + (E v)2, (E v)1) and (r1, r2) = (y1 + fac y2, fac y1 + y2) /
    det with fac = eps/k, det = 1 - fac^2.  Coupling, kept and diff are
    the bare products times -i c a^2 (+i c a^2 for p2, whose conjugation
    flips the i), c a^2 and c a^2, with c = 3 for p0 and p2 and 1 for p1."""
    k = grid.wavenumbers.astype(float)
    ones = np.ones_like(k)
    inv_k = grid.inv_k
    fac = epsilon * inv_k
    kd = inv_k / (1.0 - fac * fac)  # m, then the diagonal of (Id + eps M)^{-1}
    ct = 1.0 / epsilon**2
    a2 = amplitude**2
    c = (1.0 if law is PressureLaw.P1 else 3.0) * a2
    coupling = (1j if law is PressureLaw.P2 else -1j) * c
    mean_free = np.where(k == 0.0, 0.0, 1.0)  # P
    synthesis = np.array([ones, ones, -inv_k, grid.ik])
    post = np.array([
        # cubic, coupling, kept, diff, v1, v2
        [-1j * a2 * (1.0 / epsilon + fac * kd) * mean_free, -coupling * kd,
         0.0 * ones, -c * kd, 1j * fac * kd, -1j * kd],
        [-1j * a2 * kd, -coupling * (1.0 / epsilon + fac * kd), -ct * c * ones,
         -c * fac * kd, 1j * kd, -1j * fac * kd],
    ])
    synthesis, post = synthesis[:, None], post[:, :, None]  # over the members
    synthesis.setflags(write=False)
    post.setflags(write=False)
    return synthesis, post


def _forcing_products(law: PressureLaw, eps: float, x):
    """The bare products of _reduced_forcing on the padded grid, in one
    buffer, from x = (v1, v2, delta, dx v1) and u~1 = v1 + eps delta: N(v1)
    and, for p0, u~1^2 v2, u~1^2 dx v1 and (u~1 + v1) delta dx v1; p2
    conjugates all four, and p1 takes q1's real-linear forms."""
    x1, x2, xd, xdv1 = x
    xu = x1 + eps * xd
    out = np.empty_like(x)
    if law is PressureLaw.P1:
        cx = np.conj(x[1::2])  # conj(v2), conj(dx v1)
        sq = xu * xu
        np.multiply(2.0 * xu * np.conj(xu), x[1::2], out=out[1:3])
        out[0] = x1 * np.conj(x1) * x1
        out[1] -= sq * cx[0]
        out[2] += sq * cx[1]
        out[3] = (2.0 * xu * np.conj(xd) * xdv1 + 2.0 * xd * np.conj(x1) * xdv1
                  + (xu + x1) * xd * cx[1])
        return out
    np.multiply(xu * xu, x[1::2], out=out[1:3])
    out[0] = x1 * x1 * x1
    out[3] = (xu + x1) * xd * xdv1
    if law is PressureLaw.P2:
        np.conj(out, out=out)  # q2, the p2 cubic and their r1 product
    return out


# Step lengths of the reduced stepper's w2 phase: an exp_rk2 step reads p(dt),
# then p(dt/2), and no phase outlives its solve, so the cache keeps those two,
# the rule of integrate's propagator cache.
_W2_PHASE_CACHE_SIZE = 2


def _w2_phase(grid, cd: float, dt: float) -> np.ndarray:
    """Free Schroedinger factor on w2: per-mode phase exp(i dt cd k^2), as a
    read-only array from _w2_phase_table's cache.  This plain function is
    what integrate imports, so that module holds no cache of its own but
    the propagator's."""
    return _w2_phase_table(grid, cd, dt)


@lru_cache(maxsize=_W2_PHASE_CACHE_SIZE)
def _w2_phase_table(grid, cd: float, dt: float) -> np.ndarray:
    k = grid.wavenumbers.astype(float)
    phase = np.exp(1j * dt * cd * k * k)
    phase.setflags(write=False)
    return phase
