"""Independent oracles of the library's array kernels.

Each computation of `wavereg` runs through one array kernel in `src/`.  The
definitions here are the second path the tests compare those kernels
against: per-`State` formulas built from validated `SpectralField`
operations (`multiply`, `derivative`, `conjugate`, ...), one sample at a
time.  They serve the tests only, so the library does not ship them.

    rhs_full, pressure, q_apply, _cubic      the full systems, for the full
                                             step of integrate.py
    apply_M, cancellation_residual,          the normal form, for the kernels
    oscillate, operator_E, _r1_field,        of normalform.py; each operator
    remainder_R, reduced_rhs, _folded        of the conjugated setting is
                                             folded onto its p0 twin
    ode_jet, JetSequence,                    the jet tower of the auxiliary
    _cubic_level_ordered                     cubic flow, for jets_ibp._jets
    quartic_mean                             a four-fold mean by exact
                                             convolutions, for the energies

An oracle takes from `wavereg` only public names and the few private ones
that `test_oracles.py` allows, each for a stated reason, so that it stays
independent of the kernel it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import wraps

import numpy as np

from wavereg.jets_ibp import _jets
from wavereg.model import PressureLaw, State, SystemSpec, _require_law
from wavereg.normalform import (
    NormalFormSetting,
    ReducedState,
    _phases,
    _reduced_forcing,
    to_normal_coords,
)
from wavereg.spectral import (
    SpectralField,
    apply_m,
    conjugate,
    derivative,
    multiply,
    norm,
    remove_mean,
    zeros,
)


# -- model.py -------------------------------------------------------------


def _cubic(law: PressureLaw, u: SpectralField) -> SpectralField:
    """The cubic part p(u) + u of a pressure law: u u u, u conj(u) u or
    conj(u)^3 for p0, p1, p2, alias-free."""
    if law is PressureLaw.P0:
        return multiply([u, u, u])
    if law is PressureLaw.P1:
        return multiply([u, conjugate(u), u])
    cu = conjugate(u)
    return multiply([cu, cu, cu])


def pressure(law: PressureLaw, u: SpectralField) -> SpectralField:
    """Apply the selected pressure law, alias-free."""
    return _cubic(law, u) - u


def q_apply(law: PressureLaw, u: SpectralField, v: SpectralField) -> SpectralField:
    """The quasilinear coefficient map q(u) acting on v.

    q0(u) v = 3 u^2 v; q1(u) v = 2|u|^2 v + u^2 conj(v);
    q2(u) v = 3 conj(u)^2 conj(v).  Each is the derivative of the cubic part
    of the matching pressure law, so d/dx p(u) = -d/dx u + q(u) d/dx u; the
    maps are real-linear (q1 and q2 conjugate their argument) and quadratic
    in the coefficient field u.
    """
    if law is PressureLaw.P0:
        return 3.0 * multiply([u, u, v])
    if law is PressureLaw.P1:
        return 2.0 * multiply([u, conjugate(u), v]) + multiply([u, u, conjugate(v)])
    cu = conjugate(u)
    return 3.0 * multiply([cu, cu, conjugate(v)])


def rhs_full(
    spec: SystemSpec, law: PressureLaw, state: State, t: float = 0.0
) -> State:
    """Time derivative of the full system at a state.

    Autonomous; t is accepted so the signature matches time-steppers.  The
    modified kind is hard-wired to law P0 (its flux conjugates p0 only).
    """
    del t
    _require_law(spec, law)
    ct, cd = spec.coefficients
    u1, u2 = state.u1, state.u2
    dxp = derivative(pressure(law, u1))
    dispersion = (1j * cd) * derivative(u2, order=2)
    if spec.kind == "modified":
        r1 = (-ct) * derivative(conjugate(u2))
        r2 = (-ct) * conjugate(dxp) - dispersion
    else:
        r1 = (-ct) * derivative(u2)
        r2 = (-ct) * dxp - dispersion
    return State(r1, r2)

# -- normalform.py --------------------------------------------------------


def _folded(plain):
    """Turn the plain formula `plain(setting, *args)` into the operator of
    either setting: a conjugated setting is folded onto its plain p0 twin by
    mirroring every State argument and a State result."""

    @wraps(plain)
    def operator(setting: NormalFormSetting, *args):
        if not setting.conjugated:
            return plain(setting, *args)
        mirror = lambda a: State(conjugate(a.u1), a.u2) if isinstance(a, State) else a
        return mirror(plain(replace(setting, conjugated=False), *map(mirror, args)))

    return operator


@_folded
def apply_M(setting: NormalFormSetting, u: State) -> State:
    """The order -1 corrector M: (u1, u2) -> (-m u2, -m u1).

    Output is always zero-mean (the multiplier kills the mean)."""
    return State(-apply_m(u.u2), -apply_m(u.u1))


@_folded
def cancellation_residual(setting: NormalFormSetting, u: State) -> float:
    """L2 size of ([i D dx^2, M] + A dx) u; zero for the correct M.

    Returns the root of the summed squared L2 norms of the two components
    (the mirror preserves both norms).  _cancellation_residuals evaluates
    the same terms on stacks of states."""
    mu = apply_M(setting, u)
    disp_m = State(zeros(u.grid), 1j * derivative(mu.u2, order=2))
    m_disp = apply_M(
        setting, State(zeros(u.grid), 1j * derivative(u.u2, order=2))
    )
    transport = State(derivative(u.u2), -derivative(u.u1))
    res = disp_m - m_disp + transport
    return float(
        np.sqrt(norm(res.u1, "L2") ** 2 + norm(res.u2, "L2") ** 2)
    )


def oscillate(
    v: State,
    t: float,
    epsilon: float,
    direction: str,
    conjugated: bool = False,
) -> State:
    """Move between the slow frame v and the oscillating frame w.

    direction = "forward":  w1 = exp(s1*i*t/eps) v1, w2 = exp(+i*t/eps) v2,
    with s1 = -1 for the regularized system and s1 = +1 for the modified one.
    direction = "backward" applies the inverse phases.  The map is a
    componentwise unimodular scalar, so every norm is preserved."""
    phase1, phase2 = _phases(t, epsilon, direction, conjugated)
    return State(phase1 * v.u1, phase2 * v.u2)


@_folded
def operator_E(setting: NormalFormSetting, v: State, u_tilde: State) -> State:
    """The order-one interaction operator of the v-equation.

        (E v)1 = -i v1 + i a^2 P (p(v1) + v1)           (P kills the mean)
        (E v)2 = +i v2 + q(a u_tilde1) applied to (-i v2)

    The v-equation reads  dt v + i c_d D dx^2 v + (1/eps) E v + kept forcing
    + R v = 0; E collects every term of size 1/eps.  Note the -i sits inside
    the q slot in (E v)2: for the laws p1 and p2 the operator q(c) is only
    real-linear, so scalar phases may not be pulled out."""
    a2 = setting.amplitude**2
    e1 = -1j * v.u1 + 1j * a2 * remove_mean(_cubic(setting.law, v.u1))
    e2 = 1j * v.u2 + q_apply(
        setting.law, setting.amplitude * u_tilde.u1, (-1j) * v.u2
    )
    return State(e1, e2)


def _r1_field(
    setting: NormalFormSetting, v: State, u_tilde: State
) -> SpectralField:
    """r1 = (1/eps) m[(q(a u_tilde1) - q(a v1)) dx v1], with the 1/eps
    divided out symbolically, for the plain setting.

    u_tilde1 - v1 = eps * (M v)1, so writing delta := (M v)1 (computable
    without any division) each law factors the difference of coefficients:

        p0:  q0(a u~1) - q0(a v1) = 3 a^2 (u~1 + v1) * eps*delta
        p1:  2 a^2 eps (u~1 conj(delta) + delta conj(v1)) . + a^2 eps (u~1 + v1) delta conj(.)
        p2:  3 a^2 eps conj(u~1 + v1) conj(delta) conj(.)

    Direct division by eps would lose roughly 16 + log10(eps) digits to
    cancellation; the factored forms are exact for every eps."""
    a2 = setting.amplitude**2
    delta = apply_M(setting, v).u1
    dv1 = derivative(v.u1)
    su = u_tilde.u1 + v.u1
    if setting.law is PressureLaw.P0:
        diff = 3.0 * a2 * multiply([su, delta, dv1])
    elif setting.law is PressureLaw.P1:
        diff = a2 * (
            2.0 * multiply([u_tilde.u1, conjugate(delta), dv1])
            + 2.0 * multiply([delta, conjugate(v.u1), dv1])
            + multiply([su, delta, conjugate(dv1)])
        )
    else:
        diff = 3.0 * a2 * multiply(
            [conjugate(su), conjugate(delta), conjugate(dv1)]
        )
    return apply_m(diff)


@_folded
def remainder_R(setting: NormalFormSetting, v: State, u_tilde: State) -> State:
    """The exact order-one remainder of the v-equation.

    With E = operator_E and r1 = _r1_field, the closed form is

        R v = (Id + eps M)^{-1} ((r1, 0) - M E v),

    which makes the split

        dt v = -i c_d D dx^2 v - (1/eps) E v - (0, c_t * kept forcing) - R v

    exact to rounding, where the kept forcing is q(a u~1) dx v1."""
    ev = operator_E(setting, v, u_tilde)
    r1 = _r1_field(setting, v, u_tilde)
    mev = apply_M(setting, ev)
    return to_normal_coords(setting, State(r1, zeros(v.grid)) - mev)


def reduced_rhs(setting: NormalFormSetting, w: ReducedState) -> State:
    """Time derivative (dt w1, dt w2) of the reduced system.

    The w1 equation is the cubic ODE

        dt w1 = mu(t) * P N(w1) - phase1 * (R v)1

    with (mu, N) depending on the law:  p0, p1, p2 give
    mu = -i a^2/eps * exp(2it/eps), -i a^2/eps, -i a^2/eps * exp(-4it/eps)
    against N = w1^3, |w1|^2 w1, conj(w1)^3.

    The w2 equation is the forced Schroedinger flow

        dt w2 = -i c_d dx^2 w2 - c_t phase2 F1 - (1/eps) phase2 (E v)2^q
                - phase2 (R v)2

    where F1 = q(a u~1) dx v1 is the kept forcing, (E v)2^q is the coupling
    part of the interaction operator (its +i v2 piece cancels against the
    frame phase exactly and is dropped symbolically, not numerically), and
    phase1, phase2 are the frame phases of oscillate.  Everything is built
    from the slow-frame state v = oscillate(w, backward) and the
    reconstructed u_tilde = (Id + eps M) v, so the result agrees with the
    full system's right-hand side to rounding.  This is _reduced_forcing on
    a batch of one, with the free Schroedinger term added back."""
    grid = w.grid
    g1, n2 = _reduced_forcing(setting, grid, w.w1.coeffs[None], w.w2.coeffs[None], w.t)
    _, cd = setting.coefficients
    k = grid.wavenumbers.astype(float)
    dw2 = n2[0] + (1j * cd) * (k * k) * w.w2.coeffs
    return State(SpectralField(grid, g1[0]), SpectralField(grid, dw2))

# -- jets_ibp.py ----------------------------------------------------------


def _cubic_level_ordered(levels: list, j: int) -> SpectralField:
    """Literal ordered-triple evaluation of sum_{a+b+c=j} u_a u_b u_c through
    `multiply`; the independent path used to verify a JetSequence on
    construction."""
    grid = levels[0].grid
    total = zeros(grid)
    for a in range(j + 1):
        for b in range(j + 1 - a):
            c = j - a - b
            total = total + multiply([levels[a], levels[b], levels[c]])
    return total


@dataclass(frozen=True)
class JetSequence:
    """Taylor coefficients u_0, ..., u_depth of the flow of du/dt = f(u)."""

    base: SpectralField
    coeffs: list

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a jet needs at least the zeroth coefficient")
        if norm(self.coeffs[0] - self.base, "L2") > 1e-12 * max(
            1.0, norm(self.base, "L2")
        ):
            raise ValueError("coeffs[0] must equal the base field")
        for j in range(len(self.coeffs) - 1):
            expected = remove_mean(_cubic_level_ordered(self.coeffs, j))
            defect = (j + 1) * self.coeffs[j + 1] - expected
            scale = max(1.0, norm(expected, "L2"))
            if norm(defect, "L2") > 1e-12 * scale:
                raise ValueError(
                    f"jet coefficient {j + 1} violates the cubic recurrence"
                )

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1


def ode_jet(u: SpectralField, depth: int) -> JetSequence:
    """Jet of the auxiliary cubic flow to the requested depth, fully checked."""
    levels = [SpectralField(u.grid, c) for c in _jets(u.grid, u.coeffs, depth)]
    return JetSequence(base=u, coeffs=levels)

# -- spectral.py ----------------------------------------------------------


def quartic_mean(
    a: SpectralField, b: SpectralField, c: SpectralField, d: SpectralField
) -> complex:
    """mean(a*b*c*d) via two exact convolutions (no grid truncation)."""
    ab = np.convolve(a.coeffs, b.coeffs)
    cd = np.convolve(c.coeffs, d.coeffs)
    return complex(np.dot(ab, cd[::-1]))
