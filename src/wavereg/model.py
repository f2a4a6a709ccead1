"""Pressure laws, energies, and right-hand sides of the regularized systems.

The unknown is a pair (u1, u2) of fields on the torus, u1 a density
fluctuation and u2 a velocity.  The regularized system reads

    d/dt u1 + ct * d/dx u2                             = 0,
    d/dt u2 + ct * d/dx p(u1) + i * cd * d/dx^2 u2     = 0,

with cubic pressure laws

    p0(u) = -u + u^3,   p1(u) = -u + |u|^2 u,   p2(u) = -u + conj(u)^3,

and coefficients (ct, cd) = (1, eps) in original variables or
(1/eps^2, 1/eps^3) after the concentration rescaling (the amplitude
prefactor of concentrating data is applied to the datum, never here, so
right-hand sides stay stateless).  The "modified" kind conjugates the
first-order flux component-wise while leaving the dispersion alone:

    d/dt u1 + ct * d/dx conj(u2)                       = 0,
    d/dt u2 + ct * d/dx conj(p0(u1)) + i*cd*d/dx^2 u2  = 0.

The mirror G(u1, u2) = (conj u1, u2) maps solutions of the modified system
onto solutions of the plain p0 system with the same eps, because p0 has
real coefficients.  The integrator and the normal form implement the
modified kind through G.  The right-hand side itself, with its own modified
formula, and the pressure laws and q maps as SpectralField operations live
in tests/oracles.py (rhs_full, pressure, q_apply), the independent oracle
of integrate.py's kernel and of that fold.

Energies are physical torus integrals (2*pi times the mean value).  The
quadratic terms are exact sums over the coefficients; the quartic term is
the average of u1^4 over the padded grid of at least 4K+2 points, which no
mode of the product's band |k| <= 4K aliases onto the mean, so it carries
no aliasing error at all.  _energies evaluates them on stacks of samples;
energy is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import SpectralField, _band_grid, _blocks, _mirror, _padded_values
from .spectral import _require_in_unit_interval, _require_positive_finite


class PressureLaw(Enum):
    """The three cubic pressure laws; all agree on real-valued fields."""

    P0 = "p0"
    P1 = "p1"
    P2 = "p2"


# plain minus conjugated factors of each law's cubic, u^3, |u|^2 u and
# conj(u)^3: its order for spectral._band_coeffs
_CUBIC_ORDER = {PressureLaw.P0: 3, PressureLaw.P1: 1, PressureLaw.P2: -3}


@dataclass(frozen=True)
class State:
    """A (u1, u2) pair on a common grid, with vector-space arithmetic."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("state components must live on the same grid")

    @property
    def grid(self):
        return self.u1.grid

    def __add__(self, other: "State") -> "State":
        return State(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "State") -> "State":
        return State(self.u1 - other.u1, self.u2 - other.u2)

    def __neg__(self) -> "State":
        return State(-self.u1, -self.u2)

    def __mul__(self, scalar: complex) -> "State":
        return State(self.u1 * scalar, self.u2 * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "State":
        return State(self.u1 / scalar, self.u2 / scalar)


@dataclass(frozen=True)
class SystemSpec:
    """Which system to drive: kind, dispersion strength, scaling, amplitude.

    kind is "regularized" (plain flux) or "modified" (conjugated flux).
    amplitude records the datum prefactor (an eps**alpha or a lambda); it is
    bookkeeping for datum builders and the normal form, and is deliberately
    not consumed by the right-hand side.
    """

    kind: str
    epsilon: float
    rescaled: bool = False
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("regularized", "modified"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        _require_in_unit_interval("epsilon", self.epsilon)
        _require_positive_finite("amplitude", self.amplitude)
        if self.rescaled:
            _rescaled_coefficients(self.epsilon)

    @property
    def coefficients(self) -> tuple[float, float]:
        """(ct, cd): the transport and dispersion coefficients."""
        if self.rescaled:
            return _rescaled_coefficients(self.epsilon)
        return 1.0, self.epsilon


def _rescaled_coefficients(epsilon: float) -> tuple[float, float]:
    """(1/eps^2, 1/eps^3), the rescaled (ct, cd).  Below eps ~ 1.8e-103,
    1/eps^3 overflows to inf, and below ~1.7e-108 eps^3 underflows to 0, so
    such an eps is rejected by name."""
    cube = epsilon**3
    if cube == 0.0 or 1.0 / cube == math.inf:
        raise ValueError(f"epsilon {epsilon} is too small: 1/epsilon^3 is not a finite number")
    return 1.0 / epsilon**2, 1.0 / cube


@dataclass(frozen=True)
class EnergyReport:
    """An energy value split into its quartic and quadratic contributions."""

    value: float
    quartic_part: float
    quadratic_u1_part: float
    quadratic_u2_part: float


def energy(law: PressureLaw, state: State) -> EnergyReport:
    """Physical-integral energy of a state.

        P1:  integral( |u1|^4/4      - |u1|^2/2    + |u2|^2/2 )
        P2:  integral( Re(u1^4)/4    - |u1|^2/2    + |u2|^2/2 )
        P0:  integral( Re(u1^4)/4    - Re(u1^2)/2  + |u2|^2/2 )

    P1 and P2 are the conserved energies of the regularized p1 and p2 flows.
    The P0 form is the quartic functional monitored for the law p0 and for
    the modified system; it does not change under u1 -> conj(u1), so a state
    and its mirror have the same P0 energy.  This is _energies on one row.
    """
    rows = _energies(law, state.u1.coeffs[None], state.u2.coeffs[None])
    return EnergyReport(*rows[:, 0].tolist())


def _energies(law: PressureLaw, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """energy of N samples, given as coefficient arrays u1, u2 of shape
    (N, 2K+1): an array (4, N) whose rows are EnergyReport's value,
    quartic_part, quadratic_u1_part and quadratic_u2_part.

    A pair mean is the exact coefficient sum mean(a b) = sum_k a_k b_{-k}.
    The quartic mean is the average of u1^4 (|u1|^4 for P1) over one
    synthesis on the padded grid of Grid(K): its n_padded >= 4K+2 > 4K
    points (spectral._smooth_length from 4K+2 on, 35 for K = 8) leave
    the band |k| <= 4K of the product no alias on mode 0, so the average is
    the exact mean.  The synthesis gives u1 e^{iKx}, which for P0 and P2
    the grid's _demodulation row takes off.  The rows go through in the
    blocks of spectral._blocks, one FFT call per block."""
    grid = _band_grid(np.shape(u1)[-1])
    two_pi = 2.0 * math.pi

    def pair(a, b):
        return np.sum(a * b[..., ::-1], axis=-1).real

    quart = np.empty(len(u1))
    for block in _blocks(grid, len(u1)):
        x = _padded_values(grid, u1[block])
        if law is PressureLaw.P1:
            x2 = x * np.conj(x)
        else:
            x = grid._demodulation * x  # u1's own values
            x2 = x * x
        quart[block] = np.mean((x2 * x2).real, axis=-1)
    quart *= 0.25 * two_pi
    quad1 = -0.5 * two_pi * pair(u1, u1 if law is PressureLaw.P0 else _mirror(u1))
    quad2 = 0.5 * two_pi * pair(u2, _mirror(u2))
    return np.array([quart + quad1 + quad2, quart, quad1, quad2])


def _require_law(modified: bool, law: PressureLaw) -> None:
    if modified and law is not PressureLaw.P0:
        raise ValueError(f"the modified system is defined with law P0 only, "
                         f"got {getattr(law, 'name', law)}")


def linear_growth_rate(law: PressureLaw, u_star: complex, k: int) -> float:
    """Growth rate of mode k, linearized about the constant state (u*, 0).

    For the dispersionless first-order system the mode-k eigenvalues solve
    lambda^2 = -k^2 p'(u*); the rate is |k| sqrt(-p'(u*)) when p'(u*) < 0
    (elliptic zone) and 0 otherwise.  Along the real axis all three laws
    share p'(x) = -1 + 3 x^2, so the law argument only fixes the interface.
    """
    del law
    z = complex(u_star)
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise ValueError("linearization point must be real")
    dp = -1.0 + 3.0 * z.real**2
    if dp < 0.0:
        return abs(k) * math.sqrt(-dp)
    return 0.0
