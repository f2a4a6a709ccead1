"""Oscillatory integration by parts for the first reduced component.

The slow equation has the shape dw1/dt = (mu(t)/eps) f(w1) + R1 with
f(u) = (Id - mean) u^3 and mu(t) = -i lambda^2 exp(2it/eps).  Each
integration by parts against the explicit phase trades one power of the
small amplitude for a boundary term; iterating n times produces a
polynomial boundary expression P_n, a transported remainder operator
bold_R_n acting on R1, and one leftover integral carrying f_n, the n-th
iterate of the chain f_{k+1}(u) = f_k'(u)[f(u)].

f_n is not expanded symbolically.  Along the auxiliary flow du/dt = f(u)
every f_n(u) is the n-th time derivative of f(u(t)) at t = 0, so the Taylor
jet of that flow delivers the whole tower at once:

    f_n(u) = n! (n+1) u_{n+1},   (j+1) u_{j+1} = (Id - mean) sum_{a+b+c=j} u_a u_b u_c.

Directional derivatives f_n'(u)[v] ride along as tangent jets of the same
recurrence.  One array recurrence, _jets, builds both for a stack of fields
on the padded product grid of spectral.py, one forward FFT per level; the
tower maps, the growth bound (_fn_bounds, every order of a stack of pairs
at once) and implicit_residual (per block of samples) call it directly.
The factors k! (k+1) live in one read-only row, _MAP_FACTORS.

P_n and bold_R_n are one series.  With S(mu; g) = sum_{k<n}
(-mu)^{k+1} / ((2i)^{k+1} (k+1)!) g_k,

    bold_R_n(w1, R1) = R1 + S(mu(t); f_k'(w1)[R1]),
    P_n = w1_0 - S(mu(t); f_k(w1_t)) + S(mu(0); f_k(w1_0)),

and _transported sums S along the levels it is handed, tangent or plain.
Its oracle is JetSequence in tests/oracles.py, which re-checks every level
of ode_jet's jet (or one built by hand) against the literal sum of
`multiply` products; the tests hold _jets to it.  The residual evaluators
at the bottom check the resulting implicit representations against
sampled trajectories; they are the numerical arbiter for every sign in
this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import simpson_uniform
from .spectral import (
    SpectralField,
    _band_coeffs,
    _blocks,
    _check_same_grid,
    _linf_norms,
    _mirror,
    _norms,
    _padded_values,
    _require_at_least,
    _require_finite,
    _require_in_unit_interval,
    _require_nonnegative,
    _require_positive_finite,
    norm,
)

_MAX_DEPTH = 16  # factorial growth of the coefficients overflows doubles near 20

# the tower maps' factors k! (k+1), f_k = k! (k+1) u_{k+1}, for k < _MAX_DEPTH
_MAP_FACTORS = np.array([math.factorial(k) * (k + 1) for k in range(_MAX_DEPTH)])
_MAP_FACTORS.setflags(write=False)


def _jets(grid, u: np.ndarray, depth: int, v: np.ndarray | None = None):
    """Jet levels u_0 = u, ..., u_depth, shape (depth + 1, ..., 2K+1), of each
    field in the coefficient stack u, shape (..., 2K+1), and with directions v
    also the tangent levels delta u_0 = v, ..., delta u_depth (as a pair):

        (j+1) u_{j+1} = (Id - mean) C_j,    (j+1) delta u_{j+1} = (Id - mean) T_j.

    The ordered triple sums are formed on the padded grid through the pair
    sums S_j = sum_{a+b=j} u_a u_b: C_j = sum_c S_{j-c} u_c and T_j =
    3 sum_c S_{j-c} delta u_c.  Each level but the last is synthesized once,
    and C_j and T_j (order 3) come back by one forward FFT: 2 depth FFT
    calls."""
    depth = _require_at_least("depth", depth, 0, _MAX_DEPTH)
    rows = np.stack([u] if v is None else [u, v])
    jet = np.zeros((depth + 1,) + rows.shape, dtype=complex)
    jet[0] = rows
    values, pairs = [], []
    for j in range(depth):
        values.append(_padded_values(grid, jet[j]))  # u_j and delta u_j
        pairs.append(sum(values[a][0] * values[j - a][0] for a in range(j + 1)))
        level = _band_coeffs(grid, sum(pairs[j - c] * values[c] for c in range(j + 1)), 3)
        level[..., grid.n_modes] = 0.0
        level[1:] *= 3.0  # the tangent row: T_j
        jet[j + 1] = level / (j + 1)
    return jet[:, 0] if v is None else (jet[:, 0], jet[:, 1])


def f_n(u: SpectralField, n: int) -> SpectralField:
    """n-th tower map: f_0(u) = (Id - mean) u^3, f_{k+1} = f_k'[f_0].  It
    reads the jet at depth n + 1, so n is at most _MAX_DEPTH - 1 = 15."""
    n = _require_at_least("n", n, 0, _MAX_DEPTH - 1)
    level = _jets(u.grid, u.coeffs, n + 1)[n + 1]
    return SpectralField(u.grid, _MAP_FACTORS[n] * level)


def f_n_directional(u: SpectralField, n: int, v: SpectralField) -> SpectralField:
    """f_n'(u)[v] via the tangent jet."""
    n = _require_at_least("n", n, 0, _MAX_DEPTH - 1)
    _check_same_grid(u, v)
    _, deltas = _jets(u.grid, u.coeffs, n + 1, v.coeffs)
    return SpectralField(u.grid, _MAP_FACTORS[n] * deltas[n + 1])


@dataclass(frozen=True)
class IbpCoefficients:
    """Bookkeeping for the integration-by-parts tower.

    lam is the datum amplitude (the spec's lambda; renamed because of the
    Python keyword), c_embed the sup-norm embedding constant used by the
    cutoff rule.  The k-th denominator is the exact product of the phase
    factors collected by k+1 integrations by parts.
    """

    n: int
    lam: float
    epsilon: float
    c_embed: float

    def __post_init__(self) -> None:
        _require_at_least("n", self.n, 1)
        _require_finite("lam", self.lam)
        _require_nonnegative("lam", self.lam)
        _require_in_unit_interval("epsilon", self.epsilon)
        _require_positive_finite("c_embed", self.c_embed)

    def mu(self, t):
        """The phase -i lam^2 exp(2it/eps) at a time t, or at each time of an
        array of times."""
        return -1j * self.lam**2 * np.exp(2.0j * t / self.epsilon)

    def denominator(self, k: int) -> complex:
        # prod_{j=1}^{k+1} (2 i j) = (2i)^{k+1} (k+1)!  (exact closed form)
        return (2.0j) ** (k + 1) * math.factorial(k + 1)


def P_n_eval(
    w1_t: SpectralField, w1_0: SpectralField, t: float, coeffs: IbpCoefficients
) -> SpectralField:
    """Boundary-term polynomial after n integrations by parts:
    w1_0 + sum_{k<n} (-1)^k / ((2i)^{k+1}(k+1)!) (mu(t)^{k+1} f_k(w1_t)
    - mu(0)^{k+1} f_k(w1_0)).  Since (-1)^k mu^{k+1} = -(-mu)^{k+1}, this is
    w1_0 - S(mu(t); f_k(w1_t)) + S(mu(0); f_k(w1_0)), with S the series of
    bold_R_n: one _transported call sums it at both ends."""
    _check_same_grid(w1_t, w1_0)
    jet = _jets(w1_t.grid, np.stack([w1_t.coeffs, w1_0.coeffs]), coeffs.n)
    s_t, s_0 = _transported(coeffs, 0.0, jet, coeffs.mu(np.array([t, 0.0]))[:, None])
    return SpectralField(w1_0.grid, w1_0.coeffs + (s_0 - s_t))


def bold_R_n(
    w1: SpectralField, R1: SpectralField, t: float, coeffs: IbpCoefficients
) -> SpectralField:
    """Transported remainder (1 + sum_{k<n} (-mu)^{k+1}/((2i)^{k+1}(k+1)!)
    f_k'(w1)[.]) applied to R1."""
    _check_same_grid(w1, R1)
    _, deltas = _jets(w1.grid, w1.coeffs, coeffs.n, R1.coeffs)
    return SpectralField(w1.grid, _transported(coeffs, R1.coeffs, deltas, coeffs.mu(t)))


def _transported(coeffs: IbpCoefficients, r, levels, mu):
    """r + S(mu; g) on arrays of shape (..., 2K+1), with mu a scalar or of
    shape (..., 1) and g_k = _MAP_FACTORS[k] levels[k+1]: bold_R_n when the
    levels are the tangent levels along r, P_n's end sums (r = 0) when they
    are the plain jet levels."""
    out = r
    for k in range(coeffs.n):
        g_k = _MAP_FACTORS[k] * levels[k + 1]
        out = out + ((-mu) ** (k + 1) / coeffs.denominator(k)) * g_k
    return out


def _samples(times, w1_samples, r1_samples):
    """The checked inputs of a sampled representation: the times, their
    uniform step, the one grid, and the w1 and R1 rows, shape (S, 2K+1)."""
    times = np.asarray(times, dtype=float)
    if not (len(times) == len(w1_samples) == len(r1_samples)):
        raise ValueError("times, w1 samples, and R1 samples must align")
    _require_at_least("n_samples", len(times), 3)
    gaps = np.diff(times)
    if gaps[0] <= 0.0 or not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ValueError("insufficient sampling: times must be uniform")
    for f in (*w1_samples, *r1_samples):
        _check_same_grid(w1_samples[0], f)
    w, r = (np.stack([f.coeffs for f in fs]) for fs in (w1_samples, r1_samples))
    return times, float(gaps[0]), w1_samples[0].grid, w, r


def implicit_residual(
    times, w1_samples, r1_samples, coeffs: IbpCoefficients
) -> float:
    """H1 defect of the n-fold implicit representation at the final time:

        w1(T) - P_n - (-1)^n/(eps (2i)^n n!) int_0^T mu^{n+1} f_n(w1)
              - int_0^T bold_R_n(w1, R1).

    Phases are evaluated analytically at the nodes; only the fields are
    quadratured (composite Simpson on the uniform sample grid)."""
    times, _, grid, w, r = _samples(times, w1_samples, r1_samples)
    return _implicit_residual(grid, times, w, r, coeffs)


def _implicit_residual(grid, times, w, r, coeffs: IbpCoefficients) -> float:
    """implicit_residual on arrays: uniform times, shape (S,), and the w1 and
    R1 rows, shape (S, 2K+1).  The integrand, the leftover f_n term plus
    bold_R_n, comes per block of samples from one jet with tangent of depth
    n + 1: tangent levels up to n do not depend on the depth."""
    n = coeffs.n
    mu = coeffs.mu(times)[:, None]
    leftover = (-1.0) ** n / (coeffs.epsilon * (2.0j) ** n * math.factorial(n)) * mu ** (n + 1)
    integrand = np.empty_like(w)
    for block in _blocks(grid, len(times)):
        jet, deltas = _jets(grid, w[block], n + 1, r[block])
        integrand[block] = (leftover[block] * (_MAP_FACTORS[n] * jet[n + 1])
                            + _transported(coeffs, r[block], deltas, mu[block]))
    ends = SpectralField(grid, w[-1]), SpectralField(grid, w[0])
    boundary = P_n_eval(*ends, float(times[-1]), coeffs).coeffs
    defect = w[-1] - boundary - simpson_uniform(integrand, times[1] - times[0])
    return norm(SpectralField(grid, defect), "Hs", s=1)


def ibp_once_p2(times, w1_samples, r1_samples, alpha: float, epsilon: float) -> float:
    """H1 defect of the single integration by parts available for the
    conjugate-cube law, whose phase exp(-4it/eps) dies against its own
    conjugate after one pass (the leftover cubic-squared integral is
    resonant, so no second pass exists):

        w1(T) = w1(0) + (lam^2/4)(e^{-4iT/eps} P wbar1(T)^3 - P wbar1(0)^3)
              - (3 i lam^4 / 4 eps) int P(wbar1^2 P w1^3)
              - (3 lam^2 / 4) int e^{-4it/eps} P(wbar1^2 Rbar1)
              + int R1,        lam = eps^alpha,  P = Id - mean.
    """
    times, dx, grid, w, r = _samples(times, w1_samples, r1_samples)
    lam = epsilon**alpha
    phase = np.exp(-4.0j * times / epsilon)
    # one integrand row per sample from the rows P w1^3, P(wbar1^2 Rbar1) and
    # P(wbar1^2 P w1^3), four FFT calls per block of samples
    integrand = r.copy()
    for block in _blocks(grid, len(times)):
        x, xr = _padded_values(grid, np.stack([w[block], r[block]]))
        xx = x * x
        # the rows of order -3 and -1 are formed conjugated and mirrored
        cube, forcing = _band_coeffs(grid, np.stack([xx * x, xx * xr]), 3)
        forcing = _mirror(forcing)
        cube[:, grid.n_modes] = forcing[:, grid.n_modes] = 0.0
        resonant = _mirror(_band_coeffs(grid, xx * np.conj(_padded_values(grid, cube))))
        resonant[:, grid.n_modes] = 0.0
        integrand[block] += ((-3.0j * lam**4 / (4.0 * epsilon)) * resonant
                             + (-3.0 * lam**2 / 4.0) * phase[block, None] * forcing)
        if block.start == 0:
            first = cube[0]
    boundary = _mirror(np.stack([first, cube[-1]]))  # P wbar1^3 at 0 and T
    rep = (
        w[0]
        + (lam**2 / 4.0) * (phase[-1] * boundary[1] - boundary[0])
        + simpson_uniform(integrand, dx)
    )
    return norm(SpectralField(grid, w[-1] - rep), "Hs", s=1)


def choose_n(lam: float, epsilon: float, c_embed: float) -> int:
    """Smallest n >= 1 with (2n+1)(c lam)^{2(n+1)} <= epsilon."""
    _require_positive_finite("epsilon", epsilon)
    _require_finite("lam", lam)  # a nan makes every comparison below false
    _require_finite("c_embed", c_embed)
    x = c_embed * lam
    _require_nonnegative("c_embed * lam", x)
    if x >= 1.0:
        raise ValueError(f"c_embed * lam = {x} is not below 1; no cutoff order exists")
    n = 1
    while (2 * n + 1) * x ** (2 * (n + 1)) > epsilon:
        n += 1
        if n > 100_000:
            raise RuntimeError("cutoff scan failed to terminate")
    return n


@dataclass(frozen=True)
class BoundReport:
    """Measured norm vs. claimed bound, ratio <= 1 on every valid input."""

    norm_fn: float
    bound_fn: float
    ratio_fn: float
    norm_dfn: float | None = None
    bound_dfn: float | None = None
    ratio_dfn: float | None = None


def verify_fn_bound(u: SpectralField, n: int, v: SpectralField | None = None) -> BoundReport:
    """Evaluate ||f_n(u)||_H1 against prod_{k=0}^{n+1}(2k+1)
    ||u||_inf^{2(n+1)} ||u||_H1, sharp on single modes; with a direction v,
    also f_n'(u)[v] against the mixed-norm analogue.  The products carry one
    factor more than a naive count of the derivative cascade suggests; the
    single-mode case attains equality, so the constant cannot be smaller.
    This is _fn_bounds on a batch of one."""
    if v is not None:
        _check_same_grid(u, v)
    reports = _fn_bounds(u.grid, u.coeffs[None], n, None if v is None else v.coeffs[None])
    return reports[n][0]


def _fn_bounds(grid, u: np.ndarray, n_max: int, v: np.ndarray | None = None):
    """verify_fn_bound(u_b, n, v_b) of every row b of the coefficient stacks
    u and v, shape (B, 2K+1), at every order n <= n_max <= 8, as reports[n][b].
    One _jets call of depth n_max + 1 gives every order's f_n rows (and
    tangent rows along v); the norms are taken on the stacks by norm's own
    reductions, and each bound by the same scalar arithmetic per row."""
    n_max = _require_at_least("n", n_max, 0, 8)
    scales = _MAP_FACTORS[: n_max + 1, None, None]
    if v is None:
        jet = _jets(grid, u, n_max + 1)
    else:
        jet, deltas = _jets(grid, u, n_max + 1, v)
        dvalues = _norms(grid, scales * deltas[1:], 1.0).tolist()
        h1_v, sup_v = _norms(grid, v, 1.0).tolist(), _linf_norms(grid, v).tolist()
    values = _norms(grid, scales * jet[1:], 1.0).tolist()
    sup_u, h1_u = _linf_norms(grid, u).tolist(), _norms(grid, u, 1.0).tolist()
    reports = []
    for n in range(n_max + 1):
        product = float(math.prod(range(1, 2 * n + 4, 2)))  # (2n + 3)!!
        row = []
        for b, value in enumerate(values[n]):
            bound = product * sup_u[b] ** (2 * (n + 1)) * h1_u[b]
            ratio = value / bound if bound else 0.0  # a nan bound gives a nan ratio
            if v is None:
                row.append(BoundReport(value, bound, ratio))
                continue
            dvalue = dvalues[n][b]
            dbound = product * (
                sup_u[b] ** (2 * (n + 1)) * h1_v[b]
                + (2 * n + 2) * sup_u[b] ** (2 * n + 1) * sup_v[b] * h1_u[b]
            )
            dratio = dvalue / dbound if dbound else 0.0
            row.append(BoundReport(value, bound, ratio, dvalue, dbound, dratio))
        reports.append(row)
    return reports
