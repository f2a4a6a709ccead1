"""Dense Fourier series on the 2*pi-periodic line and the inverse-derivative multiplier.

Coefficients follow the mean-value convention

    u_k = (1/2pi) int_T e^{-i k y} u(y) dy,    k = -K..K,

stored densely (array index j <-> wavenumber k = j - K), with no Hermitian
symmetry imposed: fields are genuinely complex-valued. The zero-mode
projection is the mean, mean(u) = u_0.

The central operator is the Fourier multiplier that inverts d/dx away from
the mean,

    (m u)_k = u_k / k   (k != 0),      (m u)_0 = 0,

which satisfies, exactly on the retained band,

    d/dx (m u) = m (d/dx u) = i (u - mean(u)),
    -i d^2/dx^2 (m u) = d/dx u,
    (m u)(x) = (m u)(0) + i int_0^x (u - mean(u)) dy.

Sobolev norms use the weight max(1, |k|)^{2s}; under that weight
||m u||_{H^{s+1}} equals ||u - mean(u)||_{H^s} exactly, and the L^2 norm of the
coefficients is (2pi)^{-1/2} times the physical root-mean-square integral.

Products are formed on a zero-padded collocation grid at least twice the size
of the retained band, so pair and triple products of band-limited fields are
alias-free after truncation back to |k| <= K (Orszag's padding rule).  Its size
Grid.n_padded is the smallest length at or above that bound (and the grid's
own n_points) whose odd part is at most 128 and has no prime factor above
11, the largest of numpy's FFT radices: no transform falls back to a slow
generic pass on a large prime, and a length rich in twos beats a shorter
one with odd radices, e.g. 2112 = 2^6*3*11 over 2058 = 2*3*7^3 at K = 512,
where three radix-7 passes cost about 10% per transform pair.  The array
kernels of other modules reach that grid only through
_padded_values and _band_coeffs, on a shifted band: k = -K..K sits in slots
0..2K, so a synthesis gives u e^{iKx}, and a product comes back sliced by
its order, transformed in place in the buffer its caller formed.
`multiply` and `to_physical` stay apart as their oracle.  The per-mode
rows that the kernels read (k, ik, 1/k, e^{-iKx}) live on the Grid.
Likewise every L2 and H^s norm of stacked coefficient rows in the package
comes from the one row-norm kernel _norms, which gives `norm`'s bits.  Its
Sobolev weights, and the default grid of a band size, are built once each
and kept in small read-only caches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "zeros",
    "from_modes",
    "random_field",
    "to_physical",
    "to_spectral",
    "project_mean",
    "remove_mean",
    "apply_m",
    "derivative",
    "conjugate",
    "norm",
    "multiply",
    "pair_mean",
]


# The largest odd part of a padded length.  numpy's FFT costs more per point
# on odd radices than on twos: 2058 = 2*3*7^3, the smallest 11-smooth length
# for K = 512, takes 9 to 12% longer per synthesis and analysis pair than
# 2112 = 2^6*3*11.  At 128, every K up to 64 keeps its smallest 11-smooth
# length (odd parts up to 75, at K = 18).  Summed over K = 8..1099, caps
# from 75 to 165 cost the same within 0.4%, caps from 245 up 1% more and
# no cap 5% more (scripts/fft_lengths.py --caps, numpy 2.4).
_ODD_PART_CAP = 128


def _smooth_length(minimum: int) -> int:
    """Smallest n >= minimum whose odd part is at most _ODD_PART_CAP and has
    no prime factor above 11."""
    n = max(1, minimum)
    while True:
        odd = n // (n & -n)
        rest = odd
        for p in (3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1 and odd <= _ODD_PART_CAP:
            return n
        n += 1


# The package's scalar input rules, each rejecting nan: ValueError("{name} must ..., got {value}").


def _require_integer(name: str, value) -> int:
    """value as an int; a value that is not an integer (numpy integers pass)
    is rejected by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_at_least(name: str, value, minimum: int) -> int:
    """value as an int, which must be at least minimum (a count)."""
    value = _require_integer(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _require_finite(name: str, value) -> None:
    if not -np.inf < value < np.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(name: str, value) -> None:
    if not value > 0.0:  # inf passes
        raise ValueError(f"{name} must be positive, got {value}")


def _require_positive_finite(name: str, value) -> None:
    if not 0.0 < value < np.inf:  # one comparison when it passes: the steppers call it each step
        _require_finite(name, value)
        _require_positive(name, value)


def _require_nonnegative(name: str, value) -> None:
    if not value >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_in_unit_interval(name: str, value) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class Grid:
    """Retained band |k| <= n_modes plus a collocation count.

    n_points defaults to 4*n_modes + 2, large enough that cubic products and
    quartic means of band-limited fields are exact (no aliasing into the
    retained band). Any n_points >= 2*n_modes + 1 is accepted; smaller
    collocation grids alias, which `to_spectral` makes reproducible rather
    than hiding (k lands on k mod n_points).

    n_padded, the size of the padded product grid, is derived once here: the
    smallest length >= max(2(2K+1), n_points) whose odd part is 11-smooth
    and at most 128 (see _smooth_length), e.g. 35 for K = 8 and 2112 for
    K = 512; so are the read-only rows over k = -K..K that
    every kernel reads: wavenumbers, ik (the symbol of d/dx) and inv_k (1/k,
    and 0 at k = 0: the symbol of m).  A pickle carries the two sizes only,
    and the rows are built again, read-only, on the other side.
    """

    n_modes: int
    n_points: int = 0
    n_padded: int = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    ik: np.ndarray = field(init=False, repr=False, compare=False)
    inv_k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("n_modes", "n_points"):  # stored as ints: np.int64(4) -> 4
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        _require_nonnegative("n_modes", self.n_modes)
        if self.n_points == 0:
            object.__setattr__(self, "n_points", 4 * self.n_modes + 2)
        if self.n_points < 2 * self.n_modes + 1:
            raise ValueError(
                f"n_points={self.n_points} cannot represent the band "
                f"|k| <= {self.n_modes}; need at least {2 * self.n_modes + 1}"
            )
        n_padded = _smooth_length(max(2 * self.n_coeffs, self.n_points))
        object.__setattr__(self, "n_padded", n_padded)
        k = np.arange(-self.n_modes, self.n_modes + 1)
        rows = {"wavenumbers": k, "ik": 1j * k,
                "inv_k": np.where(k == 0, 0.0, 1.0 / np.where(k == 0, 1, k))}
        for name, row in rows.items():
            row.setflags(write=False)
            object.__setattr__(self, name, row)

    def __reduce__(self):
        return Grid, (self.n_modes, self.n_points)

    @cached_property
    def _demodulation(self) -> np.ndarray:
        """The read-only row e^{-iK x_j} that takes _padded_values to the
        field's own values, with K x_j reduced mod 2 pi in integers (the plain
        product reaches 3,215 radians at K = 512, where half an ulp is
        2.3e-13); built when first read."""
        n = self.n_padded
        row = np.exp(-2j * np.pi * (self.n_modes * np.arange(n) % n) / n)
        row.setflags(write=False)
        return row

    @property
    def n_coeffs(self) -> int:
        return 2 * self.n_modes + 1

    def points(self, n_points: int | None = None) -> np.ndarray:
        n = self.n_points if n_points is None else _require_at_least("n_points", n_points, 1)
        return 2.0 * np.pi * np.arange(n) / n

    def index(self, k: int) -> int:
        k = _require_integer("wavenumber", k)
        if abs(k) > self.n_modes:
            raise ValueError(f"wavenumber {k} outside band |k| <= {self.n_modes}")
        return k + self.n_modes


@dataclass(frozen=True)
class SpectralField:
    """A field given by its dense coefficient vector on a Grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)  # a copy
        if c.shape != (self.grid.n_coeffs,):
            raise ValueError(
                f"expected {self.grid.n_coeffs} coefficients, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __reduce__(self):
        # through the constructor, so the coefficients come back read-only
        return SpectralField, (self.grid, self.coeffs)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs / complex(scalar))

    def coeff(self, k: int) -> complex:
        return complex(self.coeffs[self.grid.index(k)])


def _check_same_grid(a: SpectralField, b: SpectralField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def zeros(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_coeffs, dtype=complex))


def from_modes(grid: Grid, modes: Mapping[int, complex]) -> SpectralField:
    """Field with prescribed coefficients, e.g. {1: 1.0} for e^{ix}."""
    c = np.zeros(grid.n_coeffs, dtype=complex)
    for k, amp in modes.items():
        c[grid.index(k)] = amp
    return SpectralField(grid, c)


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    band: tuple[int, int] = (1, 8),
    real_valued: bool = False,
    zero_mean: bool = True,
) -> SpectralField:
    """Random field supported on band[0] <= |k| <= band[1].

    real_valued enforces Hermitian coefficients u_{-k} = conj(u_k); zero_mean
    zeroes the k = 0 coefficient (band[0] >= 1 already implies it).
    """
    lo, hi = (_require_integer("band", b) for b in band)
    if not (0 <= lo <= hi <= grid.n_modes):
        raise ValueError(f"band {band} not inside |k| <= {grid.n_modes}")
    c = _band_draw(grid, rng.standard_normal(4 * (hi - lo + 1)), band, real_valued)
    if lo == 0:
        if zero_mean:
            c[grid.n_modes] = 0.0
        elif real_valued:
            c[grid.n_modes] = c[grid.n_modes].real
    return SpectralField(grid, c)


def _band_draw(grid: Grid, normals: np.ndarray, band: tuple[int, int],
               real_valued: bool = False) -> np.ndarray:
    """The coefficients (..., 2K+1) that random_field builds on band from the
    last axis of normals, 4 n per field for the n wavenumbers lo..hi, in its
    draw order: the real parts of u_k and u_-k, then their imaginary parts.
    One standard_normal call of shape (rows, 4 n) thus gives rows fields of
    successive random_field calls bit for bit."""
    lo, hi = band
    ks = np.arange(lo, hi + 1)
    n = ks.size
    draw = normals[..., : 2 * n] + 1j * normals[..., 2 * n : 4 * n]  # u_k, then u_-k
    c = np.zeros(np.shape(normals)[:-1] + (grid.n_coeffs,), dtype=complex)
    c[..., ks + grid.n_modes] = draw[..., :n]
    c[..., -ks + grid.n_modes] = np.conj(draw[..., :n]) if real_valued else draw[..., n:]
    return c


def to_physical(f: SpectralField, n_points: int | None = None) -> np.ndarray:
    """Values on the uniform collocation grid x_j = 2*pi*j/n.

    Exact (up to round-off) synthesis of the trigonometric polynomial whenever
    n_points >= the band size; smaller n_points would fold coefficients and is
    rejected.
    """
    grid = f.grid
    n = grid.n_points if n_points is None else _require_at_least(
        "n_points", n_points, grid.n_coeffs)
    buf = np.zeros(n, dtype=complex)
    buf[np.mod(grid.wavenumbers, n)] = f.coeffs
    return np.fft.ifft(buf) * n


def to_spectral(grid: Grid, values: np.ndarray) -> SpectralField:
    """Coefficients of the sampled signal; frequencies fold as k mod n_points.

    With n = len(values), the discrete transform cannot distinguish e^{ikx}
    from e^{i(k+n)x}; e.g. on n = 2K+1 points the signal e^{i(K+1)x} lands on
    the retained mode K+1-n = -K. Callers who need alias-free analysis must
    sample on at least as many points as the signal's true bandwidth.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    n = values.size
    if n < grid.n_coeffs:
        raise ValueError("need at least as many samples as retained coefficients")
    hat = np.fft.fft(values) / n
    return SpectralField(grid, hat[np.mod(grid.wavenumbers, n)])


def project_mean(f: SpectralField) -> complex:
    """The zero-mode (mean value) of the field."""
    return complex(f.coeffs[f.grid.n_modes])


def remove_mean(f: SpectralField) -> SpectralField:
    c = f.coeffs.copy()
    c[f.grid.n_modes] = 0.0
    return SpectralField(f.grid, c)


def apply_m(f: SpectralField) -> SpectralField:
    """Divide by the wavenumber away from the mean: (m u)_k = u_k / k, (m u)_0 = 0."""
    return SpectralField(f.grid, _m_coeffs(f.grid, f.coeffs))


def _m_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """apply_m on a coefficient array (..., 2K+1).  It divides by k: a
    product with the reciprocal symbol 1/k rounds differently."""
    k = grid.wavenumbers.astype(float)
    k[grid.n_modes] = 1.0  # avoid 0/0; the mean is zeroed below
    c = coeffs / k
    c[..., grid.n_modes] = 0.0
    return c


def derivative(f: SpectralField, order: int = 1) -> SpectralField:
    _require_nonnegative("order", _require_integer("order", order))
    return SpectralField(f.grid, f.coeffs * f.grid.ik ** order)


def _mirror(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (..., 2K+1) of the complex conjugate: conj(u)_k = conj(u_{-k})."""
    return np.conj(coeffs[..., ::-1])


def conjugate(f: SpectralField) -> SpectralField:
    """The complex conjugate field, by _mirror."""
    return SpectralField(f.grid, _mirror(f.coeffs))


def norm(f: SpectralField, kind: str = "L2", s: float | None = None) -> float:
    """Norms in the coefficient convention.

    kind = "L2": (sum |u_k|^2)^{1/2} (equals (2pi)^{-1/2} times the physical
    L^2 integral norm); "Hs" with exponent s: weight max(1,|k|)^s per mode;
    "Linf": max |u(x)| on a 4x oversampled collocation grid.
    """
    if kind == "L2":
        return float(_norms(f.grid, f.coeffs))
    if kind == "Hs":
        if s is None:
            raise ValueError("Hs norm needs the exponent s")
        return float(_norms(f.grid, f.coeffs, s))
    if kind == "Linf":
        return float(_linf_norms(f.grid, f.coeffs))
    raise ValueError(f"unknown norm kind {kind!r}")


def _norms(grid: Grid, coeffs: np.ndarray, s: float | None = None) -> np.ndarray:
    """norm(f, "L2"), or with s norm(f, "Hs", s), of every row f of a
    coefficient array (..., 2K+1), bit for bit: the sum of squares is
    np.linalg.norm's reduction of one vector, re.re + im.im with re and im
    the strided real and imaginary views, one np.vecdot dot per row.  It is
    the package's one row-norm kernel."""
    if s is not None:
        coeffs = _sobolev_weight(grid, float(s)) * coeffs
    re, im = coeffs.real, coeffs.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


@lru_cache(maxsize=16)
def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """The read-only weight max(1, |k|)^s per mode of grid, built once per
    (grid, s) for the row-norm kernel above."""
    weight = np.maximum(1.0, np.abs(grid.wavenumbers)) ** s
    weight.setflags(write=False)
    return weight


def _linf_norms(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """norm(f, "Linf") of every row f of a coefficient array (..., 2K+1): the
    maximum modulus on 4 n_points samples of u e^{iKx}, as _padded_values
    synthesizes them, from one inverse FFT call."""
    return np.max(np.abs(np.fft.ifft(coeffs, n=4 * grid.n_points, norm="forward")), axis=-1)


def multiply(fields: Sequence[SpectralField]) -> SpectralField:
    """Pointwise product of 2 or 3 fields, dealiased by zero padding.

    The product is formed on the grid's padded collocation grid (n_padded
    points: at least twice the band size and at least the grid's own
    n_points), then truncated back to |k| <= K, so pair and triple products
    of band-limited inputs are exact on the retained band.
    """
    if not 2 <= len(fields) <= 3:
        raise ValueError("multiply takes 2 or 3 fields")
    grid = fields[0].grid
    for g in fields[1:]:
        _check_same_grid(fields[0], g)
    prod = to_physical(fields[0], grid.n_padded)
    for g in fields[1:]:
        prod = prod * to_physical(g, grid.n_padded)
    return to_spectral(grid, prod)


# complex points (rows x padded size) per block of a batched kernel, which
# holds a few dozen such arrays: a bound on working memory for any batch.
# At 2048 simulate's two per-sample passes at K = 32 take 34 blocks of 15
# rows instead of 72 of 7, about a tenth of its wall time; 4096 was no
# faster there, slowed `wavereg picard` and raised the peak memory of
# picard and verify by 0.6 MB.
_BLOCK_POINTS = 2048


def _blocks(grid: Grid, count: int):
    """Slices of max(1, _BLOCK_POINTS // n_padded) rows covering 0..count-1:
    15 rows at K = 32 (n_padded 132), one row from n_padded > 2048 on, e.g.
    at K = 512 (2112)."""
    size = max(1, _BLOCK_POINTS // grid.n_padded)
    return (slice(i, i + size) for i in range(0, count, size))


@lru_cache(maxsize=16)
def _band_grid(n_coeffs: int) -> Grid:
    """Grid((n_coeffs - 1) // 2), the default grid of a band of n_coeffs
    coefficients, built once per band size."""
    return Grid((n_coeffs - 1) // 2)


def _padded_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Values u(x_j) e^{iK x_j} on the padded grid of coefficient arrays of
    shape (..., 2K+1): k = -K..K stays in slots 0..2K, where numpy's zero
    padding puts it, so this is one unnormalized inverse FFT call."""
    return np.fft.ifft(coeffs, n=grid.n_padded, norm="forward")


def _band_coeffs(grid: Grid, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Coefficients |k| <= K, shape (..., 2K+1), of a product of values of
    _padded_values with `order` plain factors more than conjugated ones,
    which carries e^{i order K x}: one forward FFT call, sliced from slot
    ((order - 1) K) mod n_padded.  Order 1 inverts _padded_values; orders 0
    and -1 would wrap around the array, so their callers take the conjugate
    product and mirror the result.

    The transform overwrites `values`, which must be a writable complex
    array that the caller built and reads no more, and the result is a view
    into it: a fresh output per call cost 10 to 13% of a 2,112-point analysis
    (numpy 2.4), and its bits are those of an out-of-place transform."""
    n, K = grid.n_padded, grid.n_modes
    start = (order - 1) * K % n
    if start + 2 * K >= n:
        raise ValueError(f"order {order} wraps the band around {n} padded points")
    return np.fft.fft(values, norm="forward", out=values)[..., start : start + 2 * K + 1]


def pair_mean(a: SpectralField, b: SpectralField) -> complex:
    """mean(a*b) = sum_k a_k b_{-k}, exact."""
    _check_same_grid(a, b)
    return complex(np.dot(a.coeffs, b.coeffs[::-1]))
