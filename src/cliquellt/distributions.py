"""Lattice distributions, discrete Gaussians, distances, and Fourier inversion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, LatticeMismatchError

LATTICE_TOL = 1e-9
INVERSION_TOL = 1e-9  # lattice_inversion stops once a doubling moves its result by less
GAUSSIAN_TRUNCATION_SIGMAS = 12.0
GAUSSIAN_MAX_POINTS = 1 << 22  # lattice points of one discrete_gaussian: 32 MB per array
CHF_BLOCK = 1 << 16  # (t, x) phases per block of phase_blocks
# Entries one BLAS reduction may take.  OpenBLAS 0.3.31 ran a one-row real
# product of 12288 entries (not 8192), and a complex matrix-vector product of
# 4096 entries with 4 to 28 columns, on its thread pool.  On a 2-core host
# each such call took about 8 ms instead of microseconds, and a one-row sum
# split across threads adds in another order, so its bits depended on the
# thread count.  Products this small stay on the calling thread.
SERIAL_BLAS_ENTRIES = 1 << 11


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice b + h*Z."""

    b: float
    h: float

    def __post_init__(self):
        if not (0 < self.h < math.inf):
            raise DomainError(f"lattice step must be positive and finite, got {self.h}")
        if not math.isfinite(self.b):
            raise DomainError(f"lattice origin must be finite, got {self.b}")

    def contains(self, x: float) -> bool:
        q = (x - self.b) / self.h
        return abs(q - round(q)) < LATTICE_TOL

    def index(self, x):
        """The integer k with b + k*h = x, for a scalar or each entry of an array.

        Raises DomainError if any x is off the lattice, counting nan, inf and
        points more than 2^53 steps from b, where k would not be exact.
        """
        q = (np.asarray(x, dtype=np.float64) - self.b) / self.h
        k = np.rint(q)
        with np.errstate(invalid="ignore"):
            off = ~((np.abs(q - k) < LATTICE_TOL) & (np.abs(k) <= 2.0**53))
        if off.any():
            raise DomainError(f"{np.asarray(x)[off].flat[0]} is not on the lattice {self.b} + {self.h}*Z")
        return k.astype(np.int64)[()]

    def point(self, k):
        return self.b + k * self.h

    def compatible(self, other: "LatticeSpec") -> bool:
        return abs(self.h - other.h) <= LATTICE_TOL and other.contains(self.b)


class EmpiricalDistribution:
    """Masses on the points b + k*h of a lattice.

    Stored as ``k``, the ascending unique int64 lattice indices, and
    ``masses``, the float64 mass at each.  Masses are nonnegative; in exact
    mode they sum to 1 up to tolerance, in Monte Carlo mode they are exactly
    counts/N.  Masses of a discrete Gaussian are deliberately NOT renormalized.
    """

    def __init__(self, lattice: LatticeSpec, mass: Mapping[float, float]):
        """From a value -> mass mapping; values that snap to one point are merged."""
        xs = np.fromiter(mass.keys(), dtype=np.float64, count=len(mass))
        ms = np.fromiter(mass.values(), dtype=np.float64, count=len(mass))
        self._store(lattice, lattice.index(xs), ms)

    @classmethod
    def from_indices(cls, lattice: LatticeSpec, k, masses) -> "EmpiricalDistribution":
        """From lattice indices and the mass at each; repeated indices are merged."""
        dist = cls.__new__(cls)
        dist._store(lattice, np.asarray(k, dtype=np.int64), np.asarray(masses, dtype=np.float64))
        return dist

    def _store(self, lattice: LatticeSpec, k: np.ndarray, masses: np.ndarray) -> None:
        bad = ~((masses >= 0) & (masses < math.inf))
        if bad.any():
            i = bad.argmax()
            raise DomainError(f"mass {masses[i]} at {lattice.point(k[i])} is not a finite nonnegative number")
        self.lattice = lattice
        self.k, slot = np.unique(k, return_inverse=True)
        self.masses = np.bincount(slot, weights=masses, minlength=self.k.size)

    def points(self) -> np.ndarray:
        return self.lattice.point(self.k)

    @cached_property
    def mass(self) -> Mapping[float, float]:
        """Read-only ascending value -> mass view of the arrays."""
        return MappingProxyType(dict(zip(self.points().tolist(), self.masses.tolist())))

    def total(self) -> float:
        return math.fsum(self.masses)

    def mean(self) -> float:
        return math.fsum(self.points() * self.masses)

    def variance(self) -> float:
        return math.fsum((self.points() - self.mean()) ** 2 * self.masses)

    def prob(self, x: float) -> float:
        if not self.lattice.contains(x):
            return 0.0
        return float(self.masses[self.k == self.lattice.index(x)].sum())

    def chf(self, t):
        """Exact characteristic function sum(mass * e^{itx}), at a scalar or each entry of an array t."""
        return chf_sum(t, self.points(), self.masses)


def phase_blocks(ts: np.ndarray, x: np.ndarray):
    """(t slice, x slice, t*x) blocks of at most CHF_BLOCK phases over flat ts and x.

    A block spans at most SERIAL_BLAS_ENTRIES of x, so each row's sum over
    it stays on one thread.
    """
    xstep = max(1, min(x.size, CHF_BLOCK, SERIAL_BLAS_ENTRIES))
    tstep = CHF_BLOCK // xstep
    for xlo in range(0, x.size, xstep):
        for tlo in range(0, ts.size, tstep):
            tsl, xs = slice(tlo, tlo + tstep), slice(xlo, xlo + xstep)
            yield tsl, xs, np.multiply.outer(ts[tsl], x[xs])


def chf_sum(t, x, w):
    """sum_j w_j e^{i t x_j} at a scalar t or at each entry of an array t: the package's one chf sum."""
    ts = np.asarray(t, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).ravel()
    out = np.zeros(ts.size, dtype=np.complex128)
    for tsl, xs, phase in phase_blocks(ts.ravel(), np.asarray(x, dtype=np.float64).ravel()):
        out[tsl] += np.cos(phase) @ w[xs] + 1j * (np.sin(phase) @ w[xs])
    return complex(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def discrete_gaussian(lattice: LatticeSpec, mu: float, sigma: float) -> EmpiricalDistribution:
    """h * N(mu, sigma^2) density sampled on lattice points within +-12 sigma.

    Not renormalized; total() reports the Riemann-sum deviation from 1.
    DomainError if that range holds more than GAUSSIAN_MAX_POINTS points or
    reaches an index beyond 2^53, where LatticeSpec.index is no longer exact.
    """
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise DomainError(f"mu and sigma must be finite, got mu={mu}, sigma={sigma}")
    h = lattice.h
    lo = (mu - GAUSSIAN_TRUNCATION_SIGMAS * sigma - lattice.b) / h
    hi = (mu + GAUSSIAN_TRUNCATION_SIGMAS * sigma - lattice.b) / h
    if not (-(2.0**53) <= lo and hi <= 2.0**53 and hi - lo <= GAUSSIAN_MAX_POINTS):
        raise DomainError(
            f"mu={mu}, sigma={sigma} span lattice indices {lo:g}..{hi:g}: beyond 2^53"
            f" or more than {GAUSSIAN_MAX_POINTS} points"
        )
    norm = h / (math.sqrt(2.0 * math.pi) * sigma)
    k = np.arange(math.floor(lo), math.ceil(hi) + 1, dtype=np.int64)
    masses = norm * np.exp(-((lattice.point(k) - mu) ** 2) / (2.0 * sigma**2))
    return EmpiricalDistribution.from_indices(lattice, k, masses)


def _mass_difference(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> np.ndarray:
    """d1's minus d2's mass at each point of the union of their supports, ascending.

    d2's indices are moved onto d1's lattice by the integer offset between
    the two origins, so compatible lattices with different b line up.
    """
    if not d1.lattice.compatible(d2.lattice):
        raise LatticeMismatchError(f"lattices differ: {d1.lattice} vs {d2.lattice}")
    k2 = d2.k + round((d2.lattice.b - d1.lattice.b) / d1.lattice.h)
    _, slot = np.unique(np.concatenate((d1.k, k2)), return_inverse=True)
    return np.bincount(slot, weights=np.concatenate((d1.masses, -d2.masses)))


def linf_distance(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> float:
    """sup over the union of supports of |mass difference|."""
    return float(np.max(np.abs(_mass_difference(d1, d2)), initial=0.0))


def l1_distance(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> float:
    """sum over the union of supports of |mass difference|."""
    return math.fsum(np.abs(_mass_difference(d1, d2)))


def lattice_inversion(
    chf: Callable[[np.ndarray], np.ndarray],
    lattice: LatticeSpec,
    x: float,
    *,
    freq_hint: float | None = None,
) -> float:
    """P(X = x) = (h/2pi) * integral_{-pi/h}^{pi/h} e^{-itx} phi(t) dt.

    ``chf`` is called once per grid with the array of its points.  The
    trapezoid rule over one period: the integrand is 2pi/h-periodic, so the
    mean over n equispaced points is exact once n exceeds the support's span
    in steps.  n starts at >= 32 points per unit period of the fastest known
    oscillation and doubles, evaluating only the new midpoints, until the
    result is stable to INVERSION_TOL.  ``freq_hint`` may give the largest
    |value - x| in the support if known.
    """
    lattice.index(x)  # raises DomainError off the lattice
    h = lattice.h
    half = math.pi / h
    omega = max(abs(x), h, freq_hint if freq_hint is not None else 0.0)
    # 32 points per period 2*pi/omega over a range of 2*pi/h -> 32*omega/h points
    n = 64
    target = 32.0 * omega / h
    while n < target:
        n *= 2

    def grid_sum(offset: float, npts: int) -> float:
        ts = -half + (2.0 * half / npts) * (np.arange(npts) + offset)
        return float(np.sum(np.real(np.exp(-1j * ts * x) * np.asarray(chf(ts), dtype=np.complex128))))

    total = grid_sum(0.0, n)
    prev = total / n
    for _ in range(22):
        total += grid_sum(0.5, n)
        n *= 2
        cur = total / n
        if abs(cur - prev) < INVERSION_TOL:
            return cur
        prev = cur
    return prev
