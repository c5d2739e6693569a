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
GAUSSIAN_TRUNCATION_SIGMAS = 12.0
CHF_BLOCK = 1 << 16  # (t, x) phases per block of EmpiricalDistribution.chf


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice b + h*Z."""

    b: float
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise DomainError(f"lattice step must be positive, got {self.h}")

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
        if (masses < 0).any():
            raise DomainError(f"negative mass {masses.min()} at {lattice.point(k[masses.argmin()])}")
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
        ts = np.asarray(t, dtype=np.float64)
        x = self.points()
        out = np.empty(ts.size, dtype=np.complex128)
        step = max(1, CHF_BLOCK // max(1, x.size))
        for start in range(0, ts.size, step):
            phase = np.multiply.outer(ts.flat[start : start + step], x)
            out[start : start + step] = np.cos(phase) @ self.masses + 1j * (np.sin(phase) @ self.masses)
        return complex(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)

    def rescale(self, shift: float, scale: float) -> "EmpiricalDistribution":
        """Distribution of (X - shift)/scale: the same indices on a rescaled lattice."""
        lat = LatticeSpec((self.lattice.b - shift) / scale, self.lattice.h / scale)
        return EmpiricalDistribution.from_indices(lat, self.k, self.masses)

    # -- CSV interface: header `value,probability`, ascending values ----

    def to_csv(self) -> str:
        return "value,probability\n" + "".join(f"{x:.17g},{m:.17g}\n" for x, m in self.mass.items())

    @classmethod
    def from_csv(cls, text: str, lattice: LatticeSpec) -> "EmpiricalDistribution":
        lines = text.strip().splitlines()
        if lines[0].strip() != "value,probability":
            raise DomainError("bad CSV header for distribution")
        rows = (line.split(",") for line in lines[1:])
        return cls(lattice, {float(x): float(m) for x, m in rows})


def discrete_gaussian(lattice: LatticeSpec, mu: float, sigma: float) -> EmpiricalDistribution:
    """h * N(mu, sigma^2) density sampled on lattice points within +-12 sigma.

    Not renormalized; total() reports the Riemann-sum deviation from 1.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    h = lattice.h
    lo = math.floor((mu - GAUSSIAN_TRUNCATION_SIGMAS * sigma - lattice.b) / h)
    hi = math.ceil((mu + GAUSSIAN_TRUNCATION_SIGMAS * sigma - lattice.b) / h)
    norm = h / (math.sqrt(2.0 * math.pi) * sigma)
    k = np.arange(lo, hi + 1, dtype=np.int64)
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
    tol: float = 1e-9,
    freq_hint: float | None = None,
) -> float:
    """P(X = x) = (h/2pi) * integral_{-pi/h}^{pi/h} e^{-itx} phi(t) dt.

    ``chf`` is called once per grid with the array of its points.  Composite
    Simpson; the point count starts at >= 32 points per unit period of the
    fastest known oscillation and doubles until the result is stable to tol.
    ``freq_hint`` may give the largest |value - x| in the support if known.
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

    def simpson(npts: int) -> float:
        ts = np.linspace(-half, half, npts + 1)
        integrand = np.exp(-1j * ts * x) * np.asarray(chf(ts), dtype=np.complex128)
        w = np.ones(npts + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        step = (2.0 * half) / npts
        return float((step / 3.0) * np.real(np.sum(w * integrand)) * (h / (2.0 * math.pi)))

    prev = simpson(n)
    for _ in range(22):
        n *= 2
        cur = simpson(n)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev
