"""Lattice distributions, discrete Gaussians, distances, and Fourier inversion."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, LatticeMismatchError

LATTICE_TOL = 1e-9
GAUSSIAN_TRUNCATION_SIGMAS = 12.0


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

    def snap(self, x: float) -> float:
        if not self.contains(x):
            raise DomainError(f"{x} is not on the lattice {self.b} + {self.h}*Z")
        return self.b + round((x - self.b) / self.h) * self.h

    def point(self, k: int) -> float:
        return self.b + k * self.h

    def compatible(self, other: "LatticeSpec") -> bool:
        if abs(self.h - other.h) > LATTICE_TOL:
            return False
        q = (self.b - other.b) / self.h
        return abs(q - round(q)) < LATTICE_TOL


class EmpiricalDistribution:
    """A value -> probability table supported on a lattice.

    Masses are nonnegative; in exact mode they sum to 1 up to tolerance, in
    Monte Carlo mode they are exactly counts/N.  Masses of a discrete Gaussian
    are deliberately NOT renormalized.
    """

    def __init__(self, lattice: LatticeSpec, mass: Mapping[float, float]):
        self.lattice = lattice
        snapped: dict[float, float] = {}
        for x, m in mass.items():
            if m < 0:
                raise DomainError(f"negative mass {m} at {x}")
            snapped[lattice.snap(x)] = snapped.get(lattice.snap(x), 0.0) + float(m)
        self.mass = dict(sorted(snapped.items()))

    def total(self) -> float:
        return sum(self.mass.values())

    def mean(self) -> float:
        return sum(x * m for x, m in self.mass.items())

    def variance(self) -> float:
        mu = self.mean()
        return sum((x - mu) ** 2 * m for x, m in self.mass.items())

    def prob(self, x: float) -> float:
        if not self.lattice.contains(x):
            return 0.0
        return self.mass.get(self.lattice.snap(x), 0.0)

    def chf(self, t: float) -> complex:
        """Exact characteristic function sum(mass * e^{itx})."""
        return sum(m * complex(math.cos(t * x), math.sin(t * x)) for x, m in self.mass.items())

    def rescale(self, shift: float, scale: float) -> "EmpiricalDistribution":
        """Distribution of (X - shift)/scale."""
        lat = LatticeSpec((self.lattice.b - shift) / scale, self.lattice.h / scale)
        return EmpiricalDistribution(lat, {(x - shift) / scale: m for x, m in self.mass.items()})

    # -- CSV interface: header `value,probability`, ascending values ----

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("value,probability\n")
        for x, m in self.mass.items():
            buf.write(f"{x:.17g},{m:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, lattice: LatticeSpec) -> "EmpiricalDistribution":
        lines = text.strip().splitlines()
        if lines[0].strip() != "value,probability":
            raise DomainError("bad CSV header for distribution")
        mass = {}
        for line in lines[1:]:
            x, m = line.split(",")
            mass[float(x)] = float(m)
        return cls(lattice, mass)


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
    mass = {}
    for k in range(lo, hi + 1):
        x = lattice.point(k)
        mass[x] = norm * math.exp(-((x - mu) ** 2) / (2.0 * sigma**2))
    return EmpiricalDistribution(lattice, mass)


def _check_lattices(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> None:
    if not d1.lattice.compatible(d2.lattice):
        raise LatticeMismatchError(
            f"lattices differ: {d1.lattice} vs {d2.lattice}"
        )


def linf_distance(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> float:
    """sup over the union of supports of |mass difference|."""
    _check_lattices(d1, d2)
    points = set(d1.mass) | set(d2.mass)
    return max(abs(d1.mass.get(x, 0.0) - d2.mass.get(x, 0.0)) for x in points) if points else 0.0


def l1_distance(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> float:
    """sum over the union of supports of |mass difference|."""
    _check_lattices(d1, d2)
    points = set(d1.mass) | set(d2.mass)
    return sum(abs(d1.mass.get(x, 0.0) - d2.mass.get(x, 0.0)) for x in points)


def lattice_inversion(
    chf: Callable[[np.ndarray], np.ndarray] | Callable[[float], complex],
    lattice: LatticeSpec,
    x: float,
    *,
    tol: float = 1e-9,
    freq_hint: float | None = None,
) -> float:
    """P(X = x) = (h/2pi) * integral_{-pi/h}^{pi/h} e^{-itx} phi(t) dt.

    Composite Simpson; the point count starts at >= 32 points per unit period of
    the fastest known oscillation and doubles until the result is stable to tol.
    ``freq_hint`` may give the largest |value - x| in the support if known.
    """
    if not lattice.contains(x):
        raise DomainError(f"{x} is not on the lattice {lattice.b} + {lattice.h}*Z")
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
        try:
            vals = np.asarray(chf(ts), dtype=np.complex128)
            if vals.shape != ts.shape:
                raise TypeError
        except TypeError:
            vals = np.array([chf(float(t)) for t in ts], dtype=np.complex128)
        integrand = np.exp(-1j * ts * x) * vals
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
