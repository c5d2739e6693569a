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
GAUSSIAN_MAX_POINTS = 1 << 22  # points of one discrete_gaussian (32 MB per array) or inversion grid
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

    def _snap(self, x):
        """The nearest integer index to x (scalar or array) and whether x lies on the lattice there.

        Off the lattice counts nan, inf and points more than 2^53 steps from
        b, where the index would not be exact.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            q = (np.asarray(x, dtype=np.float64) - self.b) / self.h
            k = np.rint(q)
            on = (np.abs(q - k) < LATTICE_TOL) & (np.abs(k) <= 2.0**53)
        return k, on

    def contains(self, x: float) -> bool:
        """Whether ``index`` accepts the scalar x."""
        return bool(self._snap(x)[1])

    def index(self, x):
        """The integer k with b + k*h = x, for a scalar or each entry of an array.

        Raises DomainError if any x is off the lattice, counting nan, inf and
        points more than 2^53 steps from b, where k would not be exact.
        """
        k, on = self._snap(x)
        if not on.all():
            raise DomainError(f"{np.asarray(x)[~on].flat[0]} is not on the lattice {self.b} + {self.h}*Z")
        return k.astype(np.int64)[()]

    def point(self, k):
        return self.b + k * self.h

    def compatible(self, other: "LatticeSpec") -> bool:
        return abs(self.h - other.h) <= LATTICE_TOL and other.contains(self.b)


class EmpiricalDistribution:
    """Masses on the points b + k*h of a lattice.

    Stored as ``k``, the ascending unique int64 lattice indices, and
    ``masses``, the float64 mass at each; both arrays are read-only, so the
    ``mass`` view and the chf memo cannot go stale.  Masses are nonnegative;
    in exact mode they sum to 1 up to tolerance, in Monte Carlo mode they are
    exactly counts/N.  Masses of a discrete Gaussian are deliberately NOT
    renormalized.
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
        self.k.flags.writeable = self.masses.flags.writeable = False
        self._chf_memo: dict[tuple, np.ndarray] = {}  # (shape, float64 bytes of t) -> chf there, oldest first
        self._chf_memo_points = 0

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
        """Exact characteristic function sum(mass * e^{itx}), at a scalar or each entry of an array t.

        The law remembers the arrays t it has computed, up to
        GAUSSIAN_MAX_POINTS points in all, dropping the oldest grid first, and
        returns a fresh writable copy each time.  So inverting every mass with
        one ``freq_hint`` costs one chf evaluation per grid; without a hint
        each x starts at its own grid size and shares less.
        """
        ts = np.asarray(t, dtype=np.float64)
        if ts.ndim == 0:
            return chf_sum(t, self.points(), self.masses)
        key = (ts.shape, ts.tobytes())
        memo = self._chf_memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = chf_sum(ts, self.points(), self.masses)
            self._chf_memo_points += ts.size
            while self._chf_memo_points > GAUSSIAN_MAX_POINTS:
                self._chf_memo_points -= memo.pop(next(iter(memo))).size
        return value.copy()


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


def _inner_chf(g_vals: np.ndarray, t: float, wx: np.ndarray) -> np.ndarray:
    """np.exp(1j*t*g_vals) @ wx, the decoupling rhs's E_X per row, by row blocks of about SERIAL_BLAS_ENTRIES.

    Each row's sum has the same bits as in one product over all rows, but no
    block is large enough for OpenBLAS to start its thread pool.  A lone row
    goes through another BLAS kernel, whose bits differ, so it is summed as
    row 0 of a two-row product.
    """
    out = np.empty(g_vals.shape[0], dtype=np.complex128)
    step = max(2, SERIAL_BLAS_ENTRIES // g_vals.shape[1])
    for lo in range(0, len(out), step):
        rows = g_vals[lo : lo + step]
        phases = np.exp(1j * t * (rows if len(rows) > 1 else np.repeat(rows, 2, axis=0)))
        out[lo : lo + len(rows)] = (phases @ wx)[: len(rows)]
    return out


def chf_sum(t, x, w):
    """sum_j w_j e^{i t x_j} at a scalar t or at each entry of an array t: the chf of every law.

    DomainError when max|t| max|x| is not finite: a phase t x_j past the
    float range has no cos or sin.
    """
    ts = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    if ts.size and x.size:
        tmax, xmax = (max(float(a.max()), -float(a.min())) for a in (ts, x))  # nan stays nan
        if not math.isfinite(tmax * xmax):
            raise DomainError(f"chf phase t x is not finite: max|t| = {tmax:g}, max|x| = {xmax:g}")
    out = np.zeros(ts.size, dtype=np.complex128)
    for tsl, xs, phase in phase_blocks(ts.ravel(), x):
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
    """P(X = x) = (h/2pi) * integral_{-pi/h}^{pi/h} e^{-itx} phi(t) dt, for a real X.

    The trapezoid rule over one period: the integrand is 2pi/h-periodic, so
    the mean over n equispaced points is exact once n exceeds the support's
    span in steps.  The grid is t = step*j, step = 2pi/(h*n), over the
    integers j in [-n/2, n/2).  n starts at >= 32 points per unit period of
    the fastest known oscillation and doubles, adding the half-integer j,
    until the result is stable to INVERSION_TOL.

    X is real, so phi(-t) = conj(phi(t)) and the integrand
    g(t) = Re(e^{-itx} phi(t)) is even in t; ``chf`` must have that symmetry.
    fl(step * -j) = -fl(step * j), so each grid is symmetric bit for bit, and
    ``chf`` is called once per grid with its points t > 0 only (the first
    grid adds 0 and -pi/h).  The estimate is
    (g(-pi/h) + g(0) + 2 * sum_{t>0} g(t)) / n, a sum rounded once by
    math.fsum.  ``freq_hint`` may give the largest |value - x| in the
    support if known.  DomainError for a non-finite hint, for a first grid
    that leaves no room for one doubling within GAUSSIAN_MAX_POINTS points,
    and for a grid that reaches that cap without converging.
    """
    lattice.index(x)  # raises DomainError off the lattice
    if freq_hint is not None and not math.isfinite(freq_hint):
        raise DomainError(f"freq_hint must be finite, got {freq_hint}")
    h = lattice.h
    half = math.pi / h
    omega = max(abs(x), h, freq_hint if freq_hint is not None else 0.0)
    # 32 points per period 2*pi/omega over a range of 2*pi/h -> 32*omega/h points
    n = 64
    target = 32.0 * omega / h
    if target > GAUSSIAN_MAX_POINTS // 2:
        raise DomainError(
            f"x={x}, freq_hint={freq_hint} on step {h} need a first grid of {target:.3g} points,"
            f" more than {GAUSSIAN_MAX_POINTS // 2} (a doubling must fit in {GAUSSIAN_MAX_POINTS})"
        )
    while n < target:
        n *= 2

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.real(np.exp(-1j * ts * x) * np.asarray(chf(ts), dtype=np.complex128))

    step = 2.0 * half / n
    g = integrand(np.concatenate(([-half, 0.0], step * np.arange(1, n // 2))))
    terms = g[:2].tolist() + (2.0 * g[2:]).tolist()
    prev = math.fsum(terms) / n
    while True:
        terms += (2.0 * integrand(step * (np.arange(n // 2) + 0.5))).tolist()
        n, step = 2 * n, step / 2
        cur = math.fsum(terms) / n
        change = abs(cur - prev)
        if change < INVERSION_TOL:
            return cur
        if 2 * n > GAUSSIAN_MAX_POINTS:
            raise DomainError(
                f"x={x}: inversion did not converge on a grid of {n} points (the cap);"
                f" its last doubling changed the estimate by {change:.3g}, not less than {INVERSION_TOL}"
            )
        prev = cur
