"""Exact algebra of real functions on the p-biased edge hypercube.

Functions are stored in the orthonormal chi basis: chi_e = (x_e - p)/sqrt(p(1-p)),
chi_S = prod_{e in S} chi_e.  Coefficients are a sparse map from edge bitmasks
to reals; anything below PRUNE_TOL after arithmetic is dropped.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CapacityError, DomainError, GroundMismatchError
from .ground import EdgeGround, GraphAssignment

PRUNE_TOL = 1e-14
# Largest m of any 2^m table (truth tables, transforms, exhaustive counts and
# chfs): at m = 21 one float64 table is 16 MB, and each edge more doubles it.
TABLE_EDGE_CAP = 21
BUTTERFLY_BLOCK_BYTES = 1 << 19  # one block of a butterfly pass stays in L2
BUTTERFLY_LOW_EDGES = 5  # edges a block takes on its transposed copy


def _mask(edges: Iterable[int]) -> int:
    """Edge mask of an edge set."""
    return sum(1 << e for e in set(edges))


def _edges(mask: int) -> list[int]:
    """Edges of an edge mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1  # drops the lowest edge
    return out


class _ReadOnlyDict(dict):
    """A dict whose writes raise TypeError: the ``coeffs`` view."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("PBFunction.coeffs is a read-only view")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def chi_value(p: float, bit: int) -> float:
    """Value of chi_e at a single edge bit: (bit - p)/sqrt(p(1-p))."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")
    if bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1, got {bit}")
    return (bit - p) / math.sqrt(p * (1.0 - p))


def gamma_coeff(p: float) -> float:
    """gamma = (1-2p)/sqrt(p(1-p)), the coefficient in chi_e^2 = 1 + gamma*chi_e."""
    return (1.0 - 2.0 * p) / math.sqrt(p * (1.0 - p))


class PBFunction:
    """Real function on {0,1}^E in the p-biased Fourier basis, sparse over keys."""

    def __init__(self, ground, p: float, coeffs: Mapping[Iterable[int], float]):
        """``coeffs`` maps edge sets (iterables of edge indices) to reals."""
        if not (0.0 < p < 1.0):
            raise DomainError(f"p must lie in (0,1), got {p}")
        self.ground = ground
        self.p = float(p)
        self._coeffs = {_mask(S): float(c) for S, c in coeffs.items() if abs(c) > PRUNE_TOL}

    @classmethod
    def _from_masks(cls, ground, p: float, coeffs: Mapping[int, float]) -> "PBFunction":
        f = cls(ground, p, {})
        f._coeffs = {S: float(c) for S, c in coeffs.items() if abs(c) > PRUNE_TOL}
        return f

    @cached_property
    def coeffs(self) -> Mapping[frozenset[int], float]:
        """Read-only frozenset-keyed view of the coefficients, in insertion order."""
        return _ReadOnlyDict({frozenset(_edges(S)): c for S, c in self._coeffs.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, ground, p: float, c: float) -> "PBFunction":
        return cls._from_masks(ground, p, {0: c})

    @classmethod
    def chi(cls, ground, p: float, edges: Iterable[int]) -> "PBFunction":
        return cls._from_masks(ground, p, {_mask(edges): 1.0})

    # -- basic queries ------------------------------------------------

    def coeff(self, edges: Iterable[int]) -> float:
        return self._coeffs.get(_mask(edges), 0.0)

    def degree(self) -> int:
        return max((S.bit_count() for S in self._coeffs), default=0)

    def expectation(self) -> float:
        return self._coeffs.get(0, 0.0)

    def norm2(self) -> float:
        return math.sqrt(sum(c * c for c in self._coeffs.values()))

    def spectral_norm1(self) -> float:
        return sum(abs(c) for c in self._coeffs.values())

    def variance(self) -> float:
        return sum(c * c for S, c in self._coeffs.items() if S)

    # -- evaluation ---------------------------------------------------

    def eval(self, g: GraphAssignment | int) -> float:
        bits = g if isinstance(g, int) else self._check_assignment(g)
        c0, c1 = chi_value(self.p, 0), chi_value(self.p, 1)
        total = 0.0
        for S, c in self._coeffs.items():
            term = c
            for e in _edges(S):
                term *= c1 if (bits >> e) & 1 else c0
            total += term
        return total

    def table(self) -> np.ndarray:
        """f(g) for every assignment bitmask g in [0, 2^m): the inverse butterfly.

        The coefficients are scattered into a 2^m array indexed by key bitmask;
        per edge, v0' = v0 + chi(0) v1 and v1' = v0 + chi(1) v1 turns that
        edge's key bit into its assignment bit.  Inverse of fourier_transform.
        """
        m = self.ground.size
        if m > TABLE_EDGE_CAP:
            raise CapacityError(f"truth table capped at {TABLE_EDGE_CAP} edges, got {m}")
        v = np.zeros(1 << m)
        v[list(self._coeffs)] = list(self._coeffs.values())
        c0, c1 = chi_value(self.p, 0), chi_value(self.p, 1)

        def step(v0, v1, tmp):
            np.multiply(v1, c0, out=tmp)
            v1 *= c1
            v1 += v0  # v0 + c1 v1
            v0 += tmp  # v0 + c0 v1

        return _butterfly(v, m, step)

    def _check_assignment(self, g: GraphAssignment) -> int:
        if isinstance(self.ground, EdgeGround):
            if not isinstance(g.ground, EdgeGround) or g.ground != self.ground:
                raise GroundMismatchError("assignment lives on a different ground")
        return g.bits

    # -- linear structure ----------------------------------------------

    def _check_compatible(self, other: "PBFunction") -> None:
        if self.ground != other.ground:
            raise GroundMismatchError("functions live on different grounds")
        if self.p != other.p:
            raise GroundMismatchError(f"p mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "PBFunction") -> "PBFunction":
        self._check_compatible(other)
        out = dict(self._coeffs)
        for S, c in other._coeffs.items():
            out[S] = out.get(S, 0.0) + c
        return PBFunction._from_masks(self.ground, self.p, out)

    def __sub__(self, other: "PBFunction") -> "PBFunction":
        return self + other.scale(-1.0)  # x + (-y) is x - y, bit for bit

    def scale(self, a: float) -> "PBFunction":
        return PBFunction._from_masks(self.ground, self.p, {S: a * c for S, c in self._coeffs.items()})

    def __rmul__(self, a: float) -> "PBFunction":
        if isinstance(a, (int, float)):
            return self.scale(a)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        if isinstance(other, PBFunction):
            return multiply(self, other)
        return NotImplemented

    # -- degree slices --------------------------------------------------

    def degree_slice(self, k: int) -> "PBFunction":
        """Keep exactly the keys with |S| = k."""
        if k < 0:
            raise DomainError("degree must be nonnegative")
        out = {S: c for S, c in self._coeffs.items() if S.bit_count() == k}
        return PBFunction._from_masks(self.ground, self.p, out)

    def tail(self, k: int) -> "PBFunction":
        """Keep exactly the keys with |S| > k."""
        if k < 0:
            raise DomainError("degree must be nonnegative")
        out = {S: c for S, c in self._coeffs.items() if S.bit_count() > k}
        return PBFunction._from_masks(self.ground, self.p, out)

    # -- restriction -----------------------------------------------------

    def restrict(self, keep: Iterable[int], beta: Mapping[int, int]) -> "PBFunction":
        """Fix every variable outside ``keep`` to the bits in ``beta``.

        The result has keys inside ``keep`` only; evaluating it on an assignment
        that agrees with alpha on ``keep`` equals evaluating self on (alpha, beta).
        """
        keep_mask = _mask(keep)
        chi_beta = {e: chi_value(self.p, bit) for e, bit in beta.items()}
        out: dict[int, float] = {}
        for S, c in self._coeffs.items():
            factor = c
            for e in _edges(S & ~keep_mask):
                if e not in chi_beta:
                    raise DomainError(f"restriction is missing a value for variable {e}")
                factor *= chi_beta[e]
            out[S & keep_mask] = out.get(S & keep_mask, 0.0) + factor
        return PBFunction._from_masks(self.ground, self.p, out)

    def __repr__(self) -> str:
        return f"PBFunction(p={self.p}, terms={len(self._coeffs)}, degree={self.degree()})"


def multiply(f: PBFunction, g: PBFunction) -> PBFunction:
    """Pointwise product in the chi basis, via chi_e^2 = 1 + gamma*chi_e."""
    f._check_compatible(g)
    gamma = gamma_coeff(f.p)
    out: dict[int, float] = {}
    for S, cs in f._coeffs.items():
        for T, ct in g._coeffs.items():
            base = cs * ct
            sym = S ^ T
            if not S & T or gamma == 0.0:
                out[sym] = out.get(sym, 0.0) + base
                continue
            inter = [1 << e for e in _edges(S & T)]
            for k in range(len(inter) + 1):
                gk = base * gamma**k
                if gk == 0.0:
                    break
                for U in combinations(inter, k):  # by size, then lexicographic on edges
                    key = sym | sum(U)
                    out[key] = out.get(key, 0.0) + gk
    return PBFunction._from_masks(f.ground, f.p, out)


def assignment_weights(m: int, p: float) -> np.ndarray:
    """P_p(g) for every bitmask g in [0, 2^m): p^{popcount} (1-p)^{m-popcount}.

    The m+1 distinct weights are computed once and gathered by popcount.
    """
    k = np.arange(m + 1)
    return (p**k * (1.0 - p) ** (m - k))[popcount_array(m)]


def popcount_array(m: int) -> np.ndarray:
    """popcount of every integer in [0, 2^m), as a uint8 array."""
    return np.bitwise_count(np.arange(1 << m, dtype=np.uint32))


def _butterfly(v: np.ndarray, m: int, step: Callable) -> np.ndarray:
    """Apply a per-edge 2x2 step to a table of length 2^m, in place.

    Every entry gets edges 0..m-1 in order, as in a plain pass per edge, so
    the bits do not depend on how the table is cut.  The passes run on
    cache-sized pieces (BUTTERFLY_BLOCK_BYTES) instead of the whole table:
    a block of 2^b contiguous entries takes edges 0..b-1, its lowest
    BUTTERFLY_LOW_EDGES on a transposed copy, so that in a full block no pass
    works on runs shorter than 32 bytes; edges b..m-1 then run on copied
    column strips of the table viewed as (2^(m-b), 2^b).

    ``step(v0, v1, tmp)`` gets matching views of entries with edge e's bit 0
    and 1, and a scratch array of their shape; it overwrites v0 and v1 with
    their new values, entry by entry.
    """
    b = min(m, (BUTTERFLY_BLOCK_BYTES // v.itemsize).bit_length() - 1)
    lo = min(b, BUTTERFLY_LOW_EDGES)
    buf = np.empty(1 << max(b, m - b), dtype=v.dtype)  # a block, or a strip
    tmp = np.empty(buf.size >> 1, dtype=v.dtype)
    flipped = buf[: 1 << b].reshape(1 << lo, 1 << (b - lo))  # flipped[j, i] = block[i * 2^lo + j]
    for block in v.reshape(-1, 1 << b):
        grid = block.reshape(1 << (b - lo), 1 << lo)
        np.copyto(flipped, grid.T)
        _passes(flipped.reshape(-1), range(b - lo, b), step, tmp)
        np.copyto(grid, flipped.T)
        _passes(block, range(lo, b), step, tmp)
    if m > b:
        width = max(2 * b - m, 0)  # a strip of 2^width columns holds 2^max(b, m-b) entries
        rows = v.reshape(1 << (m - b), 1 << b)
        strip = buf[: 1 << (m - b + width)].reshape(1 << (m - b), 1 << width)
        for c in range(0, 1 << b, 1 << width):
            np.copyto(strip, rows[:, c : c + (1 << width)])
            _passes(strip.reshape(-1), range(width, width + m - b), step, tmp)
            np.copyto(rows[:, c : c + (1 << width)], strip)
    return v


def _passes(v: np.ndarray, bits: Iterable[int], step: Callable, tmp: np.ndarray) -> None:
    """One step per bit position of the flat array v, in the order given."""
    for e in bits:
        w = v.reshape(-1, 2, 1 << e)
        step(w[:, 0], w[:, 1], tmp[: v.size >> 1].reshape(-1, 1 << e))


def fourier_transform(table: np.ndarray, ground, p: float) -> PBFunction:
    """Exhaustive p-biased transform of a full truth table.

    ``table`` is an array of length 2^m indexed by assignment bitmask.
    Inverse of PBFunction.table.
    """
    m = ground.size
    if m > TABLE_EDGE_CAP:
        raise CapacityError(f"exhaustive transform capped at {TABLE_EDGE_CAP} edges, got {m}")
    v = np.array(table, dtype=np.float64)
    if v.shape != (1 << m,):
        raise DomainError(f"table must have length 2^{m}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")

    # Per-edge butterfly: the weighted transform factorizes over edges.
    q, root = 1.0 - p, math.sqrt(p * (1.0 - p))

    def step(v0, v1, tmp):
        np.multiply(v1, p, out=tmp)
        v1 -= v0
        v1 *= root  # root (v1 - v0)
        v0 *= q
        v0 += tmp  # (1-p) v0 + p v1

    _butterfly(v, m, step)

    nz = np.nonzero((v > PRUNE_TOL) | (v < -PRUNE_TOL))[0]
    return PBFunction._from_masks(ground, p, dict(zip(nz.tolist(), v[nz].tolist())))
