"""Exact algebra of real functions on the p-biased edge hypercube.

Functions are stored in the orthonormal chi basis: chi_e = (x_e - p)/sqrt(p(1-p)),
chi_S = prod_{e in S} chi_e.  Coefficients are a sparse map from frozensets of
edge indices to reals; anything below PRUNE_TOL after arithmetic is dropped.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CapacityError, DomainError, GroundMismatchError
from .ground import EdgeGround, GraphAssignment

PRUNE_TOL = 1e-14
TRANSFORM_EDGE_CAP = 25

Key = frozenset


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

    __slots__ = ("ground", "p", "coeffs")

    def __init__(self, ground, p: float, coeffs: Mapping[Key, float]):
        if not (0.0 < p < 1.0):
            raise DomainError(f"p must lie in (0,1), got {p}")
        self.ground = ground
        self.p = float(p)
        self.coeffs = {S: float(c) for S, c in coeffs.items() if abs(c) > PRUNE_TOL}

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, ground, p: float, c: float) -> "PBFunction":
        return cls(ground, p, {frozenset(): c})

    @classmethod
    def chi(cls, ground, p: float, edges: Iterable[int]) -> "PBFunction":
        return cls(ground, p, {frozenset(edges): 1.0})

    @classmethod
    def zero(cls, ground, p: float) -> "PBFunction":
        return cls(ground, p, {})

    # -- basic queries ------------------------------------------------

    def coeff(self, edges: Iterable[int]) -> float:
        return self.coeffs.get(frozenset(edges), 0.0)

    def degree(self) -> int:
        return max((len(S) for S in self.coeffs), default=0)

    def expectation(self) -> float:
        return self.coeffs.get(frozenset(), 0.0)

    def norm2(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs.values()))

    def spectral_norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def variance(self) -> float:
        return sum(c * c for S, c in self.coeffs.items() if S)

    # -- evaluation ---------------------------------------------------

    def eval(self, g: GraphAssignment | int) -> float:
        bits = g if isinstance(g, int) else self._check_assignment(g)
        c0 = chi_value(self.p, 0)
        c1 = chi_value(self.p, 1)
        total = 0.0
        for S, c in self.coeffs.items():
            term = c
            for e in S:
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
        if m > TRANSFORM_EDGE_CAP:
            raise CapacityError(f"truth table capped at {TRANSFORM_EDGE_CAP} edges, got {m}")
        v = np.zeros(1 << m)
        for S, c in self.coeffs.items():
            v[sum(1 << e for e in S)] = c
        c0, c1 = chi_value(self.p, 0), chi_value(self.p, 1)
        return _butterfly(v, m, lambda v0, v1: (v0 + c0 * v1, v0 + c1 * v1))

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
        out = dict(self.coeffs)
        for S, c in other.coeffs.items():
            out[S] = out.get(S, 0.0) + c
        return PBFunction(self.ground, self.p, out)

    def __sub__(self, other: "PBFunction") -> "PBFunction":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for S, c in other.coeffs.items():
            out[S] = out.get(S, 0.0) - c
        return PBFunction(self.ground, self.p, out)

    def scale(self, a: float) -> "PBFunction":
        return PBFunction(self.ground, self.p, {S: a * c for S, c in self.coeffs.items()})

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
        return PBFunction(self.ground, self.p, {S: c for S, c in self.coeffs.items() if len(S) == k})

    def tail(self, k: int) -> "PBFunction":
        """Keep exactly the keys with |S| > k."""
        if k < 0:
            raise DomainError("degree must be nonnegative")
        return PBFunction(self.ground, self.p, {S: c for S, c in self.coeffs.items() if len(S) > k})

    # -- restriction -----------------------------------------------------

    def restrict(self, keep: Iterable[int], beta: Mapping[int, int]) -> "PBFunction":
        """Fix every variable outside ``keep`` to the bits in ``beta``.

        The result has keys inside ``keep`` only; evaluating it on an assignment
        that agrees with alpha on ``keep`` equals evaluating self on (alpha, beta).
        """
        keep_set = frozenset(keep)
        chi_beta = {}
        for e, bit in beta.items():
            chi_beta[e] = chi_value(self.p, bit)
        out: dict[Key, float] = {}
        for S, c in self.coeffs.items():
            inside = S & keep_set
            factor = c
            for e in S - keep_set:
                if e not in chi_beta:
                    raise DomainError(f"restriction is missing a value for variable {e}")
                factor *= chi_beta[e]
            out[inside] = out.get(inside, 0.0) + factor
        return PBFunction(self.ground, self.p, out)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        if not isinstance(self.ground, EdgeGround):
            raise DomainError("JSON serialization is defined for EdgeGround functions only")
        payload = {
            "n": self.ground.n,
            "p": self.p,
            "coeffs": [
                {"edges": sorted(S), "value": c}
                for S, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PBFunction":
        payload = json.loads(text)
        ground = EdgeGround(payload["n"])
        coeffs = {frozenset(item["edges"]): item["value"] for item in payload["coeffs"]}
        return cls(ground, payload["p"], coeffs)

    def __repr__(self) -> str:
        return f"PBFunction(p={self.p}, terms={len(self.coeffs)}, degree={self.degree()})"


def multiply(f: PBFunction, g: PBFunction) -> PBFunction:
    """Pointwise product in the chi basis, via chi_e^2 = 1 + gamma*chi_e."""
    f._check_compatible(g)
    gamma = gamma_coeff(f.p)
    out: dict[Key, float] = {}
    for S, cs in f.coeffs.items():
        for T, ct in g.coeffs.items():
            base = cs * ct
            sym = S ^ T
            inter = sorted(S & T)
            if not inter or gamma == 0.0:
                out[sym] = out.get(sym, 0.0) + base
                continue
            for k in range(len(inter) + 1):
                gk = base * gamma**k
                if gk == 0.0:
                    break
                for U in combinations(inter, k):
                    key = sym | frozenset(U)
                    out[key] = out.get(key, 0.0) + gk
    return PBFunction(f.ground, f.p, out)


def assignment_weights(m: int, p: float) -> np.ndarray:
    """P_p(g) for every bitmask g in [0, 2^m): p^{popcount} (1-p)^{m-popcount}.

    The m+1 distinct weights are computed once and gathered by popcount.
    """
    k = np.arange(m + 1)
    return (p**k * (1.0 - p) ** (m - k))[popcount_array(m)]


def popcount_array(m: int) -> np.ndarray:
    """popcount of every integer in [0, 2^m), as a uint8 array."""
    return np.bitwise_count(np.arange(1 << m))


def _butterfly(v: np.ndarray, m: int, step: Callable) -> np.ndarray:
    """Apply a per-edge 2x2 step to a table of length 2^m, in place, edge 0 first.

    ``step(v0, v1)`` gets the halves of the table with edge e's bit 0 and 1 and
    returns their new values, computed before either half is overwritten.
    """
    for e in range(m):
        w = v.reshape(-1, 2, 1 << e)
        w[:, 0, :], w[:, 1, :] = step(w[:, 0, :], w[:, 1, :])
    return v


def fourier_transform(table: np.ndarray, ground, p: float) -> PBFunction:
    """Exhaustive p-biased transform of a full truth table.

    ``table`` is an array of length 2^m indexed by assignment bitmask.
    Inverse of PBFunction.table.
    """
    m = ground.size
    if m > TRANSFORM_EDGE_CAP:
        raise CapacityError(f"exhaustive transform capped at {TRANSFORM_EDGE_CAP} edges, got {m}")
    vals = np.asarray(table, dtype=np.float64)
    if vals.shape != (1 << m,):
        raise DomainError(f"table must have length 2^{m}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")

    # Per-edge butterfly: the weighted transform factorizes over edges.
    root = math.sqrt(p * (1.0 - p))
    v = _butterfly(vals.copy(), m, lambda v0, v1: ((1.0 - p) * v0 + p * v1, root * (v1 - v0)))

    coeffs: dict[Key, float] = {}
    nz = np.nonzero(np.abs(v) > PRUNE_TOL)[0]
    for mask in nz:
        mask = int(mask)
        key = frozenset(i for i in range(m) if (mask >> i) & 1)
        coeffs[key] = float(v[mask])
    return PBFunction(ground, p, coeffs)
