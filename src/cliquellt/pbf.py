"""Exact algebra of real functions on the p-biased edge hypercube.

Functions are stored in the orthonormal chi basis: chi_e = (x_e - p)/sqrt(p(1-p)),
chi_S = prod_{e in S} chi_e.  Coefficients are a sparse map from edge bitmasks
to reals; anything below PRUNE_TOL after arithmetic is dropped as rounding
residue.  Exact coefficients (closed forms, and slices of a function) are kept
whatever their size.
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


def check_table_cap(m: int, what: str) -> None:
    """CapacityError when a 2^m table of ``what`` is past TABLE_EDGE_CAP edges."""
    if m > TABLE_EDGE_CAP:
        raise CapacityError(f"{what} capped at {TABLE_EDGE_CAP} edges, got {m}")


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
        """The result of arithmetic: coefficients below PRUNE_TOL are dropped."""
        return cls._exact(ground, p, {S: c for S, c in coeffs.items() if abs(c) > PRUNE_TOL})

    @classmethod
    def _exact(cls, ground, p: float, coeffs: Mapping[int, float]) -> "PBFunction":
        """Every coefficient kept, however small: at p near 0 or 1 an exact one can be below PRUNE_TOL."""
        f = cls(ground, p, {})
        f._coeffs = {S: float(c) for S, c in coeffs.items()}
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
        check_table_cap(m, "truth table")
        v = np.zeros(1 << m)
        v[list(self._coeffs)] = list(self._coeffs.values())
        c0, c1 = chi_value(self.p, 0), chi_value(self.p, 1)

        def step(v0, v1):
            tmp = v1 * c0
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
        return PBFunction._exact(self.ground, self.p, out)

    def tail(self, k: int) -> "PBFunction":
        """Keep exactly the keys with |S| > k."""
        if k < 0:
            raise DomainError("degree must be nonnegative")
        out = {S: c for S, c in self._coeffs.items() if S.bit_count() > k}
        return PBFunction._exact(self.ground, self.p, out)

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
    """popcount of every integer in [0, 2^m), as a uint8 array.

    Built by doubling: the integers in [2^k, 2^(k+1)) are those below 2^k with
    bit k set, so each has one more bit.
    """
    pc = np.zeros(1 << m, dtype=np.uint8)
    for k in range(m):
        np.add(pc[: 1 << k], 1, out=pc[1 << k : 2 << k])
    return pc


def _value_law(table: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """f's distinct values and the probability of each, from its 2^m-entry truth table.

    As exact_distribution builds its law: an integer histogram N[value, k]
    counts the assignments of each value with k edges, and
    P(f = value) = sum_k N[value, k] p^k (1-p)^(m-k), a sum of at most m+1
    terms.  A chf over the values then costs its distinct values, not 2^m
    entries, and no BLAS product is involved.  No weight is accumulated entry
    by entry (np.bincount's ``weights``), whose rounding grows with 2^m.
    """
    m = table.size.bit_length() - 1
    values, inv = np.unique(table, return_inverse=True)
    hist = np.bincount(inv * (m + 1) + popcount_array(m), minlength=values.size * (m + 1))
    k = np.arange(m + 1)
    masses = (hist.reshape(values.size, m + 1) * (p**k * (1.0 - p) ** (m - k))).sum(axis=1)
    return values, masses


def _run_floor() -> int:
    """R: numpy copies a contiguous run shorter than 2^R = np.getbufsize() // 2 entries through its buffer."""
    return (np.getbufsize() // 2).bit_length() - 1  # numpy's bufsize is at least 16


def _butterfly(v: np.ndarray, m: int, step: Callable) -> np.ndarray:
    """Apply a per-edge 2x2 step to a table of length 2^m, in place.

    Every entry gets edges 0..m-1 in order, as in a plain pass per edge, so
    the bits do not depend on how the table is cut.  A pass on edge e at
    position j of a flat array works on contiguous runs of 2^j entries, and
    numpy copies any run shorter than 2^R entries (``_run_floor``) through its
    ufunc buffer.  So every pass runs at a position of at least R (or on the
    two halves of a table too small for that), on cache-sized pieces of the
    table (BUTTERFLY_BLOCK_BYTES, at least 2^(R+1) entries):

    - a block of 2^b contiguous entries takes edges 0..b-1, max(b - R, 1) at
      a time: each group is brought to the top positions of the block by a
      rotation, a transposed copy that ping-pongs between two buffers, the
      last rotation writing back into the block;
    - edges b..m-1 then run on copied column strips, 2^R columns wide, of the
      table viewed as (2^(m-b), 2^b).

    ``step(v0, v1)`` gets matching views of entries with edge e's bit 0 and
    1 and overwrites them with their new values, entry by entry.  A step that
    needs the old v1 after writing it makes its own temporary, of half a piece.
    """
    floor = _run_floor()
    b = min(m, max((BUTTERFLY_BLOCK_BYTES // v.itemsize).bit_length() - 1, floor + 1))
    per = max(b - floor, 1)  # edges per rotation
    groups = [min(per, b - a) for a in range(0, b, per)]
    strip = 1 << (m - b + floor) if m > b else 0  # entries of a strip
    bufs = [np.empty(max(1 << b, strip), dtype=v.dtype)]
    if len(groups) > 2:  # a second block to ping-pong with
        bufs.append(np.empty(1 << b, dtype=v.dtype))
    for block in v.reshape(-1, 1 << b):
        src = block
        for i, k in enumerate(groups):
            dst = block if i == len(groups) - 1 else bufs[i % 2][: 1 << b]
            # rotate by k: position j goes to (j - k) mod b (k = b only for a lone group, in place)
            np.copyto(dst.reshape(1 << k, 1 << (b - k)), src.reshape(1 << (b - k), 1 << k).T)
            _passes(dst, range(b - k, b), step)
            src = dst
    if m > b:
        rows = v.reshape(1 << (m - b), 1 << b)
        cols = bufs[0][:strip].reshape(1 << (m - b), 1 << floor)
        for c in range(0, 1 << b, 1 << floor):
            np.copyto(cols, rows[:, c : c + (1 << floor)])
            _passes(cols.reshape(-1), range(floor, floor + m - b), step)
            np.copyto(rows[:, c : c + (1 << floor)], cols)
    return v


def _passes(v: np.ndarray, bits: Iterable[int], step: Callable) -> None:
    """One step per bit position of the flat array v, in the order given."""
    for e in bits:
        w = v.reshape(-1, 2, 1 << e)
        step(w[:, 0], w[:, 1])


def _moebius(v0, v1):
    v1 -= v0


def _certified_moebius(table: np.ndarray, m: int, top: int):
    """(masks, a_T) of an integer table's nonzero Moebius coefficients, ascending, or None.

    A uint8 Moebius pass gives every a_T mod 256, each read as an int8 s_T.
    They are returned only when sum_T |s_T| + top < 256, with top = max|f|:
    then s is a (see fourier_transform).  Moebius mod 256 is exact, so the
    order of the edges cannot change a residue, and the pass runs in two
    stages on the table viewed as rows of 2^lo bytes, lo = min(m, R - 1)
    (R from ``_run_floor``):

    - the high edges lo..m-1 run straight on the byte copy, each pass on
      contiguous runs of at least 2^lo bytes, with no rotation or scratch;
    - the low edges then run on the nonzero rows only.  Their Moebius is
      invertible mod 256, so a zero row stays zero and a nonzero row keeps a
      nonzero s_T: with k nonzero rows, sum_T |s_T| >= k, and k + top >= 256
      returns None at once.  Otherwise the k rows are copied transposed into
      a (2^lo, k) array, where each low edge is one pass over contiguous
      runs of k 2^e entries.  Entry (c, j) is the residue of mask
      row_j << lo | c.
    """
    lo = min(m, _run_floor() - 1)
    v = np.empty(1 << m, dtype=np.uint8)
    np.copyto(v, table, casting="unsafe")  # f mod 256
    _passes(v, range(lo, m), _moebius)  # wraps per byte
    rows = v.reshape(-1, 1 << lo)
    nonzero = np.flatnonzero(rows.any(axis=1))
    k = nonzero.size
    if k + top >= 256:  # each nonzero row keeps a nonzero s_T
        return None
    low = np.empty((1 << lo, k), dtype=np.uint8)
    np.copyto(low, rows[nonzero].T)
    for e in range(lo):
        w = low.reshape(1 << (lo - e - 1), 2, k << e)
        _moebius(w[:, 0], w[:, 1])
    cells = np.flatnonzero(low)
    column, j = np.divmod(cells, k)
    masks = nonzero[j] << lo | column
    order = np.argsort(masks)
    masks, s = masks[order], low.reshape(-1)[cells[order]].view(np.int8).astype(np.int64)
    return (masks, s) if int(np.abs(s).sum()) + top < 256 else None


def fourier_transform(table: np.ndarray, ground, p: float) -> PBFunction:
    """Exhaustive p-biased transform of a full truth table.

    ``table`` is an array of length 2^m indexed by assignment bitmask; it is
    not written.  Inverse of PBFunction.table.

    Write f = sum_T a_T prod_{e in T} x_e.  Each x_e = p + root chi_e, with
    root = sqrt(p(1-p)), so fhat(S) = root^|S| sum_{T >= S} a_T p^|T - S|.
    A Moebius pass (per edge v1 -= v0) gives the a_T, on one of two tiers:

    - an integer or bool table with max|f| < 256 runs it on a uint8 copy,
      where it wraps per byte and gives each a_T mod 256, read as an int8
      s_T.  If sum_T |s_T| + max|f| < 256 the s_T are the a_T: zeta(s), the
      subset sum, is f mod 256, and |zeta(s)(x) - f(x)| <= sum_T |s_T| +
      max|f| < 256, so zeta(s) = f, and the Moebius inverse is unique.  The
      test fails only when sum_T |a_T| + max|f| >= 256, as below that every
      |a_T| < 128 and s = a.  Every clique-count table under the cap passes
      (sum_T |a_T| + max|f| is 2 C(n, r) <= 70).  The pass runs the high
      edges on the whole copy, then the low edges on its nonzero rows only,
      rows of 2^(R-1) bytes (2^11 at numpy's default buffer); k nonzero rows
      hold at least k nonzero s_T, so the tier gives up as soon as
      k + max|f| >= 256 (``_certified_moebius``);
    - any other table, or one whose residues do not certify, runs it on a
      float64 copy, exact for an integer table while max|f| 2^m < 2^53.

    Then the weighted superset sum, on one of two branches:

    - while sum_T 2^|T| over the support {T : a_T != 0} is at most 2^m / 64,
      the sum runs over (mask, value) arrays of the support and its subsets
      only: per edge, every entry with the edge adds p times itself to the
      entry without it.  A clique count is such a table (its a_T are the 0/1
      clique-mask indicator: 35 of 2^21 at n = 7, r = 3);
    - otherwise one ``v0 += p v1`` butterfly pass and one root^popcount scale
      run on the whole table in float64, so a dense table gains nothing.

    The sparse steps sort up to sum_T 2^|T| entries per edge.  The 1/64 is
    set by measurement (2-core host, numpy 2.4): at m = 15..21 the sparse
    steps then cost at most about half the dense pass even when the subsets
    of the support barely overlap, and a tenth of it at m = 21; below m = 15
    either branch takes well under a millisecond.
    """
    m = ground.size
    check_table_cap(m, "exhaustive transform")
    table = np.asarray(table)
    if table.shape != (1 << m,):
        raise DomainError(f"table must have length 2^{m}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")
    top = max(-int(table.min()), int(table.max())) if table.dtype.kind in "biu" else 256  # float: no uint8 tier
    certified = _certified_moebius(table, m, top) if top < 256 else None
    if certified is None:
        dense = np.array(table, dtype=np.float64)
        _butterfly(dense, m, _moebius)
        support = dense != 0
        # sum_T 2^|T| >= |support|: a wide support skips the mask list
        masks = np.flatnonzero(support) if np.count_nonzero(support) << 6 <= dense.size else None
        a = None if masks is None else dense[masks]
    else:
        dense, (masks, a) = None, certified
    sparse = masks is not None and int(np.sum(1 << np.bitwise_count(masks).astype(np.int64))) << 6 <= 1 << m
    powers = math.sqrt(p * (1.0 - p)) ** np.arange(m + 1)  # root^|S|
    if sparse:
        vals = a.astype(np.float64)
        for e in range(m):
            has = (masks & (1 << e)) != 0
            if has.any():
                masks, inv = np.unique(np.concatenate((masks, masks[has] ^ (1 << e))), return_inverse=True)
                vals = np.bincount(inv, weights=np.concatenate((vals, p * vals[has])))
        vals *= powers[np.bitwise_count(masks)]
    else:
        if dense is None:
            dense = np.zeros(1 << m)
            dense[masks] = a

        def weighted(v0, v1):
            v0 += p * v1

        vals = _butterfly(dense, m, weighted)
        vals *= powers[popcount_array(m)]
        masks = np.arange(vals.size)
    keep = (vals > PRUNE_TOL) | (vals < -PRUNE_TOL)  # the only pruning: the dict goes in as is
    return PBFunction._exact(ground, p, dict(zip(masks[keep].tolist(), vals[keep].tolist())))
