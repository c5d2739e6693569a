"""Block partitions of the edge set, the doubled ground set, and the
alternating-sum decoupling operator with its coefficient-level expansion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distributions import chf_sum
from .errors import CapacityError, DomainError, GroundMismatchError
from .ground import EdgeGround, GraphAssignment
from .pbf import PBFunction, assignment_weights, chi_value
from .sampling import MCConfig

INNER_ENUMERATION_EDGE_CAP = 20


@dataclass(frozen=True)
class BlockPartition:
    """Edge partition B_0, B_1, ..., B_k; blocks B_1..B_k must be nonempty."""

    ground: EdgeGround
    k: int
    block_of: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_of) != self.ground.size:
            raise DomainError("block_of must assign every edge")
        seen = [False] * (self.k + 1)
        for b in self.block_of:
            if not (0 <= b <= self.k):
                raise DomainError(f"block id {b} out of range 0..{self.k}")
            seen[b] = True
        for i in range(1, self.k + 1):
            if not seen[i]:
                raise DomainError(f"block B_{i} is empty")

    def block(self, i: int) -> frozenset[int]:
        return frozenset(e for e, b in enumerate(self.block_of) if b == i)

    def split(self, S: Iterable[int]) -> list[set[int]]:
        parts: list[set[int]] = [set() for _ in range(self.k + 1)]
        for e in S:
            parts[self.block_of[e]].add(e)
        return parts

    def to_json_dict(self) -> dict:
        return {"n": self.ground.n, "k": self.k, "block_of": list(self.block_of)}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "BlockPartition":
        return cls(EdgeGround(payload["n"]), payload["k"], tuple(payload["block_of"]))


def is_rainbow(S: Iterable[int], part: BlockPartition) -> bool:
    """True iff S meets every block B_1..B_k (vacuously true for k=0)."""
    hit = [False] * (part.k + 1)
    for e in S:
        hit[part.block_of[e]] = True
    return all(hit[1:])


@dataclass(frozen=True)
class DoubledGround:
    """Ground set with two copies of every edge outside B_0.

    Variable ids: base edge e maps to 2e (copy 0) and 2e+1 (copy 1); edges in
    B_0 use only 2e.  Stable across runs by construction.
    """

    partition: BlockPartition

    @property
    def size(self) -> int:
        return 2 * self.partition.ground.size

    def var(self, edge: int, copy: int = 0) -> int:
        if copy not in (0, 1):
            raise DomainError("copy must be 0 or 1")
        if copy == 1 and self.partition.block_of[edge] == 0:
            raise DomainError(f"edge {edge} is in B_0 and has a single copy")
        return 2 * edge + copy

    def base_edge(self, v: int) -> tuple[int, int]:
        return v // 2, v % 2

    def x_vars(self) -> list[int]:
        """Variables for the undoubled B_0 edges, ascending."""
        return [2 * e for e, b in enumerate(self.partition.block_of) if b == 0]

    def y_vars(self) -> list[int]:
        """Variables for the doubled copies, ascending."""
        out = []
        for e, b in enumerate(self.partition.block_of):
            if b != 0:
                out.extend((2 * e, 2 * e + 1))
        return out


def flatten(S: Iterable[int]) -> frozenset[int]:
    """Project a set of doubled variables back to base edges."""
    return frozenset(v // 2 for v in S)


# -- the alpha operator ------------------------------------------------------


def alpha_pointwise(
    f: PBFunction,
    part: BlockPartition,
    x_bits: Mapping[int, int],
    y_bits: Mapping[int, tuple[int, int]],
) -> float:
    """sum over v in {0,1}^k of (-1)^|v| f(X, Y^v), evaluated directly.

    ``x_bits`` assigns every B_0 edge; ``y_bits`` assigns (copy0, copy1) bits
    to every other edge.
    """
    ground = part.ground
    for e in range(ground.size):
        if part.block_of[e] == 0:
            if e not in x_bits:
                raise DomainError(f"B_0 edge {e} missing from X assignment")
        elif e not in y_bits:
            raise DomainError(f"edge {e} missing from Y assignment")
    total = 0.0
    for v in product((0, 1), repeat=part.k):
        bits = 0
        for e in range(ground.size):
            b = part.block_of[e]
            val = x_bits[e] if b == 0 else y_bits[e][v[b - 1]]
            if val:
                bits |= 1 << e
        sign = -1.0 if sum(v) % 2 else 1.0
        total += sign * f.eval(GraphAssignment(ground, bits))
    return total


def alpha_transform(f: PBFunction, part: BlockPartition) -> PBFunction:
    """Coefficient-level alpha: chi_S -> chi_{S_0}(X) * prod_i (chi_{S_i}(Y_i^0) - chi_{S_i}(Y_i^1)).

    Non-rainbow keys map to zero; the result lives on the doubled ground.
    """
    if not isinstance(f.ground, EdgeGround) or f.ground != part.ground:
        raise GroundMismatchError("function and partition live on different grounds")
    doubled = DoubledGround(part)
    out: dict[frozenset[int], float] = {}
    for S, c in f.coeffs.items():
        parts = part.split(S)
        if any(not parts[i] for i in range(1, part.k + 1)):
            continue  # non-rainbow: alpha kills it
        base = frozenset(2 * e for e in parts[0])
        for v in product((0, 1), repeat=part.k):
            key = set(base)
            for i in range(1, part.k + 1):
                copy = v[i - 1]
                key.update(2 * e + copy for e in parts[i])
            sign = -1.0 if sum(v) % 2 else 1.0
            fkey = frozenset(key)
            out[fkey] = out.get(fkey, 0.0) + sign * c
    return PBFunction(doubled, f.p, out)


def alpha_restricted_coeffs(
    f: PBFunction,
    part: BlockPartition,
    y_bits: Mapping[int, tuple[int, int]],
) -> PBFunction:
    """alpha(f) with the doubled Y variables fixed: a function of X over B_0."""
    doubled = DoubledGround(part)
    af = alpha_transform(f, part)
    beta = {}
    for e, (b0, b1) in y_bits.items():
        if part.block_of[e] == 0:
            raise DomainError(f"edge {e} is in B_0, not part of Y")
        beta[2 * e] = b0
        beta[2 * e + 1] = b1
    keep = doubled.x_vars()
    return af.restrict(keep, beta)


def alpha_product_transform(
    S: Iterable[int], T: Iterable[int], part: BlockPartition, p: float
) -> PBFunction:
    """Fourier expansion of alpha(chi_S) * alpha(chi_T) on the doubled ground.

    Every nonzero coefficient at a key U satisfies
    S symdiff T <= flat(U) <= S union T, with magnitude at most
    2^k * max(|gamma|^{|U|}, 1).
    """
    fs = PBFunction.chi(part.ground, p, S)
    ft = PBFunction.chi(part.ground, p, T)
    return alpha_transform(fs, part) * alpha_transform(ft, part)


# -- partition constructions --------------------------------------------------


def build_color_partition(n: int, k: int, sizes: Sequence[int]) -> BlockPartition:
    """Color vertices by consecutive runs of ``sizes``; edge block = max endpoint color."""
    if len(sizes) != k + 1:
        raise DomainError(f"need k+1={k + 1} color class sizes, got {len(sizes)}")
    if sum(sizes) != n:
        raise DomainError(f"sizes must sum to n={n}, got {sum(sizes)}")
    if sizes[0] * (k + 1) < n:
        raise DomainError(f"|U_0|={sizes[0]} must be at least n/(k+1)")
    color = {}
    v = 1
    for c, s in enumerate(sizes):
        for _ in range(s):
            color[v] = c
            v += 1
    ground = EdgeGround(n)
    block_of = tuple(max(color[i], color[j]) for i, j in ground.edges())
    return BlockPartition(ground, k, block_of)


def build_clique_partition(n: int, r: int) -> BlockPartition:
    """Partition the vertex set into floor(n/r) disjoint r-cliques.

    Each block B_1..B_{C(r,2)-1} holds exactly one edge per clique; B_0 holds
    the designated (lexicographically smallest) edge of each clique plus all
    cross and leftover edges.  The only rainbow r-cliques are the partition
    cliques.
    """
    if n < r:
        raise DomainError(f"need n >= r, got n={n}, r={r}")
    ground = EdgeGround(n)
    k = r * (r - 1) // 2 - 1
    block_of = [0] * ground.size
    for c in range(n // r):
        verts = range(c * r + 1, (c + 1) * r + 1)
        edges = sorted(combinations(verts, 2))  # lexicographic within the clique
        # edges[0] is the designated B~_0 edge; the rest fill B_1..B_k in order
        for pos, (a, b) in enumerate(edges[1:], start=1):
            block_of[ground.index(a, b)] = pos
    return BlockPartition(ground, k, tuple(block_of))


def rainbow_cliques(part: BlockPartition, r: int) -> list[tuple[int, ...]]:
    """All r-vertex subsets whose clique edge set is rainbow."""
    ground = part.ground
    out = []
    for verts in combinations(range(1, ground.n + 1), r):
        edges = [ground.index(a, b) for a, b in combinations(verts, 2)]
        if is_rainbow(edges, part):
            out.append(verts)
    return out


# -- the decoupling inequality -------------------------------------------------


def exact_chf(f: PBFunction, t: float) -> complex:
    """E[e^{itf}] by exhaustive weighted enumeration of f's truth table (EdgeGround only)."""
    if not isinstance(f.ground, EdgeGround):
        raise DomainError("exact_chf enumerates a base EdgeGround")
    m = f.ground.size
    if m > INNER_ENUMERATION_EDGE_CAP:
        raise CapacityError(f"exact chf capped at {INNER_ENUMERATION_EDGE_CAP} edges, got {m}")
    return chf_sum(t, f.table(), assignment_weights(m, f.p))


@dataclass(frozen=True)
class DecouplingCheck:
    lhs: float
    rhs: float
    rhs_stderr: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * self.rhs_stderr


def decoupling_check(
    f: PBFunction, part: BlockPartition, t: float, mc: MCConfig
) -> DecouplingCheck:
    """Both sides of |phi_f(t)|^{2^k} <= E_Y |E_X e^{it alpha(f)}|.

    The left side is exact (enumeration over the base ground); on the right the
    inner X-expectation is exact over B_0 and the outer Y-expectation is Monte
    Carlo with deterministic worker substreams.
    """
    lhs = abs(exact_chf(f, t)) ** (2**part.k)

    doubled = DoubledGround(part)
    af = alpha_transform(f, part)
    x_vars = doubled.x_vars()
    y_vars = doubled.y_vars()
    nx = len(x_vars)
    if nx > INNER_ENUMERATION_EDGE_CAP:
        raise CapacityError(f"inner enumeration capped at {INNER_ENUMERATION_EDGE_CAP} variables")
    x_pos = {v: i for i, v in enumerate(x_vars)}
    y_pos = {v: i for i, v in enumerate(y_vars)}
    p = f.p
    c0, c1 = chi_value(p, 0), chi_value(p, 1)

    # Split every key of alpha(f) into its X part (grouped) and Y part.
    x_keys: dict[frozenset[int], int] = {}
    key_rows = []  # (x_key_index, y_columns, coefficient)
    for K, c in af.coeffs.items():
        xk = frozenset(v for v in K if v in x_pos)
        yk = [y_pos[v] for v in K if v in y_pos]
        if xk not in x_keys:
            x_keys[xk] = len(x_keys)
        key_rows.append((x_keys[xk], yk, c))
    ns = len(x_keys)

    # chi_S(x) table over all X assignments, plus G(n,p) weights for X.
    x_bits = np.arange(1 << nx)
    chi_cols = [np.where((x_bits >> i) & 1, c1, c0) for i in range(nx)]
    chi_x = np.empty((ns, 1 << nx))
    for xk, s_idx in x_keys.items():
        prod = np.ones(1 << nx)
        for v in xk:
            prod *= chi_cols[x_pos[v]]
        chi_x[s_idx] = prod
    wx = assignment_weights(nx, p)

    abs_vals: list[np.ndarray] = []
    for rng, quota in zip(mc.worker_rngs(), mc.worker_quotas()):
        done = 0
        while done < quota:
            q = min(8192, quota - done)
            ybits = rng.random((q, len(y_vars))) < p
            ychi = np.where(ybits, c1, c0)
            coefmat = np.zeros((q, ns))
            for s_idx, ycols, c in key_rows:
                term = np.full(q, c)
                for col in ycols:
                    term = term * ychi[:, col]
                coefmat[:, s_idx] += term
            g_vals = coefmat @ chi_x  # (q, 2^nx)
            inner = np.exp(1j * t * g_vals) @ wx
            abs_vals.append(np.abs(inner))
            done += q
    allvals = np.concatenate(abs_vals)
    rhs = float(np.mean(allvals))
    stderr = float(np.std(allvals, ddof=1) / math.sqrt(allvals.size)) if allvals.size > 1 else 0.0
    return DecouplingCheck(lhs=lhs, rhs=rhs, rhs_stderr=stderr)
