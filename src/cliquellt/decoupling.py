"""Block partitions of the edge set, the doubled ground set, and the
alternating-sum decoupling operator with its coefficient-level expansion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cliques import _unions, clique_edge_masks
from .distributions import _inner_chf, chf_sum
from .errors import DomainError, GroundMismatchError
from .ground import EdgeGround, GraphAssignment
from .pbf import PBFunction, _edges, _mask, _value_law, assignment_weights
from .sampling import CHUNK_DRAWS, MCConfig


@dataclass(frozen=True)
class BlockPartition:
    """Edge partition B_0, B_1, ..., B_k; blocks B_1..B_k must be nonempty."""

    ground: EdgeGround
    k: int
    block_of: tuple[int, ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)  # edge mask of each block

    def __post_init__(self):
        if len(self.block_of) != self.ground.size:
            raise DomainError("block_of must assign every edge")
        masks = [0] * (self.k + 1)
        for e, b in enumerate(self.block_of):
            if not (0 <= b <= self.k):
                raise DomainError(f"block id {b} out of range 0..{self.k}")
            masks[b] |= 1 << e
        for i in range(1, self.k + 1):
            if not masks[i]:
                raise DomainError(f"block B_{i} is empty")
        object.__setattr__(self, "_masks", tuple(masks))

    def block(self, i: int) -> frozenset[int]:
        return frozenset(_edges(self._masks[i]))


def is_rainbow(S: Iterable[int], part: BlockPartition) -> bool:
    """True iff S meets every block B_1..B_k (vacuously true for k=0)."""
    mask = _mask(S)
    return all(mask & block for block in part._masks[1:])


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

    def x_vars(self) -> list[int]:
        """Variables for the undoubled B_0 edges, ascending."""
        return [2 * e for e, b in enumerate(self.partition.block_of) if b == 0]


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
    out: dict[int, float] = {}
    for S, c in f._coeffs.items():
        parts = [0] * (part.k + 1)  # copy 0 of the key's edges in each block: e -> 2e
        for e in _edges(S):
            parts[part.block_of[e]] |= 1 << 2 * e
        if not all(parts[1:]):
            continue  # non-rainbow: alpha kills it
        for v in product((0, 1), repeat=part.k):
            key = parts[0]
            for copy, part_i in zip(v, parts[1:]):
                key |= part_i << copy
            sign = -1.0 if sum(v) % 2 else 1.0
            out[key] = out.get(key, 0.0) + sign * c
    return PBFunction._from_masks(DoubledGround(part), f.p, out)


def alpha_restricted_coeffs(af: PBFunction, y_bits: Mapping[int, tuple[int, int]]) -> PBFunction:
    """alpha(f), as alpha_transform returns it, with the doubled Y variables
    fixed: a function of X over B_0."""
    if not isinstance(af.ground, DoubledGround):
        raise GroundMismatchError("alpha_restricted_coeffs takes alpha(f), which lives on a DoubledGround")
    part = af.ground.partition
    beta = {}
    for e, (b0, b1) in y_bits.items():
        if part.block_of[e] == 0:
            raise DomainError(f"edge {e} is in B_0, not part of Y")
        beta[2 * e] = b0
        beta[2 * e + 1] = b1
    return af.restrict(af.ground.x_vars(), beta)


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
    color = [None] + [c for c, s in enumerate(sizes) for _ in range(s)]  # color[v] of vertex v
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
    cliques = zip(combinations(range(1, part.ground.n + 1), r), clique_edge_masks(part.ground, r))
    return [verts for verts, mask in cliques if all(mask & block for block in part._masks[1:])]


# -- the decoupling inequality -------------------------------------------------


def exact_chf(f: PBFunction, t: float) -> complex:
    """E[e^{itf}], read off the law of f's values over its truth table (EdgeGround only).

    CapacityError above TABLE_EDGE_CAP edges, from f.table().
    """
    if not isinstance(f.ground, EdgeGround):
        raise DomainError("exact_chf enumerates a base EdgeGround")
    return chf_sum(t, *_value_law(f.table(), f.p))


@dataclass(frozen=True)
class DecouplingCheck:
    lhs: float
    rhs: float
    rhs_stderr: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * self.rhs_stderr


def decoupling_check(
    table: np.ndarray, part: BlockPartition, p: float, ts: Sequence[float], mc: MCConfig
) -> list[DecouplingCheck]:
    """Both sides of |phi_f(t)|^{2^k} <= E_Y |E_X e^{it alpha(f)}|, one check per t in ts.

    ``table`` is f's truth table on part.ground, read in place.  The left side
    is exact, read off the law of f's values as in exact_chf.  It comes first,
    so a t whose phases t f are not finite is a DomainError before any draw.
    The right side reads alpha(f)(X, Y) = sum_v (-1)^|v| f(X, Y^v) off the
    table, Y^v taking copy v_b of each edge of block b: exact over the X
    assignments of B_0, Monte Carlo over the rows of ``mc.edge_draws`` (column
    2j + copy is that copy of the j-th Y edge), in row blocks, so memory does
    not grow with the samples.  The rows come through ``mc.map_chunks``: each
    group of workers reads its own rows on its own thread, and the per-row
    values are joined in (worker, sample) order, so no bit depends on the
    thread count.
    One law and one set of Y draws serve every t; an empty ts draws none.
    p outside (0, 1) and one Y row (the rhs stderr needs two) are DomainErrors.
    """
    table = np.asarray(table)
    if table.shape != (1 << part.ground.size,):
        raise GroundMismatchError(f"table must have length 2^{part.ground.size}, the partition's ground")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")
    if len(ts) == 0:
        return []
    if mc.samples < 2:
        raise DomainError(f"need at least two Y rows for the rhs stderr, got samples={mc.samples}")
    law = _value_law(table, p)
    lhs = [abs(chf_sum(t, *law)) ** (2**part.k) for t in ts]
    x_edges = [e for e, b in enumerate(part.block_of) if b == 0]
    y_edges = [e for e, b in enumerate(part.block_of) if b != 0]
    # x_index[a]: the base-edge bits of X assignment a, whose bit i is edge x_edges[i]
    x_index = np.array(_unions([1 << e for e in x_edges]), dtype=np.int64)
    wx = assignment_weights(len(x_edges), p)
    vs = list(product((0, 1), repeat=part.k))
    # pick[v, j]: the draw column of the copy of the j-th Y edge that Y^v takes
    pick = np.array([[2 * j + v[part.block_of[e] - 1] for j, e in enumerate(y_edges)] for v in vs], dtype=np.intp)
    y_edge_bits = np.array([1 << e for e in y_edges], dtype=np.int64)
    # g, its gather indices and the gathered values: a quarter of CHUNK_DRAWS entries each
    step = max(1, CHUNK_DRAWS // (4 * x_index.size))


    def inner_values(chunks) -> list[list[np.ndarray]]:
        """|E_X e^{it alpha}| of each Y row of the chunks, per t, in row blocks."""
        abs_vals: list[list[np.ndarray]] = [[] for _ in ts]
        for _, draws in chunks:
            y_masks = draws[:, pick] @ y_edge_bits  # (rows, 2^k): the edge mask of each Y^v
            for lo in range(0, len(y_masks), step):
                block = y_masks[lo : lo + step]
                g = np.zeros((len(block), x_index.size))
                for v, y_mask in zip(vs, block.T):  # add or subtract: a uint8 table takes no sign
                    (np.subtract if sum(v) % 2 else np.add)(g, table[y_mask[:, None] | x_index], out=g)
                for out, t in zip(abs_vals, ts):
                    out.append(np.abs(_inner_chf(g, t, wx)))
        return abs_vals

    groups = mc.map_chunks([2 * len(y_edges)], p, inner_values)
    checks = []
    for k, lhs_t in enumerate(lhs):
        allvals = np.concatenate([vals for group in groups for vals in group[k]])
        stderr = float(np.std(allvals, ddof=1) / math.sqrt(allvals.size))
        checks.append(DecouplingCheck(lhs=lhs_t, rhs=float(np.mean(allvals)), rhs_stderr=stderr))
    return checks

