"""Canonical edge indexing for K_n and 0/1 edge assignments.

Vertices are 1-based.  Edges (i, j) with 1 <= i < j <= n are indexed
lexicographically on (i, j), so (1,2) -> 0, (1,3) -> 1, ..., (n-1,n) -> C(n,2)-1.
Every edge index in this package uses this indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError


@dataclass(frozen=True)
class EdgeGround:
    """The edge set of the complete graph on n vertices."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one vertex, got n={self.n}")

    @property
    def size(self) -> int:
        """Number of edge variables, C(n, 2)."""
        return self.n * (self.n - 1) // 2

    def index(self, i: int, j: int) -> int:
        """Edge (i, j) -> canonical index."""
        if i > j:
            i, j = j, i
        if not (1 <= i < j <= self.n):
            raise DomainError(f"edge ({i},{j}) not valid for n={self.n}")
        # edges (1,*) come first: offset of row i is sum_{a<i} (n-a)
        offset = (i - 1) * self.n - i * (i - 1) // 2
        return offset + (j - i - 1)

    def edge(self, idx: int) -> tuple[int, int]:
        """Canonical index -> edge (i, j), i < j."""
        if not (0 <= idx < self.size):
            raise DomainError(f"edge index {idx} out of range for n={self.n}")
        i = 1
        while True:
            row = self.n - i
            if idx < row:
                return (i, i + 1 + idx)
            idx -= row
            i += 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(1, self.n):
            for j in range(i + 1, self.n + 1):
                yield (i, j)


def support_vertices(ground: EdgeGround, members: Iterable[int]) -> frozenset[int]:
    """Vertex support of an edge set: union of endpoints of its edges."""
    verts: set[int] = set()
    for idx in members:
        i, j = ground.edge(idx)
        verts.add(i)
        verts.add(j)
    return frozenset(verts)


@dataclass(frozen=True)
class GraphAssignment:
    """A 0/1 value for every edge of K_n, packed into an int bitmask.

    Bit ``idx`` of ``bits`` is the value of the edge with canonical index ``idx``.
    """

    ground: EdgeGround
    bits: int

    def __post_init__(self):
        if not (0 <= self.bits < (1 << self.ground.size)):
            raise DomainError("assignment bits out of range for ground")

    def __getitem__(self, idx: int) -> int:
        if not (0 <= idx < self.ground.size):
            raise DomainError(f"edge index {idx} out of range")
        return (self.bits >> idx) & 1

    def edge_count(self) -> int:
        return self.bits.bit_count()

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmask per vertex (0-based positions for vertices 1..n)."""
        n = self.ground.n
        adj = [0] * (n + 1)
        idx = 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if (self.bits >> idx) & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                idx += 1
        return adj

    @classmethod
    def from_edges(cls, ground: EdgeGround, edges: Iterable[tuple[int, int]]) -> "GraphAssignment":
        bits = 0
        for i, j in edges:
            bits |= 1 << ground.index(i, j)
        return cls(ground, bits)

    @classmethod
    def complete(cls, ground: EdgeGround) -> "GraphAssignment":
        return cls(ground, (1 << ground.size) - 1)

    @classmethod
    def empty(cls, ground: EdgeGround) -> "GraphAssignment":
        return cls(ground, 0)


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
