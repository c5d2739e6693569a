"""The r-clique counting statistic on G(n,p): exact counts, closed-form moments,
Fourier profile, and exact small-n distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .distributions import EmpiricalDistribution, LatticeSpec
from .errors import DomainError
from .ground import EdgeGround, GraphAssignment, binom, support_vertices
from .pbf import BUTTERFLY_BLOCK_BYTES, TABLE_EDGE_CAP, PBFunction, _butterfly, check_table_cap, popcount_array

EXACT_DISTRIBUTION_EDGE_CAP = TABLE_EDGE_CAP  # the name the benchmark's workloads read


@dataclass(frozen=True)
class CliqueSpec:
    """Parameters of the r-clique count on G(n,p)."""

    n: int
    r: int
    p: float

    def __post_init__(self):
        if self.r < 3:
            raise DomainError(f"clique size must be >= 3, got r={self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0,1), got {self.p}")

    @property
    def lam(self) -> float:
        return min(self.p, 1.0 - self.p)

    @property
    def ground(self) -> EdgeGround:
        return EdgeGround(self.n)

    @property
    def mu(self) -> float:
        return mean(self)

    @property
    def sigma2(self) -> float:
        return variance(self)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class CliqueMoments:
    mu: float
    sigma2: float
    sigma: float
    weight_deg1: float
    weight_tail: float


def _ratio(num: int, den: int, what: str) -> float:
    """num / den, which Python rounds correctly; DomainError when den is 0 or the
    value is beyond the float range (too large, or nonzero but rounding to 0.0)."""
    try:
        value = num / den
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{what} is not a finite float: {exc}") from exc
    if value == 0.0 and num != 0:
        raise DomainError(f"{what} underflows a float")
    return value


def mean(spec: CliqueSpec) -> float:
    """E[f_r] = p^C(r,2) * C(n,r): with p = a/b exactly, (a^e * C(n,r)) / b^e."""
    a, b = spec.p.as_integer_ratio()
    e = binom(spec.r, 2)
    return _ratio(a**e * binom(spec.n, spec.r), b**e, f"mean of {spec}")


@lru_cache(maxsize=None)
def covering_edge_subsets(t: int, m: int) -> int:
    """Number of m-edge subsets of K_t whose vertex support is all t vertices.

    Inclusion-exclusion over the vertices missed by the subset.
    """
    if t < 2:
        raise DomainError(f"need t >= 2, got {t}")
    if m < 0 or m > binom(t, 2):
        raise DomainError(f"m={m} out of range for K_{t}")
    return sum((-1) ** j * binom(t, j) * binom(binom(t - j, 2), m) for j in range(t + 1))


def fourier_coeff_fr(spec: CliqueSpec, edges: Iterable[int]) -> float:
    """Fourier coefficient of f_r at edge set S.

    Nonzero exactly when |supp(S)| <= r (any r-superset of the support spans a
    clique containing S): p^C(r,2) * ((1-p)/p)^{|S|/2} * C(n - s, r - s).
    """
    S = frozenset(edges)
    s = len(support_vertices(spec.ground, S))
    if s > spec.r:
        return 0.0
    ratio = (1.0 - spec.p) / spec.p
    return spec.p ** binom(spec.r, 2) * ratio ** (len(S) / 2.0) * binom(spec.n - s, spec.r - s)


def _variance_terms(spec: CliqueSpec) -> tuple[int, int, int]:
    """b^{2e} sigma^2, b^{2e} f_r_hat({uv})^2 for one edge uv, and b^{2e}; p = a/b, e = C(r,2).

    f_r_hat(S)^2 = p^{2e} x^|S| C(n-t, r-t)^2 for S spanning t vertices, x = (1-p)/p, and
    sum_m ncov(t, m) x^m = sum_j (-1)^j C(t,j) (1+x)^C(t-j,2) over K_t, with 1 + x = b/a.
    """
    a, b = spec.p.as_integer_ratio()
    n, r, e = spec.n, spec.r, binom(spec.r, 2)
    power = [a ** (2 * e - binom(i, 2)) * b ** binom(i, 2) for i in range(r + 1)]  # i = t - j
    total = 0
    for t in range(2, r + 1):
        cover = sum((-1) ** (t - i) * binom(t, i) * power[i] for i in range(t + 1))
        total += binom(n, t) * binom(n - t, r - t) ** 2 * cover
    return total, a ** (2 * e - 1) * (b - a) * binom(n - 2, r - 2) ** 2, b ** (2 * e)


def variance(spec: CliqueSpec) -> float:
    """sigma^2 = sum over nonempty S of f_r_hat(S)^2, correctly rounded (0 when n < r)."""
    num, _, den = _variance_terms(spec)
    return _ratio(num, den, f"variance of {spec}")


def variance_leading_coefficient(r: int, p: float) -> float:
    """Coefficient of n^{2r-2} in sigma^2: p^{r(r-1)-1}(1-p) / (2 ((r-2)!)^2),
    correctly rounded: with p = a/b exactly it is one int/int division."""
    if r < 3 or not (0.0 < p < 1.0):
        raise DomainError(f"need r >= 3 and 0 < p < 1, got r={r}, p={p}")
    a, b = float(p).as_integer_ratio()
    e = r * (r - 1) - 1
    den = 2 * b ** (e + 1) * math.factorial(r - 2) ** 2
    return _ratio(a**e * (b - a), den, f"variance leading coefficient at r={r}, p={p}")


def moments(spec: CliqueSpec) -> CliqueMoments:
    """mean, variance and the weight profile (W^1, W^{>1}) of kappa, from one build of the
    variance numerator.  W^1 = C(n,2) f_r_hat({uv})^2 / sigma^2, correctly rounded, and
    W^{>1} = 1 - W^1; DomainError when sigma = 0 (n < r)."""
    num, edge, den = _variance_terms(spec)
    w1 = _ratio(binom(spec.n, 2) * edge, num, f"degree-1 weight of {spec}")
    s2 = _ratio(num, den, f"variance of {spec}")
    return CliqueMoments(mean(spec), s2, math.sqrt(s2), w1, 1.0 - w1)


# -- exact clique counting ------------------------------------------------


def count_cliques(g: GraphAssignment, r: int) -> int:
    """Number of r-vertex subsets inducing a complete subgraph.

    Ordered backtracking over neighbor bitsets with intersection pruning.
    """
    if r < 3:
        raise DomainError(f"clique size must be >= 3, got r={r}")
    n = g.ground.n
    if r > n:
        return 0
    adj = g.adjacency_masks()

    def extend(cand: int, need: int) -> int:
        if need == 0:
            return 1
        total = 0
        while cand:
            if cand.bit_count() < need:
                break
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            total += extend(cand & adj[v], need - 1)
        return total

    full = ((1 << (n + 1)) - 1) & ~1  # vertices 1..n
    return extend(full, r)


@lru_cache(maxsize=None)
def _row_plan(n: int) -> tuple:
    """What count_cliques_batch needs of n alone, built once per n; arrays read-only.

    (starts, halves, cap, tri_i, tri_j, q, sh, keep): row i's edges (i, j > i) are
    contiguous in canonical order from starts[i]; the rows [0, h) and [h, n-1) of
    ``halves`` hold about C(n,2)/2 edges each, ``cap`` at most; tri_i, tri_j is
    np.triu_indices(n, 1).  Where bit 64 + e of a stream is edge e, edge (i, j) is
    bit starts[i] - i + j + 63, so word w of row i (entry w * n + i) is the stream's
    64 bits from bit 64 q + sh, where j = 64w lands, kept where i < j < n by ``keep``.
    """
    m = n * (n - 1) // 2
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    h = int(np.searchsorted(starts, m // 2))
    w, i = np.divmod(np.arange(-(-n // 64) * n), n)
    q, sh = np.divmod(starts[i] - i + 64 * w + 63, 64)  # at most m + 63, as 64w < n
    col = 64 * w[:, None] + np.arange(64)  # the column j of each bit of the word
    keep = np.packbits((i[:, None] < col) & (col < n), axis=1, bitorder="little").view("<u8")
    tri_i, tri_j = np.triu_indices(n, 1)
    sh = sh.astype(np.uint64)[:, None]
    for arr in (starts, tri_i, tri_j, q, sh, keep):
        arr.flags.writeable = False
    return starts, ((0, h), (h, n - 1)), int(max(starts[h], m - starts[h])), tri_i, tri_j, q, sh, keep


def _upper_rows(edges: np.ndarray, n: int) -> np.ndarray:
    """Packed upper-neighbour rows, shape (ceil(n/64), n, batch), dtype uint64.

    Bit j % 64 of word j // 64 of row (i, s) (0-based vertices) is set iff
    graph s has edge (i, j) and j > i.  Each word is a 64-bit field of one
    little-endian packbits stream of the graph's edges, read with two aligned
    word gathers and masked to the row's columns (see _row_plan).  The edges
    are padded with zero bits to whole words, so one flat packbits packs the
    whole batch; short rows packed one by one cost more than the rest of this.
    """
    *_, q, sh, keep = _row_plan(n)
    m = edges.shape[1]
    words = -(-m // 64)
    bits = np.zeros((len(edges), 64 * words), dtype=bool)
    bits[:, :m] = edges
    packed = np.packbits(bits, bitorder="little").view("<u8").reshape(len(edges), words)
    # column s is graph s's stream: a zero word before the edges, and one
    # after the last word a field starts in
    v = np.zeros((m // 64 + 3, len(edges)), dtype=np.uint64)
    v[1 : 1 + words] = packed.T
    rows = v[q] >> sh
    rows |= (v[q + 1] << (np.uint64(63) - sh)) << np.uint64(1)
    rows &= keep
    return rows.reshape(len(q) // n, n, len(edges))


def _popcount(words: list[np.ndarray]) -> np.ndarray:
    total = np.bitwise_count(words[0]).astype(np.int64)
    for w in words[1:]:
        total += np.bitwise_count(w)
    return total


def _extensions(sample: np.ndarray, cand: list[np.ndarray], up: np.ndarray):
    """Every one-vertex extension of a frontier, as (samples, candidate words) per pass.

    Entry (s, C) becomes (s, C & up_v) for each v in C; ``cand`` holds C as one
    array per word.  Per word, the entries are sorted by how many candidates
    they hold there, most first; pass k then peels the lowest remaining
    candidate off the prefix of entries holding more than k, vectorised over
    that prefix.
    """
    batch = up.shape[2]
    rows = up.reshape(len(up), -1)
    for word, held_bits in enumerate(cand):
        held = np.bitwise_count(held_bits)
        order = np.argsort(held, kind="stable")[::-1]
        sample_w, cand_w = sample[order], [c[order] for c in cand]
        holding_more = len(held) - np.cumsum(np.bincount(held))
        for active in holding_more[:-1]:
            # this word's candidates from v up: C & up_v is the same, as up_v holds only vertices above v
            peel = cand_w[word][:active]
            low = peel & -peel
            s = sample_w[:active]
            row = (64 * word + np.bitwise_count(low - 1).astype(np.intp)) * batch + s
            yield s, [c[:active] & np.take(r, row) for c, r in zip(cand_w, rows)]
            peel ^= low  # v leaves the entry's remaining candidates


def _extend(sample: np.ndarray, cand: list[np.ndarray], up: np.ndarray, need: int):
    """The one-vertex extensions of a frontier that keep >= need candidates."""
    samples, cands = [sample[:0]], [[c[:0]] for c in cand]
    for s, ext in _extensions(sample, cand, up):
        keep = np.flatnonzero(_popcount(ext) >= need)
        samples.append(s[keep])
        for out, e in zip(cands, ext):
            out.append(e[keep])
    return np.concatenate(samples), [np.concatenate(c) for c in cands]


def count_cliques_batch(edge_bits: np.ndarray, n: int, r: int) -> np.ndarray:
    """r-clique count of every graph in a batch; agrees with count_cliques per graph.

    ``edge_bits`` is a (batch, C(n,2)) 0/1 array in canonical edge order.  Each
    clique is found once, in increasing vertex order, over packed
    upper-neighbour rows (_upper_rows).  The first level is a pair block per word,
    up_i & up_j for every edge (i, j) and graph, filled half the rows at a time
    into one (about C(n,2)/2 by batch) buffer.  r = 3 sums the popcounts
    of the present edges.  r >= 4 starts a frontier of (sample, candidate mask) pairs
    at the present edges with at least r-2 candidates, grows it one vertex per
    level, vectorised over the frontier, and drops entries with too few
    candidates left; the last two vertices are counted by the popcount of each
    extension's candidates, pass by pass, without building the last frontier.
    """
    if r < 3:
        raise DomainError(f"clique size must be >= 3, got r={r}")
    edges = np.asarray(edge_bits, dtype=bool)
    m = EdgeGround(n).size
    if edges.ndim != 2 or edges.shape[1] != m:
        raise DomainError(f"need a (batch, {m}) edge array, got shape {edges.shape}")
    batch = edges.shape[0]
    if r > n:
        return np.zeros(batch, dtype=np.int64)
    starts, halves, cap, tri_i, tri_j, *_ = _row_plan(n)
    up = _upper_rows(edges, n)
    block = np.empty((cap, batch), dtype=np.uint64)  # the pair block of one half of the rows
    common = np.zeros((m, batch), dtype=np.min_scalar_type(n))  # candidates of (edge, graph)
    for u in up:
        for a, b in halves:  # the pair block: u_i & u_j for each edge (i, j) of the half
            lo = starts[a]
            for i in range(a, b):
                np.bitwise_and(u[i], u[i + 1 :], out=block[starts[i] - lo : starts[i + 1] - lo])
            common[lo : starts[b]] += np.bitwise_count(block[: starts[b] - lo])
    if r == 3:  # an absent edge closes no triangle; a graph's total is at most C(n,3)
        common *= edges.T.view(np.uint8)
        return common.sum(axis=0, dtype=np.min_scalar_type(binom(n, 3))).astype(np.int64)
    edge, sample = np.nonzero((common >= r - 2) & edges.T)
    i, j = tri_i[edge], tri_j[edge]
    cand = [u[i, sample] & u[j, sample] for u in up]
    del block, common, edge, i, j  # the first level's buffers: the frontier is the largest transient
    for need in range(r - 3, 1, -1):
        sample, cand = _extend(sample, cand, up, need)
    # the last two vertices: each extension's candidates close that many
    # cliques, summed pass by pass, so the last frontier is never built.  Float
    # weights are exact: a per-graph total near 2^53 could not fit in memory
    total = np.zeros(batch)
    for s, ext in _extensions(sample, cand, up):
        total += np.bincount(s, weights=_popcount(ext), minlength=batch)
    return total.astype(np.int64)


# -- exhaustive enumeration ------------------------------------------------


def clique_edge_masks(ground: EdgeGround, r: int) -> list[int]:
    """Edge bitmask of every r-clique of K_n (one per r-subset of vertices)."""
    cliques = combinations(range(1, ground.n + 1), r)
    return [sum(1 << ground.index(a, b) for a, b in combinations(verts, 2)) for verts in cliques]


def counts_over_all_graphs(n: int, r: int) -> np.ndarray:
    """f_r(g) for every assignment bitmask g in [0, 2^C(n,2)), as a uint8 array.

    The zeta (subset-sum) transform of the clique-mask indicator: per edge,
    v1 += v0 adds every graph without the edge into the same graph with it,
    so g ends up counting the clique masks inside g.  The passes run on the
    table as little-endian uint64 words of 8 counts, graph g in byte g % 8 of
    word g // 8: edges 0-2 inside each word, by shifting the bytes without
    the edge onto those with it, and edges 3..m-1 as whole-word butterfly
    passes.  No byte carries into the next, and uint8 cannot wrap, since
    every partial sum is at most C(n, r), and under the 21-edge
    TABLE_EDGE_CAP C(n, r) <= C(7, 3) = 35.  Callers that scale or square
    the counts must cast them first.  exact_distribution reads only the
    tables of n-1 vertices and fewer (_peel_histogram), so its n = 7 law
    takes at most 2^15 counts.
    """
    if r < 3:
        raise DomainError(f"clique size must be >= 3, got r={r}")
    ground = EdgeGround(n)
    m = ground.size
    check_table_cap(m, "exhaustive enumeration")
    counts = np.zeros(max(1 << m, 8), dtype=np.uint8)  # at least one word
    counts[clique_edge_masks(ground, r)] = 1
    words = counts.view("<u8")
    tmp = np.empty(min(words.size, BUTTERFLY_BLOCK_BYTES // words.itemsize), dtype=words.dtype)
    for block in words.reshape(-1, tmp.size):  # one cache-sized block at a time
        for e, without in enumerate((0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)[:m]):
            np.bitwise_and(block, np.uint64(without), out=tmp)  # the bytes of graphs without edge e
            tmp <<= np.uint64(8 << e)
            block += tmp

    def step(v0, v1):
        v1 += v0

    _butterfly(words, max(m - 3, 0), step)
    return counts[: 1 << m]


def _peel_histogram(n: int, r: int) -> np.ndarray:
    """N[c, k]: how many of the 2^C(n,2) graphs on n vertices have c r-cliques and k edges.

    Peels vertex 1.  Its edges are bits 0..n-2 of g, and the rest is H, a graph
    on vertices 2..n in its own canonical order, so g = S | H << (n-1) and
    c_r(g) = c_r(H) + c_{r-1}(H[S]), |g| = |H| + |S|.  Relabelling vertices
    2..n moves S onto any other set of its size s, so S may be the last s
    vertices, whose C(s,2) edges are the top bits of H:
    N[c, k] = sum_s C(n-1, s) #{H : c_r(H) + c_{r-1}(H >> (C(n-1,2) - C(s,2))) = c,
    |H| = k - s}, with c_2 the edge count.  Each s is one bincount of the key
    |H| * (C+1) + c over the 2^C(n-1,2) graphs H, C = C(n, r) the largest count.
    """
    mh, width = binom(n - 1, 2), binom(n, r) + 1
    inner = counts_over_all_graphs(n - 1, r) if n > 1 else np.zeros(1, dtype=np.uint8)
    base = popcount_array(mh) * np.intp(width) + inner
    key = np.empty_like(base)
    hist = np.zeros((mh + n, width), dtype=np.int64)
    for s in range(n):
        if r == 3:
            top = popcount_array(binom(s, 2))
        elif s >= r - 1:
            top = counts_over_all_graphs(s, r - 1)
        else:  # no (r-1)-clique fits in s vertices
            top = np.zeros(1, dtype=np.uint8)
        np.add(base.reshape(top.size, -1), top[:, None], out=key.reshape(top.size, -1))
        part = np.bincount(key, minlength=(mh + 1) * width).reshape(mh + 1, width)
        hist[s : s + mh + 1] += binom(n - 1, s) * part
    return hist.T


def exact_distribution(spec: CliqueSpec) -> EmpiricalDistribution:
    """Exact law of f_r under G(n,p), on the integer lattice (b=0, h=1).

    An integer histogram gives N[c, k], the number of graphs with c cliques
    and k edges, from the graphs on n-1 vertices (_peel_histogram).
    With p = a/b exactly, the mass at c is sum_k N[c, k] a^k (b-a)^(m-k) / b^m,
    an int/int division that Python rounds correctly, as in ``mean``.  Counts
    whose rounded mass is 0 are left out of the support.  CapacityError above
    TABLE_EDGE_CAP edges, as for every 2^m table.
    """
    m = spec.ground.size
    check_table_cap(m, "exhaustive enumeration")
    hist = _peel_histogram(spec.n, spec.r)
    a, b = spec.p.as_integer_ratio()
    weight = [a**k * (b - a) ** (m - k) for k in range(m + 1)]
    total = b**m
    masses = np.array([sum(g * w for g, w in zip(row, weight)) / total for row in hist.tolist()])
    c = np.flatnonzero(masses > 0.0)
    return EmpiricalDistribution.from_indices(LatticeSpec(0.0, 1.0), c, masses[c])


# -- Fourier expansion as an explicit PBFunction (small n) -----------------


def _unions(bits: list[int]) -> list[int]:
    """Entry L is the union of bits[e] over the set bits e of L, for every L < 2^len(bits)."""
    out = [0]
    for b in bits:
        out += [x | b for x in out]
    return out


def _terms_spanning(spec: CliqueSpec, t: int) -> Iterator[tuple[int, float]]:
    """(edge mask, fhat) for every edge set of K_n spanning exactly t vertices.

    fhat(S) depends on |S| and t alone.  So the edge sets of K_t on local
    vertices 0..t-1 that touch all t are listed once, as local edge masks by
    size and then in combinations order, with one fourier_coeff_fr value per
    size.  Each t-vertex set maps local masks to masks of K_n through one
    table, the _unions of its edges' bits by ground.index.
    """
    ground, local = spec.ground, list(combinations(range(t), 2))
    touched = _unions([1 << a | 1 << b for a, b in local])
    by_size = []  # (value, patterns)
    for size in range(1, len(local) + 1):
        masks = map(sum, combinations([1 << e for e in range(len(local))], size))
        patterns = [L for L in masks if touched[L] == (1 << t) - 1]
        if patterns:
            rep = [ground.index(a + 1, b + 1) for e, (a, b) in enumerate(local) if patterns[0] >> e & 1]
            by_size.append((fourier_coeff_fr(spec, rep), patterns))
    for verts in combinations(range(1, spec.n + 1), t):
        placed = _unions([1 << ground.index(verts[a], verts[b]) for a, b in local])
        for c, patterns in by_size:
            yield from ((placed[L], c) for L in patterns)


def fr_function(spec: CliqueSpec) -> PBFunction:
    """f_r as a sparse PBFunction: the mean, then the terms spanning t = 2..min(r, n) vertices."""
    coeffs = {0: mean(spec)}
    for t in range(2, min(spec.r, spec.n) + 1):
        coeffs.update(_terms_spanning(spec, t))
    return PBFunction._exact(spec.ground, spec.p, coeffs)


def kappa_function(spec: CliqueSpec) -> PBFunction:
    """kappa = (f_r - mu)/sigma as a sparse PBFunction; DomainError when sigma = 0 (n < r)."""
    sigma = spec.sigma
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    f = fr_function(spec)
    coeffs = {S: c / sigma for S, c in f._coeffs.items() if S}
    return PBFunction._exact(f.ground, spec.p, coeffs)
