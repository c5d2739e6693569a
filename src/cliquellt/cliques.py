"""The r-clique counting statistic on G(n,p): exact counts, closed-form moments,
Fourier profile, and exact small-n distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .distributions import EmpiricalDistribution, LatticeSpec
from .errors import CapacityError, DomainError
from .ground import EdgeGround, GraphAssignment, binom, support_vertices
from .pbf import TABLE_EDGE_CAP, PBFunction, _butterfly, _mask, popcount_array

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


def weight_profile(spec: CliqueSpec) -> tuple[float, float]:
    """(W^1, W^{>1}) of kappa: W^1 = C(n,2) f_r_hat({uv})^2 / sigma^2 and its complement,
    correctly rounded; DomainError when sigma = 0 (n < r)."""
    num, edge, _ = _variance_terms(spec)
    w1 = _ratio(binom(spec.n, 2) * edge, num, f"degree-1 weight of {spec}")
    return w1, 1.0 - w1


def moments(spec: CliqueSpec) -> CliqueMoments:
    """mean, variance and weight_profile, from one build of the variance numerator."""
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


def _upper_rows(edges: np.ndarray, n: int) -> np.ndarray:
    """Packed upper-neighbour rows, shape (ceil(n/64), batch, n), dtype uint64.

    Bit j % 64 of word j // 64 of row (s, i) (0-based vertices) is set iff
    graph s has edge (i+1, j+1) and j > i.  Packed one row at a time, so the
    temporaries stay a (batch, 64 * words) bool block.
    """
    batch = edges.shape[0]
    words = -(-n // 64)
    up = np.zeros((words, batch, n), dtype=np.uint64)
    row = np.zeros((batch, 64 * words), dtype=bool)
    first = 0
    for i in range(n - 1):  # the edges (i, j > i) are contiguous in canonical order
        row[:, i] = False
        row[:, i + 1 : n] = edges[:, first : first + n - 1 - i]
        up[:, :, i] = np.packbits(row, axis=1, bitorder="little").view(np.dtype("<u8")).T
        first += n - 1 - i
    return up


def _edge_rows(edges: np.ndarray, up: np.ndarray):
    """Per vertex i: the edges (i, j > i) as a (batch, n-1-i) view, and their
    candidates up_i & up_j as one (batch, n-1-i) array per word.

    Vertices n-2 and n-1 are skipped: up_(n-1) is empty, so their upper
    edges have no candidate.
    """
    n = up.shape[2]
    first = 0
    for i in range(n - 2):
        yield edges[:, first : first + n - 1 - i], [u[:, i : i + 1] & u[:, i + 1 :] for u in up]
        first += n - 1 - i


def _popcount(words: list[np.ndarray]) -> np.ndarray:
    total = np.bitwise_count(words[0]).astype(np.int64)
    for w in words[1:]:
        total += np.bitwise_count(w)
    return total


def _extend(sample: np.ndarray, cand: list[np.ndarray], up: np.ndarray, need: int):
    """Every one-vertex extension of a frontier, keeping those with >= need candidates.

    Entry (s, C) becomes (s, C & up_v) for each v in C; ``cand`` holds C as one
    array per word.  Per word, the entries are sorted by how many candidates
    they hold there, most first; pass k then peels the lowest remaining
    candidate off the prefix of entries holding more than k, vectorised over
    that prefix.
    """
    n = up.shape[2]
    rows = up.reshape(len(up), -1)
    samples, cands = [sample[:0]], [[c[:0]] for c in cand]
    for word, held_bits in enumerate(cand):
        held = np.bitwise_count(held_bits)
        order = np.argsort(held, kind="stable")[::-1]
        sample_w, cand_w = sample[order], [c[order] for c in cand]
        bits = cand_w[word].copy()
        holding_more = len(held) - np.cumsum(np.bincount(held))
        for active in holding_more[:-1]:
            peel = bits[:active]
            low = peel & -peel
            s = sample_w[:active]
            row = s * n + 64 * word + np.bitwise_count(low - 1)
            ext = [c[:active] & np.take(r, row) for c, r in zip(cand_w, rows)]
            keep = np.flatnonzero(_popcount(ext) >= need)
            samples.append(s[keep])
            for out, e in zip(cands, ext):
                out.append(e[keep])
            peel ^= low  # a view of bits: v leaves the entry's remaining candidates
    return np.concatenate(samples), [np.concatenate(c) for c in cands]


def count_cliques_batch(edge_bits: np.ndarray, n: int, r: int) -> np.ndarray:
    """r-clique count of every graph in a batch; agrees with count_cliques per graph.

    ``edge_bits`` is a (batch, C(n,2)) 0/1 array in canonical edge order.  Each
    clique is found once, in increasing vertex order, from a frontier of
    (sample, candidate mask) pairs over packed upper-neighbour rows: it starts
    at the present edges i<j with candidates up_i & up_j, grows one vertex per
    level, vectorised over the frontier, and drops entries with too few
    candidates left.  The last vertex is counted by popcount.
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
    up = _upper_rows(edges, n)
    if r == 3:
        per_edge = np.zeros((batch, n - 1), dtype=np.int64)  # column j - i - 1 of edge (i, j)
        for present, cand in _edge_rows(edges, up):
            for c in cand:
                c *= present  # an absent edge closes no triangle
                per_edge[:, : c.shape[1]] += np.bitwise_count(c)
        return per_edge.sum(axis=1)
    samples, cands = [], [[] for _ in up]
    for present, cand in _edge_rows(edges, up):
        sample, edge = np.nonzero(present & (_popcount(cand) >= r - 2))
        samples.append(sample)
        for out, c in zip(cands, cand):
            out.append(c[sample, edge])
    sample, cand = np.concatenate(samples), [np.concatenate(c) for c in cands]
    for need in range(r - 3, 0, -1):
        sample, cand = _extend(sample, cand, up, need)
    # float weights are exact: a per-graph total near 2^53 could not fit in memory
    return np.bincount(sample, weights=_popcount(cand), minlength=batch).astype(np.int64)


# -- exhaustive enumeration ------------------------------------------------


def clique_edge_masks(ground: EdgeGround, r: int) -> list[int]:
    """Edge bitmask of every r-clique of K_n (one per r-subset of vertices)."""
    masks = []
    for verts in combinations(range(1, ground.n + 1), r):
        mask = 0
        for a, b in combinations(verts, 2):
            mask |= 1 << ground.index(a, b)
        masks.append(mask)
    return masks


def counts_over_all_graphs(n: int, r: int) -> np.ndarray:
    """f_r(g) for every assignment bitmask g in [0, 2^C(n,2)), as a uint8 array.

    The zeta (subset-sum) transform of the clique-mask indicator: per edge,
    the butterfly pass v1 += v0 adds every graph without the edge into the
    same graph with it, so g ends up counting the clique masks inside g.
    uint8 cannot wrap here, since every partial sum is at most C(n, r), and
    under the 21-edge TABLE_EDGE_CAP C(n, r) <= C(7, 3) = 35.  Callers that
    scale or square the counts must cast them first.
    """
    ground = EdgeGround(n)
    m = ground.size
    if m > TABLE_EDGE_CAP:
        raise CapacityError(f"exhaustive enumeration capped at {TABLE_EDGE_CAP} edges, got {m}")
    counts = np.zeros(1 << m, dtype=np.uint8)
    counts[clique_edge_masks(ground, r)] = 1

    def step(v0, v1, tmp):
        v1 += v0

    return _butterfly(counts, m, step)


def exact_distribution(spec: CliqueSpec) -> EmpiricalDistribution:
    """Exact law of f_r under G(n,p), on the integer lattice (b=0, h=1).

    One integer bincount gives N[c, k], the number of graphs with c cliques
    and k edges.  With p = a/b exactly, the mass at c is
    sum_k N[c, k] a^k (b-a)^(m-k) / b^m, an int/int division that Python
    rounds correctly, as in ``mean``.  Counts whose rounded mass is 0 are
    left out of the support.
    """
    m = spec.ground.size
    counts = counts_over_all_graphs(spec.n, spec.r)
    key = counts.astype(np.intp)  # c * (m+1) + k would wrap in uint8
    key *= m + 1
    key += popcount_array(m)
    hist = np.bincount(key, minlength=(int(counts.max()) + 1) * (m + 1)).reshape(-1, m + 1)
    a, b = spec.p.as_integer_ratio()
    weight = [a**k * (b - a) ** (m - k) for k in range(m + 1)]
    total = b**m
    masses = np.array([sum(g * w for g, w in zip(row, weight)) / total for row in hist.tolist()])
    c = np.flatnonzero(masses > 0.0)
    return EmpiricalDistribution.from_indices(LatticeSpec(0.0, 1.0), c, masses[c])


# -- Fourier expansion as an explicit PBFunction (small n) -----------------


def fr_function(spec: CliqueSpec) -> PBFunction:
    """f_r as a sparse PBFunction, from the closed-form coefficients."""
    ground = spec.ground
    coeffs = {0: mean(spec)}
    for t in range(2, spec.r + 1):
        for verts in combinations(range(1, spec.n + 1), t):
            all_edges = [ground.index(a, b) for a, b in combinations(verts, 2)]
            for msize in range(1, len(all_edges) + 1):
                for S in combinations(all_edges, msize):
                    if len(support_vertices(ground, S)) == t:  # once, at its own support size
                        coeffs[_mask(S)] = fourier_coeff_fr(spec, S)
    return PBFunction._from_masks(ground, spec.p, coeffs)


def kappa_function(spec: CliqueSpec) -> PBFunction:
    """kappa = (f_r - mu)/sigma as a sparse PBFunction; DomainError when sigma = 0 (n < r)."""
    sigma = spec.sigma
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    f = fr_function(spec)
    coeffs = {S: c / sigma for S, c in f._coeffs.items() if S}
    return PBFunction._from_masks(f.ground, spec.p, coeffs)
