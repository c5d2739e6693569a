"""Seeded G(n,p) sampling, Monte Carlo clique counts, and empirical
characteristic functions, drawn from deterministic per-worker substreams."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterator

import numpy as np

from .cliques import CliqueSpec, count_cliques_batch
from .distributions import EmpiricalDistribution, LatticeSpec, chf_sum, phase_blocks
from .errors import DomainError


# edge draws per chunk of MCConfig.edge_draws: a 1 MB block of doubles.  The
# clique kernel packs the draws one bit each, and its one scratch buffer, the
# pair block, holds one uint64 per draw of half the edges, reused for each word
# of a row, so it is about CHUNK_DRAWS / 2 words: whatever the width, a chunk's
# buffers stay within a typical per-core L2 cache
CHUNK_DRAWS = 1 << 17


@dataclass(frozen=True)
class MCConfig:
    """Identical (seed, samples, workers, stream) must give bit-identical results.

    Stream k draws its per-worker substreams from the spawned children
    k*workers .. (k+1)*workers - 1 of the seed, so two streams of one
    (seed, workers) share no draws.
    """

    seed: int
    samples: int
    workers: int = 1
    stream: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if self.workers < 1:
            raise DomainError("need at least one worker")
        if self.stream < 0:
            raise DomainError("stream must be nonnegative")

    def worker_rngs(self) -> list[np.random.Generator]:
        first = self.stream * self.workers
        children = np.random.SeedSequence(self.seed).spawn(first + self.workers)[first:]
        return [np.random.default_rng(c) for c in children]

    def worker_quotas(self) -> list[int]:
        base, extra = divmod(self.samples, self.workers)
        return [base + (1 if w < extra else 0) for w in range(self.workers)]

    def edge_draws(self, width: int, p: float) -> Iterator[np.ndarray]:
        """Each sample's row of ``width`` Bernoulli(p) draws, in (worker, sample) order.

        Rows come in (rows, width) bool chunks of about CHUNK_DRAWS draws.
        A chunk fills to full height across worker boundaries, so only the
        last one is shorter: each worker's rows follow the previous worker's
        in the chunk.  The uniforms go through a float buffer no taller than
        one worker's quota, and every chunk is written into the same bool
        buffer, so memory stays a few cache-sized blocks, and a chunk is valid
        only until the next one is requested.  The uniforms fill each row in
        the same order whatever the chunk height and wherever the chunk
        starts, so no row depends on either: worker w's rows are the first
        quota_w * width draws of its substream, cut every ``width``.  So its
        rows of a narrower width take a prefix of the draws of its rows of
        any wider one; sample_clique_counts_many draws several widths in one
        pass on this.
        """
        quotas = self.worker_quotas()
        rows = max(1, CHUNK_DRAWS // max(width, 1))
        draws = np.empty((min(rows, max(quotas)), width))
        edges = np.empty((min(rows, self.samples), width), dtype=bool)
        filled = 0
        for rng, quota in zip(self.worker_rngs(), quotas):
            while quota:
                size = min(len(edges) - filled, quota)  # at most len(draws)
                rng.random(out=draws[:size])
                np.less(draws[:size], p, out=edges[filled : filled + size])
                filled += size
                quota -= size
                if filled == len(edges):
                    yield edges
                    filled = 0
        if filled:
            yield edges[:filled]

    def doubled(self) -> "MCConfig":
        """Twice the samples, drawn from the next stream: independent of this run."""
        return replace(self, samples=2 * self.samples, stream=self.stream + 1)


@dataclass(frozen=True)
class ChfEstimate:
    t: float
    value: complex
    stderr: float
    samples: int


class _Recut:
    """The rows of one narrower width, cut from chunks of the widest rows.

    Worker w's rows of width m are the first quota_w * m draws of its
    substream, cut every m (see ``MCConfig.edge_draws``).  Each chunk's draws
    of each worker go into one flat buffer, up to that many; the whole rows
    form one batch, and the partial row (fewer than m draws) is carried to the
    next chunk.  A worker's draws stop at the end of a row, so the next
    worker's first row starts one.
    """

    def __init__(self, width: int, capacity: int):
        self.width = width
        self.flat = np.empty(capacity + width, dtype=bool)
        self.carry = slice(0, 0)

    def cut(self, edges: np.ndarray, row: int, workers: list[tuple[int, int]]) -> np.ndarray:
        """The whole rows in this chunk and the carry, valid until the next cut.

        ``edges`` is the chunk of the widest rows from row ``row`` on;
        ``workers`` holds each worker's (first row, quota).
        """
        if not self.width:  # a row without draws: one per widest row
            return edges[:, :0]
        wide = edges.shape[1]
        filled = self.carry.stop - self.carry.start
        self.flat[:filled] = self.flat[self.carry]
        for first, quota in workers:
            lo, hi = max(row, first), min(row + len(edges), first + quota)
            start = (lo - first) * wide  # the chunk's first draw of this worker
            size = min((hi - lo) * wide, quota * self.width - start)
            if size > 0:
                self.flat[filled : filled + size] = edges[lo - row : hi - row].reshape(-1)[:size]
                filled += size
        end = filled - filled % self.width
        self.carry = slice(end, filled)
        return self.flat[:end].reshape(-1, self.width)


def sample_clique_counts_many(specs: list[CliqueSpec], mc: MCConfig) -> list[np.ndarray]:
    """Each spec's Monte Carlo clique counts, from one pass of edge draws.

    The specs share one p.  The pass walks ``mc.edge_draws`` once, at the
    widest width, and each chunk goes straight to count_cliques_batch for the
    specs of that width.  Each narrower width re-cuts the same draws (_Recut)
    into one batch per chunk, across worker boundaries.  So spec k's counts
    are ``sample_clique_counts(specs[k], mc)`` bit for bit, and memory stays
    one chunk and one row per width, whatever the number of samples.
    """
    if not specs:
        return []
    p = specs[0].p
    if any(spec.p != p for spec in specs):
        raise DomainError(f"one pass of draws needs one p, got {sorted({spec.p for spec in specs})}")
    widths = [spec.ground.size for spec in specs]
    wide = max(widths)
    quotas = mc.worker_quotas()
    workers = list(zip(accumulate(quotas, initial=0), quotas))  # (first row, quota)
    out = [np.empty(mc.samples, dtype=np.int64) for _ in specs]
    done = [0] * len(specs)
    recuts = None
    row = 0
    for edges in mc.edge_draws(wide, p):
        if recuts is None:  # the first chunk is the tallest
            recuts = {m: _Recut(m, edges.size) for m in set(widths) if m < wide}
        batches = {m: recut.cut(edges, row, workers) for m, recut in recuts.items()}
        batches[wide] = edges
        for k, spec in enumerate(specs):
            batch = batches[widths[k]]
            out[k][done[k] : done[k] + len(batch)] = count_cliques_batch(batch, spec.n, spec.r)
            done[k] += len(batch)
        row += len(edges)
    return out


def sample_clique_counts(spec: CliqueSpec, mc: MCConfig) -> np.ndarray:
    """Monte Carlo clique counts: i.i.d. G(n,p) draws, one count per sample.

    The one-spec case of sample_clique_counts_many: one count_cliques_batch
    call per chunk of ``mc.edge_draws``; output order is (worker,
    sample-within-worker).
    """
    return sample_clique_counts_many([spec], mc)[0]


def sample_kappa(spec: CliqueSpec, mc: MCConfig) -> np.ndarray:
    """Samples of kappa = (f_r - mu)/sigma; DomainError, before any draw, when sigma = 0 (n < r)."""
    sigma = spec.sigma
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    counts = sample_clique_counts(spec, mc)
    return (counts - spec.mu) / sigma


def empirical_chf_grid(values: np.ndarray, ts: np.ndarray) -> list[ChfEstimate]:
    """(1/N) sum_j e^{itx_j} at each t, with its standard error.

    One chf_sum over the distinct sample values, weighted by their counts.
    The standard error, sqrt(sum_j |e^{itx_j} - phi|^2 / (N(N-1))) summed over
    the same values, is the hypot of the ddof=1 standard errors of re and im.
    A non-finite t is a DomainError.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        raise DomainError("need at least two samples for an empirical chf")
    ts = np.asarray(ts, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ts)):
        raise DomainError(f"every t must be finite, got {ts[~np.isfinite(ts)][0]}")
    x, counts = np.unique(values, return_counts=True)
    phi = chf_sum(ts, x, counts) / n
    spread = np.zeros(ts.size)
    for tsl, xs, phase in phase_blocks(ts, x):
        re = np.cos(phase) - phi.real[tsl, None]
        im = np.sin(phase) - phi.imag[tsl, None]
        spread[tsl] += (re * re + im * im) @ counts[xs]
    stderr = np.sqrt(spread / (n * (n - 1.0)))
    return [ChfEstimate(float(t), complex(v), float(s), n) for t, v, s in zip(ts, phi, stderr)]


def empirical_distribution(values: np.ndarray, lattice: LatticeSpec) -> EmpiricalDistribution:
    """Exact counts/N masses on the given lattice."""
    uniq, counts = np.unique(np.asarray(values, dtype=np.float64), return_counts=True)
    return EmpiricalDistribution.from_indices(lattice, lattice.index(uniq), counts / counts.sum())
