"""Seeded G(n,p) sampling, Monte Carlo clique counts, and empirical
characteristic functions, drawn from deterministic per-worker substreams."""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")

    def worker_rngs(self) -> list[np.random.Generator]:
        first = self.stream * self.workers
        children = np.random.SeedSequence(self.seed).spawn(first + self.workers)[first:]
        return [np.random.default_rng(c) for c in children]

    def worker_quotas(self) -> list[int]:
        base, extra = divmod(self.samples, self.workers)
        return [base + (1 if w < extra else 0) for w in range(self.workers)]

    def edge_draws(self, widths: list[int], p: float) -> Iterator[tuple[int, np.ndarray]]:
        """(i, rows) chunks of every sample's row of ``widths[i]`` Bernoulli(p) draws, from one pass.

        Worker w's rows of width m are the first quota_w * m uniforms of its
        substream, cut every m: no row depends on the chunk height or on
        where a chunk starts, and the rows of a narrower width take a prefix
        of the draws of any wider one.  The uniforms come in blocks of about
        CHUNK_DRAWS; each width compares its prefix of a block into its own
        bool buffer of about CHUNK_DRAWS draws, which fills across worker
        boundaries and is yielded as (rows, m), in (worker, sample) order,
        each time it is full and once at the end.  A worker's quota_w * m
        draws are whole rows, so no row is ever split between two chunks.
        Each width's chunks reuse its one buffer, so a chunk is valid only
        until the next one is requested, and memory stays one block and one
        buffer per width whatever the number of samples.
        """
        heights = [min(max(1, CHUNK_DRAWS // max(m, 1)), self.samples) for m in widths]
        for i, (m, height) in enumerate(zip(widths, heights)):
            if not m:  # rows without draws: `samples` of them, one chunk height at a time
                for lo in range(0, self.samples, height):
                    yield i, np.empty((min(height, self.samples - lo), 0), dtype=bool)
        flats = [np.empty(height * m, dtype=bool) for m, height in zip(widths, heights)]
        block = np.empty(max([1] + [flat.size for flat in flats]))
        filled = [0] * len(widths)
        wide = max(widths, default=0)
        for rng, quota in zip(self.worker_rngs(), self.worker_quotas()):
            for lo in range(0, quota * wide, block.size):
                draws = block[: quota * wide - lo]
                rng.random(out=draws)
                for i, (m, flat) in enumerate(zip(widths, flats)):
                    part = draws[: max(0, quota * m - lo)]  # this width's prefix of the block
                    while part.size:
                        size = min(part.size, flat.size - filled[i])
                        np.less(part[:size], p, out=flat[filled[i] : filled[i] + size])
                        part = part[size:]
                        filled[i] += size
                        if filled[i] == flat.size:
                            yield i, flat.reshape(-1, m)
                            filled[i] = 0
        for i, (m, flat) in enumerate(zip(widths, flats)):
            if filled[i]:
                yield i, flat[: filled[i]].reshape(-1, m)

    def doubled(self) -> "MCConfig":
        """Twice the samples, drawn from the next stream: independent of this run."""
        return replace(self, samples=2 * self.samples, stream=self.stream + 1)


@dataclass(frozen=True)
class ChfEstimate:
    t: float
    value: complex
    stderr: float
    samples: int


def sample_clique_counts(spec: CliqueSpec, mc: MCConfig) -> np.ndarray:
    """Monte Carlo clique counts: i.i.d. G(n,p) draws, one count per sample.

    One count_cliques_batch call per chunk of ``mc.edge_draws``; output order
    is (worker, sample-within-worker).
    """
    out = np.empty(mc.samples, dtype=np.int64)
    done = 0
    for _, edges in mc.edge_draws([spec.ground.size], spec.p):
        out[done : done + len(edges)] = count_cliques_batch(edges, spec.n, spec.r)
        done += len(edges)
    return out


def sample_clique_laws(specs: list[CliqueSpec], mc: MCConfig) -> list[EmpiricalDistribution]:
    """Each spec's Monte Carlo law of the clique count on the integers, from one pass of draws.

    The specs share one p.  Each chunk of ``mc.edge_draws`` goes to
    count_cliques_batch, and the np.bincount of its counts is added into the
    spec's histogram, which grows to the largest count seen.  So spec k's law
    has the masses counts/N of ``sample_clique_counts(specs[k], mc)`` bit for
    bit, and memory stays one chunk and one histogram per spec, whatever the
    number of samples.
    """
    if not specs:
        return []
    p = specs[0].p
    if any(spec.p != p for spec in specs):
        raise DomainError(f"one pass of draws needs one p, got {sorted({spec.p for spec in specs})}")
    hists = [np.zeros(0, dtype=np.int64) for _ in specs]
    for i, edges in mc.edge_draws([spec.ground.size for spec in specs], p):
        hist = np.bincount(count_cliques_batch(edges, specs[i].n, specs[i].r), minlength=hists[i].size)
        hist[: hists[i].size] += hists[i]
        hists[i] = hist
    lattice = LatticeSpec(0.0, 1.0)
    return [EmpiricalDistribution.from_indices(lattice, np.flatnonzero(h), h[h > 0] / mc.samples) for h in hists]


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
