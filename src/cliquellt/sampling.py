"""Seeded G(n,p) sampling, Monte Carlo clique counts, and empirical
characteristic functions with deterministic parallel substreams."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cliques import CliqueSpec, count_cliques_batch
from .distributions import EmpiricalDistribution, LatticeSpec, chf_sum, phase_blocks
from .errors import DomainError
from .ground import EdgeGround, GraphAssignment


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

    def doubled(self) -> "MCConfig":
        """Twice the samples, drawn from the next stream: independent of this run."""
        return replace(self, samples=2 * self.samples, stream=self.stream + 1)


@dataclass(frozen=True)
class ChfEstimate:
    t: float
    value: complex
    stderr: float
    samples: int


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> GraphAssignment:
    """One G(n,p) graph: each edge i.i.d. Bernoulli(p) from the given stream."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")
    ground = EdgeGround(n)
    draws = rng.random(ground.size) < p
    bits = int.from_bytes(np.packbits(draws, bitorder="little").tobytes(), "little")
    return GraphAssignment(ground, bits)


# edge draws per kernel call by default: a 1 MB block of doubles, so a chunk's
# buffers stay within a typical per-core L2 cache whatever n is
CHUNK_DRAWS = 1 << 17


def sample_clique_counts(spec: CliqueSpec, mc: MCConfig, *, chunk: int | None = None) -> np.ndarray:
    """Monte Carlo clique counts: i.i.d. G(n,p) draws, one count per sample.

    Work is split across deterministic per-worker substreams spawned from the
    seed; output order is (worker, sample-within-worker), independent of timing
    and of ``chunk``, the samples per kernel call (default: as many as fit in
    CHUNK_DRAWS edge draws).  A substream draws every chunk into the same two
    buffers, so its memory stays a few cache-sized blocks instead of fresh
    pages per chunk.  The substreams run on min(workers, cpu_count - 1)
    threads, inline when that is at most 1: a pool that needs every cpu runs
    at the pace of the busiest, and on a 2-cpu host one other busy process
    cut a 2-thread run's rate by 40% while an inline run kept its rate.  The
    numpy kernels release the GIL.
    """
    m = EdgeGround(spec.n).size
    if chunk is None:
        chunk = max(1, CHUNK_DRAWS // m)
    if chunk < 1:
        raise DomainError("chunk must be positive")

    def substream(rng: np.random.Generator, quota: int) -> np.ndarray:
        draws = np.empty((min(chunk, quota), m))
        edges = np.empty(draws.shape, dtype=bool)
        out = [np.zeros(0, dtype=np.int64)]
        for done in range(0, quota, chunk):
            size = min(chunk, quota - done)
            rng.random(out=draws[:size])
            np.less(draws[:size], spec.p, out=edges[:size])
            out.append(count_cliques_batch(edges[:size], spec.n, spec.r))
        return np.concatenate(out)

    jobs = list(zip(mc.worker_rngs(), mc.worker_quotas()))
    threads = min(mc.workers, (os.cpu_count() or 1) - 1)
    if threads <= 1:
        return np.concatenate([substream(rng, quota) for rng, quota in jobs])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(lambda job: substream(*job), jobs)))


def sample_kappa(spec: CliqueSpec, mc: MCConfig) -> np.ndarray:
    """Samples of kappa = (f_r - mu)/sigma."""
    counts = sample_clique_counts(spec, mc)
    return (counts - spec.mu) / spec.sigma


def empirical_chf(values: np.ndarray, t: float) -> ChfEstimate:
    """(1/N) sum e^{itx_j} with its standard error: the one-t case of empirical_chf_grid."""
    return empirical_chf_grid(values, [t])[0]


def empirical_chf_grid(values: np.ndarray, ts: np.ndarray) -> list[ChfEstimate]:
    """(1/N) sum_j e^{itx_j} at each t, with its standard error.

    One chf_sum over the distinct sample values, weighted by their counts.
    The standard error, sqrt(sum_j |e^{itx_j} - phi|^2 / (N(N-1))) summed over
    the same values, is the hypot of the ddof=1 standard errors of re and im.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        raise DomainError("need at least two samples for an empirical chf")
    ts = np.asarray(ts, dtype=np.float64).ravel()
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
