"""Seeded G(n,p) sampling, Monte Carlo clique counts, and empirical
characteristic functions, drawn from deterministic per-worker substreams."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .cliques import CliqueSpec, count_cliques_batch
from .distributions import EmpiricalDistribution, LatticeSpec, chf_sum, phase_blocks
from .errors import DomainError


# edge draws per chunk of MCConfig.edge_draws: a 1 MB block of doubles, so a
# chunk's buffers stay within a typical per-core L2 cache whatever the width
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
        Every chunk is drawn into the same two buffers, so memory stays a few
        cache-sized blocks, and a chunk is valid only until the next one is
        requested.  The uniforms fill each row in the same order whatever the
        chunk height, so no row depends on it.
        """
        quotas = self.worker_quotas()
        rows = max(1, CHUNK_DRAWS // max(width, 1))
        draws = np.empty((min(rows, max(quotas)), width))
        edges = np.empty(draws.shape, dtype=bool)
        for rng, quota in zip(self.worker_rngs(), quotas):
            for done in range(0, quota, rows):
                size = min(rows, quota - done)
                rng.random(out=draws[:size])
                np.less(draws[:size], p, out=edges[:size])
                yield edges[:size]

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
    chunks = mc.edge_draws(spec.ground.size, spec.p)
    return np.concatenate([count_cliques_batch(edges, spec.n, spec.r) for edges in chunks])


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
