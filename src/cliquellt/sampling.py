"""Seeded G(n,p) sampling, Monte Carlo clique counts, and empirical
characteristic functions, drawn from deterministic per-worker substreams,
groups of workers on up to one thread per usable CPU."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from threading import Thread
from typing import Callable, Iterator, TypeVar

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
# uniforms per rng.random call of MCConfig.edge_draws for one group of workers
# of several, drawn beside the others: 128 KB of doubles, so each thread's
# block stays small beside its chunk buffers
GROUP_UNIFORM_DRAWS = 1 << 14

T = TypeVar("T")


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most threads map_chunks uses."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class MCConfig:
    """Identical (seed, samples, workers, stream) must give bit-identical results.

    ``workers`` fixes the bits: it is the number of substreams a run's samples
    are split over, worker w drawing quota_w of them.  The host's cores fix the
    threads: map_chunks runs groups of workers on up to one thread per usable
    CPU, and no sample depends on which thread drew it.
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

    def worker_rngs(self, group: range | None = None) -> list[np.random.Generator]:
        """The generators of the workers in ``group``, by default of every worker that draws.

        Those are the first min(workers, samples): the rest have a zero quota.
        Worker w's generator is seeded with the seed's spawned child
        stream * workers + w, built from its spawn key alone, so no generator
        is made for a worker that draws nothing.
        """
        first = self.stream * self.workers
        group = self._drawing() if group is None else group
        return [np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(first + w,))) for w in group]

    def _drawing(self) -> range:
        """The workers with a nonzero quota."""
        return range(min(self.workers, self.samples))

    def worker_quotas(self) -> list[int]:
        base, extra = divmod(self.samples, self.workers)
        return [base + (1 if w < extra else 0) for w in range(self.workers)]

    def edge_draws(
        self, widths: list[int], p: float, group: range | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """(i, rows) chunks of every sample's row of ``widths[i]`` Bernoulli(p) draws, from one pass.

        The samples are those of the workers in ``group`` (by default every
        worker that draws), in (worker, sample) order.  Worker w's rows of
        width m are the first quota_w * m uniforms of its substream, cut every
        m: no row depends on the chunk height, on where a chunk starts or on
        the group, and the rows of a narrower width take a prefix of the draws
        of any wider one.  The uniforms come in blocks of about CHUNK_DRAWS
        (at most GROUP_UNIFORM_DRAWS for a ``group``, which runs beside the
        others); each width compares its prefix of a block into its own
        bool buffer of about CHUNK_DRAWS draws, which fills across worker
        boundaries and is yielded as (rows, m) each time it is full and once
        at the end.  A worker's quota_w * m draws are whole rows, so no row is
        ever split between two chunks.  Each width's chunks reuse its one
        buffer, so a chunk is valid only until the next one is requested, and
        memory stays one block and one buffer per width whatever the number of
        samples.
        """
        whole = group is None
        group = self._drawing() if whole else group
        rngs, quotas = self.worker_rngs(group), self.worker_quotas()[group.start : group.stop]
        samples = sum(quotas)
        heights = [min(max(1, CHUNK_DRAWS // max(m, 1)), samples) for m in widths]
        for i, (m, height) in enumerate(zip(widths, heights)):
            if not m:  # rows without draws: `samples` of them, one chunk height at a time
                for lo in range(0, samples, height):
                    yield i, np.empty((min(height, samples - lo), 0), dtype=bool)
        flats = [np.empty(height * m, dtype=bool) for m, height in zip(widths, heights)]
        size = max([1] + [flat.size for flat in flats])
        block = np.empty(size if whole else min(size, GROUP_UNIFORM_DRAWS))
        filled = [0] * len(widths)
        wide = max(widths, default=0)
        for rng, quota in zip(rngs, quotas):
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

    def map_chunks(
        self, widths: list[int], p: float, consume: Callable[[Iterator[tuple[int, np.ndarray]]], T]
    ) -> list[T]:
        """consume(edge_draws(widths, p, group)) for each group of workers, one thread per group.

        The workers that draw are cut into contiguous groups, one per usable
        CPU or fewer (never more groups than those workers).  The calling
        thread consumes the first group and one new thread each of the others,
        and the returns come back in group order, so each width's rows stay in
        (worker, sample) order.  A run whose samples x widest width draws fit
        in one CHUNK_DRAWS block is one group, consumed on the calling thread
        with no other thread started.  A group's chunks do not depend on the
        other groups, so the bits are the same whatever the number of groups.
        consume runs on several threads at once: it may call nothing that is
        not thread-safe.
        """
        used = len(self._drawing())
        threads = 1 if self.samples * max(widths, default=0) <= CHUNK_DRAWS else min(used, _usable_cpus())
        if threads == 1:
            return [consume(self.edge_draws(widths, p))]
        cuts = [used * g // threads for g in range(threads + 1)]
        groups = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        out: list = [None] * threads
        failed: list[BaseException] = []

        def run(k: int) -> None:
            try:
                out[k] = consume(self.edge_draws(widths, p, groups[k]))
            except BaseException as exc:  # raised again on the calling thread
                failed.append(exc)

        # plain threads: importing concurrent.futures costs a process about 0.6 MB of RSS (Python 3.11)
        helpers = [Thread(target=run, args=(k,)) for k in range(1, threads)]
        for helper in helpers:
            helper.start()
        run(0)  # the calling thread takes the first group
        for helper in helpers:
            helper.join()
        if failed:
            raise failed[0]
        return out

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

    One count_cliques_batch call per chunk of ``mc.map_chunks``, on the
    thread of that chunk's group of workers; output order is (worker,
    sample-within-worker), so the counts do not depend on the thread count.
    """

    def count(chunks):
        return [count_cliques_batch(edges, spec.n, spec.r) for _, edges in chunks]

    return np.concatenate([c for group in mc.map_chunks([spec.ground.size], spec.p, count) for c in group])


def sample_clique_laws(specs: list[CliqueSpec], mc: MCConfig) -> list[EmpiricalDistribution]:
    """Each spec's Monte Carlo law of the clique count on the integers, from one pass of draws.

    The specs share one p.  Each group of workers of ``mc.map_chunks`` sends
    every chunk to count_cliques_batch and adds the np.bincount of its counts
    into its own histogram for the spec, which grows to the largest count
    seen; the groups' integer histograms are then added.  So spec k's law has
    the masses counts/N of ``sample_clique_counts(specs[k], mc)`` bit for bit,
    and memory stays one chunk and one histogram per spec and thread,
    whatever the number of samples.
    """
    if not specs:
        return []
    p = specs[0].p
    if any(spec.p != p for spec in specs):
        raise DomainError(f"one pass of draws needs one p, got {sorted({spec.p for spec in specs})}")

    def histograms(chunks):
        hists = [np.zeros(0, dtype=np.int64) for _ in specs]
        for i, edges in chunks:
            hists[i] = _added(hists[i], np.bincount(count_cliques_batch(edges, specs[i].n, specs[i].r)))
        return hists

    hists = [np.zeros(0, dtype=np.int64) for _ in specs]
    for group in mc.map_chunks([spec.ground.size for spec in specs], p, histograms):
        hists = [_added(a, b) for a, b in zip(hists, group)]
    lattice = LatticeSpec(0.0, 1.0)
    return [EmpiricalDistribution.from_indices(lattice, np.flatnonzero(h), h[h > 0] / mc.samples) for h in hists]


def _added(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of two histograms, as long as the longer."""
    if a.size < b.size:
        a, b = b, a
    a[: b.size] += b
    return a


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
