import math
import os

import numpy as np
import pytest

from cliquellt import (
    CliqueSpec,
    DomainError,
    LatticeSpec,
    MCConfig,
    empirical_chf,
    empirical_chf_grid,
    empirical_distribution,
    mean,
    sample_clique_counts,
    sample_gnp,
    sample_kappa,
)


def test_mcconfig_validation_and_quotas():
    with pytest.raises(DomainError):
        MCConfig(seed=0, samples=0)
    with pytest.raises(DomainError):
        MCConfig(seed=0, samples=10, workers=0)
    mc = MCConfig(seed=0, samples=10, workers=3)
    assert mc.worker_quotas() == [4, 3, 3]
    assert sum(mc.worker_quotas()) == 10
    assert len(mc.worker_rngs()) == 3


def test_sample_gnp_edge_count_mean():
    rng = np.random.default_rng(1234)
    n, p, reps = 50, 0.3, 10_000
    m = n * (n - 1) // 2
    counts = np.array([sample_gnp(n, p, rng).edge_count() for _ in range(reps)])
    se = math.sqrt(m * p * (1 - p) / reps)
    assert abs(float(np.mean(counts)) - p * m) <= 4 * se


def test_sample_gnp_deterministic():
    g1 = sample_gnp(10, 0.5, np.random.default_rng(7))
    g2 = sample_gnp(10, 0.5, np.random.default_rng(7))
    assert g1.bits == g2.bits


def test_sample_gnp_bits_match_edge_loop():
    # edge idx of the draws is bit idx of the mask, over byte boundaries too
    for n in (1, 2, 4, 5, 12, 50):
        for seed in range(3):
            draws = np.random.default_rng(seed).random(n * (n - 1) // 2) < 0.4
            want = sum(1 << int(idx) for idx in np.nonzero(draws)[0])
            assert sample_gnp(n, 0.4, np.random.default_rng(seed)).bits == want


def test_clique_counts_reproducible_bit_identical():
    spec = CliqueSpec(n=12, r=3, p=0.4)
    for workers in (1, 3):
        mc = MCConfig(seed=99, samples=2000, workers=workers)
        a = sample_clique_counts(spec, mc)
        b = sample_clique_counts(spec, mc)
        assert np.array_equal(a, b)


def test_clique_counts_r3_matches_general_path():
    # the batched kernel and scalar count_cliques must agree sample-by-sample, for r = 3..5
    from cliquellt.cliques import count_cliques
    from cliquellt.ground import EdgeGround, GraphAssignment

    ground = EdgeGround(8)
    for r in (3, 4, 5):
        spec = CliqueSpec(n=8, r=r, p=0.5)
        mc = MCConfig(seed=5, samples=200)
        counts = sample_clique_counts(spec, mc)
        rngs = mc.worker_rngs()
        bits = rngs[0].random((200, ground.size)) < 0.5
        redo = []
        for row in bits:
            mask = 0
            for idx in np.nonzero(row)[0]:
                mask |= 1 << int(idx)
            redo.append(count_cliques(GraphAssignment(ground, mask), r))
        assert np.array_equal(counts, np.array(redo))
        assert counts.any()


def test_clique_counts_same_for_any_thread_count_and_chunk(monkeypatch):
    from cliquellt import sampling

    pools = []

    class SpyPool(sampling.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", SpyPool)
    for r in (3, 4):
        spec = CliqueSpec(n=11, r=r, p=0.5)
        for workers in (1, 2, 3, 4):
            mc = MCConfig(seed=17, samples=301, workers=workers)
            ref = sample_clique_counts(spec, mc)
            assert ref.shape == (301,)
            assert np.array_equal(ref, sample_clique_counts(spec, mc, chunk=7))
            # one cpu is left to the rest of the host: no pool below 3 cpus
            for cpus in (1, 2, 4):
                del pools[:]
                with monkeypatch.context() as host:
                    host.setattr(os, "cpu_count", lambda: cpus)
                    assert np.array_equal(ref, sample_clique_counts(spec, mc, chunk=64))
                threads = min(workers, cpus - 1)
                assert pools == ([threads] if threads > 1 else [])
    # more workers than samples: the idle substreams contribute nothing
    few = MCConfig(seed=17, samples=3, workers=4)
    assert np.array_equal(sample_clique_counts(spec, few), sample_clique_counts(spec, few, chunk=1))
    assert sample_clique_counts(spec, few).shape == (3,)
    with pytest.raises(DomainError):
        sample_clique_counts(spec, MCConfig(seed=0, samples=5), chunk=0)


def test_doubled_run_shares_no_leading_draws():
    # --self-check's doubled run must not start with the original run's draws
    for workers in (1, 4):
        mc = MCConfig(seed=7, samples=1000, workers=workers)
        doubled = mc.doubled()
        assert (doubled.samples, doubled.workers) == (2000, workers)
        first = {float(rng.random()) for rng in mc.worker_rngs()}
        first_doubled = {float(rng.random()) for rng in doubled.worker_rngs()}
        assert len(first) == len(first_doubled) == workers
        assert not first & first_doubled
        spec = CliqueSpec(n=12, r=3, p=0.5)
        a = sample_clique_counts(spec, mc)
        b = sample_clique_counts(spec, doubled)
        quota = mc.worker_quotas()[0]
        assert not np.array_equal(a[:quota], b[:quota])
    # stream 0 is the seed's first spawn, as before streams existed
    assert MCConfig(seed=7, samples=10, workers=3).worker_rngs()[2].random() == (
        np.random.default_rng(np.random.SeedSequence(7).spawn(3)[2]).random()
    )
    with pytest.raises(DomainError):
        MCConfig(seed=0, samples=10, stream=-1)


def test_triangle_count_mean_agreement():
    spec = CliqueSpec(n=20, r=3, p=0.5)
    mc = MCConfig(seed=21, samples=20_000, workers=2)
    counts = sample_clique_counts(spec, mc)
    se = float(np.std(counts, ddof=1) / math.sqrt(counts.size))
    assert abs(float(np.mean(counts)) - mean(spec)) <= 4 * se


def test_sample_kappa_standardized():
    spec = CliqueSpec(n=15, r=3, p=0.5)
    mc = MCConfig(seed=3, samples=50_000, workers=4)
    kap = sample_kappa(spec, mc)
    assert abs(float(np.mean(kap))) <= 4.0 / math.sqrt(kap.size) * float(np.std(kap)) + 1e-9
    assert float(np.std(kap, ddof=1)) == pytest.approx(1.0, abs=0.05)


def test_empirical_chf_basics():
    vals = np.full(100, 2.0)
    est = empirical_chf(vals, 0.7)
    assert est.value == pytest.approx(complex(math.cos(1.4), math.sin(1.4)))
    assert est.stderr == pytest.approx(0.0, abs=1e-15)
    est0 = empirical_chf(np.random.default_rng(0).normal(size=500), 0.0)
    assert est0.value == pytest.approx(1.0 + 0.0j)
    with pytest.raises(DomainError):
        empirical_chf(np.array([1.0]), 1.0)


def test_empirical_chf_grid_and_symmetry():
    vals = np.random.default_rng(8).normal(size=2000)
    ests = empirical_chf_grid(vals, [0.5, -0.5])
    assert ests[0].value == pytest.approx(ests[1].value.conjugate())
    assert abs(ests[0].value) <= 1.0


def _per_sample_chf(values, t):
    # the per-sample formula: a mean of N phases and the hypot of two ddof=1 standard errors
    z = np.exp(1j * t * values)
    se_re = np.std(z.real, ddof=1) / math.sqrt(z.size)
    se_im = np.std(z.imag, ddof=1) / math.sqrt(z.size)
    return complex(np.mean(z)), math.hypot(se_re, se_im)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_empirical_chf_grid_matches_per_sample_formula(seed):
    rng = np.random.default_rng(seed)
    ts = np.linspace(-8.0, 8.0, 33)
    samples = {
        "integer": rng.integers(-40, 41, size=5000).astype(np.float64),
        "normal": rng.normal(size=5000),
    }
    for values in samples.values():
        for est in empirical_chf_grid(values, ts):
            value, stderr = _per_sample_chf(values, est.t)
            assert abs(est.value - value) <= 1e-15
            assert abs(est.stderr - stderr) <= 1e-15
            assert est.samples == values.size
        at0 = empirical_chf(values, 0.0)
        assert (at0.value, at0.stderr) == (1 + 0j, 0.0)


def test_empirical_distribution_exact_counts():
    vals = np.array([0.0, 1.0, 1.0, 3.0])
    d = empirical_distribution(vals, LatticeSpec(0.0, 1.0))
    assert d.prob(1.0) == 0.5
    assert d.prob(0.0) == 0.25
    assert d.total() == pytest.approx(1.0)
