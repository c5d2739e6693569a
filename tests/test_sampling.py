import math

import numpy as np
import pytest

from cliquellt import (
    CliqueSpec,
    DomainError,
    LatticeSpec,
    MCConfig,
    empirical_chf_grid,
    empirical_distribution,
    mean,
    sample_clique_counts,
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


def test_edge_draws_edge_count_mean():
    n, p, reps = 50, 0.3, 10_000
    m = n * (n - 1) // 2
    rows = MCConfig(seed=1234, samples=reps, workers=2).edge_draws(m, p)
    counts = np.concatenate([edges.sum(axis=1) for edges in rows])
    assert counts.size == reps
    se = math.sqrt(m * p * (1 - p) / reps)
    assert abs(float(np.mean(counts)) - p * m) <= 4 * se


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


def test_draws_same_for_any_chunk_height(monkeypatch):
    from cliquellt import build_color_partition, decoupling_check, fr_function, sampling

    def with_rows(rows, width, call):
        with monkeypatch.context() as m:
            m.setattr(sampling, "CHUNK_DRAWS", rows * width)
            return call()

    for r in (3, 4):
        spec = CliqueSpec(n=11, r=r, p=0.5)
        for workers in (1, 2, 3, 4):
            mc = MCConfig(seed=17, samples=301, workers=workers)
            ref = sample_clique_counts(spec, mc)
            assert ref.shape == (301,) and ref.dtype == np.int64
            for rows in (1, 7, 64):
                assert with_rows(rows, 55, lambda: max(len(edges) for edges in mc.edge_draws(55, 0.5))) == rows
                assert np.array_equal(ref, with_rows(rows, 55, lambda: sample_clique_counts(spec, mc)))
    # more workers than samples: the idle substreams contribute nothing
    few = MCConfig(seed=17, samples=3, workers=4)
    ref = sample_clique_counts(spec, few)
    assert ref.shape == (3,)
    assert np.array_equal(ref, with_rows(1, 55, lambda: sample_clique_counts(spec, few)))
    # a zero-width row (n = 1) has no edges to draw and no cliques
    zeros = sample_clique_counts(CliqueSpec(1, 3, 0.5), MCConfig(0, 5))
    assert zeros.dtype == np.int64 and zeros.tolist() == [0] * 5
    # decoupling's Y rows on the golden configs (14 Y variables); a one-row
    # chunk would take another BLAS kernel in the inner chf, so none is tried
    part = build_color_partition(5, 1, [3, 2])
    for p, seed, samples, workers in ((0.5, 1, 2000, 1), (0.3, 4, 3000, 2)):
        f = fr_function(CliqueSpec(n=5, r=3, p=p))
        mc = MCConfig(seed=seed, samples=samples, workers=workers)
        ref = decoupling_check(f, part, (0.5, 1.0, 2.0), mc)
        for rows in (2, 7, 1000):
            assert with_rows(rows, 14, lambda: decoupling_check(f, part, (0.5, 1.0, 2.0), mc)) == ref


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
    est = empirical_chf_grid(vals, [0.7])[0]
    assert est.value == pytest.approx(complex(math.cos(1.4), math.sin(1.4)))
    assert est.stderr == pytest.approx(0.0, abs=1e-15)
    est0 = empirical_chf_grid(np.random.default_rng(0).normal(size=500), [0.0])[0]
    assert est0.value == pytest.approx(1.0 + 0.0j)
    with pytest.raises(DomainError):
        empirical_chf_grid(np.array([1.0]), [1.0])


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
        at0 = empirical_chf_grid(values, [0.0])[0]
        assert (at0.value, at0.stderr) == (1 + 0j, 0.0)


def test_empirical_distribution_exact_counts():
    vals = np.array([0.0, 1.0, 1.0, 3.0])
    d = empirical_distribution(vals, LatticeSpec(0.0, 1.0))
    assert d.prob(1.0) == 0.5
    assert d.prob(0.0) == 0.25
    assert d.total() == pytest.approx(1.0)
