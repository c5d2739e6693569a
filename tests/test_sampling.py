import itertools
import math

import numpy as np
import pytest

from cliquellt import (
    CliqueSpec,
    DomainError,
    LatticeSpec,
    MCConfig,
    count_cliques_batch,
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
    with pytest.raises(DomainError, match="seed must be nonnegative"):
        MCConfig(seed=-1, samples=10)
    mc = MCConfig(seed=0, samples=10, workers=3)
    assert mc.worker_quotas() == [4, 3, 3]
    assert sum(mc.worker_quotas()) == 10
    assert len(mc.worker_rngs()) == 3


def test_edge_draws_edge_count_mean():
    n, p, reps = 50, 0.3, 10_000
    m = n * (n - 1) // 2
    rows = MCConfig(seed=1234, samples=reps, workers=2).edge_draws([m], p)
    counts = np.concatenate([edges.sum(axis=1) for _, edges in rows])
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
                assert with_rows(rows, 55, lambda: max(len(edges) for _, edges in mc.edge_draws([55], 0.5))) == rows
                assert np.array_equal(ref, with_rows(rows, 55, lambda: sample_clique_counts(spec, mc)))
    # more workers than samples: the idle substreams contribute nothing
    few = MCConfig(seed=17, samples=3, workers=4)
    ref = sample_clique_counts(spec, few)
    assert ref.shape == (3,)
    assert np.array_equal(ref, with_rows(1, 55, lambda: sample_clique_counts(spec, few)))
    # a zero-width row (n = 1) has no edges to draw and no cliques
    zeros = sample_clique_counts(CliqueSpec(1, 3, 0.5), MCConfig(0, 5))
    assert zeros.dtype == np.int64 and zeros.tolist() == [0] * 5
    # decoupling's Y rows (14 Y variables) on the golden configs, and on 15
    # samples, whose last chunk of 2, 7 or 14 rows holds one lone row
    part = build_color_partition(5, 1, [3, 2])
    for p, seed, samples, workers in ((0.5, 1, 2000, 1), (0.3, 4, 3000, 2), (0.3, 4, 15, 1)):
        f = fr_function(CliqueSpec(n=5, r=3, p=p))
        mc = MCConfig(seed=seed, samples=samples, workers=workers)
        ref = decoupling_check(f.table(), part, f.p, (0.5, 1.0, 2.0), mc)
        for rows in (2, 7, 14, 1000):
            assert with_rows(rows, 14, lambda: decoupling_check(f.table(), part, f.p, (0.5, 1.0, 2.0), mc)) == ref


def _per_worker_counts(spec, mc):
    # the oracle: worker w's rows are its substream's first quota_w * m draws, cut every m
    m = spec.ground.size
    rows = [rng.random((quota, m)) < spec.p for rng, quota in zip(mc.worker_rngs(), mc.worker_quotas())]
    return count_cliques_batch(np.concatenate(rows), spec.n, spec.r)


def _same_law(law, counts):
    # the law of these counts, as empirical_distribution gives it: the same indices and mass bits
    ref = empirical_distribution(counts, LatticeSpec(0.0, 1.0))
    return law.lattice == ref.lattice and np.array_equal(law.k, ref.k) and law.masses.tobytes() == ref.masses.tobytes()


def test_one_pass_counts_each_width_as_its_own_run(monkeypatch):
    from cliquellt import sampling
    from cliquellt.sampling import sample_clique_laws

    shapes = list(itertools.product((range(8, 10), range(8, 13)), (3, 4), (0.3, 0.5, 0.7)))
    runs = itertools.product((1, 7, 64), (1, 3, 4, 7), (1001, 333, 3))
    for k, (rows, workers, samples) in enumerate(runs):
        ns, r, p = shapes[k % len(shapes)]
        specs = [CliqueSpec(n, r, p) for n in ns]
        mc = MCConfig(seed=40 + k, samples=samples, workers=workers)
        refs = [_per_worker_counts(spec, mc) for spec in specs]
        for spec, ref in zip(specs, refs):
            assert np.array_equal(sample_clique_counts(spec, mc), ref)
        with monkeypatch.context() as patch:
            # a chunk of `rows` widest rows: chunks end inside other widths' rows and workers
            patch.setattr(sampling, "CHUNK_DRAWS", rows * specs[-1].ground.size)
            got = sample_clique_laws(specs, mc)
        assert len(got) == len(specs)
        for ref, law in zip(refs, got):
            assert _same_law(law, ref)
    # any order, repeated widths, several r, and a width without draws (n = 1)
    specs = [CliqueSpec(10, 3, 0.5), CliqueSpec(1, 3, 0.5), CliqueSpec(8, 4, 0.5), CliqueSpec(10, 5, 0.5), CliqueSpec(9, 3, 0.5)]
    mc = MCConfig(seed=3, samples=500, workers=3)
    for law, spec in zip(sample_clique_laws(specs, mc), specs):
        assert _same_law(law, _per_worker_counts(spec, mc))
    assert sample_clique_laws([], mc) == []
    with pytest.raises(DomainError, match="one p"):
        sample_clique_laws([CliqueSpec(8, 3, 0.5), CliqueSpec(9, 3, 0.4)], mc)


def test_one_pass_memory_does_not_grow_with_samples():
    # one histogram per spec and per-width chunk buffers: no count array, no
    # list of chunk counts and no held stream of samples x C(N, 2) draws, so
    # the peak, the returned laws included, does not grow with the samples
    import tracemalloc

    from cliquellt.sampling import sample_clique_laws

    specs = [CliqueSpec(n, 3, 0.5) for n in (8, 9, 10)]
    sample_clique_laws(specs, MCConfig(seed=1, samples=100, workers=3))  # the kernel's row plans
    peaks = []
    for samples in (20_000, 200_000):
        tracemalloc.start()
        try:
            laws = sample_clique_laws(specs, MCConfig(seed=1, samples=samples, workers=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(laws) == len(specs)
    assert peaks[1] - peaks[0] <= 0.5 * 2**20, peaks


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
    for t in (math.inf, -math.inf, math.nan):  # regression: a non-finite t gave a NaN estimate
        with pytest.raises(DomainError, match="finite"):
            empirical_chf_grid(vals, [0.5, t])


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


def test_worker_rngs_spawn_only_the_workers_that_draw():
    # regression: a generator was spawned for every worker, even one with a
    # zero quota; 200,000 workers took 3 s and 220 MB for 10 samples
    many = MCConfig(seed=0, samples=10, workers=10**6)
    assert len(many.worker_rngs()) == 10
    spec = CliqueSpec(n=10, r=3, p=0.5)
    assert np.array_equal(sample_clique_counts(spec, many), sample_clique_counts(spec, MCConfig(0, 10, 20)))
    # each generator keeps its spawn key, in any stream
    for mc in (MCConfig(seed=3, samples=5, workers=7), MCConfig(seed=3, samples=5, workers=7, stream=2)):
        children = np.random.SeedSequence(3).spawn(21)[7 * mc.stream :][:5]
        assert [rng.random() for rng in mc.worker_rngs()] == [np.random.default_rng(c).random() for c in children]
    assert [rng.random() for rng in MCConfig(3, 5, 7).worker_rngs(range(2, 4))] == [
        np.random.default_rng(c).random() for c in np.random.SeedSequence(3).spawn(4)[2:]
    ]


class _InlineThread:
    """A stand-in for threading.Thread that runs its target inline at start() and counts itself."""

    made = 0

    def __init__(self, target, args):
        type(self).made += 1
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def _on_cpus(monkeypatch, cpus, call):
    from cliquellt import sampling

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_usable_cpus", lambda: cpus)
        return call()


def test_thread_split_keeps_the_bits_of_counts_and_laws(monkeypatch):
    from cliquellt import sampling
    from cliquellt.sampling import sample_clique_laws

    for r in (3, 4):
        spec = CliqueSpec(n=11, r=r, p=0.5)
        # samples < workers, samples not divisible by workers, and one natural multi-chunk run
        for samples, workers, rows in ((3, 4, 1), (301, 4, 7), (1001, 3, 64), (5000, 5, None)):
            mc = MCConfig(seed=23, samples=samples, workers=workers)
            ref = _per_worker_counts(spec, mc)
            with monkeypatch.context() as patch:
                if rows:
                    patch.setattr(sampling, "CHUNK_DRAWS", rows * spec.ground.size)
                for cpus in (1, 2, 3, 4):
                    assert np.array_equal(_on_cpus(monkeypatch, cpus, lambda: sample_clique_counts(spec, mc)), ref)
    specs = [CliqueSpec(n, 3, 0.5) for n in (8, 9, 10)]
    for samples, workers in ((4000, 4), (3001, 3), (2, 5)):
        mc = MCConfig(seed=5, samples=samples, workers=workers)
        refs = [_per_worker_counts(spec, mc) for spec in specs]
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "CHUNK_DRAWS", 64 * specs[-1].ground.size)
            for cpus in (1, 2, 3, 4):
                laws = _on_cpus(monkeypatch, cpus, lambda: sample_clique_laws(specs, mc))
                assert all(_same_law(law, ref) for law, ref in zip(laws, refs))


def test_thread_split_keeps_the_bits_of_decoupling_and_the_self_check(monkeypatch, capsys):
    from cliquellt import build_color_partition, decoupling_check
    from cliquellt.cli import main
    from cliquellt.cliques import counts_over_all_graphs

    # 30,000 Y rows of 24 draws: 6 chunks over 3 workers
    table, part = counts_over_all_graphs(6, 3), build_color_partition(6, 1, [3, 3])
    mc = MCConfig(seed=11, samples=30_000, workers=3)
    runs = [_on_cpus(monkeypatch, cpus, lambda: decoupling_check(table, part, 0.5, (0.5, 1.0, 2.0), mc))
            for cpus in (1, 2, 3, 4)]
    assert all(run == runs[0] for run in runs)
    # --self-check's doubled run draws from the next stream: 3000 and 6000 rows of 66 draws
    argv = ["chf-scan", "--n", "12", "--samples", "3000", "--workers", "4", "--t-steps", "5", "--self-check"]
    outs = []
    for cpus in (1, 2, 3, 4):
        assert _on_cpus(monkeypatch, cpus, lambda: main(argv)) == 0
        outs.append(capsys.readouterr().out)
    assert "self_check_max_delta" in outs[0] and all(out == outs[0] for out in outs)


def test_thread_split_runs_groups_on_their_own_threads(monkeypatch):
    import threading

    mc = MCConfig(seed=2, samples=4000, workers=4)  # 4000 x 55 draws: two chunks

    def who(chunks):
        return threading.get_ident(), sum(len(rows) for _, rows in chunks)

    got = _on_cpus(monkeypatch, 2, lambda: mc.map_chunks([55], 0.5, who))
    assert len({ident for ident, _ in got}) == 2 and [rows for _, rows in got] == [2000, 2000]
    got = _on_cpus(monkeypatch, 3, lambda: mc.map_chunks([55], 0.5, who))
    assert len({ident for ident, _ in got}) == 3 and [rows for _, rows in got] == [1000, 1000, 2000]


def test_threads_never_exceed_the_usable_cpus(monkeypatch):
    from cliquellt import sampling

    monkeypatch.setattr(sampling, "Thread", _InlineThread)
    spec = CliqueSpec(n=11, r=3, p=0.5)
    mc = MCConfig(seed=1, samples=50, workers=10**5)  # 50 workers draw
    ref = _per_worker_counts(spec, mc)
    monkeypatch.setattr(sampling, "CHUNK_DRAWS", 4 * spec.ground.size)
    for cpus in (1, 2, 3, 4):
        _InlineThread.made = 0
        assert np.array_equal(_on_cpus(monkeypatch, cpus, lambda: sample_clique_counts(spec, mc)), ref)
        # the calling thread takes one group, a new thread each of the rest
        assert _InlineThread.made == cpus - 1


def test_one_chunk_run_starts_no_thread(monkeypatch):
    from cliquellt import sampling

    class NoThread:
        def __init__(self, target, args):
            raise AssertionError("a thread for a run of one chunk")

    monkeypatch.setattr(sampling, "Thread", NoThread)
    spec = CliqueSpec(n=30, r=4, p=0.5)
    fits = sampling.CHUNK_DRAWS // spec.ground.size  # 301 rows of 435 draws
    for samples in (200, fits):
        mc = MCConfig(seed=3, samples=samples, workers=4)
        counts = _on_cpus(monkeypatch, 4, lambda: sample_clique_counts(spec, mc))
        assert np.array_equal(counts, _per_worker_counts(spec, mc))
    with pytest.raises(AssertionError, match="a thread"):
        _on_cpus(monkeypatch, 4, lambda: sample_clique_counts(spec, MCConfig(seed=3, samples=fits + 1, workers=4)))


def test_a_failing_group_raises_on_the_calling_thread(monkeypatch):
    import threading

    mc = MCConfig(seed=2, samples=4000, workers=4)  # 4000 x 55 draws: two chunks

    def fail_in_helper(chunks):
        rows = sum(len(rows) for _, rows in chunks)
        if threading.current_thread() is not threading.main_thread():
            raise ValueError(f"a helper group of {rows} rows failed")
        return rows

    with pytest.raises(ValueError, match="a helper group of 2000 rows failed"):
        _on_cpus(monkeypatch, 2, lambda: mc.map_chunks([55], 0.5, fail_in_helper))
