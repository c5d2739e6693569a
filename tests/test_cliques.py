import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    CliqueSpec,
    DomainError,
    EdgeGround,
    GraphAssignment,
    count_cliques,
    count_cliques_batch,
    covering_edge_subsets,
    exact_distribution,
    fourier_coeff_fr,
    fr_function,
    kappa_coeff,
    kappa_function,
    mean,
    moments,
    variance,
    weight_profile,
)
from cliquellt.cliques import (
    clique_edge_masks,
    counts_over_all_graphs,
    variance_leading_coefficient,
)
PETERSEN_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
]


def test_spec_validation():
    with pytest.raises(DomainError):
        CliqueSpec(n=5, r=2, p=0.5)
    with pytest.raises(DomainError):
        CliqueSpec(n=5, r=3, p=1.5)
    spec = CliqueSpec(n=5, r=3, p=0.3)
    assert spec.lam == pytest.approx(0.3)


def test_large_clique_size_accepted():
    # regression: a tau default of 0.05 used to reject every r >= 10
    spec = CliqueSpec(n=12, r=10, p=0.5)
    mom = moments(spec)
    assert mom.mu == pytest.approx(math.comb(12, 10) * 0.5 ** math.comb(10, 2))
    assert mom.sigma2 > 0.0


def test_count_cliques_complete_and_empty():
    ground = EdgeGround(5)
    assert count_cliques(GraphAssignment.complete(ground), 3) == 10
    assert count_cliques(GraphAssignment.complete(ground), 4) == 5
    assert count_cliques(GraphAssignment.empty(ground), 3) == 0


def _edge_row(g: GraphAssignment) -> np.ndarray:
    return np.array([g[idx] for idx in range(g.ground.size)], dtype=bool)


def test_petersen_triangle_free():
    ground = EdgeGround(10)
    g = GraphAssignment.from_edges(ground, PETERSEN_EDGES)
    assert g.edge_count() == 15
    assert count_cliques(g, 3) == 0
    assert count_cliques_batch(_edge_row(g)[None, :], 10, 3).tolist() == [0]


def test_triangle_counters_agree():
    rng = np.random.default_rng(13)
    ground = EdgeGround(7)
    graphs = [GraphAssignment(ground, int(rng.integers(0, 1 << ground.size))) for _ in range(50)]
    batch = count_cliques_batch(np.array([_edge_row(g) for g in graphs]), 7, 3)
    for g, counted in zip(graphs, batch):
        brute = sum(
            1
            for a, b, c in itertools.combinations(range(1, 8), 3)
            if g[ground.index(a, b)] and g[ground.index(a, c)] and g[ground.index(b, c)]
        )
        assert count_cliques(g, 3) == brute
        assert counted == brute


@settings(max_examples=150)
@given(
    n=st.integers(1, 12),
    r=st.integers(3, 7),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.05, 0.95),
    batch=st.integers(1, 6),
)
def test_batch_kernel_matches_scalar_small_n(n, r, seed, p, batch):
    ground = EdgeGround(n)
    edges = np.random.default_rng(seed).random((batch, ground.size)) < p
    counts = count_cliques_batch(edges, n, r)
    assert counts.dtype == np.int64
    for row, counted in zip(edges, counts):
        bits = sum(1 << int(idx) for idx in np.nonzero(row)[0])
        assert counted == count_cliques(GraphAssignment(ground, bits), r)
    if r > n:
        assert not counts.any()


@settings(max_examples=30)
@given(
    n=st.sampled_from([31, 32, 33, 63, 64, 65]),
    r=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.1, 0.5),
)
def test_batch_kernel_matches_scalar_word_boundaries(n, r, seed, p):
    # rows of n > 64 vertices span two uint64 words; the top vertex sits on the boundary
    ground = EdgeGround(n)
    edges = np.random.default_rng(seed).random((2, ground.size)) < p
    edges[0, ground.index(n - 2, n)] = edges[0, ground.index(n - 1, n)] = True
    edges[0, ground.index(n - 2, n - 1)] = True
    counts = count_cliques_batch(edges, n, r)
    for row, counted in zip(edges, counts):
        bits = sum(1 << int(idx) for idx in np.nonzero(row)[0])
        assert counted == count_cliques(GraphAssignment(ground, bits), r)


def test_batch_kernel_many_words():
    # n = 300 spans five words per row; a planted K_7 on the top vertices sits in the last
    n = 300
    ground = EdgeGround(n)
    edges = np.random.default_rng(5).random((2, ground.size)) < 0.04
    for a, b in itertools.combinations(range(n - 6, n + 1), 2):
        edges[1, ground.index(a, b)] = True
    for r in (3, 4, 5):
        counts = count_cliques_batch(edges, n, r)
        for row, counted in zip(edges, counts):
            bits = sum(1 << int(idx) for idx in np.nonzero(row)[0])
            assert counted == count_cliques(GraphAssignment(ground, bits), r)
        assert counts[1] >= math.comb(7, r)


def test_batch_kernel_complete_empty_and_errors():
    for n, r in ((5, 3), (5, 4), (9, 6), (65, 3)):
        m = EdgeGround(n).size
        edges = np.array([np.ones(m, dtype=bool), np.zeros(m, dtype=bool)])
        assert count_cliques_batch(edges, n, r).tolist() == [math.comb(n, r), 0]
    with pytest.raises(DomainError):
        count_cliques_batch(np.zeros((1, 10), dtype=bool), 5, 2)
    with pytest.raises(DomainError):
        count_cliques_batch(np.zeros((1, 9), dtype=bool), 5, 3)


def test_count_cliques_r4_brute():
    rng = np.random.default_rng(19)
    ground = EdgeGround(7)
    for _ in range(20):
        g = GraphAssignment(ground, int(rng.integers(0, 1 << ground.size)))
        brute = sum(
            1
            for vs in itertools.combinations(range(1, 8), 4)
            if all(g[ground.index(a, b)] for a, b in itertools.combinations(vs, 2))
        )
        assert count_cliques(g, 4) == brute


def test_mean_oracles():
    assert mean(CliqueSpec(n=4, r=3, p=0.5)) == pytest.approx(0.5, abs=1e-12)
    spec = CliqueSpec(n=6, r=3, p=0.999)
    assert mean(spec) == pytest.approx(0.999**3 * 20, abs=1e-12)
    # exact at any n: the correctly rounded p^3 * C(2000, 3)
    assert mean(CliqueSpec(n=2000, r=3, p=0.5)) == 166416750.0
    assert mean(CliqueSpec(n=10**6, r=3, p=0.3)) == float(Fraction(0.3) ** 3 * math.comb(10**6, 3))
    with pytest.raises(DomainError):
        mean(CliqueSpec(n=3000, r=200, p=0.999))  # beyond the float range


def test_covering_edge_subsets():
    assert covering_edge_subsets(2, 1) == 1
    assert covering_edge_subsets(3, 2) == 3
    assert covering_edge_subsets(3, 3) == 1
    assert covering_edge_subsets(4, 3) == 16
    # brute force for K_4
    ground = EdgeGround(4)
    for m in range(1, 7):
        brute = 0
        for S in itertools.combinations(range(6), m):
            verts = set()
            for idx in S:
                i, j = ground.edge(idx)
                verts.update((i, j))
            brute += verts == {1, 2, 3, 4}
        assert covering_edge_subsets(4, m) == brute
    with pytest.raises(DomainError):
        covering_edge_subsets(1, 0)


def test_variance_oracle_small():
    assert variance(CliqueSpec(n=4, r=3, p=0.5)) == pytest.approx(0.625, abs=1e-12)


def test_variance_against_enumeration_grid():
    for n in (5, 6):
        for p in (0.3, 0.5):
            spec = CliqueSpec(n=n, r=3, p=p)
            dist = exact_distribution(spec)
            assert variance(spec) == pytest.approx(dist.variance(), abs=1e-9)
            assert mean(spec) == pytest.approx(dist.mean(), abs=1e-9)


def test_variance_leading_term():
    for r, p in ((3, 0.5), (3, 0.3), (4, 0.5)):
        n = 200
        spec = CliqueSpec(n=n, r=r, p=p)
        lead = variance_leading_coefficient(r, p) * float(n) ** (2 * r - 2)
        assert abs(variance(spec) - lead) / lead < 0.1


def test_fourier_coeff_fr_against_transform():
    from cliquellt import fourier_transform

    for n, r, p in ((3, 3, 0.5), (4, 3, 0.35), (5, 4, 0.5)):
        spec = CliqueSpec(n=n, r=r, p=p)
        ground = spec.ground
        table = np.array(
            [count_cliques(GraphAssignment(ground, b), r) for b in range(1 << ground.size)],
            dtype=np.float64,
        )
        f = fourier_transform(table, ground, p)
        for size in range(ground.size + 1):
            for S in itertools.combinations(range(ground.size), size):
                assert fourier_coeff_fr(spec, S) == pytest.approx(f.coeff(S), abs=1e-10)


def test_fourier_coeff_fr_pinned_values():
    spec = CliqueSpec(n=3, r=3, p=0.5)
    assert fourier_coeff_fr(spec, []) == pytest.approx(mean(spec))
    assert fourier_coeff_fr(spec, [0]) == pytest.approx(1.0 / 8.0)
    big_support = [0, 1, 3, 5]  # spans all of K_4's vertices inside n=4
    assert fourier_coeff_fr(CliqueSpec(n=4, r=3, p=0.5), big_support) == 0.0


def test_fr_function_matches_counts():
    spec = CliqueSpec(n=5, r=3, p=0.4)
    f = fr_function(spec)
    ground = spec.ground
    rng = np.random.default_rng(3)
    for _ in range(50):
        bits = int(rng.integers(0, 1 << ground.size))
        assert f.eval(bits) == pytest.approx(
            count_cliques(GraphAssignment(ground, bits), 3), abs=1e-9
        )


def test_kappa_normalization():
    spec = CliqueSpec(n=5, r=3, p=0.4)
    kap = kappa_function(spec)
    assert kap.expectation() == 0.0
    assert kap.norm2() == pytest.approx(1.0, abs=1e-10)
    assert kappa_coeff(spec, []) == 0.0
    assert kappa_coeff(spec, [0]) == pytest.approx(fourier_coeff_fr(spec, [0]) / spec.sigma)


def test_weight_profile():
    spec = CliqueSpec(n=6, r=3, p=0.5)
    w1, wtail = weight_profile(spec)
    assert w1 + wtail == pytest.approx(1.0, abs=1e-12)
    kap = kappa_function(spec)
    assert w1 == pytest.approx(sum(c * c for c in kap.degree_slice(1).coeffs.values()), abs=1e-12)
    # degree-1 weight dominates as n grows
    w1_big, wtail_big = weight_profile(CliqueSpec(n=100, r=3, p=0.5))
    assert wtail_big < 0.1


def test_exact_distribution_n3():
    dist = exact_distribution(CliqueSpec(n=3, r=3, p=0.5))
    assert dist.prob(0.0) == pytest.approx(7.0 / 8.0, abs=1e-12)
    assert dist.prob(1.0) == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert dist.total() == pytest.approx(1.0, abs=1e-10)


def test_counts_over_all_graphs_matches_backtracking():
    ground = EdgeGround(5)
    counts = counts_over_all_graphs(5, 3)
    rng = np.random.default_rng(31)
    for bits in rng.integers(0, 1 << ground.size, size=100):
        bits = int(bits)
        assert counts[bits] == count_cliques(GraphAssignment(ground, bits), 3)
    assert len(clique_edge_masks(ground, 3)) == 10


def test_moments_bundle():
    spec = CliqueSpec(n=4, r=3, p=0.5)
    mom = moments(spec)
    assert mom.mu == pytest.approx(0.5)
    assert mom.sigma2 == pytest.approx(0.625)
    assert mom.sigma == pytest.approx(math.sqrt(0.625))
    assert mom.weight_deg1 + mom.weight_tail == pytest.approx(1.0)


def test_mc_mean_agreement():
    from cliquellt import MCConfig, sample_clique_counts

    spec = CliqueSpec(n=10, r=3, p=0.3)
    mc = MCConfig(seed=77, samples=100_000, workers=2)
    counts = sample_clique_counts(spec, mc)
    se = float(np.std(counts, ddof=1) / math.sqrt(counts.size))
    assert abs(float(np.mean(counts)) - mean(spec)) <= 3 * se
