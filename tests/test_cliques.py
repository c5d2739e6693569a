import dataclasses
import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    CapacityError,
    CliqueSpec,
    DomainError,
    EdgeGround,
    GraphAssignment,
    MCConfig,
    count_cliques,
    count_cliques_batch,
    covering_edge_subsets,
    exact_distribution,
    fourier_coeff_fr,
    fr_function,
    kappa_function,
    mean,
    moments,
    variance,
)
from cliquellt import cliques
from cliquellt.cliques import (
    _peel_histogram,
    _variance_terms,
    clique_edge_masks,
    counts_over_all_graphs,
    variance_leading_coefficient,
)
from cliquellt.ground import support_vertices
from cliquellt.pbf import _edges, _mask, popcount_array
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


@pytest.mark.parametrize(
    "n, r, height, step",
    [(30, 3, 301, 3), (30, 4, 301, 3), (10, 3, 2912, 7)],
    ids=["n30-r3", "n30-r4", "n10-r3"],
)
def test_batch_kernel_at_real_chunk_heights(n, r, height, step):
    # one full chunk of MCConfig.edge_draws, as sample_clique_counts passes it; every step-th row checked
    ground = EdgeGround(n)
    _, edges = next(MCConfig(seed=n + r, samples=height).edge_draws([ground.size], 0.5))
    assert edges.shape == (height, ground.size)
    counts = count_cliques_batch(edges, n, r)
    for row, counted in zip(edges[::step], counts[::step]):
        bits = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        assert counted == count_cliques(GraphAssignment(ground, bits), r)
    assert counts.any()


def test_r4_kernel_sums_its_last_level_without_building_it():
    # the last level's extensions are popcounted pass by pass, and the first
    # level's buffers are freed before the frontier grows: on a full chunk at
    # n = 30 the kernel traced 5.5 MiB when it built the last frontier and
    # held those buffers, and 3.2 MiB without
    _, edges = next(MCConfig(seed=3, samples=301).edge_draws([EdgeGround(30).size], 0.5))
    edges = edges.copy()
    want = count_cliques_batch(edges, 30, 4)  # the kernel's row plan for n = 30
    tracemalloc.start()
    try:
        counts = count_cliques_batch(edges, 30, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, want) and counts.sum() > 0
    assert peak <= 4 * 2**20, peak


@pytest.mark.parametrize("r", [3, 4])
def test_batch_kernel_empty_batch(r):
    counts = count_cliques_batch(np.zeros((0, EdgeGround(30).size), dtype=bool), 30, r)
    assert counts.dtype == np.int64 and counts.shape == (0,)


def _rows_bit_by_bit(edges, n):
    # bit j % 64 of word j // 64 of row (i, s) is set iff graph s has edge (i, j), j > i
    ground = EdgeGround(n)
    up = np.zeros((-(-n // 64), n, len(edges)), dtype=np.uint64)
    for i, j in itertools.combinations(range(n), 2):
        up[j // 64, i] |= edges[:, ground.index(i + 1, j + 1)].astype(np.uint64) << np.uint64(j % 64)
    return up


@pytest.mark.parametrize("n", [3, 4, 63, 64, 65, 127, 128, 129, 300])
def test_packed_rows_bit_by_bit(n):
    edges = np.random.default_rng(n).random((37, EdgeGround(n).size)) < 0.5
    edges[0] = True  # every row full up to the last word's last column
    expected = _rows_bit_by_bit(edges, n)
    for batch in (0, 1, 37):
        part = edges[:batch]
        for layout in (part, np.asfortranarray(part), np.repeat(part, 2, axis=1)[:, ::2]):
            up = cliques._upper_rows(layout, n)
            assert up.dtype == np.uint64 and up.shape == expected[:, :, :batch].shape
            assert np.array_equal(up, expected[:, :, :batch])
    # a 0/1 uint8 array counts as the equal bool array (r = 4 on two random graphs: K_300 has C(300, 4))
    for r, part in ((3, edges), (4, edges[1:3])):
        assert np.array_equal(count_cliques_batch(part.view(np.uint8), n, r), count_cliques_batch(part, n, r))


def test_row_plan_is_built_once_per_n_and_read_only():
    cliques._row_plan.cache_clear()
    edges = np.random.default_rng(4).random((5, EdgeGround(17).size)) < 0.6
    for r in (3, 4, 5):
        count_cliques_batch(edges, 17, r)
    assert cliques._row_plan.cache_info().misses == 1
    count_cliques_batch(np.zeros((2, EdgeGround(18).size), dtype=bool), 18, 3)
    assert cliques._row_plan.cache_info().misses == 2
    arrays = [a for a in cliques._row_plan(17) if isinstance(a, np.ndarray)]
    assert len(arrays) >= 4 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 1


def test_batch_kernel_complete_empty_and_errors():
    # from n = 256 on, the r = 3 codegrees are uint16; K_257 and K_300 have codegrees above 255
    for n, r in ((5, 3), (5, 4), (9, 6), (65, 3), (256, 3), (257, 3), (300, 3)):
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


def test_variance_leading_coefficient_is_correctly_rounded_or_a_domain_error():
    for r, p in ((3, 0.5), (3, 0.3), (5, 0.37)):
        exact = Fraction(p) ** (r * (r - 1) - 1) * (1 - Fraction(p)) / (2 * math.factorial(r - 2) ** 2)
        assert variance_leading_coefficient(r, p) == float(exact)
    with pytest.raises(DomainError):  # ((r-2)!)^2 used to overflow the float conversion
        variance_leading_coefficient(200, 0.5)
    for r, p in ((1, 0.5), (0, 0.5), (2, 0.5), (3, 1.5), (3, 0.0), (3, 1.0), (3, math.nan)):
        with pytest.raises(DomainError):  # r = 1 raised from factorial; p = 1.5 gave -1.898
            variance_leading_coefficient(r, p)


def _variance_numerator_oracle(n, r, p):
    """b^{2e} sigma^2 summed over (support size t, edge count m) with covering_edge_subsets."""
    a, b = p.as_integer_ratio()
    e = math.comb(r, 2)
    total = 0
    for t in range(2, min(n, r) + 1):
        cover = sum(
            covering_edge_subsets(t, m) * a ** (2 * e - m) * (b - a) ** m
            for m in range(1, math.comb(t, 2) + 1)
        )
        total += math.comb(n, t) * math.comb(n - t, r - t) ** 2 * cover
    return total


@pytest.mark.parametrize(
    "n, r, p",
    [(n, r, p) for n in (0, 2, 3, 4, 7, 12) for r in (3, 4, 5) for p in (0.5, 0.3, 0.37, 1e-3, 0.999)]
    + [(30, 4, 0.37), (60, 12, 0.3), (40, 20, 0.3)],
)
def test_variance_numerator_matches_the_covering_subset_oracle(n, r, p):
    spec = CliqueSpec(n=n, r=r, p=p)
    num, _, den = _variance_terms(spec)
    assert num == _variance_numerator_oracle(n, r, p)
    assert variance(spec) == float(Fraction(num, den))
    if num:  # W^1 = C(n,2) f_r_hat({uv})^2 / sigma^2, with b^{2e} f_r_hat({uv})^2 below
        a, b = p.as_integer_ratio()
        edge = math.comb(n - 2, r - 2) ** 2 * a ** (2 * math.comb(r, 2) - 1) * (b - a)
        assert moments(spec).weight_deg1 == float(Fraction(math.comb(n, 2) * edge, num))


def test_closed_forms_at_the_edge_of_the_float_range():
    # the float loop gave 7.77e-211 here: p^C(r,2) underflowed before the square
    assert variance(CliqueSpec(n=100, r=30, p=0.3)) == 1.0367745959709683e-202
    with pytest.raises(DomainError):  # the float loop raised OverflowError
        variance(CliqueSpec(n=400, r=60, p=0.5))
    with pytest.raises(DomainError):  # used to return 0.0
        mean(CliqueSpec(n=10**4, r=200, p=0.5))
    assert variance(CliqueSpec(n=2, r=3, p=0.5)) == 0.0
    with pytest.raises(DomainError):  # sigma = 0; used to raise ZeroDivisionError
        moments(CliqueSpec(n=2, r=3, p=0.5))


@settings(max_examples=60)
@given(
    n=st.integers(0, 60),
    r=st.integers(3, 12),
    p=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1e-300, 1e-20, 0.5, 1 - 2**-53]),
    ),
)
def test_closed_forms_return_a_float_or_a_domain_error(n, r, p):
    spec = CliqueSpec(n=n, r=r, p=p)
    calls = [
        lambda: mean(spec),
        lambda: variance(spec),
        lambda: variance_leading_coefficient(r, p),
        lambda: dataclasses.astuple(moments(spec)),
    ]
    for call in calls:
        try:
            out = call()
        except DomainError:
            continue
        for value in out if isinstance(out, tuple) else (out,):
            assert isinstance(value, float) and not math.isnan(value)


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


def test_exact_coefficients_survive_below_the_prune_tolerance():
    # regression: fr_function pruned its closed-form coefficients as if they
    # were rounding residue, so at p = 1e-6 it lost the mean and every degree-1
    # term (40 of 51 terms left), at p = 1e-12 tail(1) left degree 0, and at
    # p = 1e-15 kappa_function lost its degree-1 part
    spec = CliqueSpec(n=5, r=3, p=1e-6)
    f = fr_function(spec)
    assert len(f.coeffs) == 51
    assert f.expectation() == mean(spec)
    assert len(f.degree_slice(1).coeffs) == 10
    assert len(kappa_function(CliqueSpec(n=5, r=3, p=1e-15)).degree_slice(1).coeffs) == 10
    g = fr_function(CliqueSpec(n=4, r=3, p=1e-12))
    assert g.tail(1).degree() == g.degree() == 3


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


@functools.lru_cache(maxsize=None)
def _covering_subsets_by_filter(n, r):
    """Every edge subset of every t-vertex set of K_n, t <= r, kept at its own
    support size: the generate-and-filter enumeration of f_r's support."""
    ground = EdgeGround(n)
    kept = []
    for t in range(2, r + 1):
        for verts in itertools.combinations(range(1, n + 1), t):
            all_edges = [ground.index(a, b) for a, b in itertools.combinations(verts, 2)]
            for msize in range(1, len(all_edges) + 1):
                for S in itertools.combinations(all_edges, msize):
                    if len(support_vertices(ground, S)) == t:
                        kept.append(S)
    return kept


def _fr_reference(spec):
    """f_r's coefficients over that enumeration, each valued by fourier_coeff_fr."""
    coeffs = {0: mean(spec)}
    for S in _covering_subsets_by_filter(spec.n, spec.r):
        coeffs[_mask(S)] = fourier_coeff_fr(spec, S)
    return coeffs


@pytest.mark.parametrize("n, r", [(n, r) for r in (3, 4, 5) for n in range(1, 9)] + [(n, 6) for n in range(1, 7)])
def test_fr_and_kappa_match_the_generate_and_filter_enumeration(n, r):
    for p in (0.5, 0.3, 0.37, 1e-6, 1 - 1e-6):
        spec = CliqueSpec(n=n, r=r, p=p)
        ref = _fr_reference(spec)
        f = fr_function(spec)._coeffs
        assert list(f) == list(ref)  # the same keys in the same order
        assert [c.hex() for c in f.values()] == [c.hex() for c in ref.values()]
        if n < r:
            with pytest.raises(DomainError):  # sigma = 0
                kappa_function(spec)
            continue
        kap = kappa_function(spec)._coeffs
        sigma = spec.sigma
        ref_kap = {S: c / sigma for S, c in ref.items() if S}
        assert list(kap) == list(ref_kap)
        assert [c.hex() for c in kap.values()] == [c.hex() for c in ref_kap.values()]


@pytest.mark.parametrize("t, total", [(2, 1), (3, 4), (4, 41), (5, 768), (6, 27449)])
def test_fr_function_places_every_covering_edge_set_of_k_t(t, total):
    # on K_t itself each pattern is placed once: the keys that span all t vertices
    spec = CliqueSpec(n=t, r=max(t, 3), p=0.5)
    keys = [S for S in fr_function(spec)._coeffs if len(support_vertices(spec.ground, _edges(S))) == t]
    sizes = Counter(S.bit_count() for S in keys)
    assert len(keys) == total
    assert [sizes[m] for m in range(1, math.comb(t, 2) + 1)] == [
        covering_edge_subsets(t, m) for m in range(1, math.comb(t, 2) + 1)
    ]


def test_kappa_normalization():
    spec = CliqueSpec(n=5, r=3, p=0.4)
    kap = kappa_function(spec)
    assert kap.expectation() == 0.0
    assert kap.norm2() == pytest.approx(1.0, abs=1e-10)
    assert kap.coeff([]) == 0.0
    assert kap.coeff([0]) == pytest.approx(fourier_coeff_fr(spec, [0]) / spec.sigma)
    with pytest.raises(DomainError):  # sigma = 0 at n < r: no zero function
        kappa_function(CliqueSpec(n=2, r=3, p=0.4))


def test_weight_profile():
    spec = CliqueSpec(n=6, r=3, p=0.5)
    mom = moments(spec)
    w1, wtail = mom.weight_deg1, mom.weight_tail
    assert w1 + wtail == pytest.approx(1.0, abs=1e-12)
    kap = kappa_function(spec)
    assert w1 == pytest.approx(sum(c * c for c in kap.degree_slice(1).coeffs.values()), abs=1e-12)
    # degree-1 weight dominates as n grows
    assert moments(CliqueSpec(n=100, r=3, p=0.5)).weight_tail < 0.1


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


def _mask_loop_counts(n, r):
    """f_r of every graph by brute force: one full pass over the graphs per clique mask."""
    ground = EdgeGround(n)
    graphs = np.arange(1 << ground.size, dtype=np.uint32)
    counts = np.zeros(graphs.size, dtype=np.int64)
    for mask in clique_edge_masks(ground, r):
        counts += (graphs & mask) == mask
    return counts


@pytest.mark.parametrize("n", range(2, 8))
def test_counts_over_all_graphs_against_mask_loop(n):
    # every (n, r) under the 21-edge cap; r = n + 1 has no clique and counts 0
    for r in range(3, n + 2):
        counts = counts_over_all_graphs(n, r)
        assert counts.dtype == np.uint8
        assert np.array_equal(counts, _mask_loop_counts(n, r))
    assert not counts_over_all_graphs(n, n + 1).any()


@pytest.mark.parametrize("n", [2, 4, 6, 7])
def test_counts_over_all_graphs_under_a_small_bufsize(n):
    # a run floor of 2^5 words: the word butterfly takes uneven rotations, and strips at n = 7
    old = np.setbufsize(64)
    try:
        test_counts_over_all_graphs_against_mask_loop(n)
    finally:
        np.setbufsize(old)


def _fraction_law(n, r, p):
    """Exact law of f_r: the weight q^k (1-q)^(m-k) of every graph, q = Fraction(p)
    exactly, summed by clique count (graphs with equal count and edge count at once)."""
    m = EdgeGround(n).size
    q = Fraction(p)
    weight = [q**k * (1 - q) ** (m - k) for k in range(m + 1)]
    edges = [g.bit_count() for g in range(1 << m)]
    law = {}
    for (c, k), graphs in Counter(zip(_mask_loop_counts(n, r).tolist(), edges)).items():
        law[c] = law.get(c, 0) + graphs * weight[k]
    return law


@pytest.mark.parametrize("n, p", [(5, 0.3), (5, 0.5), (6, 0.3), (6, 0.5), (7, 0.3)])
def test_exact_distribution_masses_are_correctly_rounded(n, p):
    # (7, 0.3) is where a float sum of the 2^21 graph weights misses 27 of the 28
    # masses, by up to 3.5e-12 relative
    law = _fraction_law(n, 3, p)
    want = {float(c): float(law[c]) for c in sorted(law) if float(law[c]) > 0.0}
    assert dict(exact_distribution(CliqueSpec(n=n, r=3, p=p)).mass) == want


@pytest.mark.parametrize("r, p", [(4, 0.3), (4, 0.5), (5, 0.3), (5, 0.7)])
def test_exact_distribution_masses_are_correctly_rounded_at_r_4_and_5(r, p):
    # only r >= 4 reads the (r-1)-clique tables of the peeled vertex's neighbourhoods
    law = _fraction_law(6, r, p)
    want = {float(c): float(law[c]) for c in sorted(law) if float(law[c]) > 0.0}
    assert dict(exact_distribution(CliqueSpec(n=6, r=r, p=p)).mass) == want


def test_exact_distribution_support_is_the_counts_with_nonzero_rounded_mass():
    # at p = 1e-200 every count above 0 has a tiny positive exact mass that rounds to 0.0
    dist = exact_distribution(CliqueSpec(n=7, r=3, p=1e-200))
    assert dist.k.tolist() == [0]
    assert dist.masses.tolist() == [1.0]


@pytest.mark.parametrize("n", range(1, 8))
def test_block_histogram_matches_one_whole_table_bincount(n):
    # the peeled histogram against one bincount of the whole 2^C(n,2) table; n = 1 has no
    # graph left after the peel, n = 2 an edgeless one, and r = n + 1, n + 2 no clique at all
    m = EdgeGround(n).size
    for r in range(3, n + 3):
        counts = counts_over_all_graphs(n, r)
        key = counts.astype(np.uint16)
        key *= m + 1
        key += popcount_array(m)
        whole = np.bincount(key, minlength=(math.comb(n, r) + 1) * (m + 1)).reshape(-1, m + 1)
        assert np.array_equal(_peel_histogram(n, r), whole)


def test_exact_distribution_peak_memory_stays_below_the_table_temporaries():
    # one whole-table bincount traced a 22.0 MB peak at n = 7 and the block histogram 3.75 MB;
    # the peel builds no table larger than the 2^15 graphs on six vertices
    spec = CliqueSpec(n=7, r=3, p=0.5)
    exact_distribution(spec)
    tracemalloc.start()
    try:
        exact_distribution(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_exact_distribution_stays_capped_at_the_table_edge_cap():
    # the peel's largest table has C(n-1, 2) edges, so n = 8 alone would fit under the cap
    with pytest.raises(CapacityError, match="^exhaustive enumeration capped at 21 edges, got 28$"):
        exact_distribution(CliqueSpec(n=8, r=3, p=0.5))


@pytest.mark.parametrize("r", [2, 1, 0, -1])
def test_counts_over_all_graphs_rejects_r_below_3(r):
    # r = 1 used to return 1 for every graph (all n single-vertex masks are 0); r < 0 raised ValueError
    with pytest.raises(DomainError, match="clique size"):
        counts_over_all_graphs(4, r)


def test_moments_bundle():
    spec = CliqueSpec(n=4, r=3, p=0.5)
    mom = moments(spec)
    assert mom.mu == pytest.approx(0.5)
    assert mom.sigma2 == pytest.approx(0.625)
    assert mom.sigma == pytest.approx(math.sqrt(0.625))
    assert mom.weight_deg1 + mom.weight_tail == pytest.approx(1.0)


def test_moments_builds_the_variance_numerator_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return _variance_terms(spec)

    monkeypatch.setattr(cliques, "_variance_terms", counted)
    for spec in (CliqueSpec(n=7, r=3, p=0.3), CliqueSpec(n=60, r=12, p=0.3)):
        calls.clear()
        mom = moments(spec)
        assert calls == [spec]
        num, edge, _ = _variance_terms(spec)
        w1 = float(Fraction(math.comb(spec.n, 2) * edge, num))
        assert (mom.sigma2, mom.weight_deg1, mom.weight_tail) == (variance(spec), w1, 1.0 - w1)


def test_mc_mean_agreement():
    from cliquellt import MCConfig, sample_clique_counts

    spec = CliqueSpec(n=10, r=3, p=0.3)
    mc = MCConfig(seed=77, samples=100_000, workers=2)
    counts = sample_clique_counts(spec, mc)
    se = float(np.std(counts, ddof=1) / math.sqrt(counts.size))
    assert abs(float(np.mean(counts)) - mean(spec)) <= 3 * se
