import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cliquellt
from cliquellt import (
    BlockPartition,
    CliqueSpec,
    DomainError,
    DoubledGround,
    EdgeGround,
    GroundMismatchError,
    MCConfig,
    PBFunction,
    alpha_pointwise,
    alpha_product_transform,
    alpha_restricted_coeffs,
    alpha_transform,
    build_clique_partition,
    build_color_partition,
    decoupling_check,
    exact_chf,
    exact_distribution,
    flatten,
    fr_function,
    is_rainbow,
    kappa_function,
    rainbow_cliques,
)
from cliquellt.cliques import counts_over_all_graphs
from cliquellt.decoupling import _inner_chf
from cliquellt.distributions import SERIAL_BLAS_ENTRIES
from cliquellt.pbf import assignment_weights, gamma_coeff


def bisection_partition(n):
    """k=1: vertices split into two color classes, B_1 = edges inside the top half."""
    half = n // 2 + n % 2
    return build_color_partition(n, 1, [half, n - half])


def random_partition(n, k, rng):
    ground = EdgeGround(n)
    while True:
        block_of = [int(rng.integers(0, k + 1)) for _ in range(ground.size)]
        if all(i in block_of for i in range(1, k + 1)):
            return BlockPartition(ground, k, tuple(block_of))


def random_function(ground, p, rng, *, max_degree=3, density=0.2):
    coeffs = {}
    for size in range(max_degree + 1):
        for S in itertools.combinations(range(ground.size), size):
            if rng.random() < density:
                coeffs[frozenset(S)] = rng.normal()
    return PBFunction(ground, p, coeffs)


def random_y_bits(part, rng, p):
    return {
        e: (int(rng.random() < p), int(rng.random() < p))
        for e in range(part.ground.size)
        if part.block_of[e] != 0
    }


def doubled_bits(part, x_bits, y_bits):
    bits = 0
    for e in range(part.ground.size):
        if part.block_of[e] == 0:
            if x_bits[e]:
                bits |= 1 << (2 * e)
        else:
            b0, b1 = y_bits[e]
            if b0:
                bits |= 1 << (2 * e)
            if b1:
                bits |= 1 << (2 * e + 1)
    return bits


def test_partition_validation():
    ground = EdgeGround(4)
    with pytest.raises(DomainError):
        BlockPartition(ground, 1, (0,) * 6)  # B_1 empty
    with pytest.raises(DomainError):
        BlockPartition(ground, 1, (0, 1, 2, 0, 0, 0))  # block id out of range
    part = BlockPartition(ground, 1, (0, 1, 0, 1, 0, 0))
    assert part.block(1) == {1, 3}
    assert part._masks == (0b110101, 0b001010)


def test_is_rainbow():
    ground = EdgeGround(4)
    part0 = BlockPartition(ground, 0, (0,) * 6)
    assert is_rainbow([0, 3], part0)  # k=0 is vacuous
    part = BlockPartition(ground, 2, (0, 1, 2, 1, 0, 0))
    assert not is_rainbow([0, 4], part)  # all inside B_0
    assert not is_rainbow([1, 3], part)  # misses B_2
    assert is_rainbow([0, 1, 2], part)


def test_flatten():
    assert flatten([]) == frozenset()
    assert flatten([4]) == {2}
    assert flatten([4, 5]) == {2}
    assert flatten([0, 3, 7]) == {0, 1, 3}


def test_doubled_ground_vars():
    part = BlockPartition(EdgeGround(4), 1, (0, 1, 0, 1, 0, 0))
    dg = DoubledGround(part)
    assert dg.size == 12
    assert dg.x_vars() == [0, 4, 8, 10]


def test_alpha_kills_x_only_functions():
    rng = np.random.default_rng(2)
    part = bisection_partition(4)
    p = 0.4
    b0_edges = sorted(part.block(0))
    coeffs = {frozenset(S): rng.normal() for S in itertools.combinations(b0_edges, 2)}
    coeffs[frozenset()] = 1.0
    f = PBFunction(part.ground, p, coeffs)
    assert alpha_transform(f, part).coeffs == {}
    x_bits = {e: 0 for e in b0_edges}
    y_bits = random_y_bits(part, rng, p)
    assert alpha_pointwise(f, part, x_bits, y_bits) == pytest.approx(0.0, abs=1e-12)


def test_alpha_pointwise_zero_when_copies_identical():
    rng = np.random.default_rng(9)
    part = bisection_partition(5)
    p = 0.3
    f = random_function(part.ground, p, rng)
    x_bits = {e: int(rng.random() < p) for e in part.block(0)}
    y_bits = {
        e: ((b := int(rng.random() < p)), b)
        for e in range(part.ground.size)
        if part.block_of[e] != 0
    }
    assert alpha_pointwise(f, part, x_bits, y_bits) == pytest.approx(0.0, abs=1e-12)


def test_alpha_pointwise_matches_transform():
    rng = np.random.default_rng(4)
    p = 0.35
    for n, k in ((4, 1), (4, 2), (5, 1), (5, 2)):
        part = random_partition(n, k, rng)
        f = random_function(part.ground, p, rng)
        af = alpha_transform(f, part)
        for _ in range(20):
            x_bits = {e: int(rng.random() < p) for e in part.block(0)}
            y_bits = random_y_bits(part, rng, p)
            direct = alpha_pointwise(f, part, x_bits, y_bits)
            via = af.eval(doubled_bits(part, x_bits, y_bits))
            assert via == pytest.approx(direct, abs=1e-10)


def test_alpha_norm_identity():
    # ||alpha(f)||_2^2 = 2^k * sum over rainbow S of f_hat(S)^2
    rng = np.random.default_rng(6)
    p = 0.45
    for n, k in ((4, 1), (5, 2)):
        part = random_partition(n, k, rng)
        f = random_function(part.ground, p, rng)
        af = alpha_transform(f, part)
        rainbow_weight = sum(
            c * c for S, c in f.coeffs.items() if S and is_rainbow(S, part)
        )
        assert af.norm2() ** 2 == pytest.approx(2**k * rainbow_weight, abs=1e-10)


def test_alpha_chi_orthogonality():
    # E[alpha(chi_S) alpha(chi_T)] = 2^k if S = T rainbow, else 0
    rng = np.random.default_rng(10)
    p = 0.3
    part = random_partition(4, 2, rng)
    m = part.ground.size
    keys = [frozenset(S) for size in range(1, 4) for S in itertools.combinations(range(m), size)]
    alphas = {S: alpha_transform(PBFunction.chi(part.ground, p, S), part) for S in keys}
    for S in keys:
        for T in keys:
            inner = sum(
                c * alphas[T].coeffs.get(K, 0.0) for K, c in alphas[S].coeffs.items()
            )
            if S == T and is_rainbow(S, part):
                assert inner == pytest.approx(2.0**2, abs=1e-10)
            else:
                assert inner == pytest.approx(0.0, abs=1e-10)


def test_alpha_product_support_condition():
    # for rainbow S, T every key U of alpha(chi_S)*alpha(chi_T) satisfies
    # S symdiff T <= flat(U) <= S union T, with |coeff| <= 2^k max(|gamma|^|U|, 1)
    # (the 2^k accounts for the two copy choices per block, as the S = T
    # empty-set coefficient 2^k shows)
    p = 0.3
    gamma = abs(gamma_coeff(p))
    part = bisection_partition(4)
    m = part.ground.size
    keys = [
        frozenset(S)
        for size in range(1, m + 1)
        for S in itertools.combinations(range(m), size)
        if is_rainbow(S, part)
    ]
    checked = 0
    for S in keys:
        for T in keys:
            prod = alpha_product_transform(S, T, part, p)
            for U, c in prod.coeffs.items():
                fl = flatten(U)
                assert (S ^ T) <= fl
                assert fl <= (S | T)
                assert abs(c) <= 2.0**part.k * max(gamma ** len(U), 1.0) + 1e-10
            checked += 1
    assert checked == len(keys) ** 2
    # S = T rainbow: the empty-set coefficient is 2^k
    S = keys[0]
    prod = alpha_product_transform(S, S, part, p)
    assert prod.coeff([]) == pytest.approx(2.0, abs=1e-10)
    # non-rainbow pair: identically zero
    b0 = sorted(part.block(0))[:1]
    zero = alpha_product_transform(b0, S, part, p)
    assert zero.coeffs == {}


def test_alpha_restricted_matches_pointwise():
    rng = np.random.default_rng(12)
    p = 0.4
    part = bisection_partition(5)
    f = random_function(part.ground, p, rng)
    af = alpha_transform(f, part)
    for _ in range(20):
        y_bits = random_y_bits(part, rng, p)
        g = alpha_restricted_coeffs(af, y_bits)
        x_bits = {e: int(rng.random() < p) for e in part.block(0)}
        direct = alpha_pointwise(f, part, x_bits, y_bits)
        bits = 0
        for e in part.block(0):
            if x_bits[e]:
                bits |= 1 << (2 * e)
        assert g.eval(bits) == pytest.approx(direct, abs=1e-10)


def test_degree_collapse_for_clique_partition():
    # with the k = r-2 color partition, restricted alpha(kappa) is degree <= 1
    rng = np.random.default_rng(15)
    for n, r in ((6, 3), (7, 4)):
        spec = CliqueSpec(n=n, r=r, p=0.5)
        kap = kappa_function(spec)
        k = r - 2
        sizes = [n - k * (n // (k + 1))] + [n // (k + 1)] * k
        part = build_color_partition(n, k, sizes)
        akap = alpha_transform(kap, part)
        for _ in range(5):
            y_bits = random_y_bits(part, rng, 0.5)
            g = alpha_restricted_coeffs(akap, y_bits)
            assert g.degree() <= 1


def test_build_color_partition():
    part = build_color_partition(6, 2, [2, 2, 2])
    ground = part.ground
    # colors: 1,2 -> 0; 3,4 -> 1; 5,6 -> 2; block = max endpoint color
    assert part.block_of[ground.index(1, 2)] == 0
    assert part.block_of[ground.index(1, 3)] == 1
    assert part.block_of[ground.index(3, 4)] == 1
    assert part.block_of[ground.index(2, 6)] == 2
    assert part.block_of[ground.index(5, 6)] == 2
    assert len(part.block(0)) == 1  # C(|U_0|, 2)
    with pytest.raises(DomainError):
        build_color_partition(6, 2, [2, 2, 1])
    with pytest.raises(DomainError):
        build_color_partition(9, 2, [2, 3, 4])  # |U_0| < n/(k+1)


def test_build_clique_partition_structure():
    for n, r in ((6, 3), (10, 3), (8, 4)):
        part = build_clique_partition(n, r)
        k = r * (r - 1) // 2 - 1
        assert part.k == k
        for i in range(1, k + 1):
            assert len(part.block(i)) == n // r
        expected = [tuple(range(c * r + 1, (c + 1) * r + 1)) for c in range(n // r)]
        assert rainbow_cliques(part, r) == expected


def test_rainbow_clique_count_n10():
    part = build_clique_partition(10, 3)
    assert len(rainbow_cliques(part, 3)) == 3


def test_exact_chf():
    ground = EdgeGround(3)
    p = 0.3
    f = PBFunction.chi(ground, p, [0])
    got = exact_chf(f, 0.7)
    import cmath

    want = p * cmath.exp(0.7j * (1 - p) / math.sqrt(p * (1 - p))) + (1 - p) * cmath.exp(
        0.7j * (-p) / math.sqrt(p * (1 - p))
    )
    assert got == pytest.approx(want, abs=1e-12)
    assert exact_chf(f, 0.0) == pytest.approx(1.0 + 0.0j)


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_exact_chf_against_fsum_of_clique_counts(p):
    f = fr_function(CliqueSpec(n=6, r=3, p=p))
    counts = counts_over_all_graphs(6, 3).tolist()
    weights = assignment_weights(15, p).tolist()
    for t in (0.5, 1.0, 2.0):
        re = math.fsum(w * math.cos(t * c) for w, c in zip(weights, counts))
        im = math.fsum(w * math.sin(t * c) for w, c in zip(weights, counts))
        assert abs(exact_chf(f, t) - complex(re, im)) < 1e-13


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("p", [0.5, 0.3])
def test_exact_chf_matches_the_exact_law(n, p):
    # the truth table of f_r and the law of the clique count: one chf sum each
    spec = CliqueSpec(n=n, r=3, p=p)
    f, law = fr_function(spec), exact_distribution(spec)
    for t in (0.0, 0.3, 1.0, 2.5, -4.0):
        assert abs(exact_chf(f, t) - law.chf(t)) < 1e-13


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("p", [0.5, 0.3, 0.37])
def test_exact_chf_is_within_1e_15_of_the_exact_law(n, p):
    # phi_f read off the law of f's values, whose masses are integer
    # histograms times p^k (1-p)^(m-k); a weighted sum over every table entry
    # was off by 6e-15 at n = 7, p = 0.3
    spec = CliqueSpec(n=n, r=3, p=p)
    f, law = fr_function(spec), exact_distribution(spec)
    for t in (0.5, 1.0, 2.0):
        assert abs(exact_chf(f, t) - law.chf(t)) <= 1e-15


def test_decoupling_check_golden_bits():
    # rhs and rhs_stderr pinned bit for bit: how the inner X enumeration builds
    # its tables must not change the Monte Carlo side
    part = build_color_partition(5, 1, [3, 2])
    golden = {  # (p, seed, samples, workers): (rhs, rhs_stderr) at t = 0.5, 1, 2
        (0.5, 1, 2000, 1): [
            ("0x1.dc9c65136c1a2p-1", "0x1.5b1e7bf722271p-10"),
            ("0x1.8292f352efc85p-1", "0x1.1038b458f48f8p-8"),
            ("0x1.b06838121c7cap-2", "0x1.931925867f82bp-8"),
        ],
        (0.3, 4, 3000, 2): [
            ("0x1.f2c31029bb64ep-1", "0x1.2b4ed0ab7fc43p-11"),
            ("0x1.cee9d69e5ad66p-1", "0x1.0210dd7f1cc72p-9"),
            ("0x1.7170c86b961ccp-1", "0x1.30c0a37a7154fp-8"),
        ],
    }
    for (p, seed, samples, workers), rows in golden.items():
        f = fr_function(CliqueSpec(n=5, r=3, p=p))
        mc = MCConfig(seed=seed, samples=samples, workers=workers)
        for chk, (rhs, stderr) in zip(decoupling_check(f.table(), part, f.p, (0.5, 1.0, 2.0), mc), rows, strict=True):
            assert chk.rhs == float.fromhex(rhs)
            assert chk.rhs_stderr == float.fromhex(stderr)


def test_decoupling_check_holds():
    spec = CliqueSpec(n=4, r=3, p=0.5)
    f = fr_function(spec)
    part = bisection_partition(4)
    mc = MCConfig(seed=42, samples=2000, workers=2)
    for t, chk in zip((0.0, 0.5, 1.5), decoupling_check(f.table(), part, f.p, (0.0, 0.5, 1.5), mc)):
        assert chk.holds
        if t == 0.0:
            assert chk.lhs == pytest.approx(1.0)
            assert chk.rhs == pytest.approx(1.0, abs=1e-12)


def test_decoupling_check_deterministic():
    spec = CliqueSpec(n=4, r=3, p=0.5)
    f = fr_function(spec)
    part = bisection_partition(4)
    mc = MCConfig(seed=7, samples=500, workers=3)
    a = decoupling_check(f.table(), part, f.p, (1.0, 2.0), mc)
    b = decoupling_check(f.table(), part, f.p, (1.0, 2.0), mc)
    assert a == b
    # every t sees the same Y draws, as in a call of its own
    assert a == decoupling_check(f.table(), part, f.p, (1.0,), mc) + decoupling_check(f.table(), part, f.p, (2.0,), mc)


def test_decoupling_check_on_an_empty_grid_builds_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built for an empty t grid")

    monkeypatch.setattr(cliquellt.decoupling, "alpha_transform", fail)
    monkeypatch.setattr(cliquellt.decoupling, "_value_law", fail)
    monkeypatch.setattr(MCConfig, "edge_draws", fail)
    table = counts_over_all_graphs(4, 3)
    assert decoupling_check(table, bisection_partition(4), 0.5, [], MCConfig(seed=0, samples=10)) == []


def test_decoupling_check_refuses_one_y_row_before_the_truth_table(monkeypatch):
    # regression: one row gave rhs_stderr 0, a zero band that decided `holds`;
    # the caller owns the table, so the refusal comes before any draw or law
    def fail(*args, **kwargs):
        raise AssertionError("built for one Y row")

    monkeypatch.setattr(MCConfig, "edge_draws", fail)
    monkeypatch.setattr(cliquellt.decoupling, "_value_law", fail)
    table = counts_over_all_graphs(4, 3)
    with pytest.raises(DomainError, match="two Y rows"):
        decoupling_check(table, bisection_partition(4), 0.5, [1.0], MCConfig(seed=0, samples=1))


@pytest.mark.parametrize("t", [math.nan, math.inf, 1e308])
def test_decoupling_check_refuses_a_phase_past_the_floats_before_any_draw(monkeypatch, t):
    # regression: a bad t ran every Y draw, and the row sums warned of overflow,
    # before the lhs raised; the lhs now comes first
    def fail(*args, **kwargs):
        raise AssertionError("drew Y rows for a t with no finite phase")

    monkeypatch.setattr(MCConfig, "edge_draws", fail)
    table = counts_over_all_graphs(5, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="chf phase t x is not finite"):
            decoupling_check(table, bisection_partition(5), 0.5, [1.0, t], MCConfig(seed=0, samples=50))


def test_decoupling_check_takes_the_largest_finite_phase():
    table = counts_over_all_graphs(5, 3)  # max f = 10: t f = 1e308 at t = 1e307
    (check,) = decoupling_check(table, bisection_partition(5), 0.5, [1e307], MCConfig(seed=0, samples=50))
    assert all(math.isfinite(x) for x in (check.lhs, check.rhs, check.rhs_stderr))


@pytest.mark.parametrize("sizes", [[3, 2], [2, 2, 1]])
def test_decoupling_check_rhs_against_alpha_pointwise(sizes):
    # the rhs at p != 0.5 from alpha's definition, evaluated on f's coefficients,
    # over the same Y rows: draw column 2j + copy is that copy of the j-th Y edge
    p, ts = 0.3, (0.5, 1.0, 2.0)
    part = build_color_partition(5, len(sizes) - 1, sizes)
    f = fr_function(CliqueSpec(n=5, r=3, p=p))
    mc = MCConfig(seed=8, samples=200, workers=2)
    x_edges = [e for e in range(10) if part.block_of[e] == 0]
    y_edges = [e for e in range(10) if part.block_of[e] != 0]
    xs = []  # (weight, X assignment) for every X assignment
    for bits in itertools.product((0, 1), repeat=len(x_edges)):
        xs.append((p ** sum(bits) * (1 - p) ** (len(bits) - sum(bits)), dict(zip(x_edges, bits))))
    inner = {t: [] for t in ts}
    for _, rows in mc.edge_draws([2 * len(y_edges)], p):
        for row in rows.tolist():
            y_bits = {e: (int(row[2 * j]), int(row[2 * j + 1])) for j, e in enumerate(y_edges)}
            g = [(w, alpha_pointwise(f, part, x_bits, y_bits)) for w, x_bits in xs]
            for t in ts:
                re = math.fsum(w * math.cos(t * a) for w, a in g)
                im = math.fsum(w * math.sin(t * a) for w, a in g)
                inner[t].append(math.hypot(re, im))
    for t, chk in zip(ts, decoupling_check(f.table(), part, f.p, ts, mc), strict=True):
        assert len(inner[t]) == 200
        assert abs(chk.rhs - math.fsum(inner[t]) / 200) <= 1e-14


def test_decoupling_check_edge_partitions():
    ts = (0.0, 0.5, 1.0, 2.0, -3.0)
    for p in (0.5, 0.3):
        # k = 0: alpha(f) = f and X is every edge, so the rhs is |phi_f(t)|, the lhs
        f = fr_function(CliqueSpec(n=4, r=3, p=p))
        k0 = BlockPartition(EdgeGround(4), 0, (0,) * 6)
        for chk in decoupling_check(f.table(), k0, f.p, ts, MCConfig(seed=2, samples=50)):
            assert abs(chk.rhs - chk.lhs) <= 1e-15
        # empty B_0: E_X is over one point, so every inner value is |e^{i t g}| = 1;
        # on the CLI's grid it rounds to 1.0 exactly (at t = 3, |e^{3i}| does not)
        f = fr_function(CliqueSpec(n=3, r=3, p=p))
        part = BlockPartition(EdgeGround(3), 1, (1, 1, 1))
        for chk in decoupling_check(f.table(), part, f.p, (0.5, 1.0, 2.0), MCConfig(seed=3, samples=500, workers=2)):
            assert chk.rhs == 1.0 and chk.rhs_stderr == 0.0
    # f must live on the partition's ground
    f = fr_function(CliqueSpec(n=5, r=3, p=0.5))
    with pytest.raises(GroundMismatchError):
        decoupling_check(f.table(), bisection_partition(4), f.p, ts, MCConfig(seed=0, samples=2))


def test_decoupling_check_validates_its_table_and_p():
    # a table of the wrong length is test_decoupling_check_edge_partitions' last case
    part, mc, ts = bisection_partition(4), MCConfig(seed=0, samples=2), (0.5, 1.0, 2.0)
    table = counts_over_all_graphs(4, 3)
    with pytest.raises(GroundMismatchError):
        decoupling_check(table.reshape(8, 8), part, 0.5, ts, mc)
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError, match="p must lie in"):
            decoupling_check(table, part, p, ts, mc)


def test_decoupling_check_memory_does_not_grow_with_the_samples():
    # regression: the whole (samples x 2^nx) table of inner values was held at
    # once, 33 MB at 4000 samples with nx = 10; row blocks keep it under 2 MB
    f = fr_function(CliqueSpec(n=6, r=3, p=0.5))
    table = f.table()
    part = build_color_partition(6, 1, [5, 1])
    decoupling_check(table, part, f.p, (1.0,), MCConfig(seed=3, samples=10))  # first-call allocations
    tracemalloc.start()
    try:
        decoupling_check(table, part, f.p, (1.0,), MCConfig(seed=3, samples=4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("cols", [8, 64, 4096])
def test_inner_chf_has_the_bits_of_one_product(cols):
    # a lone row, alone or left over after the row blocks, has the bits it has
    # next to any other row, not those of the one-row BLAS kernel
    rng = np.random.default_rng(cols)
    wx = rng.random(cols)
    step = max(2, SERIAL_BLAS_ENTRIES // cols)
    for q in sorted({1, 2, 3, step, step + 1, step + 2, 2 * step + 1, 3 * step - 1}):
        g = rng.normal(size=(q, cols)) * 3
        want = (np.exp(1j * 0.7 * np.vstack([g, rng.normal(size=(1, cols))])) @ wx)[:q]
        assert np.array_equal(_inner_chf(g, 0.7, wx).view(np.uint64), want.view(np.uint64))


def test_exact_chf_and_decoupling_check_do_not_depend_on_the_blas_thread_count():
    code = (
        "from cliquellt import CliqueSpec, exact_chf, fr_function\n"
        "from cliquellt.cli import main\n"
        "print(repr(exact_chf(fr_function(CliqueSpec(6, 3, 0.5)), 0.5)))\n"  # a 2^15-entry table
        "print(repr(exact_chf(fr_function(CliqueSpec(7, 3, 0.3)), 0.5)))\n"  # 2^21 entries, many distinct values
        "main(['decoupling-check', '--n', '6', '--r', '3', '--samples', '2000', '--seed', '5'])\n"
    )
    src = str(Path(cliquellt.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        outs.append(run.stdout)
    assert outs[0] == outs[1]
