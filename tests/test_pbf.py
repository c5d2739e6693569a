import hashlib
import itertools
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    CapacityError,
    CliqueSpec,
    DomainError,
    EdgeGround,
    MCConfig,
    PBFunction,
    alpha_transform,
    build_clique_partition,
    build_color_partition,
    chi_value,
    decoupling_check,
    exact_chf,
    fourier_transform,
    fr_function,
    kappa_function,
    multiply,
)
from cliquellt.cliques import EXACT_DISTRIBUTION_EDGE_CAP, counts_over_all_graphs
from cliquellt import pbf
from cliquellt.pbf import PRUNE_TOL, _butterfly, assignment_weights, gamma_coeff, popcount_array


def random_function(ground, p, rng, *, max_degree=None, density=0.3):
    m = ground.size
    max_degree = m if max_degree is None else max_degree
    coeffs = {}
    for size in range(max_degree + 1):
        for S in itertools.combinations(range(m), size):
            if rng.random() < density:
                coeffs[frozenset(S)] = rng.normal()
    coeffs.setdefault(frozenset(), rng.normal())
    return PBFunction(ground, p, coeffs)


def brute_expectation(f, weights=None):
    m = f.ground.size
    w = assignment_weights(m, f.p) if weights is None else weights
    return sum(w[bits] * f.eval(bits) for bits in range(1 << m))


def test_chi_value_basics():
    assert chi_value(0.5, 1) == 1.0
    assert chi_value(0.5, 0) == -1.0
    assert chi_value(0.25, 0) == pytest.approx(-math.sqrt(1.0 / 3.0))
    for p in (0.2, 0.5, 0.8):
        mean = p * chi_value(p, 1) + (1 - p) * chi_value(p, 0)
        var = p * chi_value(p, 1) ** 2 + (1 - p) * chi_value(p, 0) ** 2
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0, abs=1e-12)


def test_chi_square_identity():
    # chi_e^2 = 1 + gamma * chi_e at both bit values
    for p in (0.25, 0.4, 0.7):
        g = gamma_coeff(p)
        for bit in (0, 1):
            c = chi_value(p, bit)
            assert c * c == pytest.approx(1.0 + g * c, abs=1e-12)
    assert gamma_coeff(0.25) == pytest.approx(0.5 / math.sqrt(3.0 / 16.0))
    assert gamma_coeff(0.5) == 0.0


def test_orthonormality_by_enumeration():
    ground = EdgeGround(3)
    m = ground.size
    for p in (0.3, 0.5):
        w = assignment_weights(m, p)
        keys = [frozenset(S) for size in range(m + 1) for S in itertools.combinations(range(m), size)]
        for S in keys:
            for T in keys:
                prod = multiply(PBFunction.chi(ground, p, S), PBFunction.chi(ground, p, T))
                val = brute_expectation(prod, w)
                expect = 1.0 if S == T else 0.0
                assert val == pytest.approx(expect, abs=1e-10)


def test_eval_matches_monomial_recomputation():
    rng = np.random.default_rng(11)
    ground = EdgeGround(4)
    p = 0.35
    f = random_function(ground, p, rng)
    for bits in rng.integers(0, 1 << ground.size, size=50):
        bits = int(bits)
        direct = 0.0
        for S, c in f.coeffs.items():
            term = c
            for e in S:
                term *= chi_value(p, (bits >> e) & 1)
            direct += term
        assert f.eval(bits) == pytest.approx(direct, abs=1e-12)


def test_parseval_and_variance():
    rng = np.random.default_rng(5)
    ground = EdgeGround(4)
    for p in (0.3, 0.6):
        f = random_function(ground, p, rng)
        w = assignment_weights(ground.size, p)
        vals = np.array([f.eval(b) for b in range(1 << ground.size)])
        e1 = float(np.sum(w * vals))
        e2 = float(np.sum(w * vals * vals))
        assert f.expectation() == pytest.approx(e1, abs=1e-10)
        assert f.norm2() ** 2 == pytest.approx(e2, abs=1e-10)
        assert f.variance() == pytest.approx(e2 - e1 * e1, abs=1e-10)


def test_transform_round_trip():
    rng = np.random.default_rng(23)
    ground = EdgeGround(4)
    p = 0.3
    f = random_function(ground, p, rng)
    table = np.array([f.eval(b) for b in range(1 << ground.size)])
    g = fourier_transform(table, ground, p)
    keys = set(f.coeffs) | set(g.coeffs)
    for S in keys:
        assert g.coeff(S) == pytest.approx(f.coeff(S), abs=1e-10)


def test_transform_trivial_cases():
    ground = EdgeGround(3)
    p = 0.4
    one = fourier_transform(np.ones(1 << ground.size), ground, p)
    assert one.coeffs == {frozenset(): 1.0}
    e = 1
    table = np.array([chi_value(p, (b >> e) & 1) for b in range(1 << ground.size)])
    chi = fourier_transform(table, ground, p)
    assert set(chi.coeffs) == {frozenset([e])}
    assert chi.coeff([e]) == pytest.approx(1.0, abs=1e-12)


def test_transform_edge_count_table_and_cap():
    ground = EdgeGround(3)
    f = fourier_transform(popcount_array(ground.size), ground, 0.5)
    assert f.degree() == 1
    assert PBFunction.constant(EdgeGround(1), 0.4, 2.5).table().tolist() == [2.5]
    # One cap on every 2^m table: each entry point takes 21 edges (n = 7) and
    # raises at 28 (n = 8), and at 22 where a hand-made ground can have that size.
    assert pbf.TABLE_EDGE_CAP == EXACT_DISTRIBUTION_EDGE_CAP == 21
    n7, n8, hand22 = EdgeGround(7), EdgeGround(8), SimpleNamespace(size=22)

    def decouple(g):
        part = build_color_partition(g.n, 1, [g.n - g.n // 2, g.n // 2])
        return decoupling_check(fr_function(CliqueSpec(g.n, 3, 0.5)), part, [1.0], MCConfig(seed=0, samples=2))

    entry_points = [
        (lambda g: counts_over_all_graphs(g.n, 3), [n8]),
        (lambda g: PBFunction.constant(g, 0.5, 1.0).table(), [hand22, n8]),
        (lambda g: fourier_transform(np.zeros(1 << 21), g, 0.5), [hand22, n8]),
        (lambda g: exact_chf(PBFunction.constant(g, 0.5, 1.0), 1.0), [n8]),
        (decouple, [n8]),
    ]
    for run, above in entry_points:
        run(n7)
        for g in above:
            with pytest.raises(CapacityError):
                run(g)


TABLE_CASES = dict(
    n=st.integers(1, 5),
    p=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60)
@given(**TABLE_CASES)
def test_table_round_trips_with_transform(n, p, seed):
    rng = np.random.default_rng(seed)
    ground = EdgeGround(n)
    f = random_function(ground, p, rng, max_degree=3)
    # coefficients -> table -> coefficients
    g = fourier_transform(f.table(), ground, p)
    for S in set(f.coeffs) | set(g.coeffs):
        assert g.coeff(S) == pytest.approx(f.coeff(S), abs=1e-9)
    # table -> coefficients -> table
    vals = rng.normal(size=1 << ground.size)
    back = fourier_transform(vals, ground, p).table()
    np.testing.assert_allclose(back, vals, rtol=0.0, atol=1e-9)


@settings(max_examples=60)
@given(**TABLE_CASES, masks=st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=20))
def test_table_matches_eval_pointwise(n, p, seed, masks):
    ground = EdgeGround(n)
    f = random_function(ground, p, np.random.default_rng(seed), max_degree=3)
    table = f.table()
    assert table.shape == (1 << ground.size,)
    for mask in masks:
        mask %= 1 << ground.size
        assert table[mask] == pytest.approx(f.eval(mask), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fr_table_is_the_exact_clique_count(n):
    # at p = 1/2 every chi value and coefficient is dyadic, so the table is exact
    for r in range(3, n + 1):
        table = fr_function(CliqueSpec(n=n, r=r, p=0.5)).table()
        assert np.array_equal(table, counts_over_all_graphs(n, r))
        near = fr_function(CliqueSpec(n=n, r=r, p=0.3)).table()
        np.testing.assert_allclose(near, counts_over_all_graphs(n, r), rtol=0.0, atol=1e-13)


def test_multiply_pointwise_oracle():
    rng = np.random.default_rng(7)
    ground = EdgeGround(4)
    for p in (0.25, 0.5, 0.7):
        f = random_function(ground, p, rng, max_degree=3)
        g = random_function(ground, p, rng, max_degree=3)
        fg = f * g
        for bits in range(1 << ground.size):
            assert fg.eval(bits) == pytest.approx(f.eval(bits) * g.eval(bits), abs=1e-10)


def test_scalar_and_linear_ops():
    rng = np.random.default_rng(3)
    ground = EdgeGround(3)
    f = random_function(ground, 0.4, rng)
    g = random_function(ground, 0.4, rng)
    for bits in range(1 << ground.size):
        assert (f + g).eval(bits) == pytest.approx(f.eval(bits) + g.eval(bits))
        assert (f - g).eval(bits) == pytest.approx(f.eval(bits) - g.eval(bits))
        assert (2.5 * f).eval(bits) == pytest.approx(2.5 * f.eval(bits))


def test_degree_slices():
    ground = EdgeGround(3)
    coeffs = {frozenset(): 1.0, frozenset([0]): 2.0, frozenset([0, 1]): 3.0}
    f = PBFunction(ground, 0.5, coeffs)
    assert f.tail(f.degree()).coeffs == {}
    assert f.degree_slice(0).coeffs == {frozenset(): 1.0}
    assert f.degree_slice(1).coeffs == {frozenset([0]): 2.0}
    assert f.tail(1).coeffs == {frozenset([0, 1]): 3.0}
    total = sum(c * c for c in coeffs.values())
    parts = sum(sum(c * c for c in f.degree_slice(k).coeffs.values()) for k in range(3))
    assert parts == pytest.approx(total)


def test_norm_identities_chi():
    ground = EdgeGround(4)
    f = PBFunction.chi(ground, 0.3, [0, 2])
    assert f.norm2() == 1.0
    assert f.spectral_norm1() == 1.0
    assert f.variance() == 1.0


def test_restriction_pointwise_oracle():
    rng = np.random.default_rng(17)
    ground = EdgeGround(5)
    m = ground.size
    p = 0.35
    for _ in range(100):
        f = random_function(ground, p, rng, max_degree=3, density=0.15)
        keep = [e for e in range(m) if rng.random() < 0.5]
        beta = {e: int(rng.random() < p) for e in range(m) if e not in keep}
        g = f.restrict(keep, beta)
        assert all(S <= frozenset(keep) for S in g.coeffs)
        bits = int(rng.integers(0, 1 << m))
        full = 0
        for e in range(m):
            val = (bits >> e) & 1 if e in keep else beta[e]
            if val:
                full |= 1 << e
        assert g.eval(bits) == pytest.approx(f.eval(full), abs=1e-10)


def test_restriction_trivial_cases():
    ground = EdgeGround(4)
    p = 0.3
    f = PBFunction(ground, p, {frozenset([0, 1]): 2.0, frozenset([3]): -1.0})
    same = f.restrict(range(ground.size), {})
    assert same.coeffs == f.coeffs
    g = PBFunction.chi(ground, p, [3]).restrict([0, 1], {3: 1, 2: 0, 4: 0, 5: 0})
    assert set(g.coeffs) <= {frozenset()}
    assert g.expectation() == pytest.approx(chi_value(p, 1))
    with pytest.raises(DomainError):
        f.restrict([0], {1: 0})  # edge 3 has no assigned value


def test_spectral_power_inequality():
    # ||f^j||_1 <= (1 + |gamma|)^{d(j-1)} ||f||_1^j for degree-<=d f, j <= 3.
    # Each multiplication inflates the 1-norm by at most (1+|gamma|) per shared
    # variable, and a monomial can share up to d variables.
    rng = np.random.default_rng(29)
    ground = EdgeGround(4)
    for p in (0.3, 0.5, 0.7):
        bound_base = 1.0 + abs(gamma_coeff(p))
        for _ in range(10):
            f = random_function(ground, p, rng, max_degree=3, density=0.2)
            d = f.degree()
            power = f
            for j in (2, 3):
                power = power * f
                bound = bound_base ** (d * (j - 1)) * f.spectral_norm1() ** j
                assert power.spectral_norm1() <= bound + 1e-9



def test_popcount_and_weights():
    pops = popcount_array(6)
    assert pops[0] == 0 and pops[63] == 6 and pops[5] == 2
    w = assignment_weights(6, 0.3)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
    # the popcount lookup gives the bits of the elementwise formula
    assert np.array_equal(w, 0.3**pops * (1 - 0.3) ** (6 - pops))


def test_ground_mismatch_rejected():
    f = PBFunction.chi(EdgeGround(4), 0.5, [0])
    g = PBFunction.chi(EdgeGround(5), 0.5, [0])
    with pytest.raises(Exception):
        _ = f + g


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_butterfly_pairs_every_entry_with_its_edge_flip(monkeypatch, dtype):
    # a whole-table block, and small blocks that also run the transposed copy and the strips
    m = 8
    want = sorted((g, g | 1 << e) for e in range(m) for g in range(1 << m) if not g >> e & 1)
    for block_bytes in (1 << 3, 1 << 4, 1 << 6, pbf.BUTTERFLY_BLOCK_BYTES):
        monkeypatch.setattr(pbf, "BUTTERFLY_BLOCK_BYTES", block_bytes)
        v = np.arange(1 << m).astype(dtype)
        pairs = []
        _butterfly(v, m, lambda v0, v1, tmp: pairs.extend(zip(v0.ravel().tolist(), v1.ravel().tolist())))
        assert sorted(pairs) == want
        assert np.array_equal(v, np.arange(1 << m))


def _edge_halves(v, m):
    """The unblocked butterfly's passes: per edge, views (v0, v1) of the whole table,
    cut into strided columns while a run is shorter than 32 bytes."""
    for e in range(m):
        if (1 << e) * v.itemsize < 32:
            w = v.reshape(-1, 2 << e)
            for j in range(1 << e):
                yield w[:, j], w[:, j + (1 << e)]
        else:
            w = v.reshape(-1, 2, 1 << e)
            yield w[:, 0, :], w[:, 1, :]


def _per_edge_butterfly(v, m, step):
    for v0, v1 in _edge_halves(v, m):
        v0[...], v1[...] = step(v0, v1)
    return v


BLOCK_EDGES = (pbf.BUTTERFLY_BLOCK_BYTES // 8).bit_length() - 1  # float64 entries per block, log2


@pytest.mark.parametrize("m", sorted({0, 1, 3, 10, 15, 21, BLOCK_EDGES, BLOCK_EDGES + 1}))
def test_blocked_butterfly_keeps_the_bits_of_the_per_edge_loop(m):
    rng = np.random.default_rng(m)
    ground = SimpleNamespace(size=m)
    # low-degree keys keep the transforms sparse, so the m=21 coefficient maps stay small
    keys = {frozenset(rng.choice(m, size=min(m, 4), replace=False).tolist()) for _ in range(30)}
    masks = [sum(1 << e for e in S) for S in keys]
    if m <= 10:
        table = rng.random(1 << m)
    else:  # the number of keys inside each g: a zeta table, sparse in the Fourier basis
        table = np.zeros(1 << m)
        table[masks] = 1.0
        _per_edge_butterfly(table, m, lambda v0, v1: (v0, v1 + v0))
    for p in (0.5, 0.3, 0.37):
        root = math.sqrt(p * (1.0 - p))
        ref = _per_edge_butterfly(table.copy(), m, lambda v0, v1: ((1.0 - p) * v0 + p * v1, root * (v1 - v0)))
        nz = np.nonzero(np.abs(ref) > PRUNE_TOL)[0]
        got = fourier_transform(table, ground, p).coeffs
        assert list(got) == [frozenset(i for i in range(m) if g >> i & 1) for g in nz.tolist()]
        assert np.array_equal(np.array(list(got.values())).view(np.uint64), ref[nz].view(np.uint64))

        f = PBFunction(ground, p, {S: rng.normal() for S in keys})
        c0, c1 = chi_value(p, 0), chi_value(p, 1)
        ref = np.zeros(1 << m)
        for S, c in f.coeffs.items():
            ref[sum(1 << e for e in S)] = c
        _per_edge_butterfly(ref, m, lambda v0, v1: (v0 + c0 * v1, v0 + c1 * v1))
        assert np.array_equal(f.table().view(np.uint64), ref.view(np.uint64))


def _coefficient_outputs():
    """The sparse-layer outputs whose coefficients are pinned bit for bit."""
    for n in (4, 5, 6):
        for p in (0.5, 0.3, 0.37):
            yield f"fr_function({n},3,{p})", fr_function(CliqueSpec(n, 3, p))
    yield "kappa_function(6,3,0.5)", kappa_function(CliqueSpec(6, 3, 0.5))
    for p in (0.5, 0.3, 0.37):
        f = fr_function(CliqueSpec(6, 3, p))
        for name, part in (
            ("color", build_color_partition(6, 1, [3, 3])),  # the decoupling-check CLI's partition
            ("clique", build_clique_partition(6, 3)),
        ):
            yield f"alpha_transform(fr_function(6,3,{p}),{name})", alpha_transform(f, part)
    f = random_function(EdgeGround(4), 0.5, np.random.default_rng(5), max_degree=3, density=0.3)
    yield "multiply(f,f,0.5)", multiply(f, f)
    # chi(beta_e) is +-1 at p = 0.5, so the order of a key's factors cannot move a bit
    yield "restrict(f,0.5)", f.restrict([0, 2, 3], {1: 1, 4: 0, 5: 1})
    g = random_function(EdgeGround(4), 0.3, np.random.default_rng(5), max_degree=3, density=0.3)
    yield "multiply(g,g,0.3)", multiply(g, g)  # gamma != 0: shared edges expand
    table = counts_over_all_graphs(7, 3)
    for p in (0.5, 0.3, 0.37):
        yield f"fourier_transform(counts(7,3),{p})", fourier_transform(table, EdgeGround(7), p)


COEFFICIENT_DIGESTS = {  # sha256 prefix of each output's (sorted key, value) list
    "fr_function(4,3,0.5)": "21cde617657eebc2",
    "fr_function(4,3,0.3)": "6c5889ef4920a4bd",
    "fr_function(4,3,0.37)": "067ab9cc8c017b3f",
    "fr_function(5,3,0.5)": "fbc327e3230165ed",
    "fr_function(5,3,0.3)": "81612e70ab6aa063",
    "fr_function(5,3,0.37)": "6e7791aeddf4a0f0",
    "fr_function(6,3,0.5)": "0c7bc53f961dd420",
    "fr_function(6,3,0.3)": "2747bda15372d7e2",
    "fr_function(6,3,0.37)": "f778283d6f4d4636",
    "kappa_function(6,3,0.5)": "347c85fdac941e5e",
    "alpha_transform(fr_function(6,3,0.5),color)": "316bdfd99de896cd",
    "alpha_transform(fr_function(6,3,0.5),clique)": "0d6da1d2bc777438",
    "alpha_transform(fr_function(6,3,0.3),color)": "59b2df6ec379c8a7",
    "alpha_transform(fr_function(6,3,0.3),clique)": "bc7d1e02241a86fe",
    "alpha_transform(fr_function(6,3,0.37),color)": "b58ed4a801d39d00",
    "alpha_transform(fr_function(6,3,0.37),clique)": "75ac6148e9272792",
    "multiply(f,f,0.5)": "0766fcf96dd05b6d",
    "restrict(f,0.5)": "abc74a9526230cdc",
    "multiply(g,g,0.3)": "41073072f7941e7d",
    "fourier_transform(counts(7,3),0.5)": "969e45200e59ea64",
    "fourier_transform(counts(7,3),0.3)": "a2b81b383756b97a",
    "fourier_transform(counts(7,3),0.37)": "dc8837cc475874ec",
}


def test_coeffs_is_a_read_only_dict_built_once():
    f = fr_function(CliqueSpec(4, 3, 0.3))
    view = f.coeffs
    assert isinstance(view, dict) and f.coeffs is view
    for write in (
        lambda: view.__setitem__(frozenset(), 1.0),
        lambda: view.__delitem__(frozenset()),
        lambda: view.update({}),
        lambda: view.pop(frozenset()),
        lambda: view.popitem(),
        lambda: view.setdefault(frozenset([0]), 1.0),
        lambda: view.clear(),
        lambda: view.__ior__({}),
    ):
        with pytest.raises(TypeError):
            write()
    assert f.coeff([]) == view[frozenset()] == f.expectation()


def test_coefficient_bits_keys_and_order_are_pinned():
    # each key as its sorted edge list: a frozenset pickles its elements in
    # hash-table order, which depends on how the set was built
    got = {
        name: hashlib.sha256(pickle.dumps([(sorted(S), c) for S, c in g.coeffs.items()])).hexdigest()[:16]
        for name, g in _coefficient_outputs()
    }
    assert got == COEFFICIENT_DIGESTS
