import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    CapacityError,
    CliqueSpec,
    DomainError,
    EdgeGround,
    PBFunction,
    chi_value,
    fourier_transform,
    fr_function,
    multiply,
)
from cliquellt.cliques import counts_over_all_graphs
from cliquellt.pbf import assignment_weights, gamma_coeff, popcount_array


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
    with pytest.raises(CapacityError):
        fourier_transform(np.zeros(4), EdgeGround(8), 0.5)
    assert PBFunction.constant(EdgeGround(1), 0.4, 2.5).table().tolist() == [2.5]
    with pytest.raises(CapacityError):
        PBFunction.constant(EdgeGround(8), 0.5, 1.0).table()


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


def test_json_round_trip():
    rng = np.random.default_rng(41)
    ground = EdgeGround(4)
    f = random_function(ground, 0.45, rng, max_degree=2)
    g = PBFunction.from_json(f.to_json())
    assert g.ground == ground
    assert g.p == f.p
    assert set(g.coeffs) == set(f.coeffs)
    for S, c in f.coeffs.items():
        assert g.coeff(S) == pytest.approx(c, abs=0.0)


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
