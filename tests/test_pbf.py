import hashlib
import itertools
import math
import pickle
from contextlib import contextmanager
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
    PBFunction,
    alpha_transform,
    build_clique_partition,
    build_color_partition,
    chi_value,
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

    entry_points = [
        (lambda g: counts_over_all_graphs(g.n, 3), [n8]),
        (lambda g: PBFunction.constant(g, 0.5, 1.0).table(), [hand22, n8]),
        (lambda g: fourier_transform(np.zeros(1 << 21), g, 0.5), [hand22, n8]),
        (lambda g: exact_chf(PBFunction.constant(g, 0.5, 1.0), 1.0), [n8]),
    ]
    for run, above in entry_points:
        run(n7)
        for g in above:
            with pytest.raises(CapacityError):
                run(g)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("r", [3, 4])
def test_transform_of_clique_counts_matches_the_closed_form(n, r):
    # both branches: the Moebius support of the counts is sparse at n = 7 (r = 3, 4)
    # and n = 6 (r = 3), too wide for it at n = 5 and at n = 6, r = 4
    table = counts_over_all_graphs(n, r)
    for p in (0.5, 0.3, 0.37):
        f, g = fr_function(CliqueSpec(n, r, p)), fourier_transform(table, EdgeGround(n), p)
        assert sorted(f._coeffs) == list(g._coeffs)  # the same keys, in ascending mask order
        if p == 0.5:  # integer a_T and powers of 1/2: every step is exact
            assert g._coeffs == f._coeffs
        else:  # within 16 ulp of the largest coefficient
            tol = 16 * np.spacing(max(abs(c) for c in f._coeffs.values()))
            assert max(abs(g._coeffs[S] - c) for S, c in f._coeffs.items()) <= tol


def _transform_bits(table, m, p):
    g = fourier_transform(table, SimpleNamespace(size=m), p)
    return list(g._coeffs), np.array(list(g._coeffs.values())).view(np.uint64).tolist()


def test_transform_of_an_integer_table_does_not_depend_on_its_dtype():
    has = counts_over_all_graphs(6, 3) > 0  # one 0/1 table, at m = 15 (dense branch)
    counts = counts_over_all_graphs(7, 3)  # sparse branch
    for table, m, dtypes in ((has, 15, (np.bool_, np.uint8, np.int64)), (counts, 21, (np.uint8, np.int64))):
        for p in (0.5, 0.3):
            want = _transform_bits(table.astype(np.float64), m, p)
            for dtype in dtypes:
                assert _transform_bits(table.astype(dtype), m, p) == want, (m, p, dtype)


@contextmanager
def _moebius_tiers(monkeypatch):
    """The dtype of each table fourier_transform runs its Moebius pass on, in call order.

    The uint8 tier is recorded where it starts, in _certified_moebius, and the
    float64 tier where it runs the _moebius step through _butterfly.
    """
    dtypes = []
    certified_moebius = pbf._certified_moebius

    def recording_uint8(table, m, top):
        dtypes.append(np.dtype(np.uint8))
        return certified_moebius(table, m, top)

    def recording(v, m, step):
        if step is pbf._moebius:
            dtypes.append(v.dtype)
        return _butterfly(v, m, step)

    monkeypatch.setattr(pbf, "_certified_moebius", recording_uint8)
    monkeypatch.setattr(pbf, "_butterfly", recording)
    yield dtypes


def _zeta(a, m):
    """f(g) = sum_{T <= g} a_T, exactly, in int64."""
    f = np.array(a, dtype=np.int64)
    for e in range(m):
        w = f.reshape(-1, 2, 1 << e)
        w[:, 1] += w[:, 0]
    return f


def _tiers(a, f):
    """The Moebius passes an integer table takes, from its exact Moebius coefficients.

    A table with max|f| < 256 runs the uint8 pass, and the float64 one only
    when the residues do not certify, which is when sum_T |a_T| + max|f| >= 256.
    """
    top = int(np.abs(np.asarray(f, dtype=np.int64)).max())
    if top >= 256:
        return [np.float64]
    return [np.uint8] if int(np.abs(np.asarray(a, dtype=np.int64)).sum()) + top < 256 else [np.uint8, np.float64]


def test_transform_runs_the_moebius_pass_in_uint8_only_when_its_residues_certify(monkeypatch):
    m, top = 3, 1 << 28  # max|f| 2^m = 2^31: once past the int32 range, now far past the uint8 tier
    # signs (-1)^|g| drive the top Moebius coefficient to -2^m max|f|: a_T = f(0) (-2)^|T|
    signs = 1 - 2 * (popcount_array(m).astype(np.int64) & 1)
    # sum_T |a_T| + max|f| = 28 max|f|: 9 certifies (252), 10 does not (280)
    certified, uncertified, wide = [np.uint8], [np.uint8, np.float64], [np.float64]
    with _moebius_tiers(monkeypatch) as dtypes:
        for big, tiers in ((9, certified), (10, uncertified), (top - 1, wide), (top, wide)):
            for table in (big * signs, -big * signs):  # max|f| from the max, then from the min
                dtypes.clear()
                got = _transform_bits(table, m, 0.5)
                assert dtypes == tiers == _tiers(big * (-2) ** popcount_array(m).astype(np.int64), table)
                assert got == _transform_bits(table.astype(np.float64), m, 0.5)
                # f = f(0) prod_e (1 - 2 x_e) = f(0) (-1)^m chi_[m] at p = 1/2
                assert fourier_transform(table, SimpleNamespace(size=m), 0.5).coeffs == {frozenset(range(m)): -table[0]}
        lowest = np.full(1 << m, np.iinfo(np.int64).min)  # -int64 min is past int64: never abs() it
        want = _transform_bits(lowest.astype(np.float64), m, 0.5)
        dtypes.clear()
        assert _transform_bits(lowest, m, 0.5) == want
        assert dtypes == wide
        for table, tiers in (
            # 128 x_e: its residue reads -128, and sum |s| + max|f| = 256 must not certify
            ([0, 128], uncertified),
            ([0, -128], uncertified),  # a_T = -128 is the residue itself, still at 256
            ([64, -64], uncertified),  # a = (64, -128): 256 again
            ([64, -63], certified),  # a = (64, -127): sum |a| + max|f| = 255 certifies
            ([-64, 63], certified),
            ([0, 127], certified),
            ([255, 255], uncertified),  # max|f| = 255 alone fills the bound
            ([0, 256], wide),  # max|f| past the uint8 tier
        ):
            table = np.array(table, dtype=np.int64)
            assert tiers == _tiers([table[0], table[1] - table[0]], table)
            for p in (0.5, 0.3):
                want = _transform_bits(table.astype(np.float64), 1, p)
                dtypes.clear()
                assert _transform_bits(table, 1, p) == want, table
                assert dtypes == tiers
        # tables shorter than one 8-byte word, negative int64 and bool tables
        rng = np.random.default_rng(29)
        for m in range(4):
            for table in (
                rng.integers(-3, 4, size=1 << m),
                -rng.integers(0, 200, size=1 << m),
                rng.integers(0, 2, size=1 << m).astype(np.bool_),
                np.zeros(1 << m, dtype=np.int64),
            ):
                a = np.asarray(table, dtype=np.int64).copy()  # the exact a_T
                for e in range(m):
                    a.reshape(-1, 2, 1 << e)[:, 1] -= a.reshape(-1, 2, 1 << e)[:, 0]
                for p in (0.5, 0.37):
                    want = _transform_bits(table.astype(np.float64), m, p)
                    dtypes.clear()
                    assert _transform_bits(table, m, p) == want
                    assert dtypes == _tiers(a, table), (m, table)
                # at p = 1/2 integer coefficients are exact, so the table comes back
                f = fourier_transform(table, SimpleNamespace(size=m), 0.5)
                assert f.table().tolist() == table.astype(np.float64).tolist()


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(0, 10),
    terms=st.lists(st.tuples(st.integers(0, 2**10 - 1), st.integers(-130, 130)), max_size=12),
    dtype=st.sampled_from([np.int64, np.int16, np.float64]),
)
def test_transform_of_a_small_integer_table_keeps_the_float64_bits(m, terms, dtype):
    # few small a_T, so the uint8 tier's certificate holds in some cases and fails in others
    a = np.zeros(1 << m, dtype=np.int64)
    for mask, c in terms:
        a[mask & ((1 << m) - 1)] += c
    table = _zeta(a, m)
    tiers = _tiers(a, table) if dtype != np.float64 else [np.float64]
    with pytest.MonkeyPatch.context() as monkeypatch, _moebius_tiers(monkeypatch) as dtypes:
        for p in (0.5, 0.3):
            dtypes.clear()
            got = _transform_bits(table.astype(dtype), m, p)
            assert dtypes == tiers
            dtypes.clear()
            assert got == _transform_bits(table.astype(np.float64), m, p)


def test_transform_of_the_n7_counts_traces_at_most_2_5_mib():
    # the Moebius pass runs on a one-byte copy of the 2^21 counts (2 MiB): the
    # high edges in place, the low edges on a transposed copy of the nonzero
    # rows only (21 rows of 2 KiB at n = 7, r = 3), with no rotation buffers
    import tracemalloc

    table = counts_over_all_graphs(7, 3)
    fourier_transform(table, EdgeGround(7), 0.5)
    tracemalloc.start()
    try:
        f = fourier_transform(table, EdgeGround(7), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f._coeffs) == 162
    assert peak <= 2.5 * 2**20, peak


def test_transform_leaves_the_callers_table_as_it_was():
    for table, m in (
        (counts_over_all_graphs(7, 3), 21),  # one-byte copy, sparse branch
        (np.random.default_rng(3).random(1 << 10), 10),  # float64 copy, dense branch
        (np.arange(1 << 10, dtype=np.int32), 10),  # an int32 table past max|f| = 255: a float64 copy
    ):
        before = table.copy()
        fourier_transform(table, SimpleNamespace(size=m), 0.37)
        assert table.dtype == before.dtype and np.array_equal(table, before)


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


def test_popcount_array_is_bitwise_count_up_to_the_cap():
    for m in range(pbf.TABLE_EDGE_CAP + 1):
        pops = popcount_array(m)
        assert pops.dtype == np.uint8
        assert np.array_equal(pops, np.bitwise_count(np.arange(1 << m))), m


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
        _butterfly(v, m, lambda v0, v1: pairs.extend(zip(v0.ravel().tolist(), v1.ravel().tolist())))
        assert sorted(pairs) == want
        assert np.array_equal(v, np.arange(1 << m))


@contextmanager
def _bufsize(size):
    """numpy's ufunc buffer at ``size`` entries inside the with block; None keeps it as it is."""
    old = np.getbufsize()
    try:
        if size is not None:
            np.setbufsize(size)
        yield
    finally:
        np.setbufsize(old)


SMALL_BUFSIZES = (16, 64)  # run floors of 2^3 and 2^5 entries: an m = 8 table takes several rotations


@pytest.mark.parametrize("bufsize", SMALL_BUFSIZES)
@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_butterfly_pairs_every_entry_with_its_edge_flip_under_a_small_bufsize(monkeypatch, dtype, bufsize):
    with _bufsize(bufsize):
        test_butterfly_pairs_every_entry_with_its_edge_flip(monkeypatch, dtype)


def _contiguous_run(a):
    """Entries in each contiguous run of an array view: its trailing dims that are dense."""
    run = 1
    for size, stride in zip(a.shape[::-1], a.strides[::-1]):
        if size != 1 and stride != run * a.itemsize:
            break
        run *= size
    return run


@pytest.mark.parametrize("bufsize", (None,) + SMALL_BUFSIZES)
@pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.float64])
def test_every_butterfly_pass_runs_at_or_above_the_buffer_floor(dtype, bufsize):
    # numpy copies an operand through its ufunc buffer when its runs are shorter
    # than half the buffer; every pass is to run on the whole half-table or longer
    with _bufsize(bufsize):
        floor = np.getbufsize() // 2
        for m in (0, 1, 2, 5, 8, 12, 13, 14, 17, 19, 21):
            runs, pairs = [], []

            def step(v0, v1):
                runs.extend((_contiguous_run(v0), _contiguous_run(v1)))
                pairs.append(v0.size)

            _butterfly(np.zeros(1 << m, dtype=dtype), m, step)
            assert sum(pairs) == m << max(m - 1, 0)  # each edge pairs every entry once
            assert min(runs, default=floor) >= min(floor, 1 << max(m - 1, 0)), (m, min(runs))


def test_butterfly_peak_is_its_buffers_and_one_temporary_per_piece():
    import tracemalloc

    # at m = 21 in float64, numpy's default buffer (R = 12): two rotation buffers, one
    # of them also the strip of 2^(21 - 16 + 12) entries, the other a 2^16-entry block,
    # 1.5 MiB in all; a temporary of half a strip adds 0.5 MiB
    m = 21

    def halving(v0, v1):  # needs the old v1 after writing it: a temporary of half a piece
        tmp = v1 * 0.5
        v1 -= v0
        v0 += tmp

    # the measured peaks were 1,575,632 and 2,165,328 bytes
    for step, bound in ((pbf._moebius, (3 << 19) + (16 << 10)), (halving, 17 << 17)):
        v = np.arange(1 << m, dtype=np.float64)
        tracemalloc.start()
        try:
            _butterfly(v, m, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (step.__name__, peak)


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
# Worst error of a transform coefficient, relative to the largest one: the
# Moebius pass and superset sum round in another order than the fused step.
TRANSFORM_RTOL = 1e-13


def _moebius_step(v0, v1):
    v1 -= v0


def _weighted_step(p):
    def step(v0, v1):
        v0 += p * v1

    return step


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
    # the Moebius step of _butterfly alone on an int32 table (the transform copies an integer
    # table that does not certify to float64), and on a float64 one, the transform's float64 tier
    for dtype in (np.int32, np.float64):
        ints = np.rint(table * 1000).astype(dtype)
        got = _butterfly(ints.copy(), m, _moebius_step)
        assert np.array_equal(got, _per_edge_butterfly(ints.copy(), m, lambda v0, v1: (v0, v1 - v0)))
    moebius = _butterfly(table.copy(), m, _moebius_step)
    assert np.array_equal(
        moebius.view(np.uint64),
        _per_edge_butterfly(table.copy(), m, lambda v0, v1: (v0, v1 - v0)).view(np.uint64),
    )
    for p in (0.5, 0.3, 0.37):
        # its dense weighted superset sum, v0 += p v1
        got = _butterfly(moebius.copy(), m, _weighted_step(p))
        ref = _per_edge_butterfly(moebius.copy(), m, lambda v0, v1: (v0 + p * v1, v1))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        # the whole transform, against the former fused per-edge step
        root = math.sqrt(p * (1.0 - p))
        ref = _per_edge_butterfly(table.copy(), m, lambda v0, v1: ((1.0 - p) * v0 + p * v1, root * (v1 - v0)))
        nz = np.nonzero(np.abs(ref) > PRUNE_TOL)[0]
        got = fourier_transform(table, ground, p).coeffs
        assert list(got) == [frozenset(i for i in range(m) if g >> i & 1) for g in nz.tolist()]
        np.testing.assert_allclose(list(got.values()), ref[nz], rtol=0.0, atol=TRANSFORM_RTOL * np.abs(ref).max())

        f = PBFunction(ground, p, {S: rng.normal() for S in keys})
        c0, c1 = chi_value(p, 0), chi_value(p, 1)
        ref = np.zeros(1 << m)
        for S, c in f.coeffs.items():
            ref[sum(1 << e for e in S)] = c
        _per_edge_butterfly(ref, m, lambda v0, v1: (v0 + c0 * v1, v0 + c1 * v1))
        assert np.array_equal(f.table().view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("bufsize", SMALL_BUFSIZES)
@pytest.mark.parametrize("m", [0, 1, 3, 8, 10, 13])
def test_blocked_butterfly_keeps_the_bits_under_a_small_bufsize(m, bufsize):
    with _bufsize(bufsize):
        test_blocked_butterfly_keeps_the_bits_of_the_per_edge_loop(m)


def _byte_moebius(table, m, top):
    """The uint8 tier by a plain per-edge loop: (masks, s_T) of the nonzero residues, or None."""
    v = np.asarray(table).astype(np.uint8)  # f mod 256
    for e in range(m):
        w = v.reshape(-1, 2, 1 << e)
        w[:, 1] -= w[:, 0]
    masks = np.flatnonzero(v)
    s = v[masks].view(np.int8).astype(np.int64)
    return (masks, s) if int(np.abs(s).sum()) + top < 256 else None


def _assert_row_sparse_moebius_matches(table, m):
    table = np.asarray(table)
    top = int(np.abs(table.astype(np.int64)).max())
    got, want = pbf._certified_moebius(table, m, top), _byte_moebius(table, m, top)
    assert (got is None) == (want is None), (m, top)
    if want is not None:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()
    return got


def test_row_sparse_moebius_matches_the_per_edge_byte_loop_on_every_clique_table():
    for n in range(3, 8):
        for r in range(3, n + 1):
            table = counts_over_all_graphs(n, r)
            assert _assert_row_sparse_moebius_matches(table, n * (n - 1) // 2) is not None, (n, r)


def test_row_sparse_moebius_matches_the_per_edge_byte_loop_on_small_tables():
    lo = pbf._run_floor() - 1  # rows of 2^lo bytes
    rng = np.random.default_rng(31)
    for m in sorted(set(range(4)) | {lo - 1, lo, lo + 1}):
        for table in (
            rng.integers(-3, 4, size=1 << m),
            -rng.integers(0, 200, size=1 << m),
            rng.integers(0, 2, size=1 << m).astype(np.bool_),
            rng.integers(0, 256, size=1 << m).astype(np.uint8),
            np.zeros(1 << m, dtype=np.int64),
        ):
            _assert_row_sparse_moebius_matches(table, m)


def _one_residue_per_row(lo, rows, c):
    """a_T = 1 at masks j << lo for j = 1..rows and a_0 = -c, and its table, at m = lo + 8.

    Each a_T is alone in its row of 2^lo entries.  f runs from -c to rows - c.
    """
    m = lo + 8
    a = np.zeros(1 << m, dtype=np.int64)
    a[np.arange(1, rows + 1) << lo] = 1
    a[0] = -c
    return a, _zeta(a, m), m


@pytest.mark.parametrize("bufsize", (None,) + SMALL_BUFSIZES)
def test_row_sparse_moebius_returns_none_once_its_rows_and_max_f_reach_256(bufsize):
    with _bufsize(bufsize):
        lo = pbf._run_floor() - 1
        for rows, c, certifies in (
            (127, 0, True),  # 127 nonzero rows + max|f| 127 = 254, and sum |a| + max|f| = 254
            (126, 1, True),  # 127 rows (row 0 holds -1) + max|f| 125 = 252 = sum |a| + max|f|
            (128, 0, False),  # 128 + 128 = 256: the early exit
            (169, 85, False),  # 170 + 85 = 255 passes it, and sum |a| + max|f| = 339 does not certify
            (170, 85, False),  # 171 + 85 = 256
        ):
            a, table, m = _one_residue_per_row(lo, rows, c)
            top = int(np.abs(table).max())
            nonzero_rows = np.count_nonzero(np.abs(a).reshape(-1, 1 << lo).sum(axis=1))
            assert top == max(c, rows - c) and nonzero_rows == rows + (c > 0)
            got = _assert_row_sparse_moebius_matches(table, m)
            assert (got is not None) == certifies
            if certifies:
                assert got[0].tolist() == np.flatnonzero(a).tolist() and got[1].tolist() == a[a != 0].tolist()


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 16),
    terms=st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(-40, 40)), max_size=10),
)
def test_row_sparse_moebius_matches_the_per_edge_byte_loop_on_sparse_tables(m, terms):
    # few a_T, so few nonzero rows, and tables on both sides of the certificate
    a = np.zeros(1 << m, dtype=np.int64)
    for mask, c in terms:
        a[mask & ((1 << m) - 1)] += c
    _assert_row_sparse_moebius_matches(_zeta(a, m), m)


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
    "fourier_transform(counts(7,3),0.3)": "0f1853fc87ac79ac",
    "fourier_transform(counts(7,3),0.37)": "68c3ef949d4f38cf",
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
