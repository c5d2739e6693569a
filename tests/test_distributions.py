import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquellt import (
    CliqueSpec,
    DomainError,
    EmpiricalDistribution,
    LatticeMismatchError,
    LatticeSpec,
    discrete_gaussian,
    exact_distribution,
    l1_distance,
    lattice_inversion,
    linf_distance,
)
from cliquellt import distributions
from cliquellt.distributions import CHF_BLOCK, chf_sum


def test_lattice_basics():
    lat = LatticeSpec(0.5, 0.25)
    assert lat.contains(0.75)
    assert not lat.contains(0.8)
    assert lat.point(lat.index(0.75 + 1e-12)) == pytest.approx(0.75)
    assert lat.point(2) == 1.0
    assert lat.compatible(LatticeSpec(0.25, 0.25))
    assert not lat.compatible(LatticeSpec(0.5, 0.5))
    for b, h in ((0.0, 0.0), (0.0, math.nan), (0.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            LatticeSpec(b, h)


def test_distribution_moments_and_prob():
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 0.25, 1.0: 0.5, 2.0: 0.25})
    assert d.total() == pytest.approx(1.0)
    assert d.mean() == pytest.approx(1.0)
    assert d.variance() == pytest.approx(0.5)
    assert d.prob(1.0) == 0.5
    assert d.prob(0.5) == 0.0
    with pytest.raises(TypeError):
        d.mass[1.0] = 0.5  # a read-only view of the arrays
    for bad in (math.nan, math.inf, -0.25):
        with pytest.raises(DomainError):
            EmpiricalDistribution(lat, {0.0: bad})
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_indices(lat, [0, 1], [0.5, bad])


def test_distribution_chf_properties():
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 0.3, 1.0: 0.7})
    assert d.chf(0.0) == pytest.approx(d.total())
    for t in (0.3, 1.7):
        assert d.chf(-t) == pytest.approx(d.chf(t).conjugate())
        assert abs(d.chf(t)) <= 1.0 + 1e-12


def test_discrete_gaussian_mass_and_symmetry():
    lat = LatticeSpec(0.0, 1.0)
    for sigma in (10.0, 25.0):
        g = discrete_gaussian(lat, 0.0, sigma)
        assert abs(g.total() - 1.0) < 1e-6  # h/sigma <= 0.1
        for k in (1, 3, 7):
            assert g.prob(float(k)) == pytest.approx(g.prob(float(-k)), rel=1e-12)
    # not renormalized: coarse lattice total deviates visibly from 1
    coarse = discrete_gaussian(LatticeSpec(0.5, 1.0), 0.0, 0.3)
    assert abs(coarse.total() - 1.0) > 1e-4
    bad = ((math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, math.inf), (0.0, 0.0))
    huge = ((0.0, 1e300), (1e300, 1.0), (0.0, 1e12))  # raised ValueError, OverflowError, MemoryError
    for mu, sigma in bad + huge:
        with pytest.raises(DomainError):
            discrete_gaussian(lat, mu, sigma)


def test_discrete_gaussian_matches_density():
    lat = LatticeSpec(0.0, 1.0)
    g = discrete_gaussian(lat, 2.0, 40.0)
    x = 10.0
    expect = math.exp(-((x - 2.0) ** 2) / (2 * 40.0**2)) / (math.sqrt(2 * math.pi) * 40.0)
    assert g.prob(x) == pytest.approx(expect, rel=1e-12)


def test_distances():
    lat = LatticeSpec(0.0, 1.0)
    d = EmpiricalDistribution(lat, {0.0: 1.0})
    e = EmpiricalDistribution(lat, {1.0: 1.0})
    assert linf_distance(d, d) == 0.0
    assert l1_distance(d, d) == 0.0
    assert linf_distance(d, e) == 1.0
    assert l1_distance(d, e) == 2.0
    with pytest.raises(LatticeMismatchError):
        linf_distance(d, EmpiricalDistribution(LatticeSpec(0.5, 1.0), {0.5: 1.0}))


def test_inversion_point_mass():
    c = 3.0
    lat = LatticeSpec(0.0, 1.0)
    chf = lambda t: np.exp(1j * np.asarray(t) * c)
    assert lattice_inversion(chf, lat, c) == pytest.approx(1.0, abs=1e-8)
    assert lattice_inversion(chf, lat, c + 1) == pytest.approx(0.0, abs=1e-8)
    assert lattice_inversion(chf, lat, c - 1) == pytest.approx(0.0, abs=1e-8)


def test_inversion_bernoulli():
    p = 0.3
    lat = LatticeSpec(0.0, 1.0)
    chf = lambda t: (1 - p) + p * np.exp(1j * np.asarray(t))
    assert lattice_inversion(chf, lat, 0.0) == pytest.approx(1 - p, abs=1e-8)
    assert lattice_inversion(chf, lat, 1.0) == pytest.approx(p, abs=1e-8)
    assert lattice_inversion(chf, lat, 2.0) == pytest.approx(0.0, abs=1e-8)


def test_inversion_exact_triangle_law():
    spec = CliqueSpec(n=4, r=3, p=0.5)
    dist = exact_distribution(spec)
    lat = dist.lattice
    hint = max(abs(x) for x in dist.mass)
    for x in dist.mass:
        got = lattice_inversion(dist.chf, lat, x, freq_hint=hint)
        assert got == pytest.approx(dist.mass[x], abs=1e-8)


def test_inversion_evaluates_each_t_once():
    # a doubling adds the midpoints of the grid before it and evaluates nothing twice
    spec = CliqueSpec(n=5, r=3, p=0.3)
    dist = exact_distribution(spec)
    hint = max(abs(x) for x in dist.mass)
    for x, m in dist.mass.items():
        seen = []

        def spy(t):
            seen.extend(np.asarray(t).tolist())
            return dist.chf(t)

        assert lattice_inversion(spy, dist.lattice, x, freq_hint=hint) == pytest.approx(m, abs=1e-15)
        assert len(set(seen)) == len(seen)


def test_inversion_off_lattice_rejected():
    lat = LatticeSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        lattice_inversion(lambda t: 1.0 + 0j, lat, 0.5)


def test_sparse_indices_stay_sparse():
    d = EmpiricalDistribution(LatticeSpec(0.0, 1.0), {0.0: 0.5, 1e12: 0.5})
    assert d.k.tolist() == [0, 10**12]
    assert d.mean() == 5e11


def test_offset_lattices_align():
    # regression: the same 20 masses on two compatible lattices with different
    # origins were compared by float key and did not line up
    masses = {0.1 + 0.3 * k: 0.1 for k in range(20)}
    d1 = EmpiricalDistribution(LatticeSpec(0.1, 0.3), masses)
    d2 = EmpiricalDistribution(LatticeSpec(0.4, 0.3), masses)
    assert linf_distance(d1, d2) == 0.0
    assert l1_distance(d1, d2) == 0.0
    from cliquellt.distributions import _mass_difference

    assert _mass_difference(d1, d2).size == 20


lattices = st.builds(LatticeSpec, b=st.floats(-5.0, 5.0), h=st.floats(0.1, 3.0))
laws = st.dictionaries(st.integers(-100, 100), st.floats(0.0, 1.0), min_size=1, max_size=30)


def _on(lattice, law):
    return EmpiricalDistribution.from_indices(lattice, list(law), list(law.values()))


@settings(max_examples=100)
@given(lat=lattices, law=laws, other=laws, j=st.integers(-50, 50))
def test_distances_invariant_under_offset_relabelling(lat, law, other, j):
    d = _on(lat, law)
    # the same law written on the origin b + j*h, with every index moved by -j
    moved = EmpiricalDistribution.from_indices(LatticeSpec(lat.b + j * lat.h, lat.h), d.k - j, d.masses)
    e = _on(lat, other)
    assert linf_distance(d, moved) == 0.0
    assert l1_distance(d, moved) == 0.0
    assert linf_distance(moved, e) == linf_distance(d, e)
    assert l1_distance(moved, e) == l1_distance(d, e)
    assert l1_distance(e, moved) == l1_distance(e, d)
    # on one lattice, both agree with the sum over the union of float keys
    diffs = [abs(d.mass.get(x, 0.0) - e.mass.get(x, 0.0)) for x in set(d.mass) | set(e.mass)]
    assert linf_distance(d, e) == max(diffs)
    assert l1_distance(d, e) == pytest.approx(math.fsum(diffs), rel=1e-15, abs=0.0)


@settings(max_examples=100)
@given(
    lat=lattices,
    entries=st.lists(st.tuples(st.integers(-100, 100), st.floats(0.0, 1.0)), min_size=1, max_size=40),
)
def test_mapping_constructor_merges_keys_on_one_point(lat, entries):
    # entry i sits i * 1e-11 steps off its point: distinct keys, one lattice point
    mass = {lat.point(k) + i * 1e-11 * lat.h: m for i, (k, m) in enumerate(entries)}
    expect: dict[int, float] = {}
    for k, m in entries:
        expect[k] = expect.get(k, 0.0) + m
    d = EmpiricalDistribution(lat, mass)
    assert d.k.tolist() == sorted(expect)
    assert d.masses.tolist() == pytest.approx([expect[k] for k in sorted(expect)])


@settings(max_examples=60)
@given(lat=lattices, law=laws, ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
def test_chf_on_an_array_matches_scalar_chf(lat, law, ts):
    d = _on(lat, law)
    got = d.chf(np.array(ts))
    assert got.shape == (len(ts),) and got.dtype == np.complex128
    for t, value in zip(ts, got):
        scalar = d.chf(t)
        assert isinstance(scalar, complex)
        assert abs(value - scalar) <= 1e-12 * max(1.0, d.total())
    assert d.chf(np.array(ts).reshape(-1, 1)).shape == (len(ts), 1)


def test_chf_blocks_agree_with_loop_reference():
    d = exact_distribution(CliqueSpec(n=6, r=3, p=0.3))
    ts = np.linspace(-math.pi, math.pi, 5001)  # 16 support points: blocks of 4096 t
    got = d.chf(ts)
    for i in (0, 1, 4095, 4096, 4097, 5000):
        t = float(ts[i])
        ref = sum(m * complex(math.cos(t * x), math.sin(t * x)) for x, m in d.mass.items())
        assert abs(got[i] - ref) < 1e-13


@pytest.mark.parametrize("block", [1, 7, 64, CHF_BLOCK])
def test_chf_sum_is_the_same_for_any_block(monkeypatch, block):
    rng = np.random.default_rng(block)
    x, w, ts = rng.normal(size=20) * 5, rng.random(20), np.linspace(-3.0, 3.0, 9)
    ref = [math.fsum(w * np.cos(t * x)) + 1j * math.fsum(w * np.sin(t * x)) for t in ts]
    monkeypatch.setattr(distributions, "CHF_BLOCK", block)
    assert np.abs(chf_sum(ts, x, w) - ref).max() < 1e-14
    assert abs(chf_sum(ts[3], x, w) - ref[3]) < 1e-14


@settings(max_examples=100)
@given(lat=lattices, k=st.integers(-10**6, 10**6), frac=st.floats(0.01, 0.99))
def test_index_round_trips_and_rejects_off_lattice(lat, k, frac):
    assert lat.index(lat.point(k)) == k
    assert lat.index(np.array([lat.point(k), lat.point(k + 1)])).tolist() == [k, k + 1]
    with pytest.raises(DomainError):
        lat.index(lat.point(k + frac))
    with pytest.raises(DomainError):
        lat.index(np.array([lat.point(k), lat.point(k + frac)]))


def test_index_rejects_non_finite_and_huge():
    lat = LatticeSpec(0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf, 1e300):
        with pytest.raises(DomainError):
            lat.index(bad)
